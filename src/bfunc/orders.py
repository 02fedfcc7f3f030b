"""Monomial orders on exponent vectors.

Exponent vectors are plain int tuples.  A session with n base variables uses
vectors of length 2n+1 laid out as (x_1..x_n, s, xi_1..xi_n), where the xi
block positionally mirrors the derivation symbols.  Orders are matrices of
integer weight rows refined by a named term order; comparison is
lexicographic on the row values with the term order breaking remaining ties,
so two exponents compare equal only when they are identical.

An order's key (MatrixOrder.key) is one int per exponent, its packed key K
(see Packing).  K adds as the exponent does and its low fields hold the
exponent itself, so the division loops keep each exponent as its K.  An
order gets the one packing of its value (_packing): equal orders share it,
and with it everything packed or made under it (sympoly._ring).
"""

import operator
import struct
from dataclasses import dataclass
from functools import cache, cached_property

from .errors import InputError


TIE_ORDERS = ("lex", "grlex", "grevlex")


@dataclass(frozen=True)
class MatrixOrder:
    """Weight-matrix monomial order with a term-order tie breaker."""

    rows: tuple
    tie: str
    arity: int

    def __post_init__(self):
        if self.tie not in TIE_ORDERS:
            raise InputError(f"unknown tie order {self.tie!r}")
        for row in self.rows:
            if len(row) != self.arity:
                raise InputError("weight row length does not match arity")

    def key(self, exp):
        """Sort key: the packed key K of exp (see Packing), an int that is
        larger exactly when exp is larger in the order.

        Defined on the exponents Packing.pack accepts: tuples of this
        order's arity with nonnegative entries and total degree at most
        packing.limit; InputError for any other."""
        return self.packing.pack(exp)

    @cached_property
    def packing(self):
        """The Packing of this order's value (_packing), shared with every
        equal order and kept on this one once asked for."""
        return _packing(self)

    def __getstate__(self):
        # the kept packing holds a struct.Struct, which does not pickle; an
        # unpickled order asks _packing again and gets the same one
        return {k: v for k, v in self.__dict__.items() if k != "packing"}


WIDTH = 16


class Packing:
    """The key K of a MatrixOrder: one int per exponent, order.key itself.

    K writes the order's comparison values as signed digits of radix 2^W,
    W = WIDTH, the most significant first: the weight-row values, then the
    tie order's digits.  Those are the exponent's entries, left to right,
    under lex; the total degree and then the entries under grlex; and the
    total degree and then the negated entries, right to left, under
    grevlex, so that a tie goes to the exponent whose rightmost differing
    entry is smaller.  Every digit is linear in the exponent, so
    K(e) = sum(e_i * slots[i]) with one precomputed int per slot, and:

    * K(a + b) = K(a) + K(b): a monomial product is one addition, and so is
      each Leibniz lowering step;
    * K orders exponents as their digit sequences compare lexicographically,
      because every digit stays inside (-2^(W-1), 2^(W-1)), so the digits
      below one that differs cannot outweigh it;
    * the tie digits end in the exponent itself (lex, grlex) or its negation
      (grevlex), so the low `arity` digits of sign*K, sign -1 under grevlex
      and 1 otherwise, are the exponent in plain W-bit fields: low(K) =
      (sign*K) & self.low.  Slot i sits at bit shifts[i].  Each field
      stays below 2^(W-1), so its top bit (guard) is free, and a divides b
      exactly when sign*(K(b) - K(a)) has no guard bit set (Monagan and
      Pearce, "Polynomial division using dynamic arrays, heaps, and packed
      exponent vectors", CASC 2007).  The total degree is low(K) modulo
      2^W - 1, where the fields sum as digits do.

    All of this holds while the total degree stays within limit, the
    largest d with d * max|row entry| < 2^(W-1): a weight row is at most
    its largest entry times the total degree, and a tie digit at most the
    total degree.  pack() checks each exponent it is given, and the
    operator product checks the sum of its operands' top degrees, so no
    key ever wraps silently.  W = 16 makes the fields struct's unsigned
    shorts and leaves limit = 32767 under the library's orders, whose row
    entries are 0 and +-1: the Buchberger and Mora runs that are known to
    grow furthest reach lead degree 118, so an exponent would have to
    outgrow that about 277-fold before InputError.
    """

    __slots__ = ("arity", "slots", "sign", "low", "guard", "field", "shifts",
                 "limit", "_fields", "_endian", "_first")

    def __init__(self, order):
        arity, width = order.arity, WIDTH
        units = [[int(i == j) for i in range(arity)] for j in range(arity)]
        digits = [list(row) for row in order.rows]
        if order.tie == "lex":
            digits += units
        elif order.tie == "grlex":
            digits += [[1] * arity] + units
        else:
            digits += [[1] * arity] + [[-v for v in u] for u in units[::-1]]
        top = len(digits) - 1
        self.arity = arity
        self.slots = tuple(
            sum(d[i] << width * (top - j) for j, d in enumerate(digits))
            for i in range(arity))
        reverse = order.tie == "grevlex"
        self.sign = -1 if reverse else 1
        self.low = (1 << width * arity) - 1
        self.field = (1 << width) - 1
        self.guard = sum(1 << width * j + width - 1 for j in range(arity))
        self.shifts = tuple(width * (i if reverse else arity - 1 - i)
                            for i in range(arity))
        big = max((abs(v) for row in order.rows for v in row), default=1)
        self.limit = ((1 << width - 1) - 1) // max(big, 1)
        self._endian = "little" if reverse else "big"
        self._first = width * top
        self._fields = struct.Struct(
            ("<" if reverse else ">") + "H" * arity)

    def pack(self, exp):
        """K(exp); InputError for an exponent of another arity, with a
        negative entry or with a total degree past limit."""
        self.check((exp,))
        return sum(map(operator.mul, exp, self.slots))

    def check(self, exps):
        """The largest total degree of the nonempty exps; InputError for an
        exponent pack() refuses."""
        if set(map(len, exps)) != {self.arity}:
            raise InputError(f"exponent arity does not match order arity "
                             f"{self.arity}")
        if min(map(min, exps)) < 0:
            raise InputError("exponent with a negative entry")
        top = max(map(sum, exps))
        if top > self.limit:
            raise InputError(f"total degree {top} does not fit the packed "
                             f"fields (at most {self.limit})")
        return top

    def pack_terms(self, terms):
        """(largest total degree, the nonempty dict terms keyed by K instead
        of exponent tuples), checked as pack() checks."""
        top = self.check(terms)
        slots = self.slots
        return top, {sum(map(operator.mul, e, slots)): c
                     for e, c in terms.items()}

    def unpack(self, key):
        """The exponent tuple whose K is key."""
        return self._fields.unpack(
            (self.sign * key & self.low).to_bytes(2 * self.arity,
                                                  self._endian))

    def unpack_terms(self, data):
        """The dict data keyed by exponent tuples instead of K."""
        unpack, sign, low = self._fields.unpack, self.sign, self.low
        size, endian = 2 * self.arity, self._endian
        return {unpack((sign * k & low).to_bytes(size, endian)): c
                for k, c in data.items()}

    def degree(self, key):
        """Total degree of the exponent whose K is key."""
        return ((self.sign * key) & self.low) % self.field

    def first(self, key):
        """The first digit of key: the value of the order's first weight
        row (its first tie digit if it has none) at the exponent of K key."""
        return (key + (1 << self._first >> 1)) >> self._first

    def band(self, v):
        """(lo, hi): the K of the exponents whose first digit is v are the
        ints lo <= K < hi, since the digits below it stay inside
        (-2^(W-1), 2^(W-1))."""
        lo = (v << self._first) - (1 << self._first >> 1)
        return lo, lo + (1 << self._first)

    def divides(self, a, b):
        """Whether the exponent of K a divides (is at most, slot by slot)
        that of K b."""
        return not (self.sign * (b - a)) & self.guard

    def join(self, a, b):
        """K of the slotwise maximum of the exponents of K a and K b."""
        return self.pack(tuple(map(max, self.unpack(a), self.unpack(b))))


# the one Packing of each order value, made on first use
_packing = cache(Packing)


def series_order(arity, tie="grevlex"):
    """Order for power-series division: lower total degree is larger.

    Not a well-order; its single weight row is all -1.
    """
    return MatrixOrder(rows=((-1,) * arity,), tie=tie, arity=arity)


def operator_order(n, tie="grevlex"):
    """Division order for operators with series coefficients.

    Compares the (s, xi)-weight first, then prefers lower x-degree, so initial
    parts with respect to the (s, xi)-weight carry the leading data.
    """
    e_row = (0,) * n + (1,) + (1,) * n
    x_row = (-1,) * n + (0,) + (0,) * n
    return MatrixOrder(rows=(e_row, x_row), tie=tie, arity=2 * n + 1)


def elimination_order(n, block, tie="grevlex"):
    """Global order on a session with n base variables eliminating `block`.

    `block` lists x-slot indices whose variables (and their xi partners) are
    eliminated: any monomial containing one outweighs every monomial free of
    them.  Total degree refines, making this a well-order.
    """
    arity = 2 * n + 1
    first = [0] * arity
    for i in block:
        first[i] = 1
        first[n + 1 + i] = 1
    return MatrixOrder(rows=(tuple(first), (1,) * arity), tie=tie, arity=arity)


def homogenized_order(n, tie="grevlex"):
    """Well-order used on degree-homogenized operators.

    Exponents carry one extra trailing slot for the homogenizing variable.
    Total degree (homogenizing slot included) comes first, then the operator
    division order on the original slots.
    """
    arity = 2 * n + 2
    e_row = (0,) * n + (1,) + (1,) * n + (0,)
    x_row = (-1,) * n + (0,) + (0,) * n + (0,)
    return MatrixOrder(rows=((1,) * arity, e_row, x_row), tie=tie, arity=arity)
