"""Sparse multivariate polynomials with exact rational coefficients.

A SymbolPoly maps exponent tuples to nonzero rationals.  Within one
computation session every exponent has the same length 2n+1 and is laid out
as (x_1..x_n, s, xi_1..xi_n); polynomials that do not involve s or the xi
block simply keep those slots at zero.  Instances are immutable: the dict of
a SymbolPoly never changes after _raw has wrapped it.

accumulate() is the one place where a term whose coefficients sum to zero is
deleted.  Arithmetic collects its terms through it, and division loops hold
their running sums as private dicts changed only through it, wrapped once
they are done.  The divisions pseudo-divide (Knuth, TAOCP vol. 2, 4.6.1) on
integer multiples of those sums: _integral and _primitive take coefficients
to ints, and _divided brings them back to rationals at exit.  Every division
divides by the primitive copies of its divisors that a _Divisors makes, and
its quotients leave through _Divisors.quotients.

The Buchberger loops, Mora division, reduce_global, the operator product
and both approximate divisions run on packed keys: a _Packed polynomial, or
a division's private dict, maps each exponent's key K under the order
(MatrixOrder.key, packed by orders.Packing) to its coefficient.  A product
of monomials is one int addition, the largest K is the leader, and
divisibility is one subtraction.  Tuples stay at the public boundary: terms
are packed once on the way in (of(), Packing.pack_terms) and unpacked once
on the way out (unpacked(), Packing.unpack_terms).
"""

import math
from operator import add

from .errors import InputError, ZeroLeadingTermError
from .rationals import Rational


def accumulate(data, items, new=None):
    """Add (exponent, nonzero coefficient) pairs into the dict data in place,
    deleting every term whose coefficients sum to zero; returns data.

    Given a list new, it appends each exponent that enters data, and a term
    data held before that cancels midway keeps its place, at 0, until the
    items are done; so data ends, order included, as adding the collected
    items would leave it."""
    get = data.get
    held = []
    for exp, coeff in items:
        acc = get(exp)
        if acc is None:
            data[exp] = coeff
            if new is not None:
                new.append(exp)
        else:
            acc += coeff
            if acc:
                data[exp] = acc
            elif new is None or exp in new:
                del data[exp]
            else:
                data[exp] = acc
                held.append(exp)
    for exp in held:
        if not data.get(exp, 1):
            del data[exp]
    return data


def _integral(terms, den=None):
    """(d, ints): the dict of the ints d*c for the coefficients c of the
    terms dict.  d defaults to the least d > 0 that makes them ints; a
    given d must be a multiple of every denominator."""
    if den is None:
        den = math.lcm(*(c.denominator for c in terms.values()))
    return den, {e: c.numerator * (den // c.denominator)
                 for e, c in terms.items()}


def _primitive(op, order):
    """Primitive integer multiple of a nonzero op: int coefficients with gcd
    1 and a positive lead; op itself when it is primitive already."""
    lead = op.leading(order)[1]
    values = op.terms.values()
    if lead > 0 and all(type(c) is int for c in values) \
            and math.gcd(*values) == 1:
        return op
    _, ints = _integral(op.terms)
    content = math.gcd(*ints.values())
    if lead < 0:
        content = -content
    return op.__class__._raw({e: c // content for e, c in ints.items()})


def _rescale(data, b):
    """Multiply every coefficient of the dict data by b in place."""
    for e in data:
        data[e] *= b


def _divided(cls, data, den, num=1):
    """The int coefficients of data times num/den, as exact rationals,
    wrapped in cls: the one exit of the pseudo-dividing loops, which carry
    an integer multiple of their rational result and divide once."""
    return cls._raw({e: Rational(c * num, den) for e, c in data.items()})


class _Packed:
    """A polynomial on packed exponents: terms maps the int K of each
    exponent under one orders.Packing to its nonzero coefficient.

    Each (packing, algebra) pair has its own subclass, a ring made by
    _ring, whose class attributes name them, so cls._raw, and with it
    _primitive, _divided and _Divisors.quotients, work on these as on a
    SymbolPoly.  leading() is the largest K and must be asked under the
    packing's order.  Like a SymbolPoly, a _Packed never changes once
    wrapped, so its lead and top total degree are kept once found.
    """

    __slots__ = ("terms", "_lead", "_top")
    packing = algebra = None
    # the ring's Leibniz constants, set by weyl._steps on its first product
    steps = None

    @classmethod
    def _raw(cls, data):
        obj = object.__new__(cls)
        obj.terms = data
        obj._lead = obj._top = None
        return obj

    @classmethod
    def zero(cls):
        return cls._raw({})

    @classmethod
    def of(cls, poly):
        """poly, a SymbolPoly of this ring's algebra, packed, with its top
        total degree kept."""
        if not poly.terms:
            return cls.zero()
        top, data = cls.packing.pack_terms(poly.terms)
        packed = cls._raw(data)
        packed._top = top
        return packed

    def unpacked(self):
        """This polynomial as a SymbolPoly of the ring's algebra."""
        return self.algebra._raw(self.packing.unpack_terms(self.terms))

    def is_zero(self):
        return not self.terms

    def leading(self, order):
        """(K, coefficient) of the largest term under order, which must be
        the packing's order.  The lead is kept with the order object that
        asked and returned as is when that same object asks again."""
        kept = self._lead
        if kept is not None and kept[0] is order:
            return kept[1]
        if not self.terms:
            raise ZeroLeadingTermError("leading term of zero is undefined")
        if order is not self.packing.order and order != self.packing.order:
            raise InputError("leading term asked under another order "
                             "than the packing's")
        key = max(self.terms)
        lead = key, self.terms[key]
        self._lead = order, lead
        return lead

    def le(self, order):
        return self.leading(order)[0]

    def max_total_degree(self):
        """Largest total degree of a term; the zero polynomial has none."""
        if self._top is None:
            self._top = max(map(self.packing.degree, self.terms))
        return self._top


def _ring(packing, algebra):
    """The _Packed subclass of algebra's polynomials under packing, made
    once and kept with the packing."""
    ring = packing.rings.get(algebra)
    if ring is None:
        ring = packing.rings[algebra] = type(
            f"Packed{algebra.__name__}", (_Packed,),
            {"__slots__": (), "packing": packing, "algebra": algebra})
    return ring


def _packed(p, order):
    """p packed under order's packing; p itself when it is packed."""
    if isinstance(p, _Packed):
        return p
    return _ring(order.packing, p.__class__).of(p)


class _Divisors:
    """Nonzero divisors g_i prepared under one order for the dividing loops.

    A loop divides by the primitive copies k_i g_i, so scaling its dividend
    by a quotient term's denominator keeps every coefficient an int.  A
    quotient q of k_i g_i is k_i q as one of g_i, and quotients() is that one
    exit; k_i is the int 1 where g_i is primitive.  The copies are packed
    under the order, each g_i once, and leads keeps the leading term of
    each, its largest K, as (K, sign*K, coefficient); a subclass reads what
    it adds for its division off their K too.  Iterating gives the g_i.
    prepare() hands back a set-up made under the same order object as it
    is.  Buchberger's loop grows one set-up of its packed elements with
    append().
    """

    __slots__ = ("given", "order", "copies", "factors", "leads")

    def __init__(self, divisors, order):
        self.given = list(divisors)
        if any(g.is_zero() for g in self.given):
            raise InputError("divisors must be nonzero")
        self.order = order
        packed = [_packed(g, order) for g in self.given]
        self.copies = [_primitive(g, order) for g in packed]
        # the copy has the terms of the divisor, each k times its own
        self.factors = [1 if h is g else
                        Rational(next(iter(h.terms.values())),
                                 next(iter(g.terms.values())))
                        for h, g in zip(self.copies, packed)]
        self.leads = []
        for h in self.copies:
            self._keep_lead(h)

    def _keep_lead(self, h):
        key = max(h.terms)
        self.leads.append((key, self.order.packing.sign * key, h.terms[key]))

    def append(self, g):
        """Add g, primitive already, as a divisor and its own copy."""
        self.given.append(g)
        self.copies.append(g)
        self.factors.append(1)
        self._keep_lead(g)

    @classmethod
    def prepare(cls, divisors, order):
        """divisors itself when it is a cls prepared under this same order
        object (`is`, not ==), or under any order when order is None;
        otherwise a new cls of them."""
        if isinstance(divisors, cls) and (order is None
                                          or order is divisors.order):
            return divisors
        return cls(divisors, order)

    def __iter__(self):
        return iter(self.given)

    def quotients(self, cls, qbars, scale):
        """The exact quotients of the given divisors, wrapped in cls, from
        the int dicts qbars of scale times those of the copies."""
        return [_divided(cls, q, scale * k.denominator, k.numerator)
                for q, k in zip(qbars, self.factors)]


class SymbolPoly:
    __slots__ = ("terms",)

    def __init__(self, terms=()):
        items = terms.items() if hasattr(terms, "items") else terms
        pairs = ((tuple(exp), Rational(coeff)) for exp, coeff in items)
        self.terms = accumulate({}, ((e, c) for e, c in pairs if c))

    @classmethod
    def _raw(cls, data):
        """Wrap an already-canonical dict without copying; nothing may change
        it afterwards. Internal."""
        obj = object.__new__(cls)
        obj.terms = data
        return obj

    @classmethod
    def zero(cls):
        return cls._raw({})

    @classmethod
    def monomial(cls, exp, coeff=1):
        coeff = Rational(coeff)
        if not coeff:
            return cls.zero()
        return cls._raw({tuple(exp): coeff})

    @classmethod
    def constant(cls, coeff, arity):
        return cls.monomial((0,) * arity, coeff)

    @classmethod
    def variable(cls, slot, arity, power=1, coeff=1):
        exp = [0] * arity
        exp[slot] = power
        return cls.monomial(exp, coeff)

    # -- basic structure ----------------------------------------------------

    def is_zero(self):
        return not self.terms

    __bool__ = lambda self: bool(self.terms)

    def __eq__(self, other):
        return isinstance(other, SymbolPoly) and self.terms == other.terms

    __hash__ = None

    def __len__(self):
        return len(self.terms)

    @property
    def arity(self):
        if not self.terms:
            return None
        return len(next(iter(self.terms)))

    def coeff(self, exp):
        return self.terms.get(tuple(exp), Rational(0))

    def exps(self):
        return set(self.terms)

    def __repr__(self):
        if not self.terms:
            return f"{self.__class__.__name__}(0)"
        body = ", ".join(f"{e}: {c}" for e, c in sorted(self.terms.items()))
        return f"{self.__class__.__name__}({{{body}}})"

    # -- arithmetic ---------------------------------------------------------

    def _check_mix(self, other):
        if not isinstance(other, SymbolPoly):
            raise InputError(f"cannot combine with {type(other).__name__}")
        a, b = self.arity, other.arity
        if a is not None and b is not None and a != b:
            raise InputError(f"arity mismatch: {a} vs {b}")

    def __add__(self, other):
        self._check_mix(other)
        return self.__class__._raw(
            accumulate(dict(self.terms), other.terms.items()))

    def __sub__(self, other):
        self._check_mix(other)
        return self + -other

    def __neg__(self):
        return self.__class__._raw({e: -c for e, c in self.terms.items()})

    def scale(self, coeff):
        coeff = Rational(coeff)
        if not coeff:
            return self.__class__.zero()
        return self.__class__._raw({e: c * coeff for e, c in self.terms.items()})

    def __mul__(self, other):
        """Commutative product. DiffOp overrides this with the operator product."""
        self._check_mix(other)
        b_items = list(other.terms.items())
        return self.__class__._raw(accumulate({}, (
            (tuple(map(add, ea, eb)), ca * cb)
            for ea, ca in self.terms.items() for eb, cb in b_items)))

    def __pow__(self, k):
        """The k-th power by repeated squaring, in O(log k) products;
        powers of one element commute, so an operator's may be grouped
        in any way."""
        if not isinstance(k, int) or k < 0:
            raise InputError("exponent must be a natural number")
        if k == 0:
            if self.arity is None:
                raise InputError("cannot raise the arity-less zero to power 0")
            return self.__class__.constant(1, self.arity)
        result, square = None, self
        while True:
            if k & 1:
                result = square if result is None else result * square
            k >>= 1
            if not k:
                return result
            square = square * square

    def partial(self, slot):
        """Formal partial derivative in the given exponent slot."""
        data = {}
        for exp, coeff in self.terms.items():
            k = exp[slot]
            if k:
                e = list(exp)
                e[slot] = k - 1
                data[tuple(e)] = coeff * k
        return self.__class__._raw(data)

    # -- degrees and leading data --------------------------------------------

    def min_total_degree(self):
        """Smallest total degree of any term; infinity for the zero polynomial."""
        if not self.terms:
            return math.inf
        return min(sum(e) for e in self.terms)

    def max_total_degree(self):
        if not self.terms:
            return -math.inf
        return max(sum(e) for e in self.terms)

    def truncate(self, bound):
        """Part of total degree strictly below bound."""
        return self.__class__._raw(
            {e: c for e, c in self.terms.items() if sum(e) < bound})

    def leading(self, order):
        """(exponent, coefficient) of the largest term under order."""
        if not self.terms:
            raise ZeroLeadingTermError("leading term of zero is undefined")
        exp = max(self.terms, key=order.key)
        return exp, self.terms[exp]

    def le(self, order):
        return self.leading(order)[0]

    def monic(self, order):
        """Scaled copy with leading coefficient 1."""
        return self.scale(Rational(1, self.leading(order)[1]))
