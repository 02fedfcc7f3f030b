"""Differential operators with polynomial coefficients, in normal form.

A DiffOp stores the total symbol of a normally ordered operator: the exponent
tuple (x_1..x_n, s, xi_1..xi_n) stands for x^alpha s^k d^beta with all
coefficients on the left.  The product follows the Leibniz closed formula

    (PQ)(x, xi) = sum_nu (1/nu!) (d_xi^nu P)(x, xi) (d_x^nu Q)(x, xi)

summed over multi-indices nu in the x-block; s is central.  The symbol map is
a positional bijection between d^beta and xi^beta, not a ring map.

op_mul makes one pass over the pairs of terms and collects their Leibniz
terms once.  Most pairs have no d_i in the left term meeting an x_i in the
right one, and give only their plain product; a pair whose d's and x's meet
in one index walks that index's binomial factors by an int recurrence, and
only a pair that meets in several takes the general multi-index sum.

The weight e gives 0 to each x, 1 to s and to each xi.  Initial parts with
respect to e drive the operator division layer, and they multiply
commutatively: the top e-part of a product is the product of the top e-parts.
"""

import itertools
import math
from dataclasses import dataclass
from operator import add

from .errors import InputError, ZeroLeadingTermError
from .sympoly import SymbolPoly, accumulate


def op_mul(a, b):
    """Normally ordered product of two operators given by their symbols.

    One pass over the term pairs pushes every Leibniz term, uncollected, and
    sympoly.accumulate collects them once.  For a term x^alpha s^k d^beta of
    a and a term x^gamma ... of b, nu runs over the multi-indices nu_i <=
    min(beta_i, gamma_i), and nu = 0, the plain product of the two terms,
    goes first.  A pair with no overlap (no i with beta_i, gamma_i both
    nonzero) has no other term.  A pair that overlaps in one index i walks
    nu_i = k = 1..min(beta_i, gamma_i) with the int factor
    f_k = comb(beta_i, k) perm(gamma_i, k) = f_(k-1) (beta_i - k + 1)
    (gamma_i - k + 1) / k, an exact division of ints; a coefficient is only
    ever multiplied, since // would floor a Fraction.  A pair that overlaps
    in more indices takes the general sum.

    For a HomogOp left factor the last slot is a central homogenizing
    variable h and every commutator picks up h^2, so homogeneous operators
    have homogeneous products.
    """
    if not a.terms or not b.terms:
        return a.__class__.zero()
    length = len(next(iter(a.terms)))
    if len(next(iter(b.terms))) != length:
        raise InputError(f"arity mismatch: {length} vs {b.arity}")
    n = (length - 1) // 2
    h = 2 if isinstance(a, HomogOp) else 0
    items = []
    push = items.append
    b_items = b.terms.items()
    for ea, ca in a.terms.items():
        # the base slots i where a's term carries a d_i
        dirs = [i for i in range(n) if ea[n + 1 + i]]
        for eb, cb in b_items:
            cab = ca * cb
            base = tuple(map(add, ea, eb))
            push((base, cab))
            # the overlap: the slots i of dirs where b's term carries x_i
            if len(dirs) == 1:
                hits = dirs if eb[dirs[0]] else ()
            else:
                hits = [i for i in dirs if eb[i]] if dirs else ()
            if not hits:
                continue
            if len(hits) == 1:
                i = hits[0]
                beta, gamma = ea[n + 1 + i], eb[i]
                exp = list(base)
                f = 1
                for k in range(1, min(beta, gamma) + 1):
                    f = f * (beta - k + 1) * (gamma - k + 1) // k
                    exp[i] -= 1
                    exp[n + 1 + i] -= 1
                    exp[-1] += h
                    push((tuple(exp), cab * f))
                continue
            ranges = (range(min(ea[n + 1 + i], eb[i]) + 1) for i in hits)
            for nu in itertools.product(*ranges):
                if not any(nu):
                    continue
                factor = 1
                exp = list(base)
                for i, k in zip(hits, nu):
                    if k:
                        factor *= math.comb(ea[n + 1 + i], k) * math.perm(eb[i], k)
                        exp[i] -= k
                        exp[n + 1 + i] -= k
                exp[-1] += h * sum(nu)
                push((tuple(exp), cab * factor))
    return a.__class__._raw(accumulate({}, items))


class DiffOp(SymbolPoly):
    """Normally ordered differential operator, stored as its total symbol."""

    __slots__ = ()

    def __mul__(self, other):
        return op_mul(self, other)


class HomogOp(DiffOp):
    """Operator in the degree-homogenized algebra; op_mul reads the type."""

    __slots__ = ()


def from_symbol(poly):
    """Positional bijection commutative symbol -> operator."""
    return DiffOp._raw(dict(poly.terms))


def e_weight(exp):
    """Weight of an exponent under e = (0..0 | 1 | 1..1)."""
    n = (len(exp) - 1) // 2
    return exp[n] + sum(exp[n + 1:])


def ord_e(op):
    """Largest e-weight of any term; the operator analogue of order."""
    if not op.terms:
        raise ZeroLeadingTermError("e-order of zero is undefined")
    return max(e_weight(e) for e in op.terms)


def in_e(op):
    """Initial part: the terms of maximal e-weight, as a commutative symbol."""
    return e_part(op, ord_e(op))


def e_part(op, k, bound=math.inf):
    """Symbol terms of e-weight exactly k and total degree below bound."""
    return SymbolPoly._raw(
        {e: c for e, c in op.terms.items()
         if e_weight(e) == k and sum(e) < bound})


# -- action on symbolic powers ------------------------------------------------

@dataclass(frozen=True)
class FsAction:
    """Result of applying an operator to the symbolic power of f.

    Represents (numerator / f**denom_power) times that power.  The numerator
    is a polynomial in x and s and is never reduced against f, so two equal
    actions may differ structurally; use equivalent() for semantic equality.
    """

    numerator: SymbolPoly
    denom_power: int

    def is_zero(self):
        return self.numerator.is_zero()

    def equivalent(self, other, f):
        a = self.numerator * f ** max(other.denom_power - self.denom_power, 0)
        b = other.numerator * f ** max(self.denom_power - other.denom_power, 0)
        return a == b


def base_arity(f):
    """Number n of base variables of a nonzero f in x_1..x_n only."""
    if f.is_zero():
        raise InputError("f must be nonzero")
    n = (f.arity - 1) // 2
    for exp in f.terms:
        if any(exp[n:]):
            raise InputError("f must involve only the base variables")
    return n


def apply_action(op, action, f):
    """Apply an operator to an existing action on the symbolic power of f."""
    return _apply(op, action, f, base_arity(f))


def _apply(op, action, f, n):
    if op.is_zero():
        return FsAction(SymbolPoly.zero(), 0)
    if op.arity != f.arity:
        raise InputError("operator and f arity mismatch")
    arity = f.arity
    grads = [f.partial(i) for i in range(n)]
    s_poly = SymbolPoly.variable(n, arity)

    pieces = []
    for exp, coeff in op.terms.items():
        num, k = action.numerator, action.denom_power
        for i in range(n):
            for _ in range(exp[n + 1 + i]):
                shift = s_poly - SymbolPoly.constant(k, arity)
                num = num.partial(i) * f + shift * num * grads[i]
                k += 1
        head = [0] * arity
        head[:n] = exp[:n]
        head[n] = exp[n]
        num = num * SymbolPoly.monomial(head, coeff)
        pieces.append((num, k))

    k_max = max(k for _, k in pieces)
    total = SymbolPoly.zero()
    for num, k in pieces:
        total = total + num * f ** (k_max - k)
    if total.is_zero():
        return FsAction(SymbolPoly.zero(), 0)
    return FsAction(total, k_max)


def apply_to_fs(op, f):
    """Action of an operator on the symbolic power of f, from a fresh start."""
    n = base_arity(f)
    return _apply(op, FsAction(SymbolPoly.constant(1, f.arity), 0), f, n)
