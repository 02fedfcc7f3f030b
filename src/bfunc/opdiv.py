"""Approximate division of operators with series coefficients.

Division runs level by level down the e-weight of the dividend.  At level k
the e-weight-k part of the running difference, cut off below a degree bound,
is divided as a power series by the initial parts of the divisors; the lifted
quotients are multiplied back with the full divisors and subtracted.  The
bound starts at the requested accuracy plus the sum of the per-level losses
M_k and shrinks by M_k after each level, so the final remainder agrees with
an exact division below the requested accuracy.

As in the series division, the running remainder and the quotients are kept
as ints, integer multiples of the exact ones, and divided by their common
scale once at exit, so the result is exact over Q.

Everything that depends only on the divisors and the order (their primitive
copies, the schedule data, the series-division set-up of their initial
parts) is built once per divisor list in an _OpDivisors.  A GroebnerBasis
keeps the one for its elements from its first division on, for as long as
the basis lives; a plain list is prepared afresh on each call.
"""

import math
from dataclasses import dataclass

from .errors import InputError
from .orders import operator_order, series_order
from .staircase import _SeriesDivisors, series_approx_div
from .sympoly import _divided, _integral, _primitives, _rescale, accumulate
from .weyl import DiffOp, e_part, in_e, op_mul, ord_e


@dataclass(frozen=True)
class OpDivisionResult:
    """P = sum(quotients_i * divisor_i) + remainder, exactly.

    Quotients and remainder are guaranteed only below the requested bound;
    schedule records (level, M_level, bound before the level) in run order.
    """

    quotients: list
    remainder: object
    requested_bound: int
    initial_bound: int
    schedule: list


def accuracy_schedule(divisors, top, order):
    """Per-level degree losses M_0..M_top for dividing at e-weight top.

    M_k maxes |LE(P_i)| + 2(k - ord_e(P_i)) over divisors with ord_e <= k;
    levels no divisor serves lose nothing.
    """
    return _losses([(ord_e(g), sum(g.le(order))) for g in divisors], top)


def _losses(levels, top):
    """accuracy_schedule from the (ord_e, |LE|) pairs of the divisors."""
    out = []
    for k in range(top + 1):
        vals = [le + 2 * (k - m) for m, le in levels if m <= k]
        out.append(max(vals) if vals else 0)
    return out


class _OpDivisors:
    """op_approx_div's set-up of one divisor list under one order.

    It holds the primitive copies k_i g_i and the factors k_i, the
    (ord_e, |LE|) pairs behind the accuracy schedule, and the initial parts
    in_e(k_i g_i) prepared for series_approx_div under the series order (a
    staircase._SeriesDivisors); iterating gives the divisors as they were
    given.  op_approx_div builds one per call from a plain list.  A
    GroebnerBasis builds one for its elements on first use, which approx_nf
    hands to every division by the basis; it lives as long as the basis.
    """

    __slots__ = ("given", "order", "divisors", "factors", "levels",
                 "initials")

    def __init__(self, divisors, order=None):
        self.given = tuple(divisors)
        if not self.given:
            raise InputError("at least one divisor is required")
        if any(g.is_zero() for g in self.given):
            raise InputError("divisors must be nonzero")
        arity = self.given[0].arity
        if order is None:
            order = operator_order((arity - 1) // 2)
        self.order = order
        self.divisors, self.factors = _primitives(list(self.given), order)
        self.levels = [(ord_e(g), sum(g.le(order))) for g in self.divisors]
        self.initials = _SeriesDivisors([in_e(g) for g in self.divisors],
                                        series_order(arity, order.tie))

    def __iter__(self):
        return iter(self.given)


def op_approx_div(p, divisors, bound, order=None):
    """Divide operator p by the divisors up to the accuracy bound.

    Parameters
    ----------
    p : DiffOp
    divisors : nonempty sequence of nonzero DiffOp, or an _OpDivisors
        such as the one a GroebnerBasis keeps for its elements, prepared
        under this same order object (or under any order when order is
        None); one prepared under another order is prepared again
    bound : positive int, requested accuracy N
    order : operator division order; defaults to the standard one for the
        session arity with grevlex ties
    """
    if bound < 1:
        raise InputError("accuracy bound must be at least 1")
    if not (isinstance(divisors, _OpDivisors)
            and (order is None or order is divisors.order)):
        divisors = _OpDivisors(divisors, order)
    if p.is_zero():
        return OpDivisionResult([DiffOp.zero() for _ in divisors.given],
                                DiffOp.zero(), bound, bound, [])
    initials = divisors.initials
    top = ord_e(p)
    losses = _losses(divisors.levels, top)
    cur = bound + sum(losses)
    initial_bound = cur

    # Pseudo-division, as in series_approx_div: the quotients (of the
    # primitive divisors k_i g_i) and the remainder hold scale times those
    # of division over Q, as ints.  A level whose inner quotients are not
    # all ints is scaled by the lcm of their denominators.
    scale, data = _integral(p.terms)
    remainder = DiffOp._raw(data)
    quotients = [{} for _ in divisors.given]
    schedule = []
    for k in range(top, -1, -1):
        schedule.append((k, losses[k], cur))
        part = e_part(remainder, k, cur)
        if part.terms:
            # the cut keeps degrees < cur, so divide through cur - 1 inclusive
            inner = series_approx_div(part, initials, initials.order, cur - 1)
            den = math.lcm(*(c.denominator for q in inner.quotients
                             for c in q.terms.values()))
            if den != 1:
                for q in quotients:
                    _rescale(q, den)
                remainder = DiffOp._raw(_integral(remainder.terms, den)[1])
                scale *= den
            for q, g, acc in zip(inner.quotients, divisors.divisors,
                                 quotients):
                if q.terms:
                    ql = DiffOp._raw(_integral(q.terms, den)[1])
                    accumulate(acc, ql.terms.items())
                    remainder = remainder - op_mul(ql, g)
        cur -= losses[k]
    return OpDivisionResult(
        [_divided(DiffOp, q, scale * f.denominator, f.numerator)
         for q, f in zip(quotients, divisors.factors)],
        _divided(DiffOp, remainder.terms, scale), bound, initial_bound,
        schedule)
