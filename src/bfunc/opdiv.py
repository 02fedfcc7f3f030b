"""Approximate division of operators with series coefficients.

Division runs level by level down the e-weight of the dividend.  At level k
the e-weight-k part of the running difference, cut off below a degree bound,
is divided as a power series by the initial parts of the divisors; the lifted
quotients are multiplied back with the full divisors and subtracted.  The
bound starts at the requested accuracy plus the sum of the per-level losses
M_k and shrinks by M_k after each level, so the final remainder agrees with
an exact division below the requested accuracy.

The running remainder and the quotients are kept as ints by the rule of
sympoly._Divisors and divided by their common scale once at exit, so the
result is exact over Q.  Everything that depends only on the divisors and
the order is built once per divisor list in an _OpDivisors.  A GroebnerBasis
keeps the one for its elements from its first division on, for as long as
the basis lives; a plain list is prepared afresh on each call.
"""

import math
from dataclasses import dataclass

from .errors import InputError
from .orders import operator_order, series_order
from .staircase import _SeriesDivisors, series_approx_div
from .sympoly import _divided, _Divisors, _integral, _rescale, accumulate
from .weyl import DiffOp, e_part, in_e, op_mul, ord_e


@dataclass(frozen=True)
class OpDivisionResult:
    """P = sum(quotients_i * divisor_i) + remainder, exactly.

    Quotients and remainder are guaranteed only below the requested bound;
    schedule records (level, M_level, bound before the level) in run order.
    exact: no level cut a term off its e-part and every inner series
    division ended with an empty tail, so every larger bound runs the same
    steps and gives these quotients and this remainder.
    """

    quotients: list
    remainder: object
    requested_bound: int
    initial_bound: int
    schedule: list
    exact: bool


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


class _OpDivisors(_Divisors):
    """op_approx_div's sympoly._Divisors: it adds the (ord_e, |LE|) pairs of
    the copies behind the accuracy schedule, and their initial parts
    in_e(k_i g_i) prepared for series_approx_div (a
    staircase._SeriesDivisors).  Without an order it takes the standard one
    for the divisors' arity.  A GroebnerBasis keeps one for its elements,
    which every division by the basis takes.
    """

    __slots__ = ("levels", "initials")

    def __init__(self, divisors, order=None):
        given = tuple(divisors)
        if not given:
            raise InputError("at least one divisor is required")
        arity = given[0].arity
        # a zero first divisor has no arity: the base rejects it before
        # it reads the order
        if order is None and arity is not None:
            order = operator_order((arity - 1) // 2)
        super().__init__(given, order)
        self.levels = [(ord_e(g), sum(g.le(order))) for g in self.copies]
        self.initials = _SeriesDivisors([in_e(g) for g in self.copies],
                                        series_order(arity, order.tie))


def op_approx_div(p, divisors, bound, order=None):
    """Divide operator p by the divisors up to the accuracy bound.

    Parameters
    ----------
    p : DiffOp whose exponents the order can key (MatrixOrder.key);
        InputError otherwise, as for the divisors
    divisors : nonempty sequence of nonzero DiffOp, or an _OpDivisors such
        as GroebnerBasis._divisors, used as it is when prepared under this
        order object (under any order when order is None)
    bound : positive int, requested accuracy N
    order : operator division order; defaults to the standard one for the
        session arity with grevlex ties
    """
    if bound < 1:
        raise InputError("accuracy bound must be at least 1")
    divisors = _OpDivisors.prepare(divisors, order)
    if p.is_zero():
        return OpDivisionResult([DiffOp.zero() for _ in divisors.given],
                                DiffOp.zero(), bound, bound, [], True)
    # the remainder keeps p's terms that no level divides as tuples, so
    # check them here as the packed products check theirs
    divisors.order.packing.check(p.terms)
    initials = divisors.initials
    top = ord_e(p)
    losses = _losses(divisors.levels, top)
    cur = bound + sum(losses)
    initial_bound = cur

    # Pseudo-division, as in series_approx_div: the quotients (of the
    # primitive copies k_i g_i) and the remainder, private dicts, hold
    # scale times those of division over Q, as ints.  A level whose inner
    # quotients are not all ints is scaled by the lcm of their denominators.
    scale, remainder = _integral(p.terms)
    quotients = [{} for _ in divisors.given]
    schedule = []
    exact = True
    for k in range(top, -1, -1):
        schedule.append((k, losses[k], cur))
        level = e_part(DiffOp._raw(remainder), k)
        part = level.truncate(cur)
        exact = exact and len(part.terms) == len(level.terms)
        if part.terms:
            # the cut keeps degrees < cur, so divide through cur - 1 inclusive
            inner = series_approx_div(part, initials, initials.order, cur - 1)
            exact = exact and not inner._tail
            # the inner quotient of in_e(k_i g_i) has the coefficients
            # c a / b, c in its int dict and a/b its factor over the inner
            # scale; den is the lcm of their denominators in lowest terms
            qs = [(q, f.numerator, inner._scale * f.denominator)
                  for q, f in zip(inner._qbars, initials.factors)]
            den = math.lcm(*(b // math.gcd(b, c * a)
                             for q, a, b in qs for c in q.values()))
            if den != 1:
                for d in quotients + [remainder]:
                    _rescale(d, den)
                scale *= den
            # the products run on the packed copies, with -ql packed
            for (q, a, b), g, acc in zip(qs, divisors.packed(), quotients):
                if q:
                    a *= den
                    ql = DiffOp._raw({e: c * a // b for e, c in q.items()})
                    accumulate(acc, ql.terms.items())
                    product = op_mul(g.__class__.of(-ql), g)
                    accumulate(remainder, g.packing.unpack_terms(
                        product.terms).items())
        cur -= losses[k]
    return OpDivisionResult(
        divisors.quotients(DiffOp, quotients, scale),
        _divided(DiffOp, remainder, scale), bound, initial_bound, schedule,
        exact)
