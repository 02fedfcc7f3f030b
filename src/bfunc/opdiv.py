"""Approximate division of operators with series coefficients.

Division runs level by level down the e-weight of the dividend.  At level k
the e-weight-k part of the running difference, cut off below a degree bound,
is divided as a power series by the initial parts of the divisors; the lifted
quotients are multiplied back with the full divisors and subtracted.  The
bound starts at the requested accuracy plus the sum of the per-level losses
M_k and shrinks by M_k after each level, so the final remainder agrees with
an exact division below the requested accuracy.

The running remainder and the quotients are kept as ints by the rule of
sympoly._Divisors and handed over as a sympoly._Division, which divides
them by their common scale when first read, so the result is exact over Q.
They are keyed by the packed key K of the operator order (orders.Packing),
packed once at entry and unpacked once on the way out: a term's e-weight is
K's first digit, a level moves to the series order by subtracting one
constant times its e-weight and its quotients move back by adding one, and
the products run on packed copies of the divisors, each added straight into
the running remainder through op_mul's into, as in groebner's divisions.
Everything that depends only on the divisors and the order is built once
per divisor list, from the packed copies, in an _OpDivisors.  A
GroebnerBasis keeps the one for its elements from its first division on,
for as long as the basis lives; a plain list is prepared afresh on each
call.
"""

import math

from .errors import InputError
from .orders import operator_order, series_order
from .staircase import _SeriesDivisors, series_approx_div
from .sympoly import (SymbolPoly, _Division, _Divisors, _integral, _rescale,
                      _ring, accumulate)
from .weyl import DiffOp, op_mul, ord_e


class OpDivisionResult(_Division):
    """P = sum(quotients_i * divisor_i) + remainder, exactly.

    Quotients and remainder are guaranteed only below the requested bound;
    schedule records (level, M_level, bound before the level) in run order.
    exact: no level cut a term off its e-part and every inner series
    division ended with an empty tail, so every larger bound runs the same
    steps and gives these quotients and this remainder.  The rest is
    op_approx_div's hand-over (sympoly._Division).
    """

    def __init__(self, divisors, qbars, rbar, scale, requested_bound,
                 initial_bound, schedule, exact):
        super().__init__(DiffOp, divisors, qbars, rbar, scale)
        self.requested_bound = requested_bound
        self.initial_bound = initial_bound
        self.schedule = schedule
        self.exact = exact


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
    staircase._SeriesDivisors) under the series order of the same tie.
    The order must be operator_order(n, tie) for the divisors' n, and is
    the grevlex one when none is given.  lift is the int C with
    K_op(e) - K_series(e) = e_weight(e) * C for every exponent e: the tie
    digits of the two keys agree, and above them the operator order has
    the digits e_weight and -(x-degree), the series order the one digit
    -(total degree) = -(x-degree) - e_weight.  ord_e of a copy is the first
    digit m of its largest K and its initial part is level(m) of it;
    op_approx_div splits its remainder with level() too.  A GroebnerBasis
    keeps one for its elements, which every division by the basis takes.
    """

    __slots__ = ("levels", "initials", "lift")

    def __init__(self, divisors, order=None):
        given = tuple(divisors)
        if not given:
            raise InputError("at least one divisor is required")
        arity = given[0].arity
        # a zero first divisor has no arity: the base rejects it before
        # it reads the order
        if arity is not None:
            n = (arity - 1) // 2
            if order is None:
                order = operator_order(n)
            elif order != operator_order(n, order.tie):
                raise InputError(
                    "operator division expects operator_order(n, tie) "
                    f"with n = {n}")
        super().__init__(given, order)
        packing = order.packing
        series = series_order(arity, order.tie)
        self.lift = packing.slots[n] - series.packing.slots[n]
        self.levels = [(packing.first(k), packing.degree(k))
                       for k, _, _ in self.leads]
        ring = _ring(series.packing, SymbolPoly)
        self.initials = _SeriesDivisors(
            [ring._raw(self.level(h.terms, m))
             for h, (m, _) in zip(self.copies, self.levels)], series)

    def level(self, terms, k):
        """The terms of e-weight k of the dict terms keyed by K under the
        order, keyed by their K under the series order instead."""
        lo, hi = self.order.packing.band(k)
        down = k * self.lift
        return {key - down: c for key, c in terms.items() if lo <= key < hi}


def op_approx_div(p, divisors, bound, order=None):
    """Divide operator p by the divisors up to the accuracy bound.

    Parameters
    ----------
    p : DiffOp whose exponents the order can key (MatrixOrder.key);
        InputError otherwise, as for the divisors
    divisors : nonempty sequence of nonzero DiffOp, or an _OpDivisors such
        as GroebnerBasis._divisors, used as it is when prepared under an
        equal order (under any order when order is None)
    bound : positive int, requested accuracy N
    order : operator_order(n, tie) for the session's n, InputError for any
        other order; defaults to grevlex ties
    """
    if bound < 1:
        raise InputError("accuracy bound must be at least 1")
    divisors = _OpDivisors.prepare(divisors, order)
    if p.is_zero():
        return OpDivisionResult(divisors, [{} for _ in divisors.given], {},
                                1, bound, bound, [], True)
    packing = divisors.order.packing
    initials = divisors.initials
    series = initials.order.packing
    level_ring = _ring(series, SymbolPoly)
    lift = divisors.lift

    # Pseudo-division, as in series_approx_div: the quotients (of the
    # primitive copies k_i g_i) and the remainder, private dicts keyed by
    # K under the operator order, hold scale times those of division over
    # Q, as ints.  A level whose inner quotients are not all ints is scaled
    # by the lcm of their denominators.
    scale, remainder = _integral(packing.pack_terms(p.terms)[1])
    top = packing.first(max(remainder))
    losses = _losses(divisors.levels, top)
    cur = bound + sum(losses)
    initial_bound = cur
    quotients = [{} for _ in divisors.given]
    schedule = []
    exact = True
    for k in range(top, -1, -1):
        schedule.append((k, losses[k], cur))
        # the e-weight is K's first digit, and the series order keys a term
        # of e-weight k lower by k * lift; there its first digit is minus
        # its total degree, so the cut, which keeps degrees < cur, is one
        # comparison
        level = divisors.level(remainder, k)
        cut = series.band(1 - cur)[0]
        part = {key: c for key, c in level.items() if key >= cut}
        exact = exact and len(part) == len(level)
        if part:
            # divide through cur - 1 inclusive
            inner = series_approx_div(level_ring._raw(part), initials,
                                      initials.order, cur - 1)
            exact = exact and not inner._tail
            # the inner quotient of in_e(k_i g_i) has the coefficients
            # c a / b, c in its int dict and a/b its factor over the inner
            # scale; den is the lcm of their denominators in lowest terms
            qs = [(q, f.numerator, inner._scale * f.denominator)
                  for q, f in zip(inner._qbars, initials.factors)]
            den = math.lcm(*(b // math.gcd(b, c * a)
                             for q, a, b in qs if b != 1 for c in q.values()))
            if den != 1:
                for d in quotients + [remainder]:
                    _rescale(d, den)
                scale *= den
            # a quotient term of in_e(k_i g_i), of e-weight k - ord_e(g_i),
            # is keyed (k - ord_e(g_i)) * lift higher under the operator
            # order; the products run on the packed copies
            for (q, a, b), g, acc, (m, _) in zip(
                    qs, divisors.copies, quotients, divisors.levels):
                if q:
                    a *= den
                    up = (k - m) * lift
                    ql = {key + up: c * a // b for key, c in q.items()}
                    accumulate(acc, ql.items())
                    minus = g.__class__._raw({e: -c for e, c in ql.items()})
                    op_mul(minus, g, remainder)
        cur -= losses[k]
    return OpDivisionResult(divisors, quotients, remainder, scale, bound,
                            initial_bound, schedule, exact)
