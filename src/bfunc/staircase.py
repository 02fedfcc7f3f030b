"""Power-series approximate division along a staircase of leading exponents.

The leading exponents alpha(1)..alpha(s) of the divisors partition the
exponent lattice into disjoint regions: region i holds the points dominated
componentwise by alpha(i) but by no earlier leader, and the remainder region
holds everything never dominated.  Division by leading terms is then a
term-local lookup, and the series division loop repeatedly replaces the
divided part with the correction coming from the divisor tails until the
running difference has minimum total degree above the requested bound.

The loop runs on packed keys K under the series order (orders.Packing):
the lookup is the guard-bit divisibility test against each lead in turn,
first match wins, a quotient term is K - K_lead, and a product with a tail
is one addition per pair of terms.  The dividend is packed at entry (the
operator division hands over its e-levels packed already), and the result
unpacks what is read, once.  The loop pseudo-divides on ints by the rule of
sympoly._Divisors, and scales its running difference, quotients and
remainder up where a quotient term would not be an int.  Its result keeps
those ints and the accumulated scale and builds the exact rationals when
they are first read; the operator division reads the ints and never builds
them.  The divisor side (packed leads and tails) is built once per divisor
list in a _SeriesDivisors; the operator division keeps one for the initial
parts of a basis and hands it to every series division it makes.
"""

import math
from functools import cached_property

from .errors import InputError
from .sympoly import _divided, _Divisors, _integral, _Packed, _rescale, accumulate


class ApproxDivisionResult:
    """Output of series division: f = sum(q_i g_i) + remainder + tail.

    The identity is exact; quotients and remainder are guaranteed only up to
    the degree bound, and the tail has minimum total degree > degree_bound.

    series_approx_div hands over its pseudo-division as it ends: the int
    dicts _qbars of _scale times the quotients of the copies in _divisors,
    its _SeriesDivisors, and those of the remainder and the tail, also
    times _scale, all keyed by K under the divisors' order.  The exact
    rationals, on exponent tuples, are built when first read.
    """

    def __init__(self, poly_cls, divisors, qbars, rbar, tail, scale, bound):
        self._cls, self._divisors = poly_cls, divisors
        self._qbars, self._rbar, self._tail = qbars, rbar, tail
        self._scale = scale
        self.degree_bound = bound

    def _unpacked(self, data):
        return self._divisors.order.packing.unpack_terms(data)

    @cached_property
    def quotients(self):
        return self._divisors.quotients(
            self._cls, [self._unpacked(q) for q in self._qbars], self._scale)

    @cached_property
    def remainder(self):
        return _divided(self._cls, self._unpacked(self._rbar), self._scale)

    @cached_property
    def tail(self):
        return _divided(self._cls, self._unpacked(self._tail), self._scale)


class _SeriesDivisors(_Divisors):
    """series_approx_div's sympoly._Divisors: to each copy's kept leading
    term it adds its tail, the other terms, as (their (K, coefficient)
    pairs, the tail's top total degree minus the lead's, that top
    degree)."""

    __slots__ = ("tails",)

    def __init__(self, divisors, order):
        if len(order.rows) != 1 or any(w != -1 for w in order.rows[0]):
            raise InputError(
                "series division expects the all--1 weight row order")
        super().__init__(divisors, order)
        packing = order.packing
        self.tails = []
        for h, (lead, _, _) in zip(self.copies, self.leads):
            tail = [(k, c) for k, c in h.terms.items() if k != lead]
            top = max(map(packing.degree, (k for k, _ in tail)), default=0)
            self.tails.append((tail, top - packing.degree(lead), top))


def series_approx_div(f, divisors, order, bound):
    """Approximate division of f by divisors in the power-series sense.

    Parameters
    ----------
    f : SymbolPoly whose exponents the order can key (MatrixOrder.key),
        InputError otherwise, as for the divisors; or a sympoly._Packed
        under the order's packing, as the operator division hands over
    divisors : sequence of SymbolPoly, all nonzero, or a _SeriesDivisors
        prepared under this same order object
    order : MatrixOrder whose single weight row is all -1 (lower total degree
        is larger), so leading terms sit at minimal total degree
    bound : the loop keeps dividing while the running difference still has a
        term of total degree <= bound, so the tail starts above bound;
        InputError if the tail would reach a total degree past the
        packing's limit
    """
    if bound < 0:
        raise InputError("degree bound must not be negative")
    divisors = _SeriesDivisors.prepare(divisors, order)
    packing = order.packing
    if isinstance(f, _Packed):
        if f.packing is not packing:
            raise InputError("dividend packed under another order")
        cls, data = f.algebra, f.terms
    else:
        cls, data = f.__class__, f.terms and packing.pack_terms(f.terms)[1]
    sign, guard, degree, limit = (packing.sign, packing.guard,
                                  packing.degree, packing.limit)
    leads, tails = divisors.leads, divisors.tails

    # Pseudo-division: diff, the quotients and the remainder hold scale
    # times those of division over Q, as ints.  A round whose quotient
    # terms are not all ints is scaled by the lcm of their denominators.
    # top bounds the total degree of diff from above, starting at that of
    # its smallest K; a product is only formed once its degree is known to
    # fit the packed fields.
    scale, diff = _integral(data)
    top = degree(min(diff)) if diff else 0
    qbars = [{} for _ in leads]
    rbar = {}
    while diff and degree(max(diff)) <= bound:
        qs = [{} for _ in leads]
        steps = [(q, lead, slead) for q, (lead, slead, _) in zip(qs, leads)]
        rem = {}
        for key, c in diff.items():
            s = sign * key
            for q, lead, slead in steps:
                if not (s - slead) & guard:
                    q[key - lead] = c
                    break
            else:
                rem[key] = c
        den = math.lcm(*(lc // math.gcd(c, lc)
                         for q, (_, _, lc) in zip(qs, leads) if q and lc != 1
                         for c in q.values()))
        if den != 1:
            for d in qbars + [rbar, rem]:
                _rescale(d, den)
            scale *= den
        if rem:
            accumulate(rbar, rem.items())
        active = []
        for qbar, q, (_, _, lc), tail in zip(qbars, qs, leads, tails):
            if q:
                if den != 1 or lc != 1:
                    for e in q:
                        q[e] = q[e] * den // lc
                accumulate(qbar, q.items())
                if tail[0]:
                    active.append((q, tail))
        if active:
            top += max(grow for _, (_, grow, _) in active)
            if top > limit:
                top = max(max(map(degree, q)) + last
                          for q, (_, _, last) in active)
                if top > limit:
                    raise InputError(
                        f"series division tail of total degree {top} does "
                        f"not fit the packed fields (at most {limit})")
        nxt = {}
        for q, (rest, _, _) in active:
            accumulate(nxt, ((kq + kt, -cq * ct)
                             for kq, cq in q.items() for kt, ct in rest))
        diff = nxt
    return ApproxDivisionResult(cls, divisors, qbars, rbar, diff, scale,
                                bound)
