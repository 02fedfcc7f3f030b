"""Power-series approximate division along a staircase of leading exponents.

The leading exponents alpha(1)..alpha(s) of the divisors partition the
exponent lattice into disjoint regions: region i holds the points dominated
componentwise by alpha(i) but by no earlier leader, and the remainder region
holds everything never dominated.  Division by leading terms is then a
term-local lookup, and the series division loop repeatedly replaces the
divided part with the correction coming from the divisor tails until the
running difference has minimum total degree above the requested bound.

The loop pseudo-divides on ints: it divides by primitive integer multiples of
the divisors, keeps an integer multiple of the running difference, quotients
and remainder, and scales them up where a quotient term would not be an int.
One division by the accumulated scale at exit returns the exact rational
result.  The divisor side of that (primitive copies, leading terms, tails
and partition) is built once per divisor list in a _SeriesDivisors; the
operator division keeps one for the initial parts of a basis, as long as
the basis lives, and hands it to every series division it makes.
"""

import math
from dataclasses import dataclass

from .errors import InputError
from .rationals import Rational
from .sympoly import _divided, _integral, _primitives, _rescale, accumulate


@dataclass(frozen=True)
class StaircasePartition:
    """First-match-wins partition of the exponent lattice by leaders."""

    leaders: tuple

    def classify(self, exp):
        """Index of the first leader dominating exp, or None if none does."""
        for i, leader in enumerate(self.leaders):
            for a, b in zip(exp, leader):
                if a < b:
                    break
            else:
                return i
        return None


def build_partition(leaders):
    leaders = tuple(tuple(l) for l in leaders)
    if not leaders:
        raise InputError("at least one leader is required")
    arity = len(leaders[0])
    for l in leaders:
        if len(l) != arity:
            raise InputError("leader arity mismatch")
        if any(v < 0 for v in l):
            raise InputError("leaders must be natural exponent vectors")
    return StaircasePartition(leaders)


def mono_div(f, leads, partition):
    """Divide every term of f by the leading terms along the partition.

    leads is the list of (exponent, coefficient) leading terms; the partition
    must be built from the same exponents in the same sequence.  Returns
    (quotients, remainder) with f = sum(q_i * lead_i) + remainder; each
    quotient contributes only inside its region and the remainder collects
    the never-dominated terms.  The decomposition is unique.  A quotient
    coefficient is an int where the lead coefficient divides the term's
    exactly, and a Rational otherwise.
    """
    quotients = [{} for _ in leads]
    remainder = {}
    classify = partition.classify
    for exp, coeff in f.terms.items():
        i = classify(exp)
        if i is None:
            remainder[exp] = coeff
        else:
            le, lc = leads[i]
            q, rem = divmod(coeff, lc)
            quotients[i][tuple(a - b for a, b in zip(exp, le))] = \
                Rational(coeff, lc) if rem else q
    cls = f.__class__
    return [cls._raw(q) for q in quotients], cls._raw(remainder)


@dataclass(frozen=True)
class ApproxDivisionResult:
    """Output of series division: f = sum(q_i g_i) + remainder + tail.

    The identity is exact; quotients and remainder are guaranteed only up to
    the degree bound, and the tail has minimum total degree > degree_bound.
    """

    quotients: list
    remainder: object
    tail: object
    degree_bound: int


class _SeriesDivisors:
    """series_approx_div's set-up of one divisor list under one order.

    It holds the primitive copies k_i g_i and the factors k_i, their leading
    terms and tails, and the staircase partition of the leading exponents;
    iterating gives the divisors as they were given.  series_approx_div
    builds one per call from a plain list.  opdiv._OpDivisors builds one for
    the initials of its divisors and hands it to every series division it
    makes, so it lives as long as the prepared basis that holds it.
    """

    __slots__ = ("given", "order", "factors", "leads", "rests", "partition")

    def __init__(self, divisors, order):
        if len(order.rows) != 1 or any(w != -1 for w in order.rows[0]):
            raise InputError(
                "series division expects the all--1 weight row order")
        self.given = tuple(divisors)
        self.order = order
        copies, self.factors = _primitives(list(self.given), order)
        self.leads = [g.leading(order) for g in copies]
        self.rests = [g.rest(order) for g in copies]
        self.partition = build_partition([e for e, _ in self.leads])

    def __iter__(self):
        return iter(self.given)


def series_approx_div(f, divisors, order, bound):
    """Approximate division of f by divisors in the power-series sense.

    Parameters
    ----------
    f : SymbolPoly
    divisors : sequence of SymbolPoly, all nonzero, or a _SeriesDivisors
        prepared under this same order object
    order : MatrixOrder whose single weight row is all -1 (lower total degree
        is larger), so leading terms sit at minimal total degree
    bound : the loop keeps dividing while the running difference still has a
        term of total degree <= bound, so the tail starts above bound
    """
    if bound < 0:
        raise InputError("degree bound must not be negative")
    if not (isinstance(divisors, _SeriesDivisors) and divisors.order is order):
        divisors = _SeriesDivisors(divisors, order)
    leads, rests = divisors.leads, divisors.rests
    partition = divisors.partition

    # Pseudo-division: diff, the quotients and the remainder hold scale
    # times those of division over Q, as ints.  A round whose quotient
    # terms are not all ints is scaled by the lcm of their denominators.
    cls = f.__class__
    scale, data = _integral(f.terms)
    diff = cls._raw(data)
    qbars = [{} for _ in leads]
    rbar = {}
    while diff.terms and diff.min_total_degree() <= bound:
        qs, r = mono_div(diff, leads, partition)
        den = math.lcm(*(c.denominator for q in qs for c in q.terms.values()))
        if den != 1:
            for d in qbars + [rbar]:
                _rescale(d, den)
            scale *= den
            qs = [cls._raw(_integral(q.terms, den)[1]) for q in qs]
            r = cls._raw(_integral(r.terms, den)[1])
        for qbar, q in zip(qbars, qs):
            accumulate(qbar, q.terms.items())
        accumulate(rbar, r.terms.items())
        nxt = {}
        for q, rest in zip(qs, rests):
            if q.terms and rest.terms:
                accumulate(nxt, (q * rest).terms.items())
        diff = -cls._raw(nxt)
    return ApproxDivisionResult(
        [_divided(cls, q, scale * k.denominator, k.numerator)
         for q, k in zip(qbars, divisors.factors)],
        _divided(cls, rbar, scale), _divided(cls, diff.terms, scale), bound)
