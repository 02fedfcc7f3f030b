"""The approximate divisions as they ran on exponent tuples, before they ran
on packed keys: the staircase partition, the term-local division by leading
terms, and the series and operator division loops, with their set-ups read
off the tuple copies (c.unpacked() for each packed copy c of a
sympoly._Divisors).  They pseudo-divide as the packed loops do, so both
must give the same ints, scales and results, coefficient types included."""

import math
from dataclasses import dataclass
from types import SimpleNamespace

from bfunc.errors import InputError
from bfunc.opdiv import _losses
from bfunc.orders import series_order
from bfunc.rationals import Rational
from bfunc.sympoly import (_divided, _Divisors, _integral, _rescale,
                           accumulate)
from bfunc.weyl import DiffOp, e_part, op_mul, ord_e

from conftest import rest_of


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
    the never-dominated terms.  A quotient coefficient is an int where the
    lead coefficient divides the term's exactly, and a Rational otherwise.
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


def tuple_series_approx_div(f, divisors, order, bound):
    """series_approx_div on tuples.  divisors may be a sympoly._Divisors
    prepared under order.  Besides the quotients, remainder and tail it
    gives the pseudo-division's int quotient dicts qbars, its scale and the
    int dict of the tail, as the packed loop keeps them."""
    divisors = _Divisors.prepare(divisors, order)
    copies = [c.unpacked() for c in divisors.copies]
    leads = [g.leading(order) for g in copies]
    rests = [rest_of(g, order) for g in copies]
    partition = build_partition([e for e, _ in leads])
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
    return SimpleNamespace(
        quotients=divisors.quotients(cls, qbars, scale),
        remainder=_divided(cls, rbar, scale),
        tail=_divided(cls, diff.terms, scale), degree_bound=bound,
        qbars=qbars, scale=scale, tail_ints=diff.terms)


def division_result(quotients, remainder, bound, initial_bound, schedule,
                    exact):
    """The fields of an opdiv.OpDivisionResult that the reference loops
    give, with the quotients built already."""
    return SimpleNamespace(quotients=quotients, remainder=remainder,
                           requested_bound=bound, initial_bound=initial_bound,
                           schedule=schedule, exact=exact)


def tuple_op_approx_div(p, divisors, bound, order):
    """op_approx_div on tuples, on tuple_series_approx_div."""
    if bound < 1:
        raise InputError("accuracy bound must be at least 1")
    divisors = _Divisors(divisors, order)
    if p.is_zero():
        return division_result([DiffOp.zero() for _ in divisors.given],
                               DiffOp.zero(), bound, bound, [], True)
    order.packing.check(p.terms)
    copies = [c.unpacked() for c in divisors.copies]
    initials = _Divisors([e_part(g, ord_e(g)) for g in copies],
                         series_order(p.arity, order.tie))
    levels = [(ord_e(g), sum(g.le(order))) for g in copies]
    top = ord_e(p)
    losses = _losses(levels, top)
    cur = bound + sum(losses)
    initial_bound = cur
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
            inner = tuple_series_approx_div(part, initials, initials.order,
                                            cur - 1)
            exact = exact and not inner.tail_ints
            qs = [(q, f.numerator, inner.scale * f.denominator)
                  for q, f in zip(inner.qbars, initials.factors)]
            den = math.lcm(*(b // math.gcd(b, c * a)
                             for q, a, b in qs for c in q.values()))
            if den != 1:
                for d in quotients + [remainder]:
                    _rescale(d, den)
                scale *= den
            for (q, a, b), g, acc in zip(qs, copies, quotients):
                if q:
                    a *= den
                    ql = DiffOp._raw({e: c * a // b for e, c in q.items()})
                    accumulate(acc, ql.terms.items())
                    accumulate(remainder, op_mul(-ql, g).terms.items())
        cur -= losses[k]
    return division_result(
        divisors.quotients(DiffOp, quotients, scale),
        _divided(DiffOp, remainder, scale), bound, initial_bound, schedule,
        exact)
