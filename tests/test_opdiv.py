import itertools
import random

import pytest

from bfunc import localb, opdiv, sympoly
from bfunc.errors import InputError
from bfunc.groebner import buchberger_mora
from bfunc.localb import ann_fs
from bfunc.opdiv import OpDivisionResult, accuracy_schedule, op_approx_div
from bfunc.orders import operator_order, series_order
from bfunc.parser import parse_op, parse_poly
from bfunc.printing import format_poly
from bfunc.staircase import (ApproxDivisionResult, build_partition,
                             series_approx_div)
from bfunc.sympoly import SymbolPoly, accumulate
from bfunc.weyl import DiffOp, e_part, from_symbol, in_e, op_mul, ord_e

from conftest import bsearch_bases, rand_op, rand_sympoly

X = ["x"]


def OP(text, names=X):
    return parse_op(text, names)


def check_identity(p, divisors, res):
    total = res.remainder
    for q, g in zip(res.quotients, divisors):
        total = total + op_mul(q, g)
    assert total == p


# ---------------------------------------------------------------- schedule

def test_schedule_worked_example():
    assert accuracy_schedule([OP("(1 + x)*dx + x")], 2, operator_order(1)) == [0, 1, 3]


def test_schedule_constant_divisor():
    assert accuracy_schedule([DiffOp.constant(1, 3)], 3, operator_order(1)) == [0, 2, 4, 6]


def test_schedule_empty_levels():
    # a divisor of e-order 3 contributes nothing below level 3
    d = OP("dx^3")
    assert accuracy_schedule([d], 3, operator_order(1)) == [0, 0, 0, 3]
    assert accuracy_schedule([d, OP("x*dx")], 3, operator_order(1)) == [0, 2, 4, 6]


# ----------------------------------------------------------- worked example

def test_worked_example_full_output():
    p = OP("dx^2")
    d = OP("(1 + x)*dx + x")
    res = op_approx_div(p, [d], 5)
    assert format_poly(res.quotients[0], X) == (
        "dx - x*dx + x^2*dx - x^3*dx + x^4*dx - x^5*dx + x^6*dx"
        " - 1 + x - x^2 + x^3 - x^4")
    assert format_poly(res.remainder, X) == (
        "-x^7*dx^2 + x^5*dx - x^7*dx - 1 + 2*x - 2*x^2 + 2*x^3 - 2*x^4"
        " + 2*x^5 - x^6")
    assert res.initial_bound == 9
    assert [(k, m) for k, m, _ in res.schedule] == [(2, 3), (1, 1), (0, 0)]
    check_identity(p, [d], res)


def test_self_division_exact_cases():
    # single-term initial parts reduce in one step
    for text in ("x*dx - s", "dx^2 + x"):
        p = OP(text)
        res = op_approx_div(p, [p], 4)
        assert res.quotients[0] == DiffOp.constant(1, 3)
        assert res.remainder.is_zero()


def test_self_division_agreement():
    # with a multi-term initial part the loop telescopes, so (1, 0) is only
    # guaranteed below the accuracy thresholds
    order = operator_order(1)
    p = OP("(1 + x)*dx + x")
    for bound in (2, 4, 6):
        res = op_approx_div(p, [p], bound)
        check_identity(p, [p], res)
        cut = bound - sum(p.le(order))
        assert res.quotients[0].truncate(cut) == DiffOp.constant(1, 3).truncate(cut)
        assert res.remainder.truncate(bound).is_zero()


def test_monomial_division():
    res = op_approx_div(OP("x*dx"), [OP("dx")], 4)
    assert res.quotients[0] == OP("x")
    assert res.remainder.is_zero()


def test_zero_dividend():
    res = op_approx_div(DiffOp.zero(), [OP("dx")], 3)
    assert res.remainder.is_zero()
    assert all(q.is_zero() for q in res.quotients)


def test_validation():
    with pytest.raises(InputError):
        op_approx_div(OP("dx"), [OP("dx")], 0)
    with pytest.raises(InputError):
        op_approx_div(OP("dx"), [], 3)
    with pytest.raises(InputError):
        op_approx_div(OP("dx"), [DiffOp.zero()], 3)


def test_dividend_with_s():
    # s carries e-weight 1, so s-divisions run through level 1
    p = OP("s^2 + s")
    d = OP("s - x")
    res = op_approx_div(p, [d], 5)
    check_identity(p, [d], res)
    # below the bound the remainder should match the exact reduction
    # s^2 + s = (s + x + 1)(s - x) + x^2 + x^2 s... check via identity only
    assert res.remainder.truncate(5) == (
        p - op_mul(res.quotients[0], d)).truncate(5)


# ------------------------------------------------------------- properties

def divisor_pool():
    return [
        [OP("(1 + x)*dx + x")],
        [OP("x*dx - s"), OP("x^2")],
        [OP("dx^2 + x*dx"), OP("s + x")],
        [OP("dx - 1")],
    ]


def test_identity_random():
    rng = random.Random(21)
    pools = divisor_pool()
    for _ in range(80):
        p = rand_op(rng, 1, terms=3, max_deg=3)
        divisors = pools[rng.randrange(len(pools))]
        res = op_approx_div(p, divisors, rng.randint(1, 6))
        check_identity(p, divisors, res)


def test_truncation_agreement():
    rng = random.Random(22)
    order = operator_order(1)
    pools = divisor_pool()
    for _ in range(40):
        p = rand_op(rng, 1, terms=3, max_deg=3)
        divisors = pools[rng.randrange(len(pools))]
        bound = rng.randint(1, 4)
        small = op_approx_div(p, divisors, bound)
        big = op_approx_div(p, divisors, bound + 3)
        for qs, qb, g in zip(small.quotients, big.quotients, divisors):
            cut = bound - sum(g.le(order))
            if cut > 0:
                assert qs.truncate(cut) == qb.truncate(cut)
        assert small.remainder.truncate(bound) == big.remainder.truncate(bound)


def test_remainder_prefix_off_staircase():
    rng = random.Random(23)
    order = operator_order(1)
    pools = divisor_pool()
    for _ in range(40):
        p = rand_op(rng, 1, terms=3, max_deg=3)
        divisors = pools[rng.randrange(len(pools))]
        bound = rng.randint(1, 5)
        res = op_approx_div(p, divisors, bound)
        part = build_partition([g.le(order) for g in divisors])
        for exp in res.remainder.truncate(bound).exps():
            assert part.classify(exp) is None


# ------------------------------------------------- rational reference loops

def fraction_series_approx_div(f, divisors, order, bound):
    """series_approx_div as it was before pseudo-division: every quotient
    term is divided by its lead coefficient over Q, with Fraction
    coefficients throughout."""
    divisors = list(divisors)
    leads = [g.leading(order) for g in divisors]
    rests = [g.rest(order) for g in divisors]
    partition = build_partition([e for e, _ in leads])
    cls = f.__class__
    qbars = [{} for _ in divisors]
    rbar = {}
    diff = f
    while diff.terms and diff.min_total_degree() <= bound:
        qs = [{} for _ in divisors]
        for exp, coeff in diff.terms.items():
            i = partition.classify(exp)
            if i is None:
                accumulate(rbar, [(exp, coeff)])
            else:
                le, lc = leads[i]
                qs[i][tuple(a - b for a, b in zip(exp, le))] = coeff / lc
        nxt = {}
        for qbar, q, rest in zip(qbars, qs, rests):
            accumulate(qbar, q.items())
            if q and rest.terms:
                accumulate(nxt, (cls._raw(q) * rest).terms.items())
        diff = -cls._raw(nxt)
    return ApproxDivisionResult([cls._raw(q) for q in qbars], cls._raw(rbar),
                                diff, bound)


def fraction_op_approx_div(p, divisors, bound, order):
    """op_approx_div as it was before pseudo-division, on the rational
    series division above."""
    divisors = list(divisors)
    if p.is_zero():
        return OpDivisionResult([DiffOp.zero() for _ in divisors],
                                DiffOp.zero(), bound, bound, [])
    sorder = series_order(p.arity, order.tie)
    initials = [in_e(g) for g in divisors]
    top = ord_e(p)
    losses = accuracy_schedule(divisors, top, order)
    cur = initial_bound = bound + sum(losses)
    quotients = [DiffOp.zero() for _ in divisors]
    remainder = p
    schedule = []
    for k in range(top, -1, -1):
        schedule.append((k, losses[k], cur))
        part = e_part(remainder, k, cur)
        if part.terms:
            inner = fraction_series_approx_div(part, initials, sorder, cur - 1)
            for i, q in enumerate(inner.quotients):
                if q.terms:
                    ql = from_symbol(q)
                    quotients[i] = quotients[i] + ql
                    remainder = remainder - op_mul(ql, divisors[i])
        cur -= losses[k]
    return OpDivisionResult(quotients, remainder, bound, initial_bound,
                            schedule)


def exact(p):
    """A polynomial's type and terms, each coefficient with its type."""
    return type(p), {e: (type(c), c) for e, c in p.terms.items()}


def test_op_approx_div_matches_rational_loop(monkeypatch, time_limit):
    # Every approximate division of find_generator's normal forms on three
    # bases (the normal crossing x^2*(y+1)^2*z^2, the cusp through
    # local_b_function, and the curve 2*x^3 - 3*y^7 of the b(s) search
    # benchmark) is recorded and replayed through both loops, next to random
    # dividends with Fraction coefficients and divisors whose coefficients
    # are not integral.  Each inner series division those make is replayed
    # too, on Fraction copies of its int dividend and divisors.
    rng = random.Random(29)
    skewed = [[OP("2/3*dx + x*dx + 5/7*x")],
              [OP("3/4*x*dx - 1/2*s"), OP("1/5*x^2")],
              [OP("1/3*dx^2 + x*dx"), OP("7/2*s + x")], [OP("2*dx - 4/9")]]
    calls = [(rand_op(rng, 1, terms=3, max_deg=3), rng.choice(skewed),
              rng.randint(1, 6), operator_order(1)) for _ in range(40)]
    inner = []

    def recording(p, divisors, bound, order):
        calls.append((p, list(divisors), bound, order))
        return op_approx_div(p, divisors, bound, order)

    def recording_series(f, divisors, order, bound):
        inner.append((f, list(divisors), order, bound))
        return series_approx_div(f, divisors, order, bound)

    monkeypatch.setattr(localb, "op_approx_div", recording)
    monkeypatch.setattr(opdiv, "series_approx_div", recording_series)
    xyz, xy = ["x", "y", "z"], ["x", "y"]
    f = parse_poly("x^2*(y + 1)^2*z^2", xyz)
    localb.find_generator(
        buchberger_mora(ann_fs(f) + [from_symbol(f)], operator_order(3)),
        1, 64)
    localb.local_b_function(parse_poly("x^2 + y^3", xy))
    f = parse_poly("2*x^3 - 3*y^7", xy)
    localb.find_generator(
        buchberger_mora(ann_fs(f) + [from_symbol(f)], operator_order(2)),
        2 * f.arity, 64)
    monkeypatch.undo()
    assert len(calls) > 40 + 40 and len(inner) > 100

    for p, divisors, bound, order in calls:
        got = op_approx_div(p, divisors, bound, order)
        want = fraction_op_approx_div(p, divisors, bound, order)
        assert [exact(q) for q in got.quotients] == \
            [exact(q) for q in want.quotients]
        assert exact(got.remainder) == exact(want.remainder)
        assert got.schedule == want.schedule
        assert got.initial_bound == want.initial_bound
    for f, divisors, order, bound in inner + [
            (rand_sympoly(rng, 3, terms=4, max_deg=3),
             [SymbolPoly({e: c / 3 for e, c in g.terms.items()})
              for g in rng.choice(skewed)], series_order(3), rng.randint(0, 5))
            for _ in range(40)]:
        rational = [SymbolPoly(g.terms) for g in divisors]
        got = series_approx_div(f, divisors, order, bound)
        want = fraction_series_approx_div(SymbolPoly(f.terms), rational,
                                          order, bound)
        assert [exact(q) for q in got.quotients] == \
            [exact(q) for q in want.quotients]
        assert exact(got.remainder) == exact(want.remainder)
        assert exact(got.tail) == exact(want.tail)


def test_prepared_basis_divides_as_its_element_list(monkeypatch):
    # approx_nf divides through the set-up the basis keeps; replayed with
    # the plain list of its elements, every division of the chained normal
    # forms on the b(s) search benchmark's bases, at two bounds, is the same
    calls = []

    def recording(p, divisors, bound, order):
        calls.append((p, divisors, bound, order))
        return op_approx_div(p, divisors, bound, order)

    monkeypatch.setattr(localb, "op_approx_div", recording)
    bases = [gb for _, gb in bsearch_bases()]
    for gb in bases:
        for bound in (4, 7):
            list(itertools.islice(localb.s_power_nfs(gb, bound), 6))
    monkeypatch.undo()
    assert len(calls) == len(bases) * 2 * 6
    for (p, divisors, bound, order), gb in zip(
            calls, (gb for gb in bases for _ in range(12))):
        assert divisors is gb._divisors and order is gb.order
        assert list(divisors) == gb.elements
        got = op_approx_div(p, divisors, bound, order)
        want = op_approx_div(p, list(gb.elements), bound, order)
        assert [exact(q) for q in got.quotients] == \
            [exact(q) for q in want.quotients]
        assert exact(got.remainder) == exact(want.remainder)
        assert got.schedule == want.schedule
        assert got.initial_bound == want.initial_bound


def test_find_generator_prepares_the_basis_once(monkeypatch):
    # every approximate division's set-up makes its primitive copies through
    # sympoly._primitive: once per basis element and once per initial part,
    # however many normal forms the search computes
    f, gb = bsearch_bases()[0]
    made, divisions = [], []
    primitive = sympoly._primitive

    def counting(op, order):
        made.append(op)
        return primitive(op, order)

    def counting_division(*args):
        divisions.append(args)
        return op_approx_div(*args)

    monkeypatch.setattr(sympoly, "_primitive", counting)
    monkeypatch.setattr(localb, "op_approx_div", counting_division)
    localb.find_generator(gb, 2 * f.arity, 64)
    assert len(divisions) > 2 * len(gb.elements)
    assert len(made) == 2 * len(gb.elements)
    assert all(a is b for a, b in zip(made, gb.elements))
    # the set-up lives as long as the basis
    localb.find_generator(gb, 2 * f.arity, 64)
    assert len(made) == 2 * len(gb.elements)
