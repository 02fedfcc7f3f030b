import itertools
import random
from types import SimpleNamespace

import pytest

from bfunc import localb, opdiv, sympoly
from bfunc.errors import InputError
from bfunc.groebner import buchberger_mora, mora_div
from bfunc.localb import ann_fs
from bfunc.opdiv import accuracy_schedule, op_approx_div
from bfunc.orders import (TIE_ORDERS, MatrixOrder, elimination_order,
                          homogenized_order, operator_order, series_order)
from bfunc.parser import parse_op, parse_poly
from bfunc.printing import format_poly
from bfunc.staircase import series_approx_div
from bfunc.sympoly import SymbolPoly, _primitive, accumulate
from bfunc.weyl import DiffOp, e_part, from_symbol, op_mul, ord_e

from conftest import bsearch_bases, rand_op, rand_sympoly, rest_of, unpacked
from tuple_division import (build_partition, division_result,
                            tuple_op_approx_div)

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


def test_dividend_past_the_packed_limit():
    # a term no level divides stays in the remainder unpacked, so the
    # dividend is checked at entry: a total degree the order cannot key,
    # and so could not print, is refused before any division runs
    (x,) = OP("x").terms
    limit = operator_order(1).packing.limit
    at = DiffOp({tuple(limit * v for v in x): 1})
    res = op_approx_div(at, [OP("dx")], 1)
    assert res.remainder == at
    assert format_poly(res.remainder, X) == f"x^{limit}"
    past = DiffOp({tuple((limit + 1) * v for v in x): 1})
    with pytest.raises(InputError, match="does not fit the packed fields"):
        op_approx_div(past, [OP("dx")], 1)


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


def test_only_the_operator_order_divides():
    # the levels and their lift to the series order are read off the
    # operator order's packed keys, so any other order is refused
    p, divisors = OP("x*dx"), [OP("dx")]
    for tie in TIE_ORDERS:
        assert op_approx_div(p, divisors, 4,
                             operator_order(1, tie)).remainder.is_zero()
    swapped = MatrixOrder(operator_order(1).rows[::-1], "grevlex", 3)
    for order in (series_order(3), elimination_order(1, [0]), swapped,
                  operator_order(2), homogenized_order(1)):
        with pytest.raises(InputError):
            op_approx_div(p, divisors, 4, order)
        with pytest.raises(InputError):
            opdiv._OpDivisors(divisors, order)


def test_the_lift_between_the_orders():
    # K under the operator order minus K under the series order of the
    # same tie is e_weight * lift, and the e-weight is K's first digit
    rng = random.Random(252)
    for n in (1, 2, 3):
        for tie in TIE_ORDERS:
            prepared = opdiv._OpDivisors([DiffOp.constant(1, 2 * n + 1)],
                                         operator_order(n, tie))
            op, series = (prepared.order.packing,
                          prepared.initials.order.packing)
            for _ in range(20):
                exp = rand_op(rng, n, terms=1, max_deg=9).le(prepared.order)
                weight = sum(exp[n:])
                assert op.pack(exp) - series.pack(exp) == \
                    weight * prepared.lift
                assert op.first(op.pack(exp)) == weight
                assert series.first(series.pack(exp)) == -sum(exp)


def listed(p):
    """A polynomial's terms in dict order, each coefficient with its type."""
    return [(e, type(c), c) for e, c in p.terms.items()]


def check_set_up(divisors, order):
    """The packed set-up's copies, factors, levels and initial parts are
    those read off exponent tuples, in dict order, with their types."""
    prepared = opdiv._OpDivisors(divisors, order)
    copies = [c.unpacked() for c in prepared.copies]
    assert [listed(h) for h in copies] == \
        [listed(_primitive(g, order)) for g in divisors]
    for g, h, k in zip(divisors, copies, prepared.factors):
        assert h.terms == g.scale(k).terms
    assert prepared.levels == [(ord_e(h), sum(h.le(order))) for h in copies]
    assert [listed(unpacked(i)) for i in prepared.initials] == \
        [listed(e_part(h, ord_e(h))) for h in copies]


def test_packed_op_approx_div_matches_tuple_loop(time_limit):
    # the packed loop gives the tuple loop's quotients, remainder,
    # schedule and flags, coefficient types included, for n = 1..3 and
    # every tie, from the set-up the tuple loop would make
    rng = random.Random(253)
    flags = set()
    for n in (1, 2, 3):
        for tie in TIE_ORDERS:
            order = operator_order(n, tie)
            for _ in range(20):
                p = rand_op(rng, n, terms=4, max_deg=2, zero_ok=True)
                divisors = [rand_op(rng, n, terms=3, max_deg=2)
                            for _ in range(rng.randint(1, 3))]
                bound = rng.randint(1, 4)
                check_set_up(divisors, order)
                got = op_approx_div(p, divisors, bound, order)
                want = tuple_op_approx_div(p, divisors, bound, order)
                flags.add(want.exact)
                assert [exact(q) for q in got.quotients] == \
                    [exact(q) for q in want.quotients]
                assert exact(got.remainder) == exact(want.remainder)
                assert got.schedule == want.schedule
                assert got.initial_bound == want.initial_bound
                assert got.exact == want.exact
    assert flags == {True, False}


def test_division_builds_its_rationals_when_first_read():
    # op_approx_div hands over its int dicts; the remainder and the
    # quotients are built when first read, each on its own, and are the
    # tuple loop's, dict order and coefficient types included
    order = operator_order(1)
    p = OP("dx^2 + 1/2*x*s")
    divisors = [OP("(1 + x)*dx + x"), OP("2/3*x*dx - 4/9*s")]
    res = op_approx_div(p, divisors, 5, order)
    assert "remainder" not in vars(res) and "quotients" not in vars(res)
    want = tuple_op_approx_div(p, divisors, 5, order)
    assert listed(res.remainder) == listed(want.remainder)
    assert "quotients" not in vars(res)
    assert [listed(q) for q in res.quotients] == \
        [listed(q) for q in want.quotients]
    assert vars(res)["remainder"] is res.remainder


# --------------------------------------------------------------- exactness

def test_exact_division_is_that_of_every_larger_bound(monkeypatch):
    # every division of the chained normal forms of the b(s) search
    # benchmark's bases at seeds 1-2, at two bounds, is exact, and is the
    # division at bound 64: same quotients and remainder, coefficient types
    # included
    calls = []

    def recording(p, divisors, bound, order):
        res = op_approx_div(p, divisors, bound, order)
        calls.append((p, divisors, order, res))
        return res

    monkeypatch.setattr(localb, "op_approx_div", recording)
    for seed in (1, 2):
        for _, gb in bsearch_bases(seed):
            for bound in (4, 7):
                list(itertools.islice(localb.s_power_nfs(gb, bound), 8))
    monkeypatch.undo()
    assert len(calls) == 2 * 3 * 2 * 8
    for p, divisors, order, res in calls:
        assert res.exact
        far = op_approx_div(p, divisors, 64, order)
        assert far.exact
        assert [exact(q) for q in res.quotients] == \
            [exact(q) for q in far.quotients]
        assert exact(res.remainder) == exact(far.remainder)


def test_inexact_divisions_are_reported():
    # x^6 lies past the cut at bound 3 and is divided whole at bound 7
    p, divisors = OP("x^6"), [OP("dx")]
    assert not op_approx_div(p, divisors, 3).exact
    assert op_approx_div(p, divisors, 7).exact
    # 1 = (1 - x + x^2 - ...)(1 + x) leaves a tail at every bound
    assert not any(op_approx_div(OP("1"), [OP("1 + x")], n).exact
                   for n in (1, 5, 20))
    assert op_approx_div(DiffOp.zero(), divisors, 3).exact
    # past 1 the chain of x^2 + y^2 + x^3 is inexact
    f = parse_poly("x^2 + y^2 + x^3", ["x", "y"])
    gb = buchberger_mora(ann_fs(f) + [from_symbol(f)], operator_order(2))
    chain = list(itertools.islice(localb.s_power_nfs(gb, 4), 4))
    assert [div.exact for div in chain] == [True, False, False, False]


# ------------------------------------------------- rational reference loops

def fraction_series_approx_div(f, divisors, order, bound):
    """series_approx_div as it was before pseudo-division: every quotient
    term is divided by its lead coefficient over Q, with Fraction
    coefficients throughout."""
    divisors = list(divisors)
    leads = [g.leading(order) for g in divisors]
    rests = [rest_of(g, order) for g in divisors]
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
    return SimpleNamespace(quotients=[cls._raw(q) for q in qbars],
                           remainder=cls._raw(rbar), tail=diff,
                           degree_bound=bound)


def fraction_op_approx_div(p, divisors, bound, order):
    """op_approx_div as it was before pseudo-division, on the rational
    series division above."""
    divisors = list(divisors)
    if p.is_zero():
        return division_result([DiffOp.zero() for _ in divisors],
                               DiffOp.zero(), bound, bound, [], True)
    sorder = series_order(p.arity, order.tie)
    initials = [e_part(g, ord_e(g)) for g in divisors]
    top = ord_e(p)
    losses = accuracy_schedule(divisors, top, order)
    cur = initial_bound = bound + sum(losses)
    quotients = [DiffOp.zero() for _ in divisors]
    remainder = p
    schedule = []
    exact = True
    for k in range(top, -1, -1):
        schedule.append((k, losses[k], cur))
        part = e_part(remainder, k).truncate(cur)
        exact = exact and part.terms == e_part(remainder, k).terms
        if part.terms:
            inner = fraction_series_approx_div(part, initials, sorder, cur - 1)
            exact = exact and inner.tail.is_zero()
            for i, q in enumerate(inner.quotients):
                if q.terms:
                    ql = from_symbol(q)
                    quotients[i] = quotients[i] + ql
                    remainder = remainder - op_mul(ql, divisors[i])
        cur -= losses[k]
    return division_result(quotients, remainder, bound, initial_bound,
                           schedule, exact)


def exact(p):
    """A polynomial's type and terms, each coefficient with its type."""
    return type(p), {e: (type(c), c) for e, c in p.terms.items()}


def test_op_approx_div_matches_rational_loop(monkeypatch, time_limit):
    # Every approximate division of find_generator's normal forms on three
    # bases (the normal crossing x^2*(y+1)^2*z^2, the cusp through
    # local_b_function, and the curve 2*x^3 - 3*y^7 of the b(s) search
    # benchmark), and of the chains at two bounds of the first and last,
    # which the search keeps across bounds while they are exact, is
    # recorded and replayed through both loops, next to random dividends
    # with Fraction coefficients and divisors whose coefficients are not
    # integral.  Each inner series division those make is replayed too, on
    # Fraction copies of its int dividend and divisors.
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
        # op_approx_div hands over each e-level and initial part packed
        inner.append((unpacked(f), [unpacked(g) for g in divisors], order,
                      bound))
        return series_approx_div(f, divisors, order, bound)

    monkeypatch.setattr(localb, "op_approx_div", recording)
    monkeypatch.setattr(opdiv, "series_approx_div", recording_series)
    xyz, xy = ["x", "y", "z"], ["x", "y"]
    f = parse_poly("x^2*(y + 1)^2*z^2", xyz)
    crossing = buchberger_mora(ann_fs(f) + [from_symbol(f)],
                               operator_order(3))
    localb.find_generator(crossing, 1, 64)
    localb.local_b_function(parse_poly("x^2 + y^3", xy))
    f = parse_poly("2*x^3 - 3*y^7", xy)
    curve = buchberger_mora(ann_fs(f) + [from_symbol(f)], operator_order(2))
    localb.find_generator(curve, 2 * f.arity, 64)
    for gb in (crossing, curve):
        for bound in (3, 6):
            list(itertools.islice(localb.s_power_nfs(gb, bound), 8))
    monkeypatch.undo()
    assert len(calls) > 40 + 40 and len(inner) > 100

    flags = set()
    for p, divisors, bound, order in calls:
        got = op_approx_div(p, divisors, bound, order)
        want = fraction_op_approx_div(p, divisors, bound, order)
        flags.add(want.exact)
        assert [exact(q) for q in got.quotients] == \
            [exact(q) for q in want.quotients]
        assert exact(got.remainder) == exact(want.remainder)
        assert got.schedule == want.schedule
        assert got.initial_bound == want.initial_bound
        assert got.exact == want.exact
    assert flags == {True, False}
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


def crossing_basis():
    """The Mora basis of x^2*(y+1)^2*z^2, whose chain turns inexact, so that
    find_generator from n0 = 1 calls Mora division on a candidate."""
    f = parse_poly("x^2*(y + 1)^2*z^2", ["x", "y", "z"])
    return buchberger_mora(ann_fs(f) + [from_symbol(f)], operator_order(3))


def test_find_generator_prepares_the_basis_once(monkeypatch):
    # every division of a b(s) search, the approximate ones and Mora's
    # certifications alike, divides through the set-up the basis keeps:
    # one primitive copy per basis element and one per initial part, made
    # from their packed terms, however many normal forms and candidates
    # the search goes through.  The b(s) search benchmark's curve has its
    # candidates decided by the chain; the crossing has one go to Mora.
    f, curve = bsearch_bases()[0]
    cases = [(curve, 2 * f.arity), (crossing_basis(), 1)]
    made, divisions, certifications = [], [], []

    def counting(op, order):
        made.append(op)
        return primitive(op, order)

    def counting_division(*args):
        divisions.append(args)
        return op_approx_div(*args)

    def counting_certification(*args):
        certifications.append(args)
        return mora_div(*args)

    primitive = sympoly._primitive
    monkeypatch.setattr(sympoly, "_primitive", counting)
    monkeypatch.setattr(localb, "op_approx_div", counting_division)
    monkeypatch.setattr(localb, "mora_div", counting_certification)
    for gb, n0 in cases:
        made.clear()
        divisions.clear()
        localb.find_generator(gb, n0, 64)
        n = len(gb.elements)
        assert len(divisions) > 2
        assert all(args[1] is gb._divisors for args in divisions)
        assert len(made) == 2 * n
        assert [unpacked(a).terms for a in made[:n]] == \
            [g.terms for g in gb.elements]
        assert [unpacked(a).terms for a in made[n:]] == \
            [e_part(g, ord_e(g)).terms
             for g in map(unpacked, gb._divisors.copies)]
        # the set-up lives as long as the basis
        localb.find_generator(gb, n0, 64)
        assert len(made) == 2 * n
    assert certifications
    assert all(args[1] is cases[1][0]._divisors for args in certifications)


def test_divisions_by_a_basis_under_an_equal_order_reuse_its_set_up(
        monkeypatch):
    # a fresh operator_order(n) equals the basis's order, so Mora division
    # and the approximate division take the set-up the basis keeps as it
    # is and make no primitive copy; the results are those under the
    # basis's own order
    f, gb = bsearch_bases()[0]
    n = (f.arity - 1) // 2
    p = from_symbol(parse_poly("x*y + y^2", ["x", "y"]))
    divisors = gb._divisors
    want = (mora_div(p, divisors, gb.order),
            op_approx_div(p, divisors, 4, gb.order))
    made = []

    def counting(op, order):
        made.append(op)
        return primitive(op, order)

    primitive = sympoly._primitive
    monkeypatch.setattr(sympoly, "_primitive", counting)
    order = operator_order(n)
    assert order == gb.order and order is not gb.order
    certificate = mora_div(p, divisors, order)
    division = op_approx_div(p, divisors, 4, order)
    assert made == []
    assert division._divisors is divisors

    def relation(res):
        return [exact(q) for q in [res.remainder] + res.quotients]

    assert relation(certificate) == relation(want[0])
    assert exact(certificate.unit) == exact(want[0].unit)
    assert relation(division) == relation(want[1])


def test_certification_through_the_kept_set_up(monkeypatch):
    # find_generator certifies through the set-up the basis keeps; replayed
    # with the plain list of its elements, every Mora certification of the
    # crossing, and the Mora division of every candidate of the b(s) search
    # benchmark's bases, which their chains decide, are the same
    calls, candidates = [], []

    def recording(p, divisors, order):
        calls.append((p, divisors, order))
        return mora_div(p, divisors, order)

    def candidate_recording(gb, candidate, chain, bound):
        candidates.append(
            (localb._poly_in_s(candidate, gb.order.arity), gb._divisors,
             gb.order))
        return verdict(gb, candidate, chain, bound)

    verdict = localb._chain_verdict
    monkeypatch.setattr(localb, "mora_div", recording)
    monkeypatch.setattr(localb, "_chain_verdict", candidate_recording)
    crossing = crossing_basis()
    localb.find_generator(crossing, 1, 64)
    bases = bsearch_bases()
    for f, gb in bases:
        localb.find_generator(gb, 2 * f.arity, 64)
    monkeypatch.undo()
    assert calls and len(candidates) > len(bases) + len(calls)

    def exact_relation(res):
        return [exact(q) for q in [res.unit, res.remainder] + res.quotients]

    kept = {id(gb._divisors): gb for _, gb in bases + [(None, crossing)]}
    for p, divisors, order in calls + candidates:
        gb = kept[id(divisors)]
        assert order is gb.order
        assert exact_relation(mora_div(p, divisors, order)) == \
            exact_relation(mora_div(p, list(gb.elements), order))
