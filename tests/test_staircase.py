import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from bfunc.errors import InputError
from bfunc.orders import TIE_ORDERS, series_order
from bfunc.parser import parse_poly
from bfunc.printing import format_poly
from bfunc.rationals import Rational
from bfunc.staircase import _SeriesDivisors, series_approx_div
from bfunc.sympoly import SymbolPoly, _packed

from conftest import brute_region, rand_sympoly, rest_of
from tuple_division import build_partition, mono_div, tuple_series_approx_div

X = ["x"]
LO1 = series_order(3)


def P(text, names=X):
    return parse_poly(text, names)


def div1(ftext, gtexts, bound, names=X):
    f = P(ftext, names)
    gs = [P(t, names) for t in gtexts]
    return f, gs, series_approx_div(f, gs, series_order(2 * len(names) + 1), bound)


# ---------------------------------------------------------------- partition

def test_partition_shadowed_leader_is_empty():
    # (1,1) + N^2 sits inside (1,0) + N^2, so region 2 never matches
    part = build_partition([(1, 0), (1, 1)])
    grid = itertools.product(range(4), repeat=2)
    assert all(part.classify(e) != 1 for e in grid)


def test_partition_unit_leader_covers_everything():
    part = build_partition([(0, 0, 0)])
    assert part.classify((0, 0, 0)) == 0
    assert part.classify((5, 1, 2)) == 0


def test_partition_first_match_wins():
    part = build_partition([(1, 0), (0, 1)])
    assert part.classify((1, 1)) == 0
    part2 = build_partition([(2, 0, 0), (1, 1, 0)])
    assert part2.classify((2, 1, 0)) == 0


def test_partition_no_dominator_is_remainder():
    part = build_partition([(1, 0)])
    assert part.classify((0, 3)) is None


def test_partition_validation():
    with pytest.raises(InputError):
        build_partition([])
    with pytest.raises(InputError):
        build_partition([(1, 0), (1,)])
    with pytest.raises(InputError):
        build_partition([(-1, 0)])


def test_partition_main_example_staircase():
    # leading exponents of the worked basis for f = x^2 (y+1)^2 z^2;
    # slots (x, y, z, s, xi_x, xi_y, xi_z)
    leaders = [
        (2, 0, 2, 0, 0, 0, 0),   # f
        (0, 0, 0, 1, 0, 0, 0),   # s - (1/2) z dz
        (1, 0, 0, 0, 1, 0, 0),   # x dx - z dz
        (0, 0, 0, 0, 0, 1, 0),   # dy + y dy - z dz
        (1, 0, 3, 0, 0, 0, 1),   # x z^3 dz + ...
        (0, 0, 4, 0, 0, 0, 2),   # z^4 dz^2 + ...
    ]
    part = build_partition(leaders)
    # multiples of z^4 xi_z^2 with no x, s are caught by the last region
    assert part.classify((0, 0, 4, 0, 0, 0, 2)) == 5
    assert part.classify((0, 0, 6, 0, 0, 0, 3)) == 5
    # but z^k xi_z below that staircase step stay in the remainder
    assert part.classify((0, 0, 3, 0, 0, 0, 1)) is None
    assert part.classify((0, 0, 1, 0, 0, 0, 1)) is None


@settings(deadline=None, max_examples=200)
@given(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)),
                min_size=1, max_size=4),
       st.tuples(st.integers(0, 5), st.integers(0, 5)))
def test_partition_matches_brute_force(leaders, point):
    part = build_partition(leaders)
    assert part.classify(point) == brute_region(leaders, point)


# ----------------------------------------------------------------- mono_div

def test_mono_div_single_unit_lead():
    # x = x * 1 + 0 against the leading term of 1 + x
    f = P("x")
    part = build_partition([(0, 0, 0)])
    qs, r = mono_div(f, [((0, 0, 0), 1)], part)
    assert qs[0] == P("x")
    assert r.is_zero()


def test_mono_div_zero_dividend():
    part = build_partition([(1, 0, 0)])
    qs, r = mono_div(SymbolPoly.zero(), [((1, 0, 0), 1)], part)
    assert all(q.is_zero() for q in qs)
    assert r.is_zero()


def test_mono_div_two_divisors():
    # n=2 slots (x, y, s, xi, xi); divisor leads x and x*y
    names = ["x", "y"]
    f = parse_poly("x*y + y", names)
    leads = [((1, 0, 0, 0, 0), 1), ((1, 1, 0, 0, 0), 1)]
    part = build_partition([e for e, _ in leads])
    qs, r = mono_div(f, leads, part)
    assert qs[0] == parse_poly("y", names)
    assert qs[1].is_zero()
    assert r == parse_poly("y", names)


def test_mono_div_divides_exactly():
    # int coefficients, as series division passes them: an exact quotient
    # stays an int and any other is a Rational, never a float
    part = build_partition([(1, 0, 0)])
    f = SymbolPoly._raw({(1, 0, 0): 3, (2, 0, 0): 4, (0, 0, 1): 5})
    qs, r = mono_div(f, [((1, 0, 0), 2)], part)
    assert {e: (type(c), c) for e, c in qs[0].terms.items()} == {
        (0, 0, 0): (Rational, Rational(3, 2)), (1, 0, 0): (int, 2)}
    assert r.terms == {(0, 0, 1): 5}


@settings(deadline=None, max_examples=200)
@given(st.dictionaries(st.tuples(st.integers(0, 4), st.integers(0, 4)),
                       st.integers(-4, 4), min_size=0, max_size=5))
def test_mono_div_identity_and_supports(fdict):
    f = SymbolPoly(fdict)
    leads = [((1, 0), 2), ((0, 2), 1)]
    part = build_partition([e for e, _ in leads])
    qs, r = mono_div(f, leads, part)
    recomposed = r
    for q, (le, lc) in zip(qs, leads):
        recomposed = recomposed + q * SymbolPoly.monomial(le, lc)
    assert recomposed == f
    for i, q in enumerate(qs):
        for exp in q.exps():
            shifted = tuple(a + b for a, b in zip(exp, leads[i][0]))
            assert part.classify(shifted) == i
    for exp in r.exps():
        assert part.classify(exp) is None


# ------------------------------------------------------- series division

def test_series_div_geometric_example():
    f, gs, res = div1("x", ["1 + x"], 5)
    assert format_poly(res.quotients[0], X) == "x - x^2 + x^3 - x^4 + x^5"
    assert res.remainder.is_zero()
    assert format_poly(res.tail, X) == "-x^6"


def test_series_div_self():
    f, gs, res = div1("1 + x", ["1 + x"], 3)
    assert res.quotients[0] == P("1 - x^4")
    assert res.remainder.is_zero()
    assert res.tail == P("x^4 + x^5")
    # the quotient agrees with the exact quotient 1 below the bound
    assert res.quotients[0].truncate(3) == P("1")


def test_series_div_shifted_lead():
    f, gs, res = div1("x^2", ["x - x^2"], 4)
    assert res.quotients[0] == P("x + x^2 + x^3")
    assert res.remainder.is_zero()
    assert res.tail == P("x^5")


def test_series_div_validation():
    with pytest.raises(InputError):
        series_approx_div(P("x"), [P("x")], LO1, -1)
    with pytest.raises(InputError):
        from bfunc.orders import operator_order
        series_approx_div(P("x"), [P("x")], operator_order(1), 3)


def test_series_div_past_the_packed_limit():
    # dividend and divisors alike are keyed under the order, so a term of
    # total degree past its packing's limit is refused
    past = SymbolPoly({(LO1.packing.limit + 1, 0, 0): 1})
    with pytest.raises(InputError, match="does not fit the packed fields"):
        series_approx_div(past, [P("x")], LO1, 3)
    with pytest.raises(InputError, match="does not fit the packed fields"):
        series_approx_div(P("x"), [P("x") + past], LO1, 3)


def test_series_div_tail_past_the_packed_limit():
    # 1 / (1 + x^d): the second round's product has total degree 2d, which
    # is refused before any key is added once 2d passes the limit
    limit = LO1.packing.limit
    half = limit // 2
    res = series_approx_div(P("1"), [P(f"1 + x^{half}")], LO1, half)
    assert res.quotients[0] == P(f"1 - x^{half}")
    assert res.remainder.is_zero()
    assert res.tail == P(f"x^{2 * half}")
    with pytest.raises(InputError, match="does not fit the packed fields"):
        series_approx_div(P("1"), [P(f"1 + x^{half + 1}")], LO1, half + 1)


def exact(p):
    """A polynomial's terms, each coefficient with its type."""
    return {e: (type(c), c) for e, c in p.terms.items()}


def check_set_up(gs, order):
    """The packed set-up's leads and tails are those read off the tuple
    copies: each lead as (K, sign*K, coefficient), each tail in dict order
    with its top total degree, coefficient types included."""
    prepared = _SeriesDivisors(gs, order)
    packing = order.packing
    for h, lead, tail in zip(prepared.copies, prepared.leads,
                             prepared.tails):
        g = h.unpacked()
        exp, lc = g.leading(order)
        key = order.key(exp)
        assert lead == (key, packing.sign * key, lc)
        assert type(lead[2]) is type(lc)
        others = rest_of(g, order).terms
        top = max(map(sum, others), default=0)
        assert [(packing.unpack(k), type(c), c) for k, c in tail[0]] == \
            [(e, type(c), c) for e, c in others.items()]
        assert tail[1:] == (top - sum(exp), top)


def test_packed_series_div_matches_tuple_loop():
    # the packed loop gives the tuple loop's quotients, remainder and tail,
    # coefficient types included, for n = 1..3 and every tie, and the same
    # again when the dividend is handed over packed; the loop's leads and
    # tails are those of the tuple copies
    rng = random.Random(254)
    for n in (1, 2, 3):
        arity = 2 * n + 1
        for tie in TIE_ORDERS:
            order = series_order(arity, tie)
            for _ in range(20):
                f = rand_sympoly(rng, arity, terms=5, max_deg=3, zero_ok=True)
                gs = [rand_sympoly(rng, arity, terms=3, max_deg=2)
                      for _ in range(rng.randint(1, 3))]
                bound = rng.randint(0, 5)
                check_set_up(gs, order)
                want = tuple_series_approx_div(f, gs, order, bound)
                for dividend in (f, _packed(f, order)):
                    got = series_approx_div(dividend, gs, order, bound)
                    assert [exact(q) for q in got.quotients] == \
                        [exact(q) for q in want.quotients]
                    assert exact(got.remainder) == exact(want.remainder)
                    assert exact(got.tail) == exact(want.tail)
    f = _packed(P("1 + x"), series_order(3, "lex"))
    with pytest.raises(InputError, match="packed under another order"):
        series_approx_div(f, [P("x")], LO1, 3)


def test_series_div_takes_operands_packed_under_equal_orders():
    # equal orders that are distinct objects share one packing, so a
    # dividend packed, or a set-up prepared, under one divides under the
    # other as under one order
    order, twin = series_order(3), series_order(3)
    assert twin == order and twin is not order
    f, gs = P("1 + x - 2*x^3 + 1/3*x^5"), [P("x + x^2"), P("2*x^2 - x^4")]
    want = series_approx_div(f, gs, order, 5)
    for dividend, divisors in ((_packed(f, order), gs),
                               (f, _SeriesDivisors(gs, order)),
                               (_packed(f, order), _SeriesDivisors(gs, twin))):
        got = series_approx_div(dividend, divisors, twin, 5)
        assert [exact(q) for q in got.quotients] == \
            [exact(q) for q in want.quotients]
        assert exact(got.remainder) == exact(want.remainder)
        assert exact(got.tail) == exact(want.tail)


def test_series_div_remainder_off_staircase():
    names = ["x", "y"]
    f = parse_poly("y + x*y + y^3", names)
    g = parse_poly("x + y^2", names)
    res = series_approx_div(f, [g], series_order(5), 6)
    total = res.remainder + res.tail
    for q, gg in zip(res.quotients, [g]):
        total = total + q * gg
    assert total == f
    part = build_partition([g.le(series_order(5))])
    for exp in res.remainder.exps():
        assert part.classify(exp) is None


@settings(deadline=None, max_examples=200)
@given(st.dictionaries(st.tuples(st.integers(0, 4), st.integers(0, 2),
                                 st.integers(0, 3)),
                       st.integers(-3, 3), min_size=0, max_size=4),
       st.integers(1, 7))
def test_series_div_identity_and_tail(fdict, bound):
    f = SymbolPoly(fdict)
    gs = [P("1 + x"), P("x^2 - x^3")]
    before = [dict(q.terms) for q in [f] + gs]
    res = series_approx_div(f, gs, LO1, bound)
    total = res.remainder + res.tail
    for q, g in zip(res.quotients, gs):
        total = total + q * g
    assert total == f
    assert res.tail.is_zero() or res.tail.min_total_degree() > bound
    # the running sums are private: operands keep their terms and no
    # quotient or remainder shares a dict with them
    assert [q.terms for q in [f] + gs] == before
    for r in res.quotients + [res.remainder]:
        assert all(r.terms is not q.terms for q in [f] + gs)


@settings(deadline=None, max_examples=200)
@given(st.dictionaries(st.tuples(st.integers(0, 4), st.integers(0, 2),
                                 st.integers(0, 3)),
                       st.integers(-3, 3), min_size=1, max_size=4),
       st.integers(1, 5))
def test_series_div_monotone_refinement(fdict, bound):
    f = SymbolPoly(fdict)
    gs = [P("x - x^2 + x^3")]
    lo = series_order(3)
    small = series_approx_div(f, gs, lo, bound)
    big = series_approx_div(f, gs, lo, bound + 3)
    cut = bound - sum(gs[0].le(lo))
    assert small.quotients[0].truncate(cut) == big.quotients[0].truncate(cut)
    assert small.remainder.truncate(bound) == big.remainder.truncate(bound)
