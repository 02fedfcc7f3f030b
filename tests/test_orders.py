import pickle

import pytest
from hypothesis import given, settings, strategies as st

from bfunc.errors import InputError
from bfunc.orders import (WIDTH, MatrixOrder, elimination_order,
                          homogenized_order, operator_order, series_order)
from bfunc.parser import parse_poly
from bfunc.printing import format_poly

from conftest import rest_of, written_out_key

exps3 = st.tuples(*[st.integers(0, 6)] * 3)


def test_series_order_prefers_low_degree():
    # under the local order, x^2 is smaller than x (arity 3: x, s, xi)
    lo = series_order(3)
    assert lo.key((2, 0, 0)) < lo.key((1, 0, 0))
    assert lo.key((1, 0, 0)) > lo.key((2, 0, 0))
    assert lo.key((1, 0, 0)) == lo.key((1, 0, 0))


def test_series_leading_monomial_row():
    # f = 3 x1 + x1 x2 has leading monomial x1 under the local order
    f = parse_poly("3*x + x*y", ["x", "y"])
    lo = series_order(5)
    assert f.le(lo) == (1, 0, 0, 0, 0)
    assert f.leading(lo) == ((1, 0, 0, 0, 0), 3)
    assert format_poly(rest_of(f, lo), ["x", "y"]) == "x*y"


def test_operator_order_weight_rows():
    # n=1 slots (x, s, xi): x1 xi1^2 beats x1^2 xi1^2 (same e-weight,
    # lower degree wins on the second row)
    op = operator_order(1)
    assert op.key((2, 0, 2)) < op.key((1, 0, 2))
    # higher e-weight always wins
    assert op.key((0, 0, 2)) > op.key((5, 0, 1))
    # s counts toward e-weight like a xi
    assert op.key((0, 1, 0)) > op.key((3, 0, 0))


def test_arity_mismatch_rejected():
    lo = series_order(3)
    with pytest.raises(InputError):
        lo.key((1, 0))
    with pytest.raises(InputError):
        lo.key((1, 0, 0, 0))


def test_tie_order_names():
    for tie in ("lex", "grlex", "grevlex"):
        order = series_order(3, tie)
        assert order.key((1, 0, 0)) != order.key((0, 0, 1))
    with pytest.raises(InputError):
        series_order(3, "mystery")


def test_elimination_order_blocks_first():
    # any power of an eliminated variable outweighs everything else
    order = elimination_order(3, (1,))
    a = (0, 1, 0, 0, 0, 0, 0)
    b = (9, 0, 9, 9, 9, 0, 9)
    assert order.key(a) > order.key(b)
    # the xi partner of an eliminated slot is eliminated too
    c = (0, 0, 0, 0, 0, 1, 0)
    assert order.key(c) > order.key(b)


def test_homogenized_order_degree_first():
    order = homogenized_order(1)
    # arity 4: (x, s, xi, h); total degree decides first
    assert order.key((0, 0, 1, 2)) > order.key((1, 0, 1, 0))


@settings(deadline=None, max_examples=200)
@given(exps3, exps3, exps3)
def test_order_axioms(a, b, c):
    for order in (series_order(3), operator_order(1),
                  MatrixOrder(rows=operator_order(1).rows, tie="lex", arity=3)):
        ka, kb = order.key(a), order.key(b)
        assert (ka == kb) == (a == b)
        # comparability + transitivity through sortability of keys
        trio = sorted([a, b, c], key=order.key)
        assert order.key(trio[0]) <= order.key(trio[1]) <= order.key(trio[2])


@settings(deadline=None, max_examples=200)
@given(exps3, exps3, st.tuples(*[st.integers(0, 4)] * 3))
def test_order_translation_invariance(a, b, c):
    for order in (series_order(3), operator_order(1)):
        ka = order.key(tuple(x + y for x, y in zip(a, c)))
        kb = order.key(tuple(x + y for x, y in zip(b, c)))
        assert (order.key(a) < order.key(b)) == (ka < kb)
        assert (order.key(a) == order.key(b)) == (ka == kb)


@settings(deadline=None, max_examples=200)
@given(exps3, exps3)
def test_series_order_total_degree_dominates(a, b):
    lo = series_order(3)
    if sum(a) > sum(b):
        assert lo.key(a) < lo.key(b)


def all_orders(n, block, tie):
    return [series_order(2 * n + 1, tie), operator_order(n, tie),
            elimination_order(n, block, tie), homogenized_order(n, tie),
            MatrixOrder(rows=(), tie=tie, arity=2 * n + 1)]


@settings(deadline=None, max_examples=200)
@given(st.integers(1, 3), st.lists(st.integers(0, 12), min_size=16, max_size=16),
       st.sets(st.integers(0, 2), min_size=1))
def test_key_values(n, slots, block):
    # order.key is the packed key, and it sorts as the written-out key does
    block = sorted(i for i in block if i < n)
    for tie in ("lex", "grlex", "grevlex"):
        for order in all_orders(n, block, tie):
            a, b = tuple(slots[:order.arity]), tuple(slots[8:8 + order.arity])
            ka, kb = order.key(a), order.key(b)
            assert ka == order.packing.pack(a) and kb == order.packing.pack(b)
            assert (ka < kb) == (written_out_key(order, a)
                                 < written_out_key(order, b))
            assert (ka == kb) == (a == b)


@settings(deadline=None, max_examples=200)
@given(st.integers(1, 3), st.lists(st.integers(0, 9), min_size=16, max_size=16),
       st.sets(st.integers(0, 2), min_size=1))
def test_packing_matches_key(n, slots, block):
    # the division loops hold each exponent as its packed key K: K orders
    # as the written-out key, unpacks to the exponent, adds as the exponents
    # add, and its guard-bit test agrees with slotwise divisibility
    block = sorted(i for i in block if i < n)
    for tie in ("lex", "grlex", "grevlex"):
        for order in all_orders(n, block, tie):
            packing = order.packing
            a, b = tuple(slots[:order.arity]), tuple(slots[8:8 + order.arity])
            ka, kb = packing.pack(a), packing.pack(b)
            assert (ka < kb) == (written_out_key(order, a)
                                 < written_out_key(order, b))
            assert (ka == kb) == (a == b)
            assert packing.unpack(ka) == a and packing.unpack(kb) == b
            assert packing.pack(tuple(x + y for x, y in zip(a, b))) == ka + kb
            assert packing.divides(ka, kb) == all(
                x <= y for x, y in zip(a, b))
            assert packing.degree(ka) == sum(a)
            assert packing.join(ka, kb) == packing.pack(tuple(map(max, a, b)))
            # the first digit is the first written-out value, and its band
            # holds exactly the keys with that digit
            first = written_out_key(order, a)[0]
            assert packing.first(ka) == first
            lo, hi = packing.band(first)
            assert lo <= ka < hi
            assert (lo <= kb < hi) == (written_out_key(order, b)[0] == first)


@pytest.mark.parametrize("tie", ["lex", "grlex", "grevlex"])
def test_packing_at_the_field_limit(tie):
    # up to the limit the packed key still orders and unpacks exactly; one
    # past it, in total degree or in a weight row's value, raises instead
    # of wrapping into a neighbouring field
    heavy = MatrixOrder(rows=((300, 1, -300),), tie=tie, arity=3)
    for order in all_orders(1, [0], tie) + [heavy]:
        packing = order.packing
        top = (2 ** (WIDTH - 1) - 1) // max(
            [1] + [abs(v) for row in order.rows for v in row])
        assert packing.limit == top
        edge = [(top, 0) + (0,) * (order.arity - 2),
                (0,) * (order.arity - 1) + (top,),
                (top - 1, 1) + (0,) * (order.arity - 2),
                (1,) + (0,) * (order.arity - 2) + (top - 1,),
                (0,) * order.arity]
        for a in edge:
            assert packing.unpack(packing.pack(a)) == a
            assert packing.degree(packing.pack(a)) == sum(a)
            assert packing.first(packing.pack(a)) == \
                written_out_key(order, a)[0]
            for b in edge:
                assert (packing.pack(a) < packing.pack(b)) == \
                    (written_out_key(order, a) < written_out_key(order, b))
        for past in [(top + 1,) + (0,) * (order.arity - 1),
                     (top, 1) + (0,) * (order.arity - 2),
                     (-1,) + (0,) * (order.arity - 1)]:
            with pytest.raises(InputError):
                packing.pack(past)
            with pytest.raises(InputError):
                order.key(past)
        with pytest.raises(InputError):
            packing.pack((0,) * (order.arity + 1))


def test_order_pickles_after_packing():
    # the packing an order keeps is left out of its pickle, and the
    # unpickled order gets the same one back
    order = operator_order(2)
    key = order.packing.pack((1, 0, 2, 0, 1))
    copy = pickle.loads(pickle.dumps(order))
    assert copy == order and "packing" not in vars(copy)
    assert copy.packing is order.packing
    assert copy.packing.pack((1, 0, 2, 0, 1)) == key


def test_equal_orders_share_one_packing():
    # one packing per order value: equal orders that are distinct objects
    # share it, and unequal ones do not
    twin = operator_order(2)
    assert twin is not operator_order(2)
    assert operator_order(2).packing is operator_order(2).packing
    assert twin.packing is MatrixOrder(twin.rows, twin.tie, 5).packing
    assert operator_order(2, "lex").packing is not twin.packing
    assert series_order(5).packing is not twin.packing
