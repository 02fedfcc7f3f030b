import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from bfunc.errors import InputError, ZeroLeadingTermError
from bfunc.groebner import (buchberger_global, buchberger_mora,
                            groebner_lazard, reduce_global)
from bfunc.localb import ann_fs
from bfunc.opdiv import _OpDivisors
from bfunc.orders import (MatrixOrder, elimination_order, operator_order,
                          series_order)
from bfunc.parser import parse_op, parse_poly
from bfunc.rationals import rat
from bfunc.sympoly import SymbolPoly, _Divisors, _packed
from bfunc.weyl import DiffOp, from_symbol

from conftest import rest_of

X = ["x"]
LO1 = series_order(3)


def P(text, names=X):
    return parse_poly(text, names)


def test_canonicalization_drops_zeros():
    p = SymbolPoly({(1, 0, 0): rat(0), (2, 0, 0): rat(3)})
    assert (1, 0, 0) not in p.terms
    assert p == SymbolPoly.monomial((2, 0, 0), 3)


def test_product_cancellation():
    assert P("(x + x^2 + x^3)*(x - x^2)") == P("x^2 - x^5")


def test_additive_inverse_and_identity():
    f = P("1 + 2*x - x^3")
    assert (f + f.scale(-1)).is_zero()
    assert f.scale(1) == f
    assert f * SymbolPoly.constant(1, 3) == f


def test_leading_data_row():
    f = parse_poly("3*x + x*y", ["x", "y"])
    lo = series_order(5)
    assert f.leading(lo) == ((1, 0, 0, 0, 0), 3)
    assert f.exps() == {(1, 0, 0, 0, 0), (1, 1, 0, 0, 0)}
    assert rest_of(f, lo) == parse_poly("x*y", ["x", "y"])


def test_leading_data_constant():
    f = SymbolPoly.constant(5, 3)
    assert f.le(LO1) == (0, 0, 0)
    assert rest_of(f, LO1).is_zero()


def test_leading_local_prefers_low_degree():
    f = P("x - x^2")
    assert f.leading(LO1) == ((1, 0, 0), 1)
    assert rest_of(f, LO1) == P("-x^2")


def test_zero_has_no_leading_data():
    with pytest.raises(ZeroLeadingTermError):
        SymbolPoly.zero().leading(LO1)


def test_min_total_degree():
    assert P("x^3").min_total_degree() == 3
    assert SymbolPoly.monomial((3, 0, 1)).min_total_degree() == 4
    assert P("-1 + 2*x - 2*x^2").min_total_degree() == 0
    assert SymbolPoly.zero().min_total_degree() == math.inf
    # the operator-division remainder of the worked example has a constant term
    assert P("-x^7 + x^5 - 1 + 2*x").min_total_degree() == 0


def test_truncate():
    f = P("1 + x + x^2 + x^3")
    assert f.truncate(2) == P("1 + x")
    assert f.truncate(0).is_zero()


def test_arity_mixing_rejected():
    with pytest.raises(InputError):
        P("x") + parse_poly("x", ["x", "y"])


def test_pow_and_partial():
    f = P("1 + x")
    assert f ** 3 == P("1 + 3*x + 3*x^2 + x^3")
    assert f ** 0 == SymbolPoly.constant(1, 3)
    assert P("x^3").partial(0) == P("3*x^2")
    assert P("x").partial(2).is_zero()


small = st.integers(-4, 4)
exps = st.tuples(st.integers(0, 3), st.integers(0, 2), st.integers(0, 3))
polys = st.dictionaries(exps, small, min_size=0, max_size=4).map(SymbolPoly)


@settings(deadline=None, max_examples=200)
@given(polys, polys, polys)
def test_ring_laws(f, g, h):
    assert (f + g) + h == f + (g + h)
    assert f + g == g + f
    assert (f * g) * h == f * (g * h)
    assert f * g == g * f
    assert f * (g + h) == f * g + f * h


@settings(deadline=None, max_examples=200)
@given(polys)
def test_lt_rest_decomposition(f):
    if f.is_zero():
        with pytest.raises(ZeroLeadingTermError):
            f.leading(LO1)
        return
    assert SymbolPoly.monomial(*f.leading(LO1)) + rest_of(f, LO1) == f
    top = LO1.key(f.le(LO1))
    for exp in rest_of(f, LO1).exps():
        assert LO1.key(exp) < top


def naive_terms(f, g, op):
    """Coefficient-wise sum, difference or product over plain dicts."""
    out = {}
    if op == "*":
        for ea, ca in f.terms.items():
            for eb, cb in g.terms.items():
                e = tuple(a + b for a, b in zip(ea, eb))
                out[e] = out.get(e, 0) + ca * cb
    else:
        sign = 1 if op == "+" else -1
        for e in set(f.terms) | set(g.terms):
            out[e] = f.terms.get(e, 0) + sign * g.terms.get(e, 0)
    return {e: c for e, c in out.items() if c != 0}


# g reuses f's exponents half the time, so sums and products cancel
@st.composite
def poly_pairs(draw):
    f = draw(polys)
    if draw(st.booleans()):
        return f, draw(polys)
    return f, SymbolPoly({e: draw(small) for e in f.terms})


@settings(deadline=None, max_examples=300)
@given(poly_pairs())
def test_arithmetic_matches_naive_dicts(pair):
    f, g = pair
    for op, got in (("+", f + g), ("-", f - g), ("*", f * g)):
        assert got.terms == naive_terms(f, g, op)
        assert all(got.terms.values())
    assert all(f.terms.values())
    # pairs that cancel inside one constructor call leave nothing behind
    assert SymbolPoly(list(f.terms.items()) + list((-f).terms.items())).is_zero()


# -- leading() and the keys it asks for ---------------------------------------

OP1 = operator_order(1)


def max_lead(f, order):
    exp = max(f.terms, key=order.key)
    return exp, f.terms[exp]


def test_leading_follows_the_asking_order():
    # the series order picks x, the operator order d^2 (its xi slot)
    f = SymbolPoly({(1, 0, 0): 1, (0, 0, 2): 2, (3, 0, 0): 3})
    twin = operator_order(1)
    assert twin == OP1 and twin is not OP1
    for order in (OP1, LO1, OP1, twin, LO1, twin, OP1):
        assert f.leading(order) == max_lead(f, order)
    assert f.le(LO1) == (1, 0, 0) and f.le(OP1) == (0, 0, 2)
    assert f.leading(twin)[1] == 2 and f.leading(LO1)[1] == 1


def test_packed_lead_answers_only_its_order():
    # a packed polynomial keeps its lead with the order object that asked;
    # an equal order gets the same lead, and any other order is refused on
    # every call, also once a lead is kept
    f = _packed(parse_op("x*dx + 2*dx^2 - x^3", X), OP1)
    lead = (OP1.key((0, 0, 2)), 2)
    assert f.leading(OP1) == lead and f.leading(OP1) == lead
    assert f.leading(operator_order(1)) == lead
    for _ in range(2):
        with pytest.raises(InputError, match="another order"):
            f.leading(LO1)
    assert f.leading(OP1) == lead


def test_monic_divides_int_coefficients_exactly():
    # 1/3 as a float is inexact, and scale would turn it into a Fraction
    # near, not equal to, 1/3
    ints = {(0, 0, 2): 3, (1, 0, 0): 2, (3, 0, 0): -5}
    m = DiffOp._raw(dict(ints)).monic(OP1)
    assert m.leading(OP1) == ((0, 0, 2), 1)
    assert m.terms == {e: Fraction(c, 3) for e, c in ints.items()}
    assert all(type(c) is Fraction for c in m.terms.values())


@settings(deadline=None, max_examples=200)
@given(poly_pairs())
def test_leading_after_arithmetic(pair):
    f, g = pair
    for order in (LO1, OP1):
        for p in (f, g):
            if p.terms:
                assert p.leading(order) == max_lead(p, order)
    for got in (f + g, f - g, f * g, -f, f.scale(3)):
        for order in (OP1, LO1, OP1):
            if got.terms:
                assert got.leading(order) == max_lead(got, order)
    # the operands' leads are still their own
    for p in (f, g):
        if p.terms:
            assert p.leading(LO1) == max_lead(p, LO1)


def test_reduce_global_keys_nothing(monkeypatch):
    # reduce_global runs on packed keys, which are the order's key: it
    # never calls order.key, on the divisors or on the dividend's terms
    names = ["x"]
    divisors = [parse_op(t, names) for t in ("x*dx + x + 1", "dx^2 - s")]
    order = elimination_order(1, ())
    p = parse_op("x^2*dx^3", names)
    want = reduce_global(p, divisors, order)
    keyed = []
    key = MatrixOrder.key

    def logging_key(self, exp):
        keyed.append(exp)
        return key(self, exp)

    monkeypatch.setattr(MatrixOrder, "key", logging_key)
    assert reduce_global(p, divisors, order) == want
    s3 = parse_op("s^3", names)
    assert reduce_global(s3, divisors, order) == s3
    assert keyed == []


def test_bases_and_their_set_ups_key_nothing(monkeypatch):
    # both strategies and the global loop pack their generators once and
    # hand out monic bases from the packed elements, and a basis builds
    # its division set-up from packed copies: between the tuple
    # generators and the tuple basis no exponent is keyed by order.key
    names = ["x", "y"]
    f = parse_poly("x^2 + y^3", names)
    gens = ann_fs(f) + [from_symbol(f)]
    order = operator_order(2)
    partials = [from_symbol(f.partial(i)) for i in range(2)]
    want = [buchberger_mora(gens, order).elements,
            groebner_lazard(gens, order).elements,
            buchberger_global(partials, elimination_order(2, ()))]
    keyed = []
    key = MatrixOrder.key

    def logging_key(self, exp):
        keyed.append(exp)
        return key(self, exp)

    monkeypatch.setattr(MatrixOrder, "key", logging_key)
    bases = [buchberger_mora(gens, order), groebner_lazard(gens, order)]
    for gb in bases:
        assert len(gb._divisors.copies) == len(gb.elements)
    got = [gb.elements for gb in bases]
    got.append(buchberger_global(partials, elimination_order(2, ())))
    assert keyed == []
    monkeypatch.undo()
    assert got == want


def test_primitives_factor_of_a_primitive_op_is_int_one():
    # an op that is primitive already is its own copy, packed, with the int
    # 1 as its factor; any other gets a rational factor k with copy = k * op
    order = operator_order(1)
    ops = [DiffOp._raw({(1, 0, 1): 2, (0, 0, 0): -3}),
           parse_op("4/3*x*dx - 2/9", X), parse_op("-2*x*dx + 6", X)]
    prepared = _Divisors(ops, order)
    copies, factors = prepared.copies, prepared.factors
    assert list(prepared) == ops
    assert all(h.packing is order.packing for h in copies)
    assert list(copies[0].unpacked().terms.items()) == \
        list(ops[0].terms.items())
    assert type(factors[0]) is int and factors[0] == 1
    assert factors[1:] == [Fraction(9, 2), Fraction(-1, 2)]
    for g, h, k in zip(ops, copies, factors):
        assert h.unpacked().terms == g.scale(k).terms
        assert math.gcd(*h.terms.values()) == 1 and h.leading(order)[1] > 0
    # the exit turns int quotients of the copies into those of the ops
    qbars = [{(0, 0, 0): 3}, {(0, 0, 1): 4}, {(1, 0, 0): 6}]
    for q, qbar, k in zip(prepared.quotients(DiffOp, qbars, 12), qbars,
                          factors):
        assert q.terms == {e: Fraction(c * k, 12) for e, c in qbar.items()}
    with pytest.raises(InputError):
        _Divisors(ops + [DiffOp.zero()], order)


def test_divisors_prepared_again_under_another_order_object():
    # prepare hands back a set-up made under the same order object, and
    # under any order when none is asked for; an equal order that is
    # another object, or a plain list, is prepared afresh
    order, other = operator_order(1), operator_order(1)
    assert other == order and other is not order
    ops = [parse_op("4/3*x*dx - 2/9", X)]
    prepared = _Divisors.prepare(ops, order)
    assert type(prepared) is _Divisors and prepared.order is order
    assert _Divisors.prepare(prepared, order) is prepared
    assert _Divisors.prepare(prepared, None) is prepared
    again = _Divisors.prepare(prepared, other)
    assert again is not prepared and again.order is other
    assert list(again) == ops
    assert [h.terms for h in again.copies] == \
        [h.terms for h in prepared.copies]
    # mora_div's plain set-up takes the operator division's as it is, but
    # not the other way round
    op_prepared = _OpDivisors.prepare(ops, order)
    assert _Divisors.prepare(op_prepared, order) is op_prepared
    assert type(_OpDivisors.prepare(prepared, order)) is _OpDivisors
