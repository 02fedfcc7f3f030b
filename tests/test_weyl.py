import itertools
import math
from fractions import Fraction
from operator import add

import pytest
from hypothesis import example, given, settings, strategies as st

from bfunc import weyl
from bfunc.errors import InputError, ZeroLeadingTermError
from bfunc.orders import homogenized_order, operator_order, series_order
from bfunc.parser import parse_op, parse_poly
from bfunc.printing import format_poly
from bfunc.sympoly import SymbolPoly, _packed, _ring, accumulate
from bfunc.weyl import (DiffOp, FsAction, HomogOp, apply_action, apply_to_fs,
                        base_arity, e_part, from_symbol, op_mul, ord_e)

from conftest import act_on_poly, rand_op, rand_sympoly

import random

X = ["x"]
XY = ["x", "y"]


def OP(text, names=X):
    return parse_op(text, names)


# ----------------------------------------------------------------- product

def test_commutation_relation():
    assert OP("dx*x") == OP("x*dx + 1")
    assert OP("dx*x - x*dx") == OP("1")


def test_second_order_commutation():
    # derived by acting on x^k: both sides agree for k = 0..4
    lhs = OP("dx^2*x^2")
    rhs = OP("x^2*dx^2 + 4*x*dx + 2")
    assert lhs == rhs
    for k in range(5):
        g = parse_poly("x^%d" % k, X) if k else parse_poly("1", X)
        assert act_on_poly(lhs, g) == act_on_poly(rhs, g)


def test_cross_variable_commutation():
    assert OP("dx*y", XY) == OP("y*dx", XY)
    assert OP("dy*x", XY) == OP("x*dy", XY)
    assert OP("dx*(x*y)", XY) == OP("x*y*dx + y", XY)


def test_s_is_central():
    assert OP("dx*s") == OP("s*dx")
    assert OP("s*x") == OP("x*s")


def test_product_against_action_oracle():
    rng = random.Random(7)
    for _ in range(60):
        p = rand_op(rng, 2)
        q = rand_op(rng, 2)
        g = rand_sympoly(rng, 5, terms=3, max_deg=3)
        assert act_on_poly(op_mul(p, q), g) == act_on_poly(p, act_on_poly(q, g))


def test_product_associative_random():
    rng = random.Random(8)
    for _ in range(40):
        a, b, c = (rand_op(rng, 1, terms=2) for _ in range(3))
        assert op_mul(op_mul(a, b), c) == op_mul(a, op_mul(b, c))


def test_degree_loss_lemma():
    # min degree of a product drops by at most twice the left e-order
    rng = random.Random(9)
    for _ in range(60):
        p = rand_op(rng, 2, terms=3)
        q = rand_op(rng, 2, terms=3)
        prod = op_mul(p, q)
        if prod.is_zero():
            continue
        i, j, m = p.min_total_degree(), q.min_total_degree(), ord_e(p)
        assert prod.min_total_degree() >= i + j - 2 * m


def test_homogenized_product():
    # same commutator with the square of the homogenizing slot: dx*x in
    # arity 4 gives x*dx + h^2, which dehomogenizes to x*dx + 1
    d = HomogOp.monomial((0, 0, 1, 0))
    x = HomogOp.monomial((1, 0, 0, 0))
    prod = d * x
    assert prod == HomogOp({(1, 0, 1, 0): 1, (0, 0, 0, 2): 1})
    # homogeneous inputs stay homogeneous
    assert len({sum(e) for e in prod.exps()}) == 1
    # op_mul picks the homogenized product from the operand type alone
    assert op_mul(d, x) == prod
    # (x + dx)*(x - dx): -x*dx comes from the d-free left term and +x*dx
    # from the commutator expansion; they must cancel, not leave a 0 entry
    plain = op_mul(OP("x + dx"), OP("x - dx"))
    assert plain.terms == OP("x^2 + 1 - dx^2").terms
    ex, ed = (1, 0, 0, 0), (0, 0, 1, 0)
    hom = op_mul(HomogOp({ex: 1, ed: 1}), HomogOp({ex: 1, ed: -1}))
    assert hom.terms == {(2, 0, 0, 0): 1, (0, 0, 0, 2): 1, (0, 0, 2, 0): -1}
    for p in (plain, hom):
        assert all(p.terms.values())


def three_branch_op_mul(a, b):
    """op_mul as it was before the Leibniz terms were collected through
    sympoly.accumulate: separate loops for a d-free left term, for a pair
    with no d/x overlap, and for the full Leibniz expansion."""
    if not a.terms or not b.terms:
        return a.__class__.zero()
    length = a.arity
    if b.arity != length:
        raise InputError(f"arity mismatch: {length} vs {b.arity}")
    homogenized = isinstance(a, HomogOp)
    n = (length - 1) // 2
    data = {}
    b_items = list(b.terms.items())
    for ea, ca in a.terms.items():
        beta = ea[n + 1:n + 1 + n]
        if not any(beta):
            for eb, cb in b_items:
                exp = tuple(x + y for x, y in zip(ea, eb))
                c = ca * cb
                acc = data.get(exp)
                if acc is None:
                    data[exp] = c
                else:
                    acc = acc + c
                    if acc:
                        data[exp] = acc
                    else:
                        del data[exp]
            continue
        for eb, cb in b_items:
            gamma = eb[:n]
            caps = [min(beta[i], gamma[i]) for i in range(n)]
            cab = ca * cb
            if not any(caps):
                exp = tuple(x + y for x, y in zip(ea, eb))
                acc = data.get(exp)
                if acc is None:
                    data[exp] = cab
                else:
                    acc = acc + cab
                    if acc:
                        data[exp] = acc
                    else:
                        del data[exp]
                continue
            for nu in itertools.product(*(range(c + 1) for c in caps)):
                factor = 1
                for i in range(n):
                    if nu[i]:
                        factor *= math.comb(beta[i], nu[i]) * math.perm(gamma[i], nu[i])
                exp = list(x + y for x, y in zip(ea, eb))
                for i in range(n):
                    if nu[i]:
                        exp[i] -= nu[i]
                        exp[n + 1 + i] -= nu[i]
                if homogenized:
                    exp[-1] += 2 * sum(nu)
                exp = tuple(exp)
                c = cab * factor
                acc = data.get(exp)
                if acc is None:
                    data[exp] = c
                else:
                    acc = acc + c
                    if acc:
                        data[exp] = acc
                    else:
                        del data[exp]
    return a.__class__._raw(data)


@st.composite
def operator_pairs(draw):
    """Two operators of one class and arity.  The right factor reuses the
    left one's terms with random signs half the time, so products such as
    (x + dx)*(x - dx) cancel between the plain and the commutator terms."""
    cls = draw(st.sampled_from([DiffOp, HomogOp]))
    n = draw(st.integers(1, 2))
    arity = 2 * n + 1 + (cls is HomogOp)
    terms = st.dictionaries(st.tuples(*[st.integers(0, 2)] * arity),
                            st.integers(-3, 3), max_size=4)
    a = draw(terms)
    b = draw(terms)
    if draw(st.booleans()):
        b = {e: c * draw(st.sampled_from([1, -1])) for e, c in a.items()}
    return cls(a), cls(b)


@st.composite
def wide_operator_pairs(draw):
    """Two operators in three base variables with exponents up to 4 and
    int and Fraction coefficients, wrapped as the division loops wrap them.
    Pairs overlap in one index with beta_i and gamma_i both >= 2 (the int
    recurrence of op_mul walks k >= 2 and must never floor-divide a
    coefficient) and in several indices."""
    cls = draw(st.sampled_from([DiffOp, HomogOp]))
    arity = 7 + (cls is HomogOp)
    coeffs = st.one_of(st.integers(-3, 3),
                       st.fractions(min_value=-3, max_value=3,
                                    max_denominator=5))
    terms = st.dictionaries(st.tuples(*[st.integers(0, 4)] * arity),
                            coeffs, max_size=4)
    a, b = ({e: c for e, c in draw(terms).items() if c} for _ in range(2))
    return cls._raw(a), cls._raw(b)


@settings(deadline=None, max_examples=500)
@given(st.one_of(operator_pairs(), wide_operator_pairs()))
@example((OP("x + dx"), OP("x - dx")))
@example((HomogOp({(1, 0, 0, 0): 1, (0, 0, 1, 0): 1}),
          HomogOp({(1, 0, 0, 0): 1, (0, 0, 1, 0): -1})))
@example((DiffOp({(0, 0, 0, 0, 3, 0, 0): Fraction(1, 3)}),
          DiffOp({(4, 0, 0, 0, 0, 0, 0): Fraction(2, 5)})))
def test_op_mul_matches_three_branch_product(pair):
    # the same terms in the same order, with the same coefficient types
    a, b = pair
    got, want = op_mul(a, b), three_branch_op_mul(a, b)
    assert type(got) is type(want) is type(a)
    assert [(e, c, type(c)) for e, c in got.terms.items()] == \
        [(e, c, type(c)) for e, c in want.terms.items()]
    assert all(got.terms.values())


def tuple_op_mul(a, b):
    """op_mul as it was on exponent tuples, before it ran on packed keys:
    one pass over the term pairs, a pair overlapping in one index walking
    the int recurrence, in several the general multi-index sum, all
    collected by one accumulate."""
    if not a.terms or not b.terms:
        return a.__class__.zero()
    length = len(next(iter(a.terms)))
    if len(next(iter(b.terms))) != length:
        raise InputError(f"arity mismatch: {length} vs {b.arity}")
    n = (length - 1) // 2
    h = 2 if isinstance(a, HomogOp) else 0
    items = []
    push = items.append
    b_items = b.terms.items()
    for ea, ca in a.terms.items():
        dirs = [i for i in range(n) if ea[n + 1 + i]]
        for eb, cb in b_items:
            cab = ca * cb
            base = tuple(map(add, ea, eb))
            push((base, cab))
            if len(dirs) == 1:
                hits = dirs if eb[dirs[0]] else ()
            else:
                hits = [i for i in dirs if eb[i]] if dirs else ()
            if not hits:
                continue
            if len(hits) == 1:
                i = hits[0]
                beta, gamma = ea[n + 1 + i], eb[i]
                exp = list(base)
                f = 1
                for k in range(1, min(beta, gamma) + 1):
                    f = f * (beta - k + 1) * (gamma - k + 1) // k
                    exp[i] -= 1
                    exp[n + 1 + i] -= 1
                    exp[-1] += h
                    push((tuple(exp), cab * f))
                continue
            ranges = (range(min(ea[n + 1 + i], eb[i]) + 1) for i in hits)
            for nu in itertools.product(*ranges):
                if not any(nu):
                    continue
                factor = 1
                exp = list(base)
                for i, k in zip(hits, nu):
                    if k:
                        factor *= math.comb(ea[n + 1 + i], k) * math.perm(eb[i], k)
                        exp[i] -= k
                        exp[n + 1 + i] -= k
                exp[-1] += h * sum(nu)
                push((tuple(exp), cab * factor))
    return a.__class__._raw(accumulate({}, items))


def listed(p):
    """Terms in order, each coefficient with its type."""
    return [(e, c, type(c)) for e, c in p.terms.items()]


@settings(deadline=None, max_examples=500)
@given(st.one_of(operator_pairs(), wide_operator_pairs()))
@example((OP("dx*dy + dx^2*dy^3", XY), OP("x^2*y^3 + x*y - 2", XY)))
@example((HomogOp({(0, 0, 0, 0, 2, 3, 1, 0): Fraction(1, 3)}),
          HomogOp({(3, 2, 1, 0, 0, 0, 0, 1): 2, (1, 4, 0, 0, 0, 1, 0, 0): 5})))
def test_packed_op_mul_matches_tuple_body(pair):
    # the packed Leibniz routine gives the tuple body's terms, in the same
    # order and with the same coefficient types, both through the tuple
    # boundary and on operands packed under the division loops' orders
    a, b = pair
    want = tuple_op_mul(a, b)
    got = op_mul(a, b)
    assert type(got) is type(a) and listed(got) == listed(want)
    if not (a.terms and b.terms):
        return
    n = (a.arity - 1) // 2
    order_of = homogenized_order if type(a) is HomogOp else operator_order
    for tie in ("lex", "grevlex"):
        ring = _ring(order_of(n, tie).packing, type(a))
        got = op_mul(ring.of(a), ring.of(b))
        assert type(got) is ring
        assert listed(got.unpacked()) == listed(want)


def packed_pair(a, b, tie="grevlex"):
    """a and b packed under the order the division loops use for their
    class: homogenized_order for HomogOp, operator_order for DiffOp."""
    n = (a.arity - 1) // 2
    order_of = homogenized_order if type(a) is HomogOp else operator_order
    ring = _ring(order_of(n, tie).packing, type(a))
    return ring.of(a), ring.of(b)


def dividend_for(product, rng):
    """A nonempty dict keyed like the product: some of its keys with the
    opposite coefficient (they cancel), some with another one, and one key
    of its own."""
    into = {}
    for k, c in product.terms.items():
        pick = rng.randrange(3)
        if pick == 0:
            into[k] = -c
        elif pick == 1:
            into[k] = rng.choice([1, -2, Fraction(3, 4)])
    into[min(product.terms, default=0) - 1] = 7
    return into


@settings(deadline=None, max_examples=300)
@given(st.one_of(operator_pairs(), wide_operator_pairs()),
       st.randoms(use_true_random=False))
@example((OP("dx^2"), OP("x^3 + x*dx - 2")), random.Random(1))
@example((OP("x + dx"), OP("x - dx")), random.Random(2))
@example((HomogOp({(0, 0, 2, 0): 1}),
          HomogOp({(2, 0, 0, 2): 3, (1, 0, 1, 1): -1})), random.Random(3))
@example((HomogOp({(1, 0, 0, 0): 1, (0, 0, 1, 0): 1}),
          HomogOp({(1, 0, 0, 0): 1, (0, 0, 1, 0): -1})), random.Random(4))
def test_op_mul_into_adds_the_product(pair, rng):
    # op_mul(a, b, into) leaves into with the values, in the order, that
    # adding the collected product op_mul(a, b) gives, and returns every key
    # that entered into; monomial and multi-term left factors, DiffOp and
    # HomogOp rings, terms that cancel within the product and against into
    a, b = pair
    if not a.terms:
        return
    for tie in ("lex", "grevlex"):
        pa, pb = packed_pair(a, b, tie)
        product = op_mul(pa, pb)
        into = dividend_for(product, rng)
        before = set(into)
        want = accumulate(dict(into), product.terms.items())
        entered = op_mul(pa, pb, into)
        assert list(into.items()) == list(want.items())
        assert all(into.values())
        assert set(into) - before <= set(entered)


def test_op_mul_into_keeps_a_term_cancelled_midway_in_place():
    # in (dx + 1)*(x + 1) the constant term gets 1 from the walk of dx*x and
    # then 1 from 1*1: into's -1 there cancels after the first and is 1
    # after the second, in its old place, as adding the collected product
    # leaves it; a key the items bring in and cancel is gone at the end
    pa, pb = packed_pair(OP("dx + 1"), OP("x + 1"))
    x5 = pa.packing.pack((5, 0, 0))
    into = {0: -1, x5: 3}
    want = accumulate(dict(into), op_mul(pa, pb).terms.items())
    op_mul(pa, pb, into)
    assert list(into.items()) == list(want.items())
    assert list(into)[:2] == [0, x5] and into[0] == 1
    pa, pb = packed_pair(OP("x + dx"), OP("x - dx"))
    into = {x5: 3}
    want = accumulate(dict(into), op_mul(pa, pb).terms.items())
    entered = op_mul(pa, pb, into)
    assert list(into.items()) == list(want.items())
    assert set(into) - {x5} < set(entered)


def test_op_mul_takes_operands_packed_under_equal_orders():
    # equal orders that are distinct objects share one packing and one
    # ring, so operands packed under each multiply as under one order, in
    # both algebras; an order with another tie is still refused
    ha = HomogOp({(1, 0, 1, 0): 1, (0, 0, 2, 0): 2, (1, 1, 0, 0): -1})
    hb = HomogOp({(2, 0, 1, 0): 1, (0, 0, 1, 2): -1, (1, 0, 0, 1): 3})
    for order_of, x, y in (
            (operator_order, OP("x*dx + 2*dx^2 - x^3"),
             OP("x^2*dx - dx + 3*x")),
            (homogenized_order, ha, hb)):
        order, twin = order_of(1), order_of(1)
        assert twin == order and twin is not order
        want = op_mul(_packed(x, order), _packed(y, order))
        got = op_mul(_packed(x, order), _packed(y, twin))
        assert type(got) is type(want) and listed(got) == listed(want)
        into = {}
        op_mul(_packed(x, twin), _packed(y, order), into)
        assert list(into.items()) == list(want.terms.items())
        with pytest.raises(InputError, match="different orders"):
            op_mul(_packed(x, order), _packed(y, order_of(1, "lex")))


def test_op_mul_into_takes_packed_operands_only():
    a, b = OP("x*dx + 1"), OP("dx^2 - x")
    pa, pb = packed_pair(a, b)
    for x, y in ((a, b), (pa, b), (a, pb)):
        into = {}
        with pytest.raises(InputError):
            op_mul(x, y, into)
        assert into == {}
    assert op_mul(pa, pb.__class__.zero(), {1: 2}) == []


def test_op_mul_into_refuses_the_degree_limit_as_without():
    # the top degree is checked before any term is added, so a refused
    # product leaves into as it was, with the message of the plain call
    order = operator_order(1)
    limit = order.packing.limit
    ring = _ring(order.packing, DiffOp)
    x = ring.of(DiffOp.monomial((limit // 2, 0, 0)))
    ok = ring.of(DiffOp.monomial((0, limit - limit // 2 - 1, 1)))
    big = ring.of(DiffOp.monomial((0, limit - limit // 2, 1)))
    into = {0: 1}
    entered = op_mul(ok, x, into)
    assert into == accumulate({0: 1}, op_mul(ok, x).terms.items())
    assert set(entered) == set(into) - {0}
    with pytest.raises(InputError) as plain:
        op_mul(big, x)
    into = {0: 1}
    with pytest.raises(InputError) as added:
        op_mul(big, x, into)
    assert str(added.value) == str(plain.value)
    assert into == {0: 1}


def repeated(p, k):
    """p to the k >= 1 by k - 1 products, each by p on the right."""
    out = p
    for _ in range(k - 1):
        out = out * p
    return out


def test_power_by_squaring_matches_repeated_products(monkeypatch,
                                                      time_limit):
    # powers of random operators, of (x*dx + 1) and of commutative
    # polynomials are the repeated products, coefficient types included
    rng = random.Random(25)
    cases = [(rand_op(rng, rng.randint(1, 2), terms=3), rng.randint(1, 5))
             for _ in range(40)]
    cases += [(OP("x*dx + 1"), k) for k in range(1, 10)]
    cases += [(rand_sympoly(rng, 3, terms=3), rng.randint(1, 5))
              for _ in range(20)]
    for p, k in cases:
        got, want = p ** k, repeated(p, k)
        assert type(got) is type(p)
        assert {e: (type(c), c) for e, c in got.terms.items()} == \
            {e: (type(c), c) for e, c in want.terms.items()}
    # 30000 = 0b111010100110000: x^30000 takes 14 squarings and 6 products
    # for the set bits past the first, not 29999 products
    products = []

    def counting(a, b):
        products.append((a, b))
        return op_mul(a, b)

    monkeypatch.setattr(weyl, "op_mul", counting)
    assert OP("x^30000").terms == {(30000, 0, 0): 1}
    assert len(products) == 14 + 6


def test_product_past_the_packed_field_raises():
    # the product's top degree is checked before any key is added, so a
    # product whose exponents would spill into the next field raises
    # instead of wrapping; one just inside the limit multiplies exactly
    order = operator_order(1)
    limit = order.packing.limit
    ring = _ring(order.packing, DiffOp)
    x = DiffOp.monomial((limit // 2, 0, 0))
    s = DiffOp.monomial((0, limit - limit // 2, 0))
    assert op_mul(s, x).terms == {(limit // 2, limit - limit // 2, 0): 1}
    assert op_mul(ring.of(s), ring.of(x)).unpacked() == op_mul(s, x)
    big = DiffOp.monomial((0, limit - limit // 2 + 1, 0))
    for a, b in ((big, x), (ring.of(big), ring.of(x))):
        with pytest.raises(InputError):
            op_mul(a, b)
    with pytest.raises(InputError):
        op_mul(DiffOp.monomial((limit + 1, 0, 0)), x)


def test_op_mul_arity_mismatch():
    with pytest.raises(InputError):
        op_mul(OP("dx"), OP("dx", XY))


# ---------------------------------------------------------------- symbols

def test_symbol_round_trip():
    p = OP("(x + x*y)*dx^2 + x*dx + 1", XY)
    op = from_symbol(SymbolPoly(p.terms))
    assert isinstance(op, DiffOp) and op.terms == p.terms
    rng = random.Random(10)
    for _ in range(30):
        q = rand_op(rng, 2)
        assert from_symbol(SymbolPoly(q.terms)).terms == q.terms


def test_symbol_is_not_ring_map():
    prod = op_mul(OP("dx"), OP("x"))
    commutative = SymbolPoly(OP("dx").terms) * SymbolPoly(OP("x").terms)
    assert prod.terms != commutative.terms


# ---------------------------------------------------------------- e-grading

def test_ord_e_and_in_e_rows():
    p = OP("x*dx^2 + x^2*dx^2 + x*dx + 1")
    assert ord_e(p) == 2
    # the initial part: the terms of top e-weight
    initial = e_part(p, ord_e(p))
    assert initial.terms == OP("x*dx^2 + x^2*dx^2").terms
    assert initial.leading(series_order(3)) == ((1, 0, 2), 1)

    q = OP("(x + x*y)*dx^2 + x*dx + 1", XY)
    assert ord_e(q) == 2

    c = DiffOp.constant(7, 3)
    assert ord_e(c) == 0
    assert e_part(c, ord_e(c)) == SymbolPoly.constant(7, 3)


def test_ord_e_zero_rejected():
    with pytest.raises(ZeroLeadingTermError):
        ord_e(DiffOp.zero())


def test_lm_bridge_between_orders():
    # the operator-order leading monomial always comes from the e-initial part
    rng = random.Random(11)
    op_ord, lo = operator_order(2), series_order(5)
    for _ in range(200):
        p = rand_op(rng, 2, terms=4)
        assert p.le(op_ord) == e_part(p, ord_e(p)).le(lo)


def test_e_part():
    p = OP("dx^2")
    assert e_part(p, 2).terms == p.terms
    assert e_part(p, 1).is_zero()
    rbar = OP("-x^7*dx^2 + x^5*dx - x^7*dx - 1 + 2*x - 2*x^2 + 2*x^3 - 2*x^4"
              " + 2*x^5 - x^6")
    assert format_poly(e_part(rbar, 0).truncate(5), X) == \
        "-1 + 2*x - 2*x^2 + 2*x^3 - 2*x^4"
    assert e_part(rbar, 2).truncate(5).is_zero()  # the xi^2 term has degree 9


# ------------------------------------------------------------------ actions

def F():
    return parse_poly("x^2*(y + 1)^2*z^2", ["x", "y", "z"])


def test_apply_to_fs_identity_op():
    f = F()
    act = apply_to_fs(DiffOp.constant(1, 7), f)
    assert act.numerator == SymbolPoly.constant(1, 7)
    assert act.denom_power == 0


def test_annihilator_row():
    f = F()
    p1 = OP("-2*s + z*dz", ["x", "y", "z"])
    assert apply_to_fs(p1, f).is_zero()


def test_action_of_derivative():
    # dx . f^s = s f_x / f . f^s
    f = parse_poly("x^2 + x*y + x", XY)
    act = apply_to_fs(OP("dx", XY), f)
    s = SymbolPoly.variable(2, 5)
    fx = parse_poly("2*x + y + 1", XY)
    assert act.equivalent(FsAction(s * fx, 1), f)


def test_local_functional_equation_row():
    # dx . f^(s+1) = (s+1)(1 + 2x + y) f^s for f = x^2 + xy + x
    f = parse_poly("x^2 + x*y + x", XY)
    start = FsAction(f, 0)          # f . f^s = f^(s+1)
    left = apply_action(OP("dx", XY), start, f)
    s1 = SymbolPoly.variable(2, 5) + SymbolPoly.constant(1, 5)
    unit = parse_poly("1 + 2*x + y", XY)
    assert left.equivalent(FsAction(s1 * unit, 0), f)


def test_global_functional_equation_witness():
    # (dx dy - dy^2) . f^(s+1) = (s+1)^2 f^s certifies the global b-function
    f = parse_poly("x^2 + x*y + x", XY)
    start = FsAction(f, 0)
    left = apply_action(OP("dx*dy - dy^2", XY), start, f)
    s1 = SymbolPoly.variable(2, 5) + SymbolPoly.constant(1, 5)
    assert left.equivalent(FsAction(s1 * s1, 0), f)


def test_action_linear_and_multiplicative():
    rng = random.Random(12)
    f = parse_poly("x^2 + y^3", XY)
    for _ in range(40):
        p = rand_op(rng, 2, terms=2, max_deg=2)
        q = rand_op(rng, 2, terms=2, max_deg=2)
        both = apply_to_fs(p + q, f)
        pa, qa = apply_to_fs(p, f), apply_to_fs(q, f)
        k = max(pa.denom_power, qa.denom_power)
        summed = FsAction(pa.numerator * f ** (k - pa.denom_power)
                          + qa.numerator * f ** (k - qa.denom_power), k)
        assert both.equivalent(summed, f)
        # action of a product = composition of actions
        prod = apply_to_fs(op_mul(p, q), f)
        composed = apply_action(p, apply_to_fs(q, f), f)
        assert prod.equivalent(composed, f)


def test_apply_to_fs_validation():
    with pytest.raises(InputError, match="f must be nonzero"):
        apply_to_fs(OP("dx"), SymbolPoly.zero())
    with pytest.raises(InputError):
        apply_to_fs(OP("dx"), parse_poly("s", X))


def test_apply_to_fs_checks_f_once(monkeypatch):
    calls = []

    def counting(f):
        calls.append(f)
        return base_arity(f)

    monkeypatch.setattr("bfunc.weyl.base_arity", counting)
    f = F()
    assert apply_to_fs(OP("-2*s + z*dz", ["x", "y", "z"]), f).is_zero()
    assert len(calls) == 1
    apply_action(OP("dx", ["x", "y", "z"]), FsAction(f, 0), f)
    assert len(calls) == 2
