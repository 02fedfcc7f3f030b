import math
import random
from fractions import Fraction

import pytest

from bfunc import groebner, localb, sympoly
from bfunc.errors import InputError
from bfunc.groebner import (MoraResult, _homogenize, _primitive,
                            buchberger_global, buchberger_mora, ecart,
                            groebner_lazard, mora_div, reduce_global, spair)
from bfunc.localb import ann_fs
from bfunc.orders import homogenized_order, operator_order
from bfunc.parser import parse_op, parse_poly
from bfunc.rationals import Rational, rat
from bfunc.sympoly import SymbolPoly, _packed
from bfunc.weyl import DiffOp, HomogOp, from_symbol, op_mul, ord_e

from conftest import rand_op, unpacked

X = ["x"]
XYZ = ["x", "y", "z"]
ORD1 = operator_order(1)
ORD3 = operator_order(3)


def OP(text, names=X):
    return parse_op(text, names)


def _divides(a, b):
    return all(x <= y for x, y in zip(a, b))


def check_mora(p, divisors, res, order):
    total = res.remainder
    for q, g in zip(res.quotients, divisors):
        total = total + op_mul(q, g)
    assert total == op_mul(res.unit, p)
    # the unit is an invertible series: e-order 0, nonzero constant term
    assert ord_e(res.unit) == 0
    assert res.unit.coeff((0,) * p.arity) != 0
    if not res.remainder.is_zero():
        lead = res.remainder.le(order)
        for g in divisors:
            ge = g.le(order)
            assert any(a < b for a, b in zip(lead, ge))


def reference_basis():
    texts = [
        "x^2*(y + 1)^2*z^2",
        "-2*s + z*dz",
        "-x*dx + z*dz",
        "-dy + x*dx - y*dy",
        "-x*z^3*dz - 2*x*z^2",
        "-z^4*dz^2 - 2*x*z^2*dx - 2*z^3*dz - 2*z^2",
    ]
    return [OP(t, XYZ) for t in texts]


def example_gb():
    f = parse_poly("x^2*(y + 1)^2*z^2", XYZ)
    gens = ann_fs(f) + [from_symbol(f)]
    return buchberger_mora(gens, ORD3), gens


def s_poly(coeffs, arity):
    out = DiffOp.zero()
    n = (arity - 1) // 2
    for i, c in enumerate(coeffs):
        exp = [0] * arity
        exp[n] = i
        out = out + DiffOp.monomial(tuple(exp), c)
    return out


# ---------------------------------------------------------------- mora_div

def test_ecart():
    assert ecart(OP("x + x^3"), ORD1) == 2
    assert ecart(OP("dx"), ORD1) == 0


def test_mora_self():
    p = OP("(1 + x)*dx + x")
    res = mora_div(p, [p], ORD1)
    assert res.remainder.is_zero()
    assert res.unit == DiffOp.constant(1, 3)
    assert res.quotients[0] == DiffOp.constant(1, 3)


def test_mora_needs_unit():
    # x is in the local ideal of x - x^2 only through the unit 1 - x
    p = OP("x")
    g = OP("x - x^2")
    res = mora_div(p, [g], ORD1)
    assert res.remainder.is_zero()
    check_mora(p, [g], res, ORD1)


def test_mora_irreducible():
    res = mora_div(OP("s"), [OP("x*dx")], ORD1)
    assert res.remainder == OP("s")
    check_mora(OP("s"), [OP("x*dx")], res, ORD1)


def test_mora_identity_random():
    rng = random.Random(31)
    pools = [
        [OP("x*dx - s"), OP("x^2")],
        [OP("(1 + x)*dx + x")],
        [OP("dx^2 + x*dx + 1"), OP("s - x")],
    ]
    for _ in range(60):
        p = rand_op(rng, 1, terms=3, max_deg=3)
        divisors = pools[rng.randrange(len(pools))]
        res = mora_div(p, divisors, ORD1)
        check_mora(p, divisors, res, ORD1)


def test_mora_reduction_trace():
    gb, _ = example_gb()
    # s, s^2 - s/2, s^3 - 3/2 s^2 + s/2 stay nonzero; the quartic drops to 0
    for coeffs in ([0, 1], [0, rat(-1, 2), 1], [0, rat(1, 2), rat(-3, 2), 1]):
        p = s_poly(coeffs, 7)
        assert not mora_div(p, gb.elements, ORD3).remainder.is_zero()
    b = s_poly([rat(1, 4), rat(3, 2), rat(13, 4), 3, 1], 7)
    res = mora_div(b, gb.elements, ORD3)
    assert res.remainder.is_zero()
    check_mora(b, gb.elements, res, ORD3)


# ------------------------------------------------------------------- spair

def test_spair_self():
    p = OP("(1 + x)*dx + x")
    assert spair(p, p, ORD1).is_zero()


def test_spair_commutator():
    # lcm exponent x xi; x . dx - (x dx + 1) = -1
    assert spair(OP("dx"), OP("x*dx + 1"), ORD1) == OP("-1")


def test_spair_cancels_leads():
    rng = random.Random(32)
    for _ in range(60):
        p, q = rand_op(rng, 1, terms=3), rand_op(rng, 1, terms=3)
        sp = spair(p, q, ORD1)
        if sp.is_zero():
            continue
        lcm = tuple(max(a, b) for a, b in zip(p.le(ORD1), q.le(ORD1)))
        assert ORD1.key(sp.le(ORD1)) < ORD1.key(lcm)


def test_ratio_lowest_terms_positive_denominator():
    # two ints go through math.gcd, anything else through Rational; both
    # give ints in lowest terms with the sign on the numerator
    cases = [(6, 4, (3, 2)), (-6, 4, (-3, 2)), (6, -4, (-3, 2)),
             (-6, -4, (3, 2)), (0, 5, (0, 1)), (0, -5, (0, 1)),
             (7, 1, (7, 1)), (-7, -1, (7, 1)), (1, -3, (-1, 3)),
             (Fraction(3, 4), -6, (-1, 8)), (-10, Fraction(-5, 3), (6, 1)),
             (Fraction(0), 2, (0, 1))]
    for c, d, want in cases:
        got = groebner._ratio(c, d)
        assert got == want and all(type(v) is int for v in got)
        assert Fraction(*got) == Fraction(c) / Fraction(d)


# -------------------------------------------------------------- buchberger

def test_gb_singletons():
    for gen in (OP("dx"), OP("1")):
        gb = buchberger_mora([gen], ORD1)
        assert gb.elements == [gen]
        gl = groebner_lazard([gen], ORD1)
        assert gl.elements == [gen]


def test_gb_local_unit_cancellation():
    # locally (x - x^2, x^2) = (x)
    gb = buchberger_mora([OP("x - x^2"), OP("x^2")], ORD1)
    assert any(g.le(ORD1) == (1, 0, 0) for g in gb.elements)
    gl = groebner_lazard([OP("x - x^2"), OP("x^2")], ORD1)
    assert sorted(g.le(ORD1) for g in gb.elements) == \
        sorted(g.le(ORD1) for g in gl.elements)


def test_gb_matches_reference_basis():
    gb, gens = example_gb()
    reference = reference_basis()
    for g in reference:
        assert mora_div(g, gb.elements, ORD3).remainder.is_zero()
    for g in gb.elements:
        assert mora_div(g, reference, ORD3).remainder.is_zero()
    # leading exponent sets agree
    assert {g.le(ORD3) for g in reference} == {g.le(ORD3) for g in gb.elements}


def test_gb_spairs_reduce_to_zero():
    gb, _ = example_gb()
    els = gb.elements
    for i in range(len(els)):
        for j in range(i + 1, len(els)):
            sp = spair(els[i], els[j], ORD3)
            if sp.is_zero():
                continue
            assert mora_div(sp, els, ORD3).remainder.is_zero()


def test_membership_random_combinations():
    rng = random.Random(33)
    gb = buchberger_mora([OP("x*dx - s"), OP("x^2")], ORD1)
    for _ in range(60):
        p = DiffOp.zero()
        for g in gb.elements:
            p = p + op_mul(rand_op(rng, 1, terms=2, max_deg=2, zero_ok=True), g)
        if p.is_zero():
            continue
        assert mora_div(p, gb.elements, ORD1).remainder.is_zero()


def corpus_ideals():
    from bfunc.localb import ann_fs as A
    out = []
    for text, names in [("x^2", X), ("x^2 + x^3", X), ("x*y", ["x", "y"]),
                        ("x^2 + y^2", ["x", "y"])]:
        f = parse_poly(text, names)
        out.append((A(f) + [from_symbol(f)], operator_order(len(names))))
    out.append((example_gb()[1], ORD3))
    out.append(([OP("x - x^2"), OP("x^2")], ORD1))
    return out


def test_strategy_agreement():
    for gens, order in corpus_ideals():
        gm = buchberger_mora(gens, order)
        gl = groebner_lazard(gens, order)
        for g in gl.elements:
            assert mora_div(g, gm.elements, order).remainder.is_zero()
        for g in gm.elements:
            assert mora_div(g, gl.elements, order).remainder.is_zero()


def assert_reduced(basis, order):
    """Monic, sorted by lead key, and no term divisible by another lead."""
    leads = [g.le(order) for g in basis]
    assert basis and all(g.leading(order)[1] == 1 for g in basis)
    keys = [order.key(e) for e in leads]
    assert keys == sorted(keys) and len(set(keys)) == len(keys)
    for i, g in enumerate(basis):
        for j, lead in enumerate(leads):
            if i != j:
                assert not any(_divides(lead, e) for e in g.terms)


def test_buchberger_global_is_reduced(monkeypatch):
    # homogenized corpus ideals, as groebner_lazard builds them
    for gens, order in corpus_ideals():
        horder = homogenized_order((order.arity - 1) // 2, order.tie)
        hgens = [_homogenize(g) for g in gens]
        assert_reduced(buchberger_global(hgens, horder), horder)

    # the elimination bases ann_fs computes
    seen = []

    def recording(gens, order):
        basis = buchberger_global(gens, order)
        seen.append((basis, order))
        return basis

    monkeypatch.setattr(localb, "buchberger_global", recording)
    for text, names, tie in [("x^2 + y^3", ["x", "y"], "grevlex"),
                             ("x*y*(x + y)", ["x", "y"], "lex"),
                             ("x^2*(y + 1)^2*z^2", XYZ, "grevlex")]:
        ann_fs(parse_poly(text, names), tie)
    assert len(seen) == 3
    for basis, order in seen:
        assert_reduced(basis, order)


def rescan_loop(gens, order, reduce_fn, mul, select_key, normal):
    """Reference pair selection: rescan every open pair for the least
    (select_key(lcm), i, j), as the loop did before it kept a queue.
    normal(op, order) is the multiple of a generator or remainder that
    joins the basis.  The elements are handed back packed, as the loop
    hands them to the strategies' exits."""
    basis = [normal(g, order) for g in gens if g.terms]
    if not basis:
        raise InputError("all generators are zero")
    leads = [g.le(order) for g in basis]

    def lcm(i, j):
        return tuple(max(a, b) for a, b in zip(leads[i], leads[j]))

    pairs = {(i, j) for j in range(len(basis)) for i in range(j)}
    done = set()
    while pairs:
        i, j = min(pairs, key=lambda ij: (select_key(lcm(*ij)),) + ij)
        pairs.discard((i, j))
        join = lcm(i, j)
        chained = any(
            k not in (i, j) and all(a <= b for a, b in zip(leads[k], join))
            and (min(i, k), max(i, k)) in done and (min(j, k), max(j, k)) in done
            for k in range(len(basis)))
        done.add((i, j))
        if chained:
            continue
        s = groebner.spair(basis[i], basis[j], order, mul)
        if not s.terms:
            continue
        r = reduce_fn(s, basis)
        if not r.terms:
            continue
        basis.append(normal(r, order))
        leads.append(basis[-1].le(order))
        pairs.update((i2, len(basis) - 1) for i2 in range(len(basis) - 1))
    return [_packed(g, order) for g in basis]


def rescan_buchberger_loop(gens, order, reduce_fn, mul, select_key):
    """rescan_loop keeping primitive elements, as _buchberger_loop does."""
    return rescan_loop(gens, order, reduce_fn, mul, select_key, _primitive)


def test_pair_queue_matches_rescan(monkeypatch):
    # Reduced bases do not depend on the pair order, so the S-pairs are
    # recorded in the order they are formed, next to the exact element lists.
    f = parse_poly("x^3 + y^2 + z^2", XYZ)
    hgens = [_homogenize(g) for g in ann_fs(f) + [from_symbol(f)]]
    ideals = corpus_ideals()

    def run():
        formed = []

        def recording_spair(p, q, order, mul=op_mul):
            # the loop's elements are packed, the reference's are not
            formed.append((unpacked(p).le(order), unpacked(q).le(order)))
            return spair(p, q, order, mul)

        monkeypatch.setattr(groebner, "spair", recording_spair)
        bases = [buchberger_global(hgens, homogenized_order(3))]
        for gens, order in ideals:
            bases.append(buchberger_mora(gens, order).elements)
            bases.append(groebner_lazard(gens, order).elements)
        return formed, [[(type(g), g.terms) for g in b] for b in bases]

    got = run()
    monkeypatch.setattr(groebner, "_buchberger_loop", rescan_buchberger_loop)
    assert got == run()


def test_loop_prepares_its_basis_once(monkeypatch):
    # Buchberger's loop grows one division set-up of its packed elements and
    # hands it to every S-pair division: one preparation per call of either
    # strategy's loop, and each element made primitive once
    f = parse_poly("x^3 + y^2 + z^2", XYZ)
    gens = ann_fs(f) + [from_symbol(f)]
    hgens = [_homogenize(g) for g in gens]
    made, copies, sizes = [], [], []
    init, loop = sympoly._Divisors.__init__, groebner._buchberger_loop

    def counting_init(self, divisors, order):
        made.append(self)
        init(self, divisors, order)

    def counting(primitive):
        def copy(op, order):
            copies.append(op)
            return primitive(op, order)
        return copy

    def recording_loop(*args):
        basis = loop(*args)
        sizes.append(len(basis))
        return basis

    monkeypatch.setattr(sympoly._Divisors, "__init__", counting_init)
    monkeypatch.setattr(sympoly, "_primitive", counting(sympoly._primitive))
    monkeypatch.setattr(groebner, "_primitive", counting(groebner._primitive))
    monkeypatch.setattr(groebner, "_buchberger_loop", recording_loop)
    for run in (lambda: buchberger_mora(gens, ORD3),
                lambda: buchberger_global(hgens, homogenized_order(3))):
        made.clear()
        copies.clear()
        sizes.clear()
        run()
        assert len(sizes) == 1 and sizes[0] > len(gens)
        assert len(made) == 1 and len(copies) == sizes[0]


def kept_leads(setup):
    """The leads of a set-up's copies computed afresh: (K, sign*K,
    coefficient) of each largest K."""
    sign = setup.order.packing.sign
    leads = []
    for g in setup.copies:
        k = max(g.terms)
        leads.append((k, sign * k, g.terms[k]))
    return leads


def test_growing_basis_keeps_its_leads(monkeypatch):
    # The leads the loop's set-up keeps equal a fresh computation after
    # every append, and every S-pair of Lazard's homogenized loop on
    # x^3 + x*y^2 + z^2 reduces by the set-up, with its kept leads, to what
    # the plain list of its elements gives
    f = parse_poly("x^3 + x*y^2 + z^2", XYZ)
    gens = ann_fs(f) + [from_symbol(f)]
    grown, reduced = [], []
    append = sympoly._Divisors.append

    def checking_append(self, g):
        append(self, g)
        assert self.leads == kept_leads(self)
        grown.append(g)

    def recording(p, divisors, order, mul=op_mul):
        got = reduce_global(p, divisors, order, mul)
        if isinstance(divisors, sympoly._Divisors):
            assert divisors.leads == kept_leads(divisors)
            want = reduce_global(p, list(divisors), order, mul)
            assert type(got) is type(want)
            assert [(e, c, type(c)) for e, c in got.terms.items()] == \
                [(e, c, type(c)) for e, c in want.terms.items()]
            reduced.append(p)
        return got

    monkeypatch.setattr(sympoly._Divisors, "append", checking_append)
    monkeypatch.setattr(groebner, "reduce_global", recording)
    groebner_lazard(gens, ORD3)
    assert len(reduced) > 100 and len(grown) > len(gens)
    setup = sympoly._Divisors([OP("x - x^2"), OP("x*dx + 1").scale(rat(2, 3))],
                              ORD1)
    assert setup.leads == kept_leads(setup)


def test_validation():
    with pytest.raises(InputError):
        buchberger_mora([], ORD1)
    with pytest.raises(InputError):
        buchberger_mora([DiffOp.zero()], ORD1)


def rekeying_mora_div(p, divisors, order):
    """mora_div as it was before the per-call key cache: the leading term
    and the top total degree of h are recomputed from every term each step."""
    divisors = list(divisors)
    cls = p.__class__
    unit = cls.constant(1, order.arity)
    quots = [cls.zero() for _ in divisors]
    pool = []
    for i, g in enumerate(divisors):
        if g.is_zero():
            raise InputError("zero divisor")
        pool.append((g.leading(order), ecart(g, order), g, i))
    h = p
    while h.terms:
        h_lead = h.leading(order)
        he = h_lead[0]
        best = None
        for entry in pool:
            if all(a <= b for a, b in zip(entry[0][0], he)):
                if best is None or entry[1] < best[1]:
                    best = entry
        if best is None:
            break
        h_ecart = h.max_total_degree() - sum(he)
        if best[1] > h_ecart:
            pool.append((h_lead, h_ecart, h, (unit, list(quots))))
        (eh, ch), (eg, cg) = h_lead, best[0]
        m = cls._raw({tuple(a - b for a, b in zip(eh, eg)):
                      Rational(ch, cg)})
        h = h - op_mul(m, best[2])
        prov = best[3]
        if isinstance(prov, int):
            quots[prov] = quots[prov] + m
        else:
            u_s, q_s = prov
            unit = unit - op_mul(m, u_s)
            quots = [q - op_mul(m, qs) for q, qs in zip(quots, q_s)]
    return MoraResult(unit, quots, h)


def test_mora_div_matches_rekeying_loop(monkeypatch, time_limit):
    # Every division Buchberger's loop makes on the corpus, plus the
    # division of every b(s) candidate of find_generator, is recorded and
    # replayed through both loops, next to random dividends whose reduction
    # needs a unit (x - x^2).  The search decides most candidates from its
    # own divisions and calls Mora on few, so each candidate is divided
    # here, whoever decided it, rejected ones included.  The last pool's
    # divisors are scaled by non-integral rationals, so their primitive
    # copies' factors differ from 1.
    rng = random.Random(47)
    pools = [[OP("x - x^2")], [OP("(1 + x)*dx + x")],
             [OP("dx^2 + x*dx + 1"), OP("s - x")], [OP("x*dx - s"), OP("x^2")],
             [OP("x - x^2").scale(rat(2, 3)),
              OP("x*dx + 1").scale(rat(-5, 4))]]
    calls = [(rand_op(rng, 1, terms=3, max_deg=3), rng.choice(pools), ORD1,
              "random") for _ in range(40)]

    def recording(p, divisors, order):
        # unpacked, so that the reference loop can replay the call
        calls.append((unpacked(p), [unpacked(g) for g in divisors], order,
                      "spair"))
        return mora_div(p, divisors, order)

    def candidates(gb, candidate, chain, bound):
        calls.append((localb._poly_in_s(candidate, gb.order.arity),
                      list(gb.elements), gb.order, "candidate"))
        return verdict(gb, candidate, chain, bound)

    verdict = localb._chain_verdict
    monkeypatch.setattr(groebner, "mora_div", recording)
    monkeypatch.setattr(localb, "_chain_verdict", candidates)
    for gens, order in corpus_ideals():
        buchberger_mora(gens, order)
    localb.find_generator(example_gb()[0], 1, 64)
    localb.local_b_function(parse_poly("x^2 + y^3", ["x", "y"]))
    monkeypatch.undo()
    assert sum(c[3] == "spair" for c in calls) > 50
    assert sum(c[3] == "candidate" for c in calls) >= 3

    def exact(res):
        return [(type(q), q.terms)
                for q in [res.unit, res.remainder] + res.quotients]

    for p, divisors, order, _ in calls:
        assert exact(mora_div(p, divisors, order)) == \
            exact(rekeying_mora_div(p, divisors, order))


def rescanning_reduce_global(p, divisors, order, mul=op_mul):
    """reduce_global as it was before the lazy heap: the leader is the
    largest of every term of h, rescanned on each step."""
    leads = [g.leading(order) for g in divisors]
    cls = p.__class__
    remainder = {}
    h = p
    while h.terms:
        he = max(h.terms, key=order.key)
        ch = h.terms[he]
        for (eg, cg), g in zip(leads, divisors):
            if all(a <= b for a, b in zip(eg, he)):
                m = cls._raw({tuple(a - b for a, b in zip(he, eg)):
                              Rational(ch, cg)})
                h = h - mul(m, g)
                break
        else:
            remainder[he] = ch
            h = h - cls._raw({he: ch})
    return cls._raw(remainder)


def test_reduce_global_matches_rescanning_loop(monkeypatch, time_limit):
    # Every reduce_global call of the elimination in ann_fs, of Lazard's
    # homogenized Buchberger on the corpus and of the Jacobian bases that
    # the closed-form annihilator's gate computes is recorded and replayed
    # through both loops.
    calls = []

    def recording(p, divisors, order, mul=op_mul):
        # unpacked, so that the reference loop can replay the call
        calls.append((unpacked(p), [unpacked(g) for g in divisors], order,
                      mul))
        return reduce_global(p, divisors, order, mul)

    monkeypatch.setattr(groebner, "reduce_global", recording)
    for text in ("x^2*(y + 1)^2*z^2", "x*y*z"):
        ann_fs(parse_poly(text, XYZ))
    ideals = corpus_ideals()  # these eliminate too
    elimination = len(calls)
    for gens, order in ideals:
        groebner_lazard(gens, order)
    lazard = len(calls) - elimination
    for text, names in [("x^3 + y^2 + z^2", XYZ), ("x^3 + x*y^2 + z^2", XYZ),
                        ("x^2*y + y^4", ["x", "y"]),
                        ("x^3 + x^2*y", ["x", "y"])]:
        localb._yano_generators(parse_poly(text, names))
    monkeypatch.undo()
    jacobian = len(calls) - elimination - lazard
    assert elimination > 200 and lazard > 50 and jacobian > 10

    for p, divisors, order, mul in calls:
        got = reduce_global(p, divisors, order, mul)
        want = rescanning_reduce_global(p, divisors, order, mul)
        assert exact(got) == exact(want)


def exact(p):
    """Type and terms of p, each coefficient as its numerator and
    denominator: an int and a Fraction of one value agree, and a float,
    which has neither, fails."""
    return type(p), {e: (c.numerator, c.denominator)
                     for e, c in p.terms.items()}


def is_primitive(g, order):
    coeffs = list(g.terms.values())
    return (all(type(c) is int for c in coeffs)
            and math.gcd(*coeffs) == 1 and g.leading(order)[1] > 0)


def test_primitive():
    order = homogenized_order(1)
    p = HomogOp({(0, 0, 1, 0): rat(-2, 3), (1, 0, 0, 0): rat(4, 9),
                 (0, 1, 0, 0): -8})
    exp, lead = p.leading(order)
    assert (exp, lead) == ((0, 1, 0, 0), -8)
    g = _primitive(p, order)
    assert type(g) is HomogOp and g.terms.keys() == p.terms.keys()
    assert is_primitive(g, order)
    # one positive rational factor takes p to g
    assert {Fraction(g.terms[e]) / c for e, c in p.terms.items()} == \
        {Fraction(-9, 2)}
    assert g.leading(order) == (exp, 36)
    assert _primitive(g, order).terms == g.terms


def test_global_loop_appends_primitive_elements(monkeypatch):
    # Every element Buchberger's loop appends, generators included, is
    # primitive, in Mora's loop as in the global one; both strategies return
    # monic bases with Fraction coefficients.
    seen = []
    loop = groebner._buchberger_loop

    def recording(gens, order, reduce_fn, mul, select_key):
        basis = loop(gens, order, reduce_fn, mul, select_key)
        seen.append((basis, order))
        return basis

    monkeypatch.setattr(groebner, "_buchberger_loop", recording)
    ideals = corpus_ideals()
    bases = []
    for gens, order in ideals:
        bases.append((buchberger_mora(gens, order), order))
        bases.append((groebner_lazard(gens, order), order))
    monkeypatch.undo()
    mora = [b for b, order in seen if any(order is o for _, o in ideals)]
    assert len(mora) >= len(ideals) and len(seen) - len(mora) > 10
    for basis, order in seen:
        assert all(is_primitive(g, order) for g in basis)
    for gb, order in bases:
        for g in gb.elements:
            assert g.leading(order)[1] == 1
            assert all(type(c) is Fraction for c in g.terms.values())


def typed(bases):
    """Class, terms and coefficient types of each element of each basis."""
    return [[(type(g), g.terms, {type(c) for c in g.terms.values()})
             for g in basis] for basis in bases]


def test_buchberger_global_non_integral_generators(monkeypatch):
    # Generators with coefficients such as 1/3 and 2/7 give the same monic
    # basis as the monic reference run: the rescanning pair loop with a
    # monic normaliser, whose reduce_global calls then have Fraction
    # dividends and Fraction divisors and are checked against the
    # rescanning division.  Mora's loop, which keeps primitive elements too,
    # gives the monic reference's basis on the skewed generators, and on
    # generators each scaled by a non-integral rational the unscaled basis.
    def skewed(gens):
        out = [gens[0].scale(rat(1, 3))]
        for g in gens[1:]:
            out.append(g.scale(rat(-2, 7)) + out[0].scale(rat(5, 3)))
        return out

    corpus = corpus_ideals()
    ideals = []
    for gens, order in corpus:
        n = (order.arity - 1) // 2
        hgens = [_homogenize(g) for g in gens]
        ideals.append((hgens, skewed(hgens), homogenized_order(n, order.tie)))
    got = [buchberger_global(gs, order) for _, gs, order in ideals]
    plain = [buchberger_global(gs, order) for gs, _, order in ideals]
    mora = [buchberger_mora(skewed(gens), order).elements
            for gens, order in corpus]
    scales = [rat(1, 3), rat(-2, 7), rat(5, 9), rat(-11, 4)]
    assert typed([buchberger_mora([g.scale(c) for g, c in zip(gens, scales)],
                                  order).elements for gens, order in corpus]) \
        == typed([buchberger_mora(gens, order).elements
                  for gens, order in corpus])

    calls = []

    def monic_loop(gens, order, reduce_fn, mul, select_key):
        return rescan_loop(gens, order, reduce_fn, mul, select_key,
                           SymbolPoly.monic)

    def recording(p, divisors, order, mul=op_mul):
        # unpacked, so that the reference loop can replay the call
        calls.append((unpacked(p), [unpacked(g) for g in divisors], order,
                      mul))
        return reduce_global(p, divisors, order, mul)

    monkeypatch.setattr(groebner, "_buchberger_loop", monic_loop)
    monkeypatch.setattr(groebner, "reduce_global", recording)
    want = [buchberger_global(gs, order) for _, gs, order in ideals]
    monic_mora = [buchberger_mora(skewed(gens), order).elements
                  for gens, order in corpus]
    monkeypatch.undo()

    assert typed(got) == typed(want) == typed(plain)
    assert typed(mora) == typed(monic_mora)
    assert all(t == {Fraction} for b in typed(got + mora) for _, _, t in b)
    assert len(calls) > 50
    for p, divisors, order, mul in calls:
        assert all(type(c) is Fraction
                   for q in [p] + divisors for c in q.terms.values())
        got = reduce_global(p, divisors, order, mul)
        assert all(type(c) is Fraction for c in got.terms.values())
        assert exact(got) == exact(rescanning_reduce_global(
            p, divisors, order, mul))


def test_division_leaves_operands_unchanged(monkeypatch):
    # The division loops add their products into private copies of their
    # dividend, and a partial remainder joins Mora's pool as a frozen copy.
    # Every operand op_mul receives must keep its terms to the end of the
    # division, no product may be added into an operand's dict, and no
    # result may share its dict with an input.
    seen = []

    def unchanged():
        for poly, terms in seen:
            assert poly.terms == terms

    def checking_mul(a, b, into=None):
        unchanged()
        seen.extend((q, dict(q.terms)) for q in (a, b))
        assert all(into is not q.terms for q, _ in seen)
        return op_mul(a, b, into)

    def divide_checked(divide, p, divisors):
        seen.clear()
        inputs = [p] + list(divisors)
        before = [dict(q.terms) for q in inputs]
        res = divide(p, divisors)
        unchanged()
        assert [q.terms for q in inputs] == before
        results = [res] if not isinstance(res, MoraResult) else \
            [res.unit, res.remainder] + res.quotients
        for r in results:
            assert all(r.terms is not q.terms for q in inputs)
        return res

    monkeypatch.setattr(groebner, "op_mul", checking_mul)
    rng = random.Random(53)
    pools = [[OP("x - x^2")], [OP("(1 + x)*dx + x")],
             [OP("dx^2 + x*dx + 1"), OP("s - x")]]
    dividends = [OP("x"), OP("x + x^3"), OP("dx")] + [
        rand_op(rng, 1, terms=3, max_deg=3) for _ in range(20)]
    for p in dividends:
        for divisors in pools:
            res = divide_checked(
                lambda p, gs: mora_div(p, gs, ORD1), p, divisors)
            assert res == rekeying_mora_div(p, divisors, ORD1)
    # x - x^2 has the larger ecart, so x joins the pool and the second step
    # divides by its frozen copy
    res = mora_div(OP("x"), [OP("x - x^2")], ORD1)
    assert res.remainder.is_zero() and res.unit != DiffOp.constant(1, 3)

    horder = homogenized_order(1)
    hbasis = buchberger_global(
        [_homogenize(OP(t)) for t in ("x*dx - s", "x^2 + dx")], horder)
    for _ in range(20):
        p = _homogenize(rand_op(rng, 1, terms=3, max_deg=3))
        divide_checked(lambda p, gs: groebner.reduce_global(
            p, gs, horder, checking_mul), p, hbasis)
