"""End-to-end acceptance checks.

Each test prints a single PASS/FAIL line (visible with -s or on failure) and
enforces the stated tolerance, including wall-clock limits.  Timed
sub-millisecond checks are measured best-of-five after a warmup call.
"""

import itertools
import random
import time

from bfunc.groebner import buchberger_mora, groebner_lazard, mora_div
from bfunc.localb import ann_fs, local_b_function, s_power_nfs
from bfunc.opdiv import accuracy_schedule, op_approx_div
from bfunc.orders import operator_order, series_order
from bfunc.parser import parse_op, parse_poly
from bfunc.rationals import rat
from bfunc.staircase import series_approx_div
from bfunc.sympoly import SymbolPoly
from bfunc.weyl import (DiffOp, FsAction, apply_action, apply_to_fs,
                        from_symbol, op_mul, ord_e)

from conftest import brute_region, corpus, rand_exp, rand_op, rand_sympoly

X = ["x"]
XY = ["x", "y"]
XYZ = ["x", "y", "z"]


def report(num, ok, note):
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} - {note}")
    return ok


def best_of(runs, fn):
    best = float("inf")
    fn()  # warmup
    for _ in range(runs):
        t0 = time.perf_counter()
        out = fn()
        best = min(best, (time.perf_counter() - t0) * 1000.0)
    return out, best


def test_criterion_1_series_division_example():
    lo = series_order(3)
    f = parse_poly("x", X)
    g = parse_poly("1 + x", X)
    res, ms = best_of(5, lambda: series_approx_div(f, [g], lo, 5))
    ok = (res.quotients[0] == parse_poly("x - x^2 + x^3 - x^4 + x^5", X)
          and res.remainder.is_zero()
          and res.tail == parse_poly("-x^6", X)
          and ms < 1.0)
    assert report(1, ok, f"series division worked example ({ms:.3f} ms < 1 ms)")


def test_criterion_2_operator_division_example():
    order = operator_order(1)
    p = parse_op("dx^2", X)
    d = parse_op("(1 + x)*dx + x", X)
    res, ms = best_of(5, lambda: op_approx_div(p, [d], 5, order))
    want_q = parse_op("dx - x*dx + x^2*dx - x^3*dx + x^4*dx - x^5*dx"
                      " + x^6*dx - 1 + x - x^2 + x^3 - x^4", X)
    want_r = parse_op("-x^7*dx^2 - x^7*dx + x^5*dx - 1 + 2*x - 2*x^2"
                      " + 2*x^3 - 2*x^4 + 2*x^5 - x^6", X)
    ok = (res.quotients[0] == want_q
          and res.remainder == want_r
          and accuracy_schedule([d], 2, order) == [0, 1, 3]
          and res.initial_bound == 9
          and ms < 10.0)
    assert report(2, ok, f"operator division worked example ({ms:.3f} ms < 10 ms)")


def test_criterion_3_normal_forms():
    t0 = time.perf_counter()
    f = parse_poly("x^2*(y + 1)^2*z^2", XYZ)
    gb = buchberger_mora(ann_fs(f) + [from_symbol(f)], operator_order(3))
    nfs = [div.remainder for div in itertools.islice(s_power_nfs(gb, 7), 5)]
    expected = [
        "1",
        "1/2*z*dz",
        "1/4*z^2*dz^2 + 1/4*z*dz",
        "1/8*z^3*dz^3 + 3/8*z^2*dz^2 + 1/8*z*dz",
        "-1/4 - 31/16*z*dz - 31/16*z^2*dz^2 - 3/8*z^3*dz^3",
    ]
    ok = all(nf.truncate(7) == parse_op(want, XYZ)
             for nf, want in zip(nfs, expected))
    sec = time.perf_counter() - t0
    ok = ok and sec < 60.0
    assert report(3, ok, f"normal forms of s^0..s^4 at degree 7 ({sec:.2f} s < 60 s)")


def test_criterion_4_local_b_functions():
    t0 = time.perf_counter()
    line = local_b_function(parse_poly("x*(x + y + 1)", XY))
    sec1 = time.perf_counter() - t0
    t0 = time.perf_counter()
    quartic = local_b_function(parse_poly("x^2*(y + 1)^2*z^2", XYZ))
    sec2 = time.perf_counter() - t0
    ok = (tuple(line.b) == (rat(1), rat(1))
          and tuple(quartic.b) == (rat(1, 4), rat(3, 2), rat(13, 4),
                                   rat(3), rat(1))
          and quartic.roots == [(rat(-1), 2), (rat(-1, 2), 2)]
          and sec1 < 120.0 and sec2 < 120.0)
    assert report(4, ok, "local b-functions of x*(x+y+1) and x^2*(y+1)^2*z^2 "
                  f"({sec1:.2f} s, {sec2:.2f} s < 120 s each)")


def test_criterion_5_degree_regression():
    rows = [("x + y^2 + z^2", 1), ("x^2 + y^2 + z^2", 2),
            ("x^3 + y^2 + z^2", 3), ("x^4 + y^2 + z^2", 4),
            ("x^5 + y^2 + z^2", 5), ("x^3 + x*y^2 + z^2", 4)]
    ok = True
    times = []
    for text, want in rows:
        t0 = time.perf_counter()
        res = local_b_function(parse_poly(text, XYZ))
        sec = time.perf_counter() - t0
        times.append(sec)
        ok = ok and len(res.b) - 1 == want and sec < 300.0
    worst = max(times)
    assert report(5, ok, f"b-function degrees for six cusp-type inputs "
                  f"(worst {worst:.2f} s < 300 s)")


# ------------------------------------------------------------- criterion 6

def suite_division_identity_and_tail():
    rng = random.Random(601)
    lo = series_order(3)
    pools = [[parse_poly("1 + x", X), parse_poly("x^2 - x^3", X)],
             [parse_poly("x - x^2 + x^3", X)]]
    cases = 0
    for _ in range(120):
        f = rand_sympoly(rng, 3, terms=4, max_deg=4, zero_ok=True)
        gs = pools[rng.randrange(len(pools))]
        bound = rng.randint(1, 6)
        res = series_approx_div(f, gs, lo, bound)
        total = res.remainder + res.tail
        for q, g in zip(res.quotients, gs):
            total = total + q * g
        assert total == f
        assert res.tail.is_zero() or res.tail.min_total_degree() > bound
        cases += 1
    op_pools = [[parse_op("(1 + x)*dx + x", X)],
                [parse_op("x*dx - s", X), parse_op("x^2", X)],
                [parse_op("dx^2 + x*dx", X), parse_op("s + x", X)]]
    for _ in range(80):
        p = rand_op(rng, 1, terms=3, max_deg=3)
        divisors = op_pools[rng.randrange(len(op_pools))]
        res = op_approx_div(p, divisors, rng.randint(1, 4), operator_order(1))
        total = res.remainder
        for q, g in zip(res.quotients, divisors):
            total = total + op_mul(q, g)
        assert total == p
        cases += 1
    return cases


def suite_staircase_vs_brute_force():
    # a monomial divided by monomial leaders lands in the quotient of the
    # first leader dominating it, or else in the remainder
    rng = random.Random(602)
    cases = 0
    for _ in range(200):
        leaders = [rand_exp(rng, 2, 3) for _ in range(rng.randint(1, 4))]
        exp = rand_exp(rng, 2, 6)
        res = series_approx_div(SymbolPoly.monomial(exp),
                                [SymbolPoly.monomial(l) for l in leaders],
                                series_order(2), sum(exp))
        hit = [i for i, q in enumerate(res.quotients) if q.terms]
        region = brute_region(leaders, exp)
        if region is None:
            assert hit == [] and res.remainder.exps() == {exp}
        else:
            shifted = tuple(a - b for a, b in zip(exp, leaders[region]))
            assert hit == [region] and res.remainder.is_zero()
            assert res.quotients[region].exps() == {shifted}
        cases += 1
    return cases


def suite_ring_laws_and_degree_bound():
    rng = random.Random(603)
    one = DiffOp.constant(1, 5)
    cases = 0
    for _ in range(200):
        p = rand_op(rng, 2, terms=3)
        q = rand_op(rng, 2, terms=3)
        r = rand_op(rng, 2, terms=3)
        assert op_mul(p + q, r) == op_mul(p, r) + op_mul(q, r)
        assert op_mul(p, op_mul(q, r)) == op_mul(op_mul(p, q), r)
        assert op_mul(p, one) == p and op_mul(one, p) == p
        prod = op_mul(p, q)
        if not prod.is_zero():
            assert prod.min_total_degree() >= (p.min_total_degree()
                                               + q.min_total_degree()
                                               - 2 * ord_e(p))
        cases += 1
    return cases


def suite_truncation_agreement():
    rng = random.Random(604)
    lo = series_order(3)
    gs = [parse_poly("x - x^2 + x^3", X)]
    cases = 0
    for _ in range(100):
        f = rand_sympoly(rng, 3, terms=4, max_deg=4)
        bound = rng.randint(1, 5)
        small = series_approx_div(f, gs, lo, bound)
        big = series_approx_div(f, gs, lo, bound + 3)
        cut = bound - sum(gs[0].le(lo))
        assert small.quotients[0].truncate(cut) == big.quotients[0].truncate(cut)
        assert small.remainder.truncate(bound) == big.remainder.truncate(bound)
        cases += 1
    order = operator_order(1)
    op_pools = [[parse_op("(1 + x)*dx + x", X)],
                [parse_op("x*dx - s", X), parse_op("x^2", X)]]
    for _ in range(100):
        p = rand_op(rng, 1, terms=3, max_deg=3)
        divisors = op_pools[rng.randrange(len(op_pools))]
        bound = rng.randint(1, 4)
        small = op_approx_div(p, divisors, bound, order)
        big = op_approx_div(p, divisors, bound + 3, order)
        for qs, qb, g in zip(small.quotients, big.quotients, divisors):
            cut = bound - sum(g.le(order))
            if cut > 0:
                assert qs.truncate(cut) == qb.truncate(cut)
        assert small.remainder.truncate(bound) == big.remainder.truncate(bound)
        cases += 1
    return cases


def suite_annihilators():
    rng = random.Random(605)
    cases = 0
    polys = corpus()
    assert len(polys) >= 10
    for _, names, f in polys:
        n = len(names)
        gens = ann_fs(f)
        for g in gens:
            assert apply_to_fs(g, f).is_zero()
            cases += 1
        for _ in range(18):
            combo = DiffOp.zero()
            for g in gens:
                combo = combo + op_mul(
                    rand_op(rng, n, terms=2, max_deg=1, zero_ok=True), g)
            assert apply_to_fs(combo, f).is_zero()
            cases += 1
    return cases


def corpus_ideals():
    out = []
    for text, names in [("x^2", X), ("x^2 + x^3", X), ("x*y", XY),
                        ("x^2 + y^2", XY), ("x^2*(y + 1)^2*z^2", XYZ)]:
        f = parse_poly(text, names)
        out.append((ann_fs(f) + [from_symbol(f)], operator_order(len(names)),
                    len(names)))
    out.append(([parse_op("x - x^2", X), parse_op("x^2", X)],
                operator_order(1), 1))
    return out


def suite_strategy_agreement():
    rng = random.Random(606)
    ideals = corpus_ideals()
    assert len(ideals) >= 5
    cases = 0
    for gens, order, n in ideals:
        gm = buchberger_mora(gens, order)
        gl = groebner_lazard(gens, order)
        for g in gl.elements:
            assert mora_div(g, gm.elements, order).remainder.is_zero()
        for g in gm.elements:
            assert mora_div(g, gl.elements, order).remainder.is_zero()
        for _ in range(34):
            src, dst = (gm, gl) if rng.random() < 0.5 else (gl, gm)
            p = DiffOp.zero()
            for g in src.elements:
                if rng.random() < 0.5:
                    p = p + op_mul(DiffOp.constant(rat(rng.randint(1, 3)),
                                                   2 * n + 1), g)
            if p.is_zero():
                p = src.elements[rng.randrange(len(src.elements))]
            assert mora_div(p, dst.elements, order).remainder.is_zero()
            cases += 1
    return cases


def suite_membership():
    rng = random.Random(607)
    ideals = corpus_ideals()
    bases = [(buchberger_mora(gens, order), order, n)
             for gens, order, n in ideals]
    cases = 0
    while cases < 200:
        gb, order, n = bases[rng.randrange(len(bases))]
        p = DiffOp.zero()
        for g in gb.elements:
            p = p + op_mul(rand_op(rng, n, terms=2, max_deg=1, zero_ok=True), g)
        if p.is_zero():
            continue
        assert mora_div(p, gb.elements, order).remainder.is_zero()
        cases += 1
    return cases


def test_criterion_6_property_suites():
    t0 = time.perf_counter()
    suites = [
        ("division identity and tail", suite_division_identity_and_tail),
        ("staircase vs brute force", suite_staircase_vs_brute_force),
        ("ring laws and degree bound", suite_ring_laws_and_degree_bound),
        ("truncation agreement", suite_truncation_agreement),
        ("annihilators on corpus", suite_annihilators),
        ("GB strategy agreement", suite_strategy_agreement),
        ("ideal membership", suite_membership),
    ]
    counts = []
    for name, fn in suites:
        cases = fn()
        counts.append((name, cases))
    ok = all(c >= 200 for _, c in counts)
    sec = time.perf_counter() - t0
    detail = ", ".join(f"{name}: {c}" for name, c in counts)
    assert report(6, ok, f"seven property suites ({detail}) in {sec:.1f} s")


def test_criterion_7_global_action_identity():
    f = parse_poly("x^2 + x*y + x", XY)
    # f = u*v with u = x, v = x + y + 1, so d_u d_v = dx*dy - dy^2
    p = parse_op("dx*dy - dy^2", XY)
    rhs = FsAction(parse_poly("s^2 + 2*s + 1", XY), 0)

    def run():
        return apply_action(p, FsAction(f, 0), f)

    lhs, ms = best_of(5, run)
    exact = lhs.equivalent(rhs, f)
    ok = exact and ms < 10.0
    report(7, ok, f"(dx*dy - dy^2) applied to f^(s+1) equals (s+1)^2 f^s "
           f"for f = x^2 + x*y + x ({ms:.3f} ms < 10 ms)")
    assert exact, ("apply_action(dx*dy - dy^2, f^(s+1)) is not (s+1)^2 f^s: "
                   f"got {lhs.numerator} / f^{lhs.denom_power}")
    assert ms < 10.0, f"the action took {ms:.3f} ms, over the 10 ms bound"
