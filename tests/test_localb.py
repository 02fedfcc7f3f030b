import dataclasses
import gc
import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from bfunc import localb
from bfunc.errors import BfuncError, InputError, ResourceLimitError
from bfunc.groebner import (MoraResult, buchberger_global, buchberger_mora,
                            groebner_lazard, mora_div)
from bfunc.linalg import add_column
from bfunc.localb import (BFunctionResult, _poly_in_s, _squarefree_ints,
                          _yano_generators, ann_fs, approx_nf,
                          dependency_kernel, find_generator,
                          local_b_function, rational_roots, s_power_nfs,
                          verify_certificate)
from bfunc.orders import (MatrixOrder, Packing, elimination_order,
                          operator_order)
from bfunc.parser import parse_op, parse_poly
from bfunc.printing import format_poly, format_univariate
from bfunc.rationals import rat
from bfunc.sympoly import _Packed
from bfunc.weyl import DiffOp, apply_to_fs, base_arity, from_symbol, op_mul

from conftest import bsearch_bases

XYZ = ["x", "y", "z"]
ORD3 = operator_order(3)


def F():
    return parse_poly("x^2*(y + 1)^2*z^2", XYZ)


def example_gb():
    f = F()
    return buchberger_mora(ann_fs(f) + [from_symbol(f)], ORD3)


# ------------------------------------------------------------------ ann_fs

def test_ann_fs_one_variable():
    f = parse_poly("x", ["x"])
    gens = ann_fs(f)
    euler = parse_op("x*dx - s", ["x"])
    order = operator_order(1)
    assert mora_div(euler, gens, order).remainder.is_zero()
    assert apply_to_fs(euler, f).is_zero()


def test_ann_fs_matches_reference_generators():
    f = F()
    mine = ann_fs(f)
    known = [parse_op(t, XYZ) for t in
             ("-2*s + z*dz", "-x*dx + z*dz", "-dy + x*dx - y*dy")]
    gm = buchberger_mora(mine, ORD3)
    gk = buchberger_mora(known, ORD3)
    for g in known:
        assert mora_div(g, gm.elements, ORD3).remainder.is_zero()
    for g in mine:
        assert mora_div(g, gk.elements, ORD3).remainder.is_zero()


ANN_CORPUS = [
    ("x", ["x"]), ("x^2", ["x"]), ("x^3", ["x"]), ("1 + x", ["x"]),
    ("x - x^3", ["x"]),
    ("x*y", ["x", "y"]), ("x^2 + y^2", ["x", "y"]),
    ("x*(x + y + 1)", ["x", "y"]), ("x^2 + y^3", ["x", "y"]),
    ("x^2*y + y^2", ["x", "y"]),
    ("x^2 + y^2 + z^2", XYZ), ("x*y*z", XYZ),
]


def test_ann_fs_annihilation_corpus():
    for text, names in ANN_CORPUS:
        f = parse_poly(text, names)
        for g in ann_fs(f):
            assert apply_to_fs(g, f).is_zero(), (text, format_poly(g, names))


def reference_ann_fs(f, tie="grevlex"):
    """ann_fs as it was before it used the operator product: the session
    exponents are assembled slot by slot and the eliminated basis is
    filtered, shifted to weight zero and made monic in three passes."""
    n = base_arity(f)
    ne = n + 3  # t, x_1..x_n, u, v
    earity = 2 * ne + 1
    t_slot, u_slot, v_slot = 0, n + 1, n + 2
    dt_slot = ne + 1

    def emb(alpha, beta=(), t=0, dt=0, u=0, v=0):
        exp = [0] * earity
        exp[t_slot] = t
        exp[dt_slot] = dt
        exp[u_slot] = u
        exp[v_slot] = v
        for i, a in enumerate(alpha):
            exp[1 + i] = a
        for i, b in enumerate(beta):
            exp[ne + 2 + i] = b
        return tuple(exp)

    def embed_xpoly(p, extra_t=0, extra_dt=0, extra_u=0):
        data = {}
        for exp, coeff in p.terms.items():
            data[emb(exp[:n], t=extra_t, dt=extra_dt, u=extra_u)] = coeff
        return DiffOp._raw(data)

    gens = []
    g = DiffOp.monomial(emb((0,) * n, t=1)) - embed_xpoly(f, extra_u=1)
    gens.append(g)
    for i in range(n):
        d_i = DiffOp.monomial(
            emb((0,) * n, beta=tuple(1 if j == i else 0 for j in range(n))))
        gens.append(d_i + embed_xpoly(f.partial(i), extra_u=1, extra_dt=1))
    gens.append(DiffOp.monomial(emb((0,) * n, u=1, v=1))
                - DiffOp.monomial(emb((0,) * n)))

    eorder = elimination_order(ne, (u_slot, v_slot), tie)
    basis = buchberger_global(gens, eorder)

    kept = []
    du_slot, dv_slot = ne + 1 + u_slot, ne + 1 + v_slot
    for g in basis:
        if all(e[u_slot] == e[v_slot] == e[du_slot] == e[dv_slot] == 0
               for e in g.terms):
            kept.append(g)

    out = []
    for g in kept:
        weights = {e[t_slot] - e[dt_slot] for e in g.terms}
        assert len(weights) == 1
        w = weights.pop()
        if w > 0:
            g = op_mul(DiffOp.monomial(emb((0,) * n, dt=w)), g)
        elif w < 0:
            g = op_mul(DiffOp.monomial(emb((0,) * n, t=-w)), g)
        pairs = []
        for exp, coeff in g.terms.items():
            a = exp[t_slot]
            assert exp[dt_slot] == a
            sprod = [1]  # coefficients of (s+1)(s+2)...(s+a)
            for j in range(1, a + 1):
                nxt = [0] * (len(sprod) + 1)
                for k, c in enumerate(sprod):
                    nxt[k] += c * j
                    nxt[k + 1] += c
                sprod = nxt
            sign = -1 if a % 2 else 1
            x_part, d_part = exp[1:1 + n], exp[ne + 2:ne + 2 + n]
            for k, c in enumerate(sprod):
                pairs.append((x_part + (k,) + d_part, coeff * (sign * c)))
        out.append(DiffOp(pairs))

    order = operator_order(n, tie)
    seen, result = [], []
    for g in out:
        if g.terms:
            g = g.monic(order)
            if g.terms not in seen:
                seen.append(g.terms)
                result.append(g)
    return result


@pytest.mark.parametrize("tie", ["grevlex", "grlex", "lex"])
def test_ann_fs_matches_reference_implementation(tie, time_limit):
    # The same generators, term for term and in the same insertion order,
    # on the corpus, the two elimination inputs of the benchmark (one with
    # seeded coefficients), a quasi-homogeneous surface and three curves.
    inputs = ANN_CORPUS + [
        ("x^2*(y + 1)^2*z^2", XYZ),
        ("2*x^2*y^2*z^2 - 3*x^2*y*z^2 - 3*x^2*z^2", XYZ),
        ("x^3 + x*y^2 + z^2", XYZ),
        ("x^3 + y^7", ["x", "y"]), ("x^4 + y^6", ["x", "y"]),
        ("x^5 + y^6", ["x", "y"]),
    ]
    for text, names in inputs:
        f = parse_poly(text, names)
        assert [list(g.terms.items()) for g in ann_fs(f, tie)] == \
            [list(g.terms.items()) for g in reference_ann_fs(f, tie)], text


# ------------------------------------------- closed-form annihilator (Yano)

@pytest.mark.parametrize("text, names", [
    ("x^3 + y^2 + z^2", XYZ),
    ("x^3 + x*y^2 + z^2", XYZ),
    ("x^2*y + y^4", ["x", "y"]),
    ("x*y*(x + y)*(x - 2*y)", ["x", "y"]),
    ("x^5 + y^5", ["x", "y"]),
    ("x^2", ["x"]),
    ("x + y^2", ["x", "y"]),   # smooth: the partials generate 1
])
def test_yano_gate_accepts(text, names):
    f = parse_poly(text, names)
    gens = _yano_generators(f)
    n = len(names)
    assert len(gens) == 1 + n * (n - 1) // 2
    for g in gens:
        assert apply_to_fs(g, f).is_zero(), format_poly(g, names)
    # the Euler operator comes first: sum w_i x_i d_i - s
    assert gens[0].coeff((0,) * n + (1,) + (0,) * n) == -1


@pytest.mark.parametrize("text, names, reaches_isolation", [
    # x^2*(y+1)^2*z^2 and x*y*z are not isolated either, but their
    # weights (w_y = 0 and w_x + w_z = 1/2; any w_x + w_y + w_z = 1) are
    # not unique, so the weight test already turns them down
    pytest.param("x^2*(y + 1)^2*z^2", XYZ, False, id="xyz-unit-weights"),
    pytest.param("x*y*z", XYZ, False, id="xyz-weights-not-unique"),
    pytest.param("x^2 + x^2*y", ["x", "y"], False, id="zero-weight"),
    pytest.param("x + x^2*y", ["x", "y"], False, id="negative-weight"),
    pytest.param("x^3 + x^2*y", ["x", "y"], True, id="not-isolated"),
    pytest.param("x^3 + y^3 + x*y*z", XYZ, True, id="not-isolated-3"),
    pytest.param("x^2", ["x", "y"], False, id="weights-not-unique"),
    pytest.param("x^2 + x^3 + y^3", ["x", "y"], False,
                 id="not-quasi-homogeneous"),
])
def test_yano_gate_rejects(monkeypatch, text, names, reaches_isolation):
    calls = []

    def recording(*args):
        calls.append(args)
        return buchberger_global(*args)

    # only the isolation test computes a basis; weights are decided first
    monkeypatch.setattr("bfunc.localb.buchberger_global", recording)
    assert _yano_generators(parse_poly(text, names)) is None
    assert bool(calls) == reaches_isolation


@pytest.mark.parametrize("text, eliminates", [
    ("x^3 + y^2 + z^2", False),
    ("x*y*z", True),
])
def test_b_function_eliminates_only_outside_the_gate(monkeypatch, text,
                                                      eliminates):
    calls = []

    def recording(f, tie):
        calls.append(f)
        return ann_fs(f, tie)

    monkeypatch.setattr("bfunc.localb.ann_fs", recording)
    res = local_b_function(parse_poly(text, XYZ))
    assert bool(calls) == eliminates
    verify_certificate(res)


def test_b_function_smooth_input():
    res = local_b_function(parse_poly("x + y^2", ["x", "y"]))
    assert format_univariate(res.b) == "s + 1"
    verify_certificate(res)


_nonzero = st.sampled_from([-3, -2, -1, 1, 2, 3, Fraction(1, 2)])


@st.composite
def _quasi_homogeneous_isolated(draw):
    shape = draw(st.sampled_from(["bp2", "bp3", "x^3+x*y^2+z^2",
                                  "x^2*y+y^4"]))
    if shape == "bp2":
        names = ["x", "y"]
        monos = [f"{v}^{draw(st.integers(2, 4))}" for v in names]
    elif shape == "bp3":
        names = XYZ
        monos = [f"x^{draw(st.integers(2, 3))}",
                 f"y^{draw(st.integers(2, 3))}", "z^2"]
    elif shape == "x^3+x*y^2+z^2":
        names, monos = XYZ, ["x^3", "x*y^2", "z^2"]
    else:
        names, monos = ["x", "y"], ["x^2*y", "y^4"]
    text = " + ".join(f"({draw(_nonzero)})*{m}" for m in monos)
    return text, names


@pytest.mark.parametrize("strategy", ["mora", "lazard"])
@settings(deadline=None, max_examples=10)
@given(case=_quasi_homogeneous_isolated())
def test_yano_shortcut_matches_elimination(strategy, case):
    text, names = case
    f = parse_poly(text, names)
    for g in _yano_generators(f):
        assert apply_to_fs(g, f).is_zero()
    fast = local_b_function(f, gb_strategy=strategy)
    slow = local_b_function(f, gb_strategy=strategy, ann_gens=ann_fs(f))
    assert fast.b == slow.b
    assert fast.n_final == slow.n_final
    assert [g.terms for g in fast.gb.elements] == \
        [g.terms for g in slow.gb.elements]
    verify_certificate(fast)


# ------------------------------------------------------------ normal forms

def chained_nfs(gb, top_power, bound):
    """Normal forms of 1, s, ..., s^top_power, chained at degree bound."""
    return [div.remainder for div in
            itertools.islice(s_power_nfs(gb, bound), top_power + 1)]


def test_nf_values_at_seven():
    gb = example_gb()
    nfs = chained_nfs(gb, 4, 7)
    expected = [
        "1",
        "1/2*z*dz",
        "1/4*z^2*dz^2 + 1/4*z*dz",
        "1/8*z^3*dz^3 + 3/8*z^2*dz^2 + 1/8*z*dz",
        "-3/8*z^3*dz^3 - 31/16*z^2*dz^2 - 31/16*z*dz - 1/4",
    ]
    for nf, want in zip(nfs, expected):
        assert format_poly(nf.truncate(7), XYZ) == want


def test_nf_zero():
    gb = example_gb()
    assert approx_nf(DiffOp.zero(), gb, 5).remainder.is_zero()


def test_nf_canonical_across_strategies():
    f = F()
    gens = ann_fs(f) + [from_symbol(f)]
    gm = buchberger_mora(gens, ORD3)
    gl = groebner_lazard(gens, ORD3)
    for i in range(3):
        exp = [0] * 7
        exp[3] = i
        p = DiffOp.monomial(tuple(exp))
        a = approx_nf(p, gm, 7).remainder.truncate(7)
        b = approx_nf(p, gl, 7).remainder.truncate(7)
        assert a == b


def test_nf_additive_below_truncation():
    gb = example_gb()
    rng = random.Random(51)
    from conftest import rand_op
    for _ in range(20):
        p = rand_op(rng, 3, terms=2, max_deg=2)
        q = rand_op(rng, 3, terms=2, max_deg=2)
        lhs = approx_nf(p + q, gb, 6).remainder
        rhs = approx_nf(p, gb, 6).remainder + approx_nf(q, gb, 6).remainder
        diff = lhs - rhs
        assert diff.is_zero() or diff.min_total_degree() >= 6


def _s_power(i, arity):
    exp = [0] * arity
    exp[(arity - 1) // 2] = i
    return DiffOp.monomial(tuple(exp))


def _scratch_find_generator(gb, n0, nmax):
    """find_generator with every s^i normalised from scratch, as before the
    normal forms were chained."""
    d = 0
    for bound in range(n0, nmax + 1):
        def nf(i):
            return approx_nf(_s_power(i, gb.order.arity), gb, bound).remainder

        nfs = [nf(i) for i in range(d + 1)]
        while not (kernel := dependency_kernel(nfs, bound)):
            d += 1
            nfs.append(nf(d))
        candidate = tuple(kernel[0])
        b = DiffOp.zero()
        for i, c in enumerate(candidate):
            b = b + _s_power(i, gb.order.arity).scale(c)
        cert = mora_div(b, gb.elements, gb.order)
        if cert.remainder.is_zero():
            return candidate, bound, cert
    raise AssertionError("no certified candidate")


def _fresh_chain_search(gb, n0, nmax):
    """find_generator as it was before the chain was kept across truncation
    degrees: the normal forms are chained afresh at every degree, and Mora
    division decides every candidate.  Returns the candidates tried too."""
    d, candidates = 0, []
    for bound in range(n0, nmax + 1):
        nfs, pivots = [], []
        for div in s_power_nfs(gb, bound):
            dependency = add_column(pivots, div.remainder.truncate(bound).terms,
                                    len(nfs))
            nfs.append(div.remainder)
            if len(nfs) > d and len(pivots) < len(nfs):
                break
        d = len(nfs) - 1
        candidate = tuple(dependency)
        candidates.append(candidate)
        cert = mora_div(_poly_in_s(candidate, gb.order.arity), gb._divisors,
                        gb.order)
        if cert.remainder.is_zero():
            return candidate, bound, cert, candidates
    raise AssertionError("no certified candidate")


def _typed(p):
    """The terms of p, each coefficient with its type."""
    return {e: (type(c), c) for e, c in p.terms.items()}


def _cert_terms(cert):
    return [_typed(p) for p in [cert.unit, cert.remainder] + cert.quotients]


def test_s_power_chain_matches_scratch():
    bases = [(example_gb(), 1)]  # n0 = 1 rejects the candidate s first
    results = [local_b_function(F())]
    for text in ("x^2 + y^3", "x^3 + y^4"):
        f = parse_poly(text, ["x", "y"])
        gens = ann_fs(f) + [from_symbol(f)]
        order = operator_order(2)
        bases += [(buchberger_mora(gens, order), 6),
                  (groebner_lazard(gens, order), 6)]
        results += [local_b_function(f, gb_strategy=strategy)
                    for strategy in ("mora", "lazard")]
    for gb, n0 in bases:
        for bound in range(7, 11):
            chained = chained_nfs(gb, 6, bound)
            for i, nf in enumerate(chained):
                scratch = approx_nf(_s_power(i, gb.order.arity), gb,
                                    bound).remainder
                assert nf.truncate(bound) == scratch.truncate(bound)
        got = find_generator(gb, n0, 64)
        want = _scratch_find_generator(gb, n0, 64)
        assert got[:2] == want[:2]
        assert _cert_terms(got[2]) == _cert_terms(want[2])
    for res in results:
        verify_certificate(res)


INEXACT_CHAINS = ("x^2 + y^2 + x^3", "x^2 + y^3 + y^4", "x*((x - 1)^2 + y^3)",
                  "x^2*(y + 1)^2*z^2")


def _chain_cases():
    """(basis, n0, whether its chain is exact): the b(s) search benchmark's
    bases at seeds 1-2, whose chains are exact, and from n0 = 1 the four
    inputs whose chains turn inexact."""
    cases = [(gb, 2 * f.arity, True)
             for seed in (1, 2) for f, gb in bsearch_bases(seed)]
    for text in INEXACT_CHAINS:
        names = XYZ if "z" in text else ["x", "y"]
        f = parse_poly(text, names)
        gb = buchberger_mora(ann_fs(f) + [from_symbol(f)],
                             operator_order(len(names)))
        cases.append((gb, 1, False))
    return cases


def test_kept_chain_matches_fresh_chains(monkeypatch):
    # the chain kept across truncation degrees gives the search that chains
    # afresh at every degree and has Mora decide each candidate: the same
    # candidates, b(s) and final degree, and a certificate that checks, on
    # the chain cases; the inexact chains are chained again
    cases = _chain_cases()
    calls, tables, candidates = [], [], []

    def counting(*args):
        calls.append(args)
        return approx_nf(*args)

    def recording(nfs, bound):
        tables.append((nfs, bound))
        kernel = dependency_kernel(nfs, bound)
        candidates.append(tuple(kernel[0]))
        return kernel

    for gb, n0, exact in cases:
        assert all(div.exact for div in itertools.islice(
            s_power_nfs(gb, n0), 6)) == exact
        monkeypatch.setattr("bfunc.localb.approx_nf", counting)
        monkeypatch.setattr("bfunc.localb.dependency_kernel", recording)
        calls.clear()
        tables.clear()
        candidates.clear()
        got = find_generator(gb, n0, 64)
        monkeypatch.undo()
        # at every degree the table is the chain made afresh at it
        for nfs, bound in tables:
            fresh = chained_nfs(gb, len(nfs) - 1, bound)
            assert [_typed(nf) for nf in nfs] == [_typed(nf) for nf in fresh]
        want = _fresh_chain_search(gb, n0, 64)
        assert [(type(c), c) for c in got[0]] == \
            [(type(c), c) for c in want[0]]
        assert got[1] == want[1]
        assert candidates == want[3]
        verify_certificate(BFunctionResult(got[0], [], got[1], got[2], gb))
        if exact:
            # each power of s is divided once, at whatever bound it is needed
            assert len(calls) == len(got[0])


def test_chain_verdicts_agree_with_mora(monkeypatch):
    # every candidate the chain's own divisions reject has a nonzero Mora
    # remainder, and every one they accept a zero one, on the chain cases
    verdicts = []

    def recording(gb, candidate, chain, bound):
        verdict = chain_verdict(gb, candidate, chain, bound)
        verdicts.append((gb, candidate, verdict))
        return verdict

    chain_verdict = localb._chain_verdict
    monkeypatch.setattr(localb, "_chain_verdict", recording)
    for gb, n0, _ in _chain_cases():
        find_generator(gb, n0, 64)
    monkeypatch.undo()
    decided = [(gb, c, v) for gb, c, v in verdicts if v is not None]
    assert {v for _, _, v in decided} == {True, False}
    for gb, candidate, verdict in decided:
        cert = mora_div(_poly_in_s(candidate, gb.order.arity), gb._divisors,
                        gb.order)
        assert cert.remainder.is_zero() == verdict


def test_chain_certificate_has_unit_one(monkeypatch):
    # the b(s) search benchmark's candidates are decided without Mora, and
    # the accepted one comes with the chain's polynomial relation: unit 1,
    # remainder 0, and one quotient per basis element
    def no_mora(*args):
        raise AssertionError("Mora division called")

    monkeypatch.setattr(localb, "mora_div", no_mora)
    for f, gb in bsearch_bases():
        b, n_final, cert = find_generator(gb, 2 * f.arity, 64)
        assert cert.unit == DiffOp.constant(1, f.arity)
        assert cert.remainder.is_zero()
        verify_certificate(BFunctionResult(b, [], n_final, cert, gb))


def test_changed_chain_quotient_fails_verification():
    # one coefficient of one chained quotient, changed, breaks the relation
    f, gb = bsearch_bases()[0]
    b, n_final, cert = find_generator(gb, 2 * f.arity, 64)
    res = BFunctionResult(b, [], n_final, cert, gb)
    verify_certificate(res)
    j = next(j for j, q in enumerate(cert.quotients) if q.terms)
    terms = dict(cert.quotients[j].terms)
    exp = next(iter(terms))
    terms[exp] += 1
    quotients = list(cert.quotients)
    quotients[j] = DiffOp._raw(terms)
    bad = dataclasses.replace(cert, quotients=quotients)
    with pytest.raises(BfuncError, match="relation"):
        verify_certificate(dataclasses.replace(res, certificate=bad))


def test_crossing_keeps_mora_certificate():
    # x^2*(y+1)^2*z^2 has b_local != b_global, so no relation with unit 1
    # exists: its candidate goes to Mora division, whose unit is not 1
    res = local_b_function(F())
    assert res.certificate.unit != DiffOp.constant(1, F().arity)
    verify_certificate(res)


# ------------------------------------------------------------------ kernel

def test_kernel_rows_from_search_trace():
    gb = example_gb()
    nfs = chained_nfs(gb, 4, 7)
    assert dependency_kernel(nfs[:4], 7) == []
    basis = dependency_kernel(nfs, 7)
    assert len(basis) == 1
    v = basis[0]
    scaled = [c / v[-1] for c in v]
    assert scaled == [rat(1, 4), rat(3, 2), rat(13, 4), rat(3), rat(1)]


def test_kernel_shrinks_with_bound():
    # the candidate s at tiny truncation dies once (1/2) z dz becomes visible
    gb = example_gb()
    assert dependency_kernel(chained_nfs(gb, 1, 2), 2) != []
    assert dependency_kernel(chained_nfs(gb, 1, 3), 3) == []


# ---------------------------------------------------------- find_generator

def test_find_generator_quartic():
    gb = example_gb()
    coeffs, n_used, cert = find_generator(gb, 14, 64)
    assert list(coeffs) == [rat(1, 4), rat(3, 2), rat(13, 4), rat(3), rat(1)]
    assert cert.remainder.is_zero()


def test_find_generator_rejects_early_candidates():
    # starting at N = 1 the degree-1 candidate s shows up and must be
    # rejected by Mora certification before the true quartic emerges
    gb = example_gb()
    coeffs, n_used, _ = find_generator(gb, 1, 64)
    assert list(coeffs) == [rat(1, 4), rat(3, 2), rat(13, 4), rat(3), rat(1)]
    assert n_used >= 7


def test_find_generator_resource_limit():
    gb = example_gb()
    with pytest.raises(ResourceLimitError) as info:
        find_generator(gb, 1, 2)
    assert info.value.n_used == 2
    assert info.value.candidate is not None


def test_find_generator_rejects_n0_above_nmax(monkeypatch):
    gb = example_gb()

    def no_normal_forms(*args):
        raise AssertionError("normal form computed for an empty range")

    monkeypatch.setattr("bfunc.localb.approx_nf", no_normal_forms)
    with pytest.raises(InputError, match=r"n0=3.*nmax=2"):
        find_generator(gb, 3, 2)


@pytest.mark.parametrize("last", [[rat(1), rat(2)], [rat(2)]])
def test_find_generator_rejects_a_bad_kernel(monkeypatch, last):
    # s^0..s^(d-1) are independent, so the kernel is one vector ending in 1;
    # anything else is a fault, not a candidate to pick from
    gb = example_gb()

    def bad_kernel(nfs, bound):
        return [[rat(1)] * (len(nfs) - 1) + [c] for c in last]

    monkeypatch.setattr("bfunc.localb.dependency_kernel", bad_kernel)
    with pytest.raises(BfuncError, match="kernel"):
        find_generator(gb, 7, 8)


def test_find_generator_kernels_once_per_bound(monkeypatch):
    # the echelon decides how many normal forms to pull; the dense kernel
    # runs once per truncation degree tried, on the final table
    calls = []

    def counting(nfs, bound):
        calls.append((len(nfs), bound))
        return dependency_kernel(nfs, bound)

    monkeypatch.setattr("bfunc.localb.dependency_kernel", counting)
    coeffs, n_used, _ = find_generator(example_gb(), 1, 64)
    assert len(calls) == n_used
    assert [bound for _, bound in calls] == list(range(1, n_used + 1))
    assert calls[-1][0] == len(coeffs)
    calls.clear()
    res = local_b_function(parse_poly("x^2 + y^3", ["x", "y"]), n0=6)
    assert len(calls) == res.n_final - 5


# ---------------------------------------------------------- rational roots

def test_roots_linear(time_limit):
    roots, cofactor = rational_roots([rat(1), rat(1)])
    assert roots == [(rat(-1), 1)]
    assert list(cofactor) == [rat(1)]


def test_roots_quartic(time_limit):
    # (s+1)^2 (s+1/2)^2 expanded
    roots, cofactor = rational_roots([rat(1, 4), rat(3, 2), rat(13, 4),
                                      rat(3), rat(1)])
    assert roots == [(rat(-1), 2), (rat(-1, 2), 2)]
    assert list(cofactor) == [rat(1)]


def test_roots_irrational_cofactor(time_limit):
    roots, cofactor = rational_roots([rat(1), rat(0), rat(1)])
    assert roots == []
    assert list(cofactor) == [rat(1), rat(0), rat(1)]


def test_roots_zero_root(time_limit):
    roots, _ = rational_roots([rat(0), rat(0), rat(1)])
    assert roots == [(rat(0), 2)]


def _trial_division_roots(coeffs):
    """The former rational_roots: tries every p/q with p | b(0), q | lead."""
    def divisors(m):
        m, out, d = abs(m), set(), 1
        while d * d <= m:
            if m % d == 0:
                out.update((d, m // d))
            d += 1
        return out

    def value(x):
        acc = Fraction(0)
        for c in reversed(work):
            acc = acc * x + c
        return acc

    work = [Fraction(c) for c in coeffs]
    roots = []
    while len(work) > 1 and not work[0]:
        roots.append(Fraction(0))
        work = work[1:]
    if len(work) > 1:
        scale = math.lcm(*(c.denominator for c in work))
        ints = [int(c * scale) for c in work]
        cands = {sign * Fraction(p, q) for p in divisors(ints[0])
                 for q in divisors(ints[-1]) for sign in (1, -1)}
        for cand in sorted(cands):
            while len(work) > 1 and value(cand) == 0:
                roots.append(cand)
                work, _ = _synthetic_div(work, cand)
    return ([(r, roots.count(r)) for r in sorted(set(roots))], tuple(work))


def _expand(*factors):
    """Product of ascending coefficient lists."""
    out = [Fraction(1)]
    for f in factors:
        prod = [Fraction(0)] * (len(out) + len(f) - 1)
        for i, a in enumerate(out):
            for j, b in enumerate(f):
                prod[i + j] += a * b
        out = prod
    return out


# small enough that the trial-division oracle stays fast
small = st.fractions(min_value=-5, max_value=5, max_denominator=4)
half = st.fractions(min_value=-3, max_value=3, max_denominator=2)


@settings(deadline=None, max_examples=150,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.lists(st.tuples(small, st.integers(1, 2)), max_size=3),
       st.lists(st.tuples(half, half), max_size=2))
def test_roots_match_trial_division(time_limit, linear, quadratics):
    coeffs = _expand(*[[-r, 1] for r, m in linear for _ in range(m)],
                     *[[c, b, 1] for b, c in quadratics])
    with time_limit:
        got = rational_roots(coeffs)
    assert got == _trial_division_roots(coeffs)


def _brieskorn_pham_roots(a, b):
    """Roots of the b(s) of x^a + y^b: -1 and the distinct -(i/a + j/b)."""
    return sorted({Fraction(-1)} | {-Fraction(i, a) - Fraction(j, b)
                                    for i in range(1, a) for j in range(1, b)})


@pytest.mark.parametrize("roots", [
    [-1, Fraction(-5, 6), Fraction(-7, 6)],
    [Fraction(-1, 2), Fraction(-3, 4)],
    [Fraction(-1, 97), Fraction(-96, 97)],
    [-1000, Fraction(-1, 1000)],
    [-3, Fraction(-5, 7)],
    [0, 0, 0, -1],
    [Fraction(-1, 2), Fraction(-1, 2), Fraction(1, 3), 5],
    # 31 and 43 roots, leading coefficients of 141 and 220 bits
    _brieskorn_pham_roots(6, 7),
    _brieskorn_pham_roots(7, 8),
    # the two roots agree modulo every prime up to 29, so the lifting
    # starts from 31
    [-1, -1 - math.prod([2, 3, 5, 7, 11, 13, 17, 19, 23, 29])],
    # a list is an irreducible factor that stays in the cofactor:
    # s^2 - 2 has a double root modulo 2
    [-1, [-2, 0, 1]],
    # lifted through several squarings
    [10 ** 12, -10 ** 12, Fraction(1, 10 ** 12), Fraction(-1, 10 ** 12)],
    [Fraction(-1, 2), [2, 0, 0, 1], Fraction(3, 5)],
    # the root bound is 40001 and the lifting runs modulo powers of 2:
    # 2^16 exceeds the bound but not twice it, and there -40000 has the
    # symmetric residue 25536
    [-40000],
])
def test_roots_explicit(roots, time_limit):
    linear = [Fraction(r) for r in roots if not isinstance(r, list)]
    cofactor = _expand(*[f for f in roots if isinstance(f, list)])
    coeffs = _expand(*[[-r, 1] for r in linear], cofactor)
    want = [(r, linear.count(r)) for r in sorted(set(linear))]
    assert rational_roots(coeffs) == (want, tuple(cofactor))
    # trial division enumerates the divisors of the scaled b(0), out of
    # reach for the Brieskorn-Pham cases and the large roots; the
    # construction checks those
    if len(roots) < 10 and all(abs(r.numerator) * r.denominator < 10 ** 6
                               for r in linear):
        assert rational_roots(coeffs) == _trial_division_roots(coeffs)


def test_roots_of_brieskorn_pham_b_functions(time_limit):
    # the 35 b(s) of x^a + y^b, 2 <= a <= 8 and a <= b <= 9: every root is
    # found once, as a Fraction with an int multiplicity, and the cofactor
    # is the Fraction 1
    for a in range(2, 9):
        for b in range(a, 10):
            roots = _brieskorn_pham_roots(a, b)
            got, cofactor = rational_roots(_expand(*[[-r, 1] for r in roots]))
            assert got == [(r, 1) for r in roots]
            assert all(type(r) is Fraction and type(m) is int
                       for r, m in got)
            assert cofactor == (1,) and type(cofactor[0]) is Fraction


# numerators and denominators up to 10^9, past the trial-division oracle
big_roots = st.lists(
    st.tuples(st.builds(Fraction, st.integers(-10 ** 9, 10 ** 9),
                        st.integers(1, 10 ** 9)), st.integers(1, 3)),
    max_size=4, unique_by=lambda rm: rm[0])
positive = st.builds(Fraction, st.integers(1, 10 ** 9),
                     st.integers(1, 10 ** 9))


def _with_multiplicities(linear, c):
    """Product of (s - r)^m over (r, m) in linear, times s^2 + c."""
    return _expand(*[[-r, 1] for r, m in linear for _ in range(m)], [c, 0, 1])


@settings(deadline=None, max_examples=100,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(big_roots, positive)
def test_roots_by_construction(time_limit, linear, c):
    with time_limit:
        got = rational_roots(_with_multiplicities(linear, c))
    assert got == (sorted(linear), (c, 0, 1))


@settings(deadline=None, max_examples=100,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(big_roots, positive)
def test_squarefree_ints_by_construction(time_limit, linear, c):
    def primitive(coeffs):
        scale = math.lcm(*(x.denominator for x in coeffs))
        ints = [int(x * scale) for x in coeffs]
        return [x // math.gcd(*ints) for x in ints]

    want = primitive(_with_multiplicities([(r, 1) for r, _ in linear], c))
    with time_limit:
        got = _squarefree_ints(primitive(_with_multiplicities(linear, c)))
    assert got in (want, [-x for x in want])


def test_roots_degree_zero_and_int_input(time_limit):
    assert rational_roots((1,)) == ([], (1,))
    # (s + 1)(s + 2) with plain int coefficients
    roots, cofactor = rational_roots((2, 3, 1))
    assert roots == [(-2, 1), (-1, 1)] and cofactor == (1,)


@pytest.mark.parametrize("coeffs", [(1, 2), (), (0,), (1, 1, 0)])
def test_roots_reject_non_monic(coeffs):
    with pytest.raises(InputError, match="monic"):
        rational_roots(coeffs)


# ------------------------------------------------------------------ b twice

def _synthetic_div(coeffs, root):
    # divide ascending coeffs by (s - root); returns (quotient, remainder)
    out = [rat(0)] * (len(coeffs) - 1)
    acc = rat(0)
    for i in range(len(coeffs) - 1, 0, -1):
        acc = coeffs[i] + root * acc
        out[i - 1] = acc
    return out, coeffs[0] + root * acc


@pytest.mark.parametrize("coeffs, text", [
    ((), "0"),
    ((0,), "0"),
    ((-1, 0, 2), "2*s^2 - 1"),
    ((Fraction(1, 4), 0, -3, Fraction(5, 2), 1),
     "s^4 + 5/2*s^3 - 3*s^2 + 1/4"),
    ((0, 1, Fraction(-1, 3)), "-1/3*s^2 + s"),
    ((2, -1), "-s + 2"),
])
def test_format_univariate(coeffs, text):
    assert format_univariate(coeffs) == text


def test_b_function_line():
    f = parse_poly("x*(x + y + 1)", ["x", "y"])
    res = local_b_function(f)
    assert format_univariate(res.b) == "s + 1"
    assert res.roots == [(rat(-1), 1)]
    assert res.certificate.remainder.is_zero()
    # the local b divides the global one, here (s + 1)^2
    quotient, remainder = _synthetic_div([rat(1), rat(2), rat(1)], rat(-1))
    assert remainder == 0 and quotient == [rat(1), rat(1)]


def test_b_function_quartic():
    f = F()
    res = local_b_function(f)
    assert format_univariate(res.b) == "s^4 + 3*s^3 + 13/4*s^2 + 3/2*s + 1/4"
    assert res.roots == [(rat(-1), 2), (rat(-1, 2), 2)]
    assert res.certificate.remainder.is_zero()


def test_b_function_unit_input():
    res = local_b_function(parse_poly("1 + x", ["x"]))
    assert list(res.b) == [rat(1)]
    assert res.roots == []


def test_b_function_monomials():
    # product formula for x^k: roots -j/k, j = 1..k
    for k in (1, 2, 3):
        res = local_b_function(parse_poly("x^%d" % k, ["x"]))
        assert res.roots == [(rat(-j, k), 1) for j in range(k, 0, -1)]


def test_b_function_supplied_annihilator():
    f = F()
    known = [parse_op(t, XYZ) for t in
             ("-2*s + z*dz", "-x*dx + z*dz", "-dy + x*dx - y*dy")]
    res = local_b_function(f, ann_gens=known)
    assert format_univariate(res.b) == "s^4 + 3*s^3 + 13/4*s^2 + 3/2*s + 1/4"
    bad = [parse_op("dx", XYZ)]
    with pytest.raises(InputError):
        local_b_function(f, ann_gens=bad)


@pytest.mark.parametrize("text", ["1 + x", "x^2"])
@pytest.mark.parametrize("kwargs, message", [
    ({"gb_strategy": "fast"}, "unknown gb strategy"),
    ({"n0": 9, "nmax": 1}, r"n0=9.*nmax=1"),
    ({"gb_strategy": "fast", "n0": 9, "nmax": 1}, "unknown gb strategy"),
    ({"ann_gens": [parse_op("dx", ["x"])]}, "does not annihilate"),
    ({"n0": 0}, "n0=0 must be at least 1"),
])
def test_b_function_checks_arguments_first(monkeypatch, text, kwargs,
                                           message):
    def no_annihilator(*args):
        raise AssertionError("annihilator computed for invalid arguments")

    monkeypatch.setattr("bfunc.localb.ann_fs", no_annihilator)
    monkeypatch.setattr("bfunc.localb._yano_generators", no_annihilator)
    with pytest.raises(InputError, match=message):
        local_b_function(parse_poly(text, ["x"]), **kwargs)


def test_b_function_lazard_strategy():
    f = parse_poly("x^2 + y^2", ["x", "y"])
    assert local_b_function(f, gb_strategy="lazard").b == \
        local_b_function(f, gb_strategy="mora").b
    with pytest.raises(InputError):
        local_b_function(f, gb_strategy="fast")


# ------------------------------------------------------- theorems and checks

@pytest.mark.parametrize("bogus, message", [
    ((2, 3, 1), r"outside \(-1, 0\)"),   # (s + 2)(s + 1)
    ((1, 0, 1), "not rational"),          # s^2 + 1
    ((Fraction(1, 2), 1), "-1 is not a root"),
])
def test_b_function_asserts_root_theorems(monkeypatch, bogus, message):
    # a certified-looking candidate that no local b-function can be
    def certified(gb, n0, nmax):
        return bogus, n0, MoraResult(None, [], DiffOp.zero())

    monkeypatch.setattr("bfunc.localb.find_generator", certified)
    with pytest.raises(BfuncError, match=message):
        local_b_function(parse_poly("x^2", ["x"]))


@pytest.mark.parametrize("strategy", ["mora", "lazard"])
def test_verify_certificate(strategy):
    res = local_b_function(parse_poly("x^2 + y^3", ["x", "y"]),
                           gb_strategy=strategy)
    verify_certificate(res)
    verify_certificate(local_b_function(parse_poly("1 + x", ["x"])))

    cert, arity = res.certificate, res.gb.order.arity
    one = DiffOp.constant(1, arity)
    dx = DiffOp.monomial((0, 0, 0, 1, 0))
    tampered = [
        (dataclasses.replace(cert, quotients=[cert.quotients[0] + one]
                             + cert.quotients[1:]), "relation"),
        (dataclasses.replace(cert, unit=cert.unit + dx), "s or d"),
        (dataclasses.replace(cert, unit=cert.unit - DiffOp.constant(
            cert.unit.coeff((0,) * arity), arity)), "zero constant term"),
    ]
    for bad, message in tampered:
        with pytest.raises(BfuncError, match=message):
            verify_certificate(dataclasses.replace(res, certificate=bad))


@pytest.mark.parametrize("a, b", [(4, 5), (3, 7)])
def test_b_function_brieskorn_pham_curves(a, b):
    # b(s) of x^a + y^b: (s + 1) times s + i/a + j/b over distinct values
    values = {Fraction(i, a) + Fraction(j, b)
              for i in range(1, a) for j in range(1, b)}
    want = _expand([1, 1], *[[v, 1] for v in values])
    res = local_b_function(parse_poly(f"x^{a} + y^{b}", ["x", "y"]))
    assert list(res.b) == want
    assert res.roots == sorted([(-v, 1) for v in values | {1}])
    verify_certificate(res)


@pytest.mark.parametrize("strategy", ["mora", "lazard"])
def test_b_function_leaves_no_order_garbage(strategy):
    # equal orders share one packing, and its ring classes, for the
    # process, so once warm a call leaves no order, packing or ring class
    # for the collector to free
    f = parse_poly("x^3 + y^2 + z^2", ["x", "y", "z"])
    local_b_function(f, gb_strategy=strategy)
    gc.collect()
    flags, start = gc.get_debug(), len(gc.garbage)
    try:
        gc.set_debug(gc.DEBUG_SAVEALL)
        local_b_function(f, gb_strategy=strategy)
        gc.collect()
        left = [o for o in gc.garbage[start:]
                if isinstance(o, (MatrixOrder, Packing))
                or isinstance(o, type) and issubclass(o, _Packed)]
    finally:
        gc.set_debug(flags)
        del gc.garbage[start:]
    assert left == []
