"""Tests of the benchmark itself.

    python3 -m pytest perfbench/test_perfbench.py -q

They take a few minutes: one of them runs a full pass of every workload.
"""

import json
import shutil
import signal
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

import reference
import run
import tracing
import workloads

run.use_checkout_src()

from bfunc import local_b_function, parse_poly  # noqa: E402

HERE = Path(__file__).resolve().parent
OTHER_SEED = 20061


@pytest.fixture(autouse=True)
def alarm_handler():
    """run_pass arms a per-input timer; turn its signal into InputTimeout as
    measure() does, instead of the default action that ends the process."""
    old = signal.signal(signal.SIGALRM, run._on_alarm)
    yield
    signal.signal(signal.SIGALRM, old)


def _items(name, seed, labels):
    workload = workloads.WORKLOADS[name]
    items = [i for i in run.set_up(workload, seed) if i.case.label in labels]
    assert len(items) == len(labels)
    return workload, items


def _traced_pass(workload, items):
    return run.run_pass(workload, items, time.monotonic() + 120, tracing.Tracer())


# -- reference b-functions ----------------------------------------------------

@pytest.mark.parametrize("exponents", [(2, 3), (3, 4), (3, 5), (5, 6), (4, 2, 2), (3, 2, 2)])
def test_weighted_formula_matches_brieskorn_pham(exponents):
    weights = [Fraction(1, a) for a in exponents]
    assert reference.spectrum_values(weights) == reference.brieskorn_pham_values(exponents)
    assert reference.quasi_homogeneous_b(weights) == reference.brieskorn_pham_b(exponents)


def test_reference_cusp_by_hand():
    # x^2 + y^3: b(s) = (s + 1)(s + 5/6)(s + 7/6)
    expect = reference.poly_from_roots([Fraction(-1), Fraction(-5, 6), Fraction(-7, 6)])
    assert reference.brieskorn_pham_b((2, 3)) == expect
    assert expect == (Fraction(35, 36), Fraction(107, 36), Fraction(3), Fraction(1))


def test_reference_rejects_non_isolated_weights():
    with pytest.raises(ValueError):
        reference.spectrum_values([Fraction(1, 2), Fraction(1)])


def test_check_flags_wrong_b_and_nonzero_certificate():
    workload = workloads.WORKLOADS["curves"]
    case = workloads.make_cases(workload, 1)[0]
    f = parse_poly(case.text, list(case.variables))
    res = local_b_function(f)
    assert run.check(case, (res.b, res.n_final, res.certificate)) is None
    wrong = res.b[:-2] + (res.b[-2] + 1, res.b[-1])
    assert "wrong b(s)" in run.check(case, (wrong, res.n_final, res.certificate))

    class Cert:
        remainder = f
    assert "remainder" in run.check(case, (res.b, res.n_final, Cert()))


def test_calibration_runs_no_bfunc_code():
    seen = set()

    def profile(frame, event, arg):
        if event == "call":
            seen.add(frame.f_globals.get("__name__", ""))

    sys.setprofile(profile)
    try:
        run.calibrate()
    finally:
        sys.setprofile(None)
    assert not any(name.startswith("bfunc") for name in seen)


# -- inputs ---------------------------------------------------------------------

def test_inputs_are_a_function_of_the_seed():
    for workload in workloads.WORKLOADS.values():
        assert workloads.make_cases(workload, 7) == workloads.make_cases(workload, 7)
        texts = {tuple(c.text for c in workloads.make_cases(workload, s)) for s in range(5)}
        assert len(texts) > 1


def test_other_seed_reproduces_reference_on_every_input():
    for name, workload in workloads.WORKLOADS.items():
        items = run.set_up(workload, OTHER_SEED)
        res = run.run_pass(workload, items, time.monotonic() + 170)
        assert res.failures == [], name
        assert len(res.times) == len(workload.families)


# -- tracing ----------------------------------------------------------------------

def test_tracer_wraps_every_binding_and_restores_them():
    from bfunc import groebner, weyl
    original_mul, original_reduce = weyl.op_mul, groebner.reduce_global
    before = {id(v) for m in tracing._bfunc_modules() for v in vars(m).values()}
    tracer = tracing.Tracer()
    with tracer:
        assert tracer.missed_bindings() == []
        assert weyl.op_mul is not original_mul
        assert groebner.op_mul is weyl.op_mul
        # the default captured at import time now holds the wrapper too
        assert original_reduce.__defaults__[-1] is weyl.op_mul
    after = {id(v) for m in tracing._bfunc_modules() for v in vars(m).values()}
    assert before == after
    for fn in (groebner.spair, groebner.reduce_global, groebner.buchberger_global):
        assert fn.__defaults__[-1] is original_mul


def test_tracer_sees_every_call():
    """Count calls of each traced function's code object with sys.setprofile,
    which no rebinding can bypass, and compare with the tracer's counts."""
    workload, items = _items("lazard", 1, ["x^2*(y+1)^2*z^2"])
    mora_wl, mora_items = _items("surfaces", 1, ["x*y*z"])
    tracer = tracing.Tracer()
    originals = {}
    for module, funcs in tracing.TRACED.items():
        for func in funcs:
            fn = getattr(sys.modules[f"bfunc.{module}"], func)
            originals[fn.__code__] = f"{module}.{func}"
    seen = {name: 0 for name in originals.values()}

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in originals:
            seen[originals[frame.f_code]] += 1

    sys.setprofile(profile)
    try:
        with tracer:
            run.run_case(workload, items[0])
            run.run_case(mora_wl, mora_items[0])
    finally:
        sys.setprofile(None)
    traced = {}
    for name, st in tracer.stats.items():
        key = "groebner.mora_div" if name.startswith("groebner.mora_div.") else name
        traced[key] = traced.get(key, 0) + st.calls
    assert seen["weyl.op_mul"] > 1000
    assert seen["groebner.reduce_global"] > 0 and seen["groebner.mora_div"] > 0
    assert {k: v for k, v in seen.items() if v} == traced


def test_traced_run_matches_untraced_run():
    for name, labels in (("surfaces", ["x^3+y^2+z^2", "x*y*z"]),
                         ("curves", ["x^2+y^3", "x^2*y+y^4", "x^5+y^5"]),
                         ("bsearch", ["x^3+y^7"]),
                         ("lazard", ["x^2*(y+1)^2*z^2"])):
        workload, items = _items(name, 3, labels)
        for item in items:
            b, n_final, _ = run.run_case(workload, item)
            with tracing.Tracer():
                traced_b, traced_n_final, _ = run.run_case(workload, item)
            assert (traced_b, traced_n_final) == (b, n_final), item.case.text


def test_layer_counts_repeat_at_the_same_seed():
    counted = [m for m, (_, src) in run.LAYER_METRICS.items() if src in ("calls", "count")]
    counted.append("localb.approx_nf.useful_frac")
    for name, labels in (("surfaces", ["x^3+y^2+z^2", "x*y*z"]),
                         ("curves", ["x^2+y^3", "x^2*y+y^4", "x^5+y^5"]),
                         ("bsearch", ["x^3+y^7"]),
                         ("lazard", ["x^2*(y+1)^2*z^2"])):
        runs = []
        for _ in range(2):
            workload, items = _items(name, 5, labels)
            p = _traced_pass(workload, items)
            metrics = run.layer_metrics([p], 1.0)
            runs.append({m: metrics[m]["value"] for m in counted})
        assert runs[0] == runs[1], name
        assert runs[0]["weyl.op_mul.calls"] > 0
        assert runs[0]["linalg.nullspace.cells"] > 0
        assert runs[0]["localb.n_final"] > 0


# -- the command line ---------------------------------------------------------------

def test_run_prints_every_metric_with_its_unit():
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "curves",
         "--seed", "2", "--seconds", "0.1", "--trace", "0"],
        capture_output=True, text=True, timeout=170, check=True, cwd=HERE.parent)
    result = json.loads(out.stdout.splitlines()[-1])
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 6
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == \
        {k: v["unit"] for k, v in result["metrics"].items()}
    assert '"backend"' in out.stdout and "out-of-budget" in out.stdout


def test_run_refuses_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    out = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "curves",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=170, cwd=tmp_path)
    assert out.returncode != 0
    assert "{" not in out.stdout


def test_declared_layer_metrics_match_the_traced_output():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == \
        {name: unit for name, (unit, _) in run.LAYER_METRICS.items()}
