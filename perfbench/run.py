"""Benchmark of the bfunc local b-function pipeline.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from its src/.
One process, one thread, closed loop: a single caller works through passes
over the workload's inputs in sequence, starting another pass while one more
of the average length so far fits in the --seconds window (there is always
one pass).  Each pass draws fresh coefficients from the seed.
Every result is checked against the closed-form b(s) in reference.py and
must carry a certificate with zero remainder; a wrong b(s), an exception,
ResourceLimitError or the per-input time limit each count as a failed input.

--trace 0 reports the end-to-end metrics: pass_s (the time of one pass: each
input's median over the run's passes, summed over the inputs), setup_s
(median of several set-ups, each in a fresh interpreter: import, parsing and,
for bsearch, the annihilator and basis) and peak_rss_mb.  --trace 1 runs
every input untraced and then traced and reports the per-layer metrics of
tracing.py; time shares are of the traced pass.  The last line of standard
output is one JSON object with keys correct, attempted, failed and metrics;
the lines above it are a human-readable report.

Times are reported at a fixed reference speed.  On a shared host the same
computation runs up to 15 % slower or faster from one minute to the next, in
every process alike, so raw wall times of separate runs differ by more than
the regressions the benchmark must catch.  Each pass therefore also times
calibrate(), a fixed stdlib-only computation of the same kind as the pipeline
(sparse products with Fraction coefficients, bfunc not involved), before every
input and after the last; the run's wall times are scaled by CAL_REF_S over
the run's mean calibration time.  Over 30 s windows this cut the spread of
one input's mean time from 15 % to 2.4 %.  The report prints wall times too.
"""

import argparse
import gc
import itertools
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import workloads
from tracing import Tracer

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

NMAX = 64              # truncation cap, the library default
INPUT_LIMIT_S = 60.0   # a slower input counts as failed
RUN_LIMIT_S = 150.0    # no input may run past this point of the run
SETUP_REPEATS = 5
CAL_REF_S = 0.2        # calibrate() time at the reference speed

# per-layer metrics: name -> (unit, source).  "self" and "total" are a span's
# self and inclusive time as a share of the traced pass, "calls" its call
# count, "count" a work counter of tracing.Tracer.  Inclusive shares are given
# for the pipeline stages, self shares for the layers below them.
LAYER_METRICS = {
    "trace.pass_s": ("s", None),
    "trace.overhead_frac": ("frac", None),
    "localb.ann_fs.total_frac": ("frac", "total"),
    "groebner.buchberger_mora.total_frac": ("frac", "total"),
    "groebner.groebner_lazard.total_frac": ("frac", "total"),
    "localb.find_generator.total_frac": ("frac", "total"),
    "localb.rational_roots.self_frac": ("frac", "self"),
    "weyl.op_mul.self_frac": ("frac", "self"),
    "weyl.op_mul.calls": ("count", "calls"),
    "weyl.op_mul.term_pairs": ("count", "count"),
    "weyl.apply_to_fs.self_frac": ("frac", "self"),
    "groebner.buchberger_global.self_frac": ("frac", "self"),
    "groebner.reduce_global.self_frac": ("frac", "self"),
    "groebner.reduce_global.calls": ("count", "calls"),
    "groebner.pair_useful_frac": ("frac", None),
    "groebner.groebner_lazard.self_frac": ("frac", "self"),
    "groebner.buchberger_mora.self_frac": ("frac", "self"),
    "groebner.mora_div.gb.self_frac": ("frac", "self"),
    "groebner.mora_div.cert.self_frac": ("frac", "self"),
    "groebner.mora_div.cert.calls": ("count", "calls"),
    "localb.approx_nf.calls": ("count", "calls"),
    "localb.approx_nf.useful_frac": ("frac", None),
    "localb.n_final": ("count", "count"),
    "opdiv.op_approx_div.self_frac": ("frac", "self"),
    "opdiv.levels": ("count", "count"),
    "staircase.series_approx_div.self_frac": ("frac", "self"),
    "staircase.series_approx_div.calls": ("count", "calls"),
    "linalg.nullspace.self_frac": ("frac", "self"),
    "linalg.nullspace.cells": ("count", "count"),
}


class InputTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise InputTimeout(f"input exceeded its time limit of {INPUT_LIMIT_S:.0f} s")


def use_checkout_src():
    """Import bfunc from this checkout's src/ and nowhere else."""
    if not (SRC / "bfunc" / "__init__.py").is_file():
        raise SystemExit(f"error: no bfunc package under {SRC}")
    sys.path.insert(0, str(SRC))


def environment():
    from bfunc.rationals import Rational
    return {"backend": Rational.__module__.split(".")[0],
            "python": platform.python_version(),
            "nproc": os.cpu_count()}


_CAL_TERMS = {(i, j): Fraction(i + 1, j + 2) for i in range(14) for j in range(14)}


def calibrate():
    """Seconds a fixed sparse product with Fraction coefficients takes now.

    The collector is off meanwhile, so the time does not depend on how many
    objects the program under test keeps alive.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        out = {}
        for (a0, a1), ca in _CAL_TERMS.items():
            for (b0, b1), cb in _CAL_TERMS.items():
                e = (a0 + b0, a1 + b1)
                c = ca * cb
                acc = out.get(e)
                out[e] = c if acc is None else acc + c
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


# -- set-up ----------------------------------------------------------------------

@dataclass
class Item:
    case: workloads.Case
    f: object
    gb: object = None


def set_up(workload, seed, draw=0):
    """Parse the inputs of one pass; for bsearch also build each Groebner basis."""
    from bfunc import ann_fs, buchberger_mora, from_symbol, operator_order, parse_poly
    items = []
    for case in workloads.make_cases(workload, seed, draw):
        item = Item(case, parse_poly(case.text, list(case.variables)))
        if workload.kind == "bsearch":
            f = item.f
            item.gb = buchberger_mora(ann_fs(f) + [from_symbol(f)],
                                      operator_order(len(case.variables)))
        items.append(item)
    return items


def probe_setup(workload, seed):
    """Median set-up time over fresh interpreters, so the import counts too,
    at the reference speed: each interpreter calibrates after its set-up."""
    times, calibrations = [], []
    for _ in range(SETUP_REPEATS):
        out = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", workload.name, "--seed", str(seed)],
            capture_output=True, text=True, timeout=60, check=True)
        elapsed, calibration = map(float, out.stdout.split())
        times.append(elapsed)
        calibrations.append(calibration)
    return statistics.median(times) * speed_scale(calibrations)


# -- passes ---------------------------------------------------------------------

def run_case(workload, item):
    from bfunc import localb
    if workload.kind == "bsearch":
        return localb.find_generator(item.gb, 2 * item.f.arity, NMAX)
    res = localb.local_b_function(item.f, gb_strategy=workload.strategy)
    return res.b, res.n_final, res.certificate


def check(case, output):
    coeffs, _, cert = output
    got = tuple(Fraction(int(c.numerator), int(c.denominator)) for c in coeffs)
    if got != case.reference:
        return f"wrong b(s): {got} != {case.reference}"
    if not cert.remainder.is_zero():
        return "certificate remainder is not zero"
    return None


@dataclass
class PassResult:
    times: list = field(default_factory=list)          # untraced, per input
    traced_times: list = field(default_factory=list)   # traced, per input
    failures: list = field(default_factory=list)
    calibrations: list = field(default_factory=list)
    stats: dict = None
    counts: dict = None

    @property
    def wall_s(self):
        return sum(self.times)

    @property
    def traced_wall_s(self):
        return sum(self.traced_times)


def speed_scale(calibrations):
    """Factor from wall time to time at the reference speed."""
    return CAL_REF_S / statistics.mean(calibrations)


def _attempt(workload, item, deadline, res, times):
    """Time one call, check it and record the outcome."""
    limit = min(INPUT_LIMIT_S, deadline - time.monotonic())
    output, error = None, None
    t0 = time.perf_counter()
    try:
        signal.setitimer(signal.ITIMER_REAL, max(limit, 0.001))
        try:
            output = run_case(workload, item)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except Exception as exc:  # a failing input is counted; the run goes on
        error = f"{type(exc).__name__}: {exc}"
    times.append(time.perf_counter() - t0)
    if error is None:
        error = check(item.case, output)
    if error:
        res.failures.append(f"{item.case.label} [{item.case.text}]: {error}")


def run_pass(workload, items, deadline, tracer=None):
    """One pass over the items.  With a tracer, each input runs untraced and
    then, right after, traced, so both see the machine in the same state."""
    res = PassResult()
    gc.collect()
    if tracer is not None:
        tracer.reset()
    for item in items:
        res.calibrations.append(calibrate())
        _attempt(workload, item, deadline, res, res.times)
        if tracer is not None:
            with tracer:
                _attempt(workload, item, deadline, res, res.traced_times)
    res.calibrations.append(calibrate())
    if tracer is not None:
        res.stats, res.counts = tracer.stats, tracer.counts
    return res


def run_passes(workload, seed, seconds, deadline, tracer=None):
    """Closed loop of passes, each on freshly drawn inputs whose set-up is
    not timed."""
    passes = []
    start = time.perf_counter()
    for draw in itertools.count():
        passes.append(run_pass(workload, set_up(workload, seed, draw), deadline, tracer))
        elapsed = time.perf_counter() - start
        typical = elapsed / (draw + 1)
        if elapsed + typical > seconds or time.monotonic() + typical > deadline:
            return passes


# -- metrics --------------------------------------------------------------------

def tail_percentile(samples):
    """Highest of p50/p90/p99 with at least ten samples beyond it, or None."""
    best = None
    ordered = sorted(samples)
    for p in (50, 90, 99):
        if len(ordered) * (100 - p) / 100 >= 10:
            best = (p, ordered[min(len(ordered) - 1, int(len(ordered) * p / 100))])
    return best


def layer_metrics(passes, scale):
    """Per-layer metrics from traced passes.  Counts come from the first pass,
    whose inputs depend on the seed alone; time shares are medians over the
    passes."""
    first = passes[0]
    counts = first.counts
    calls = {k: s.calls for k, s in first.stats.items()}
    out = {}
    for name, (unit, source) in LAYER_METRICS.items():
        span = name.rsplit(".", 1)[0]
        if source in ("self", "total"):
            value = statistics.median(
                (getattr(p.stats[span], source + "_s") if span in p.stats else 0.0)
                / p.traced_wall_s for p in passes)
        elif source == "calls":
            value = calls.get(span, 0)
        elif source == "count":
            value = counts[name]
        elif name == "trace.pass_s":
            value = statistics.median(p.traced_wall_s for p in passes) * scale
        elif name == "trace.overhead_frac":
            value = statistics.median(p.traced_wall_s / p.wall_s for p in passes) - 1
        elif name == "groebner.pair_useful_frac":
            att = counts["groebner.pair_attempts"]
            value = counts["groebner.pair_useful"] / att if att else 0.0
        elif name == "localb.approx_nf.useful_frac":
            value = counts["localb.nf_needed"] / calls["localb.approx_nf"]
        out[name] = {"value": value, "unit": unit}
    return out


def measure(workload_name, seed, seconds, trace):
    """Run the benchmark; returns (report lines, result object)."""
    t_begin = time.monotonic()
    deadline = t_begin + RUN_LIMIT_S
    workload = workloads.WORKLOADS[workload_name]
    setup_s = None if trace else probe_setup(workload, seed)
    tracer = Tracer() if trace else None
    old_handler = signal.signal(signal.SIGALRM, _on_alarm)
    try:
        passes = run_passes(workload, seed, seconds, deadline, tracer)
    finally:
        signal.signal(signal.SIGALRM, old_handler)

    attempted = sum(len(p.times) + len(p.traced_times) for p in passes)
    calibrations = [c for p in passes for c in p.calibrations]
    scale = speed_scale(calibrations)
    failures = [f for p in passes for f in p.failures]
    env = environment()
    lines = [f"env {json.dumps(env, sort_keys=True)}",
             f"workload {workload.name} seed {seed} seconds {seconds} trace {trace}: "
             f"{len(passes)} passes{' (each input untraced, then traced)' if trace else ''}, "
             "one process, one thread, closed loop"]
    for wl, inputs, why in workloads.OUT_OF_BUDGET:
        lines.append(f"out-of-budget ({wl}): {inputs}: {why}")
    lines.append(f"{'input family':28} {'median_s':>9}  {'n':>2}  status")
    medians = []
    for i, fam in enumerate(workload.families):
        medians.append(statistics.median(p.times[i] for p in passes) * scale)
        bad = [f for f in failures if f.startswith(fam.label + " [")]
        lines.append(f"{fam.label:28} {medians[-1]:9.3f}  {len(passes):>2}  "
                     f"{'FAILED' if bad else 'ok'}")
    lines += [f"failure: {f}" for f in failures]
    pass_times = [p.wall_s * scale for p in passes]
    tail = tail_percentile(pass_times)
    lines.append(f"failed_frac {len(failures) / attempted:.4f} ({len(failures)}/{attempted})")
    lines.append("untraced passes_s " + " ".join(f"{t:.3f}" for t in pass_times))
    lines.append("untraced passes wall_s " + " ".join(f"{p.wall_s:.3f}" for p in passes))
    lines.append(f"calibration_s mean {CAL_REF_S / scale:.4f} over {len(calibrations)}, "
                 f"reference {CAL_REF_S}")
    if trace:
        lines.append("traced passes_s " + " ".join(f"{p.traced_wall_s * scale:.3f}"
                                                   for p in passes))
        metrics = layer_metrics(passes, scale)
        lines.append(f"{'span':36} {'calls':>9} {'total_s':>9} {'self_s':>9} {'self%':>6}"
                     "  (first traced pass, wall time)")
        first = passes[0]
        for name, st in sorted(first.stats.items(), key=lambda kv: -kv[1].self_s):
            lines.append(f"{name:36} {st.calls:9d} {st.total_s:9.3f} {st.self_s:9.3f} "
                         f"{100 * st.self_s / first.traced_wall_s:6.1f}")
        outside = first.traced_wall_s - sum(st.self_s for st in first.stats.values())
        lines.append(f"{'(outside traced spans)':36} {'':9} {'':9} {outside:9.3f} "
                     f"{100 * outside / first.traced_wall_s:6.1f}")
        lines += [f"count {k} {v}" for k, v in first.counts.items()]
    else:
        metrics = {
            "pass_s": {"value": sum(medians), "unit": "s"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                            "unit": "MB"},
        }
        lines.append(f"passes {len(pass_times)}: "
                     + (f"p{tail[0]} {tail[1]:.3f}" if tail else
                        "no percentile has 10 samples beyond it"))
    for name, m in metrics.items():
        lines.append(f"metric {name} = {m['value']} {m['unit']}")
    result = {"correct": not failures, "attempted": attempted,
              "failed": len(failures), "metrics": metrics}
    return lines, result


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    use_checkout_src()
    workload = workloads.WORKLOADS[args.workload]
    if args.setup_probe:
        t0 = time.perf_counter()
        set_up(workload, args.seed)
        print(time.perf_counter() - t0, calibrate())
        return 0
    lines, result = measure(args.workload, args.seed, args.seconds, args.trace)
    print("\n".join(lines))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
