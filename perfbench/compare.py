"""Summarise saved benchmark outputs and compare two sets of them.

    python3 perfbench/compare.py NEW.log ... [--base BASE.log ...]

Each log is the standard output of one run.py run.  For every workload and
metric the summary gives the median, the quartiles from
statistics.quantiles(values, n=4) and their spread (Q3 - Q1) / median; with
--base it also gives the change of the median against the base set and checks
it against the bound in BENCHMARK.json.  Runs whose environment differs (the
rational backend above all: gmpy2 changes every arithmetic-bound number) are
refused instead of compared.
"""

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(paths):
    """{(workload, metric): [values]}, the environments seen, failed/attempted."""
    values, envs, tally = defaultdict(list), set(), [0, 0]
    for path in paths:
        lines = Path(path).read_text().splitlines()
        try:
            env = next(json.loads(l[4:]) for l in lines if l.startswith("env "))
            workload = next(l.split()[1] for l in lines if l.startswith("workload "))
            result = json.loads(lines[-1])
        except (StopIteration, IndexError, ValueError):
            raise SystemExit(f"{path}: not the output of a finished run.py run")
        envs.add(json.dumps(env, sort_keys=True))
        tally[0] += result["failed"]
        tally[1] += result["attempted"]
        for name, m in result["metrics"].items():
            values[(workload, name)].append(m["value"])
    return values, envs, tally


def summary(values):
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return med, q1, q3, (q3 - q1) / med if med else float("nan")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("logs", nargs="+")
    ap.add_argument("--base", nargs="+", default=[])
    args = ap.parse_args(argv)

    new, envs, tally = load(args.logs)
    base, base_envs, _ = load(args.base) if args.base else ({}, set(), None)
    if len(envs | base_envs) > 1:
        print("refusing to compare runs from different environments:", file=sys.stderr)
        for env in sorted(envs | base_envs):
            print("  " + env, file=sys.stderr)
        return 2
    bounds = {m["name"]: m for m in json.loads(BENCHMARK.read_text())["end_to_end"]}
    print(f"env {next(iter(envs))}  failed {tally[0]}/{tally[1]}")
    worse = 0
    for (workload, name), vals in sorted(new.items()):
        med, q1, q3, spread = summary(vals)
        line = (f"{workload:9} {name:38} n={len(vals):2} median={med:.6g} "
                f"q1={q1:.6g} q3={q3:.6g} spread={spread:.4f}")
        spec = bounds.get(name)
        if spec:
            line += f" bound={spec['bound']}"
        if (workload, name) in base:
            bmed = statistics.median(base[(workload, name)])
            change = (med - bmed) / bmed if bmed else float("nan")
            line += f" base={bmed:.6g} change={change:+.4f}"
            if spec and (change if spec["better"] == "lower" else -change) > spec["bound"]:
                line += " WORSE"
                worse += 1
        print(line)
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
