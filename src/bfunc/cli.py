"""Command line interface.

Subcommands: localb, ann, gb, nf, divide.  Variables are always declared
explicitly with --vars; expressions come from the argument list or --file.
Exit codes: 0 success, 2 bad input, 3 resource limit exceeded.
"""

import argparse
import json
import os
import sys
import time

from .errors import InputError, ResourceLimitError
from .groebner import STRATEGIES, groebner_basis
from .localb import ann_fs, approx_nf, local_b_function
from .opdiv import op_approx_div
from .orders import operator_order
from .parser import check_names, parse_op, parse_poly
from .printing import format_poly, format_univariate


def _build_parser():
    top = argparse.ArgumentParser(
        prog="bfunc",
        description="local b-functions and divisions in the formal Weyl algebra")
    sub = top.add_subparsers(dest="command", required=True)

    def common(p, nexpr="one"):
        if nexpr == "one":
            p.add_argument("expr", nargs="?", help="input expression")
        else:
            p.add_argument("expr", nargs="*", help="input expressions")
        p.add_argument("--vars", default="x",
                       help="comma separated variable names (default: x)")
        p.add_argument("--tie", default="grevlex",
                       choices=["grevlex", "grlex", "lex"],
                       help="tie-breaking term order")
        p.add_argument("--format", default="text", choices=["text", "json"])
        p.add_argument("--file", help="read the (first) expression from a file")

    p = sub.add_parser("localb", help="local b-function of a polynomial at 0")
    common(p)
    p.add_argument("--gb", default="mora", choices=STRATEGIES)
    p.add_argument("--n0", type=int, help="starting truncation degree")
    p.add_argument("--nmax", type=int,
                   help="maximum truncation degree (default: env BFUNC_NMAX or 64)")

    p = sub.add_parser("ann", help="annihilator generators of the symbolic power")
    common(p)

    p = sub.add_parser("gb", help="Groebner basis under the operator division order")
    common(p, nexpr="many")
    p.add_argument("--gb", default="mora", choices=STRATEGIES)

    p = sub.add_parser("nf", help="approximate normal form modulo an ideal")
    common(p)
    p.add_argument("--ideal", action="append", required=True,
                   help="ideal generator (repeatable)")
    p.add_argument("--n", type=int, required=True, help="truncation degree")
    p.add_argument("--gb", default="mora", choices=STRATEGIES)

    p = sub.add_parser("divide", help="approximate division by a list of operators")
    common(p)
    p.add_argument("--by", action="append", required=True,
                   help="divisor operator (repeatable)")
    p.add_argument("--n", type=int, required=True, help="accuracy degree")
    return top


def _names(args):
    names = [v.strip() for v in args.vars.split(",") if v.strip()]
    if not names:
        raise InputError("--vars must list at least one variable")
    return check_names(names)


def _main_expr(args):
    if args.file is not None:
        with open(args.file) as fh:
            return fh.read().strip()
    expr = args.expr if isinstance(args.expr, str) else None
    if expr is None:
        raise InputError("missing input expression")
    return expr


def _emit(args, payload, text):
    if args.format == "json":
        print(json.dumps(payload, sort_keys=True))
    else:
        print(text)


def _run_localb(args):
    names = _names(args)
    f = parse_poly(_main_expr(args), names)
    nmax = args.nmax
    if nmax is None:
        raw = os.environ.get("BFUNC_NMAX", "64")
        try:
            nmax = int(raw)
        except ValueError:
            raise InputError(
                f"BFUNC_NMAX must be an integer, got {raw!r}") from None
    t0 = time.perf_counter()
    result = local_b_function(f, gb_strategy=args.gb, n0=args.n0, nmax=nmax,
                              tie=args.tie)
    elapsed = (time.perf_counter() - t0) * 1000.0
    payload = {
        "b": format_univariate(result.b),
        "b_coefficients": [str(c) for c in result.b],
        "degree": len(result.b) - 1,
        "roots": [[str(r), m] for r, m in result.roots],
        "N_final": result.n_final,
        "gb_strategy": args.gb,
        "timings_ms": {"total": round(elapsed, 3)},
    }
    lines = [f"b(s) = {payload['b']}"]
    if result.roots:
        lines.append("roots: " + ", ".join(
            f"{r} (multiplicity {m})" for r, m in result.roots))
    else:
        lines.append("roots: none")
    lines.append(f"N_final: {result.n_final}")
    lines.append(f"gb_strategy: {args.gb}")
    _emit(args, payload, "\n".join(lines))


def _run_ann(args):
    names = _names(args)
    f = parse_poly(_main_expr(args), names)
    gens = ann_fs(f, args.tie)
    order = operator_order(len(names), args.tie)
    rendered = [format_poly(g, names, order) for g in gens]
    _emit(args, {"generators": rendered}, "\n".join(rendered))


def _run_gb(args):
    names = _names(args)
    exprs = list(args.expr)
    if args.file is not None:
        with open(args.file) as fh:
            exprs = [line.strip() for line in fh if line.strip()] + exprs
    if not exprs:
        raise InputError("missing ideal generators")
    gens = [parse_op(e, names) for e in exprs]
    gb = groebner_basis(gens, operator_order(len(names), args.tie), args.gb)
    rendered = [format_poly(g, names, gb.order) for g in gb.elements]
    _emit(args, {"basis": rendered, "strategy": args.gb}, "\n".join(rendered))


def _run_nf(args):
    names = _names(args)
    p = parse_op(_main_expr(args), names)
    gens = [parse_op(e, names) for e in args.ideal]
    gb = groebner_basis(gens, operator_order(len(names), args.tie), args.gb)
    nf = approx_nf(p, gb, args.n).remainder
    text = format_poly(nf, names, gb.order)
    _emit(args, {"normal_form": text, "n": args.n}, text)


def _run_divide(args):
    names = _names(args)
    p = parse_op(_main_expr(args), names)
    divisors = [parse_op(e, names) for e in args.by]
    order = operator_order(len(names), args.tie)
    res = op_approx_div(p, divisors, args.n, order)
    quot = [format_poly(q, names, order) for q in res.quotients]
    rem = format_poly(res.remainder, names, order)
    payload = {
        "quotients": quot,
        "remainder": rem,
        "n": res.requested_bound,
        "initial_bound": res.initial_bound,
        "schedule": [list(row) for row in res.schedule],
    }
    lines = [f"quotient[{i}] = {q}" for i, q in enumerate(quot)]
    lines.append(f"remainder = {rem}")
    lines.append(f"initial bound = {res.initial_bound}")
    lines.append("schedule (level, loss, bound): " +
                 ", ".join(str(row) for row in res.schedule))
    _emit(args, payload, "\n".join(lines))


_RUNNERS = {
    "localb": _run_localb,
    "ann": _run_ann,
    "gb": _run_gb,
    "nf": _run_nf,
    "divide": _run_divide,
}


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        _RUNNERS[args.command](args)
    except ResourceLimitError as err:
        print(f"error: {err}", file=sys.stderr)
        return 3
    except (InputError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
