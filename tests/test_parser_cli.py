import json
import random
import re

import pytest

from bfunc.cli import main
from bfunc.errors import InputError, ParseError
from bfunc.orders import MatrixOrder, operator_order
from bfunc.parser import parse_op, parse_poly
from bfunc.printing import format_poly
from bfunc.rationals import rat
from bfunc.sympoly import SymbolPoly
from bfunc.weyl import DiffOp, op_mul

from conftest import rand_op, written_out_key

XYZ = ["x", "y", "z"]


# ----------------------------------------------------------------- grammar

def test_parse_main_example():
    f = parse_poly("x^2*(y + 1)^2*z^2", XYZ)
    want = SymbolPoly.zero()
    for ye, c in ((0, 1), (1, 2), (2, 1)):
        want = want + SymbolPoly.monomial((2, ye, 2, 0, 0, 0, 0), c)
    assert f == want


def test_parse_commutator():
    assert parse_op("dx*x - x*dx", ["x"]) == DiffOp.constant(1, 3)


def test_parse_series_divisor():
    p = parse_op("(1 + x)*dx + x", ["x"])
    want = (DiffOp.monomial((0, 0, 1)) + DiffOp.monomial((1, 0, 1))
            + DiffOp.monomial((1, 0, 0)))
    assert p == want


def test_parse_rationals_and_signs():
    p = parse_poly("-1/2*x + 3/4 - x", ["x"])
    assert p == (SymbolPoly.monomial((1, 0, 0), rat(-3, 2))
                 + SymbolPoly.constant(rat(3, 4), 3))
    assert format_poly(p, ["x"]) == "3/4 - 3/2*x"


def test_parse_operator_ordering():
    # factors multiply with Leibniz normal ordering
    p = parse_op("dx*x^2", ["x"])
    assert p == op_mul(DiffOp.monomial((0, 0, 1)),
                       DiffOp.monomial((2, 0, 0)))
    assert format_poly(p, ["x"]) == "x^2*dx + 2*x"


def test_parse_error_position():
    with pytest.raises(ParseError) as info:
        parse_poly("x +\n* y", ["x", "y"])
    assert info.value.line == 2
    assert info.value.col == 0


def test_parse_unknown_name():
    with pytest.raises(ParseError, match="unknown name"):
        parse_poly("x + w", ["x", "y"])


def test_parse_derivation_in_poly_context():
    with pytest.raises(ParseError, match="polynomial context"):
        parse_poly("x*dx", ["x"])


def test_parse_no_implicit_multiplication():
    for text in ("2x", "x y", "(x + 1)(x - 1)"):
        with pytest.raises(ParseError):
            parse_poly(text, ["x", "y"])


def test_parse_bad_exponent():
    with pytest.raises(ParseError):
        parse_poly("x^-1", ["x"])
    with pytest.raises(ParseError):
        parse_poly("x^y", ["x", "y"])
    # superscript digits pass str.isdigit but are not NAT tokens
    for text, col in (("x^²", 2), ("x^2 + ³", 6)):
        with pytest.raises(ParseError) as err:
            parse_poly(text, ["x"])
        assert (err.value.line, err.value.col) == (1, col)


def test_parse_zero_denominator():
    with pytest.raises(ParseError, match="denominator"):
        parse_poly("1/0", ["x"])


def test_parse_s_in_operator_context():
    p = parse_op("s^2 + s", ["x"])
    assert p == DiffOp.monomial((0, 2, 0)) + DiffOp.monomial((0, 1, 0))


def rand_base_poly(rng, n):
    # exponents only in the x slots, so the text stays in the poly grammar
    f = SymbolPoly.zero()
    for _ in range(rng.randint(1, 4)):
        exp = [0] * (2 * n + 1)
        for slot in range(n):
            exp[slot] = rng.randint(0, 3)
        f = f + SymbolPoly.monomial(
            tuple(exp), rat(rng.randint(-4, 4) or 1, rng.randint(1, 3)))
    return f


def test_parser_reserves_s_for_the_parameter():
    # s would silently read as the parameter, not as the variable
    with pytest.raises(InputError, match="reserved for the parameter"):
        parse_poly("x + s", ["x", "s"])


def test_parser_rejects_duplicate_names():
    with pytest.raises(InputError, match="duplicate variable names"):
        parse_poly("x", ["x", "x"])


def test_parser_rejects_a_name_that_is_a_derivation_atom():
    # with x declared, dx is the derivation atom of x
    for parse in (parse_op, parse_poly):
        with pytest.raises(InputError, match="collides with a derivation"):
            parse("dx", ["x", "dx"])


def test_parser_rejects_a_name_that_is_not_an_identifier():
    for name in ("2y", "x-y", ""):
        with pytest.raises(InputError, match="bad variable name"):
            parse_poly("x", ["x", name])


def test_round_trip_property():
    rng = random.Random(77)
    for _ in range(200):
        n = rng.choice((1, 2, 3))
        names = XYZ[:n]
        f = rand_base_poly(rng, n)
        assert parse_poly(format_poly(f, names), names) == f
        p = rand_op(rng, n, terms=4, max_deg=3)
        assert parse_op(format_poly(p, names), names) == p
        # the terms print in descending order, under each tie order alone
        # and refining the operator order
        for tie in ("lex", "grlex", "grevlex"):
            for order in (MatrixOrder((), tie, 2 * n + 1),
                          operator_order(n, tie)):
                text = format_poly(p, names, order)
                assert parse_op(text, names) == p
                exps = [next(iter(parse_op(term, names).terms))
                        for term in re.split(r" [+-] ", text.lstrip("-"))]
                assert exps == sorted(
                    p.terms, key=lambda e: written_out_key(order, e),
                    reverse=True)


# --------------------------------------------------------------------- cli

def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_cli_localb_line(capsys):
    code, out, _ = run_cli(capsys, "localb", "x*(x + y + 1)", "--vars", "x,y")
    assert code == 0
    assert "b(s) = s + 1" in out
    assert "roots: -1 (multiplicity 1)" in out


def test_cli_localb_unit(capsys):
    code, out, _ = run_cli(capsys, "localb", "1")
    assert code == 0
    assert "b(s) = 1" in out
    assert "roots: none" in out


def test_cli_localb_json(capsys):
    code, out, _ = run_cli(capsys, "localb", "x^2*(y + 1)^2*z^2",
                           "--vars", "x,y,z", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert set(payload) == {"b", "b_coefficients", "degree", "roots",
                            "N_final", "gb_strategy", "timings_ms"}
    assert payload["b"] == "s^4 + 3*s^3 + 13/4*s^2 + 3/2*s + 1/4"
    assert payload["b_coefficients"] == ["1/4", "3/2", "13/4", "3", "1"]
    assert payload["degree"] == 4
    assert payload["roots"] == [["-1", 2], ["-1/2", 2]]
    assert payload["gb_strategy"] == "mora"


def test_cli_json_stable(capsys):
    argv = ("localb", "x^2 + y^2", "--vars", "x,y", "--format", "json")
    _, first, _ = run_cli(capsys, *argv)
    _, second, _ = run_cli(capsys, *argv)
    a, b = json.loads(first), json.loads(second)
    a.pop("timings_ms")
    b.pop("timings_ms")
    assert a == b
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def test_cli_divide_worked_example(capsys):
    code, out, _ = run_cli(capsys, "divide", "dx^2",
                           "--by", "(1 + x)*dx + x", "--n", "5")
    assert code == 0
    assert ("quotient[0] = dx - x*dx + x^2*dx - x^3*dx + x^4*dx - x^5*dx"
            " + x^6*dx - 1 + x - x^2 + x^3 - x^4") in out
    assert ("remainder = -x^7*dx^2 + x^5*dx - x^7*dx - 1 + 2*x - 2*x^2"
            " + 2*x^3 - 2*x^4 + 2*x^5 - x^6") in out
    assert "initial bound = 9" in out


def test_cli_divide_rejects_a_dividend_past_the_packed_limit(capsys):
    # the parser builds x^40000 by operator products, which refuse a total
    # degree past the packed fields, so the command fails before dividing
    code, out, err = run_cli(capsys, "divide", "x^40000", "--by", "dx",
                             "--n", "1")
    assert code == 2
    assert out == ""
    assert err == ("error: product of total degree 32768 does not fit the "
                   "packed fields (at most 32767)\n")


def test_cli_ann(capsys):
    code, out, _ = run_cli(capsys, "ann", "x^2*(y + 1)^2*z^2",
                           "--vars", "x,y,z", "--format", "json")
    assert code == 0
    gens = json.loads(out)["generators"]
    assert len(gens) == 3
    assert any("dz" in g and "s" in g for g in gens)


@pytest.mark.parametrize("tie", ["grevlex", "lex"])
def test_cli_ann_prints_in_tie_order(capsys, tie):
    code, out, _ = run_cli(capsys, "ann", "x^3 + x*y^2 + z^2",
                           "--vars", "x,y,z", "--tie", tie)
    assert code == 0
    lines = out.splitlines()
    order = operator_order(3, tie)
    assert len(lines) == 5
    for line in lines:
        assert format_poly(parse_op(line, XYZ), XYZ, order) == line
    # grevlex would print this lex basis element as -2/3*x*y*dx + x^2*dy + ...
    if tie == "lex":
        assert "x^2*dy - 2/3*x*y*dx + 1/3*y^2*dy" in lines


def test_cli_nf(capsys):
    code, out, _ = run_cli(capsys, "nf", "x^2", "--ideal", "x - x^2",
                           "--n", "6", "--vars", "x")
    assert code == 0
    # x^2 = x*(x - x^2) + x^3 = ... collapses to the tail beyond the bound
    assert out.strip() in ("0", "x^7")


def test_cli_gb(capsys):
    code, out, _ = run_cli(capsys, "gb", "x - x^2", "x^2", "--vars", "x",
                           "--format", "json")
    assert code == 0
    basis = json.loads(out)["basis"]
    assert any(b.startswith("x") for b in basis)


def test_cli_strategies_agree(capsys):
    b = {}
    for strategy in ("lazard", "mora"):
        code, out, _ = run_cli(capsys, "gb", "x - x^2", "x^2", "--vars", "x",
                               "--gb", strategy, "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["strategy"] == strategy
        assert payload["basis"]
        code, out, _ = run_cli(capsys, "localb", "x^2 + y^2", "--vars", "x,y",
                               "--gb", strategy, "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["gb_strategy"] == strategy
        b[strategy] = payload["b"]
    assert b["lazard"] == b["mora"] == "s^2 + 2*s + 1"


def test_cli_bad_input_exit_code(capsys):
    code, _, err = run_cli(capsys, "localb", "x + * y", "--vars", "x,y")
    assert code == 2
    assert "error:" in err
    code, _, err = run_cli(capsys, "localb", "x", "--vars", "x,x")
    assert code == 2
    code, _, err = run_cli(capsys, "localb", "s + 1", "--vars", "s")
    assert code == 2
    code, _, err = run_cli(capsys, "localb", "x*s + x^2", "--vars", "x")
    assert code == 2
    assert "error:" in err
    code, _, err = run_cli(capsys, "localb", "x^2", "--vars", "x", "--nmax", "1")
    assert code == 2
    assert "nmax=1" in err
    code, _, err = run_cli(capsys, "localb", "x^2", "--vars", "x", "--n0", "0")
    assert code == 2
    assert "n0=0 must be at least 1" in err
    for text, col in (("x^² + y^2", 2), ("x^2 + ³", 6)):
        code, _, err = run_cli(capsys, "localb", text, "--vars", "x,y")
        assert code == 2
        assert f"(line 1, column {col})" in err


def test_cli_resource_limit_exit_code(capsys):
    code, _, err = run_cli(capsys, "localb", "x^2*(y + 1)^2*z^2",
                           "--vars", "x,y,z", "--n0", "1", "--nmax", "2")
    assert code == 3
    assert "error:" in err


def test_cli_nmax_env(capsys, monkeypatch):
    monkeypatch.setenv("BFUNC_NMAX", "2")
    code, _, _ = run_cli(capsys, "localb", "x^2*(y + 1)^2*z^2",
                         "--vars", "x,y,z", "--n0", "1")
    assert code == 3
    monkeypatch.setenv("BFUNC_NMAX", "abc")
    code, _, err = run_cli(capsys, "localb", "x^2+y^3", "--vars", "x,y")
    assert code == 2
    assert "error:" in err and "BFUNC_NMAX" in err
    monkeypatch.delenv("BFUNC_NMAX")
    code, _, _ = run_cli(capsys, "localb", "x^2*(y + 1)^2*z^2",
                         "--vars", "x,y,z")
    assert code == 0


def test_cli_file_input(capsys, tmp_path):
    path = tmp_path / "input.txt"
    path.write_text("x*(x + y + 1)\n")
    code, out, _ = run_cli(capsys, "localb", "--file", str(path),
                           "--vars", "x,y")
    assert code == 0
    assert "b(s) = s + 1" in out
    code, _, err = run_cli(capsys, "localb", "--file",
                           str(tmp_path / "missing.txt"))
    assert code == 2
