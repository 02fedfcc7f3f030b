"""Decisions with one home in the library, guarded over its source.

The product's algebra is chosen by the operand type, never passed in:
HomogOp operands get the homogenized product from op_mul itself, so no
library call may pass a multiplication function or a homogenized flag.
Mora division always returns its unit and quotients, so no call may pass a
track flag either.
A term whose coefficients cancel is deleted by sympoly.accumulate alone.
A wrapped terms dict is never changed, which is what keeps the lead that
SymbolPoly.leading stores valid.
"""

import ast
import inspect
from pathlib import Path

import bfunc
from bfunc.groebner import mora_div
from bfunc.weyl import op_mul

SOURCES = sorted(Path(bfunc.__file__).parent.glob("*.py"))
MUL_TAKERS = {"spair", "reduce_global", "buchberger_global"}


def _callee(call):
    func = call.func
    if isinstance(func, ast.Attribute):
        return func.attr
    if isinstance(func, ast.Name):
        return func.id
    return None


def _plumbing(path):
    found = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if not isinstance(node, ast.Call):
            continue
        where = f"{path.name}:{node.lineno}"
        found += [f"{where} passes {kw.arg}=" for kw in node.keywords
                  if kw.arg in ("mul", "homogenized", "track")]
        if _callee(node) in MUL_TAKERS and any(
                isinstance(arg, ast.Lambda)
                for arg in node.args + [kw.value for kw in node.keywords]):
            found.append(f"{where} passes a lambda to {_callee(node)}")
    return found


def test_no_product_plumbing():
    assert {"weyl.py", "groebner.py", "localb.py"} <= {p.name for p in SOURCES}
    found = [hit for path in SOURCES for hit in _plumbing(path)]
    assert found == []


def test_op_mul_takes_two_operands():
    assert str(inspect.signature(op_mul)) == "(a, b)"


def test_mora_div_takes_no_flags():
    assert str(inspect.signature(mora_div)) == "(p, divisors, order)"


def _term_deletions(path):
    """Qualified names of the functions holding a `del d[...]` statement."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                visit(child, scope + [child.name])
                continue
            if isinstance(child, ast.Delete) and any(
                    isinstance(t, ast.Subscript) for t in child.targets):
                found.append(".".join([path.stem] + scope))
            visit(child, scope)

    visit(ast.parse(path.read_text(), str(path)), [])
    return found


def test_cancelled_terms_deleted_in_one_place():
    found = [hit for path in SOURCES for hit in _term_deletions(path)]
    assert "sympoly.accumulate" in found
    assert set(found) <= {"sympoly.accumulate", "sympoly.SymbolPoly.rest"}


MUTATORS = {"pop", "popitem", "update", "clear", "setdefault"}


def _is_terms(node):
    return isinstance(node, ast.Attribute) and node.attr == "terms"


def _terms_writes(source, name):
    """Statements that change a terms dict in place, or rebind .terms outside
    the two places in sympoly that wrap a fresh dict."""
    found = []
    for node in ast.walk(ast.parse(source, name)):
        where = f"{name}:{getattr(node, 'lineno', '?')}"
        if (isinstance(node, ast.Subscript)
                and isinstance(node.ctx, (ast.Store, ast.Del))
                and _is_terms(node.value)):
            found.append(f"{where} stores through .terms[...]")
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
              and node.func.attr in MUTATORS and _is_terms(node.func.value)):
            found.append(f"{where} calls .terms.{node.func.attr}()")
        elif (_is_terms(node) and isinstance(node.ctx, ast.Store)
              and not (name == "sympoly.py"
                       and isinstance(node.value, ast.Name)
                       and node.value.id in ("self", "obj"))):
            found.append(f"{where} rebinds .terms")
    return found


def test_terms_never_change_in_place():
    found = [hit for path in SOURCES
             for hit in _terms_writes(path.read_text(), path.name)]
    assert found == []
    probe = ("p.terms[e] = 1\ndel q.terms[e]\np.terms[e] += 1\n"
             "p.terms.pop(e)\np.terms.update(d)\np.terms = {}\n")
    assert len(_terms_writes(probe, "probe.py")) == 6
