"""Decisions with one home in the library, guarded over its source.

The product's algebra is chosen by the operand type, never passed in:
HomogOp operands get the homogenized product from op_mul itself, so no
library call may pass a multiplication function or a homogenized flag.
Mora division always returns its unit and quotients, so no call may pass a
track flag either.
A term whose coefficients cancel is deleted by sympoly.accumulate alone.
A wrapped terms dict is never changed, which is what keeps the lead that
SymbolPoly.leading stores valid.
Every public function and method is used: by the library, by the acceptance
tests or in README.md.
Mora division and the global normal form never rescan their running
dividend: its leader comes from a lazy heap.
The division set-ups read leads, levels, initial parts and tails off the K
of their packed copies: no in_e, ord_e, leading(), le() or order.key call
sits in them.
Both Buchberger loops keep primitive elements, so the shared loop takes no
normaliser.  Every division divides by the primitive copies a
sympoly._Divisors makes and turns their quotients into the divisors' through
its one exit: _primitive is called only in sympoly and in the shared loop,
and no other code divides by a copy's factor.
"""

import ast
import inspect
import re
from pathlib import Path

import bfunc
from bfunc import groebner
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
    # into is an output target for the product, not a mode
    assert str(inspect.signature(op_mul)) == "(a, b, into=None)"


def test_mora_div_takes_no_flags():
    assert str(inspect.signature(mora_div)) == "(p, divisors, order)"


def test_buchberger_loop_takes_no_normaliser():
    assert str(inspect.signature(groebner._buchberger_loop)) == \
        "(gens, order, reduce_fn, mul, select_key)"


def _holders(path, match):
    """Qualified names of the functions holding a node that match accepts."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                visit(child, scope + [child.name])
                continue
            if match(child):
                found.append(".".join([path.stem] + scope))
            visit(child, scope)

    visit(ast.parse(path.read_text(), str(path)), [])
    return found


def _term_deletions(path):
    """Qualified names of the functions holding a `del d[...]` statement."""
    return _holders(path, lambda node: isinstance(node, ast.Delete) and any(
        isinstance(t, ast.Subscript) for t in node.targets))


def test_cancelled_terms_deleted_in_one_place():
    found = [hit for path in SOURCES for hit in _term_deletions(path)]
    assert set(found) == {"sympoly.accumulate"}


def _calls(name, min_args=0):
    """A matcher for calls of name with at least min_args arguments."""
    return lambda node: (isinstance(node, ast.Call) and _callee(node) == name
                         and len(node.args) + len(node.keywords) >= min_args)


def test_primitive_copies_and_their_exit_in_one_place(tmp_path):
    # a copy's factor is divided out by _divided's fourth argument
    copies = {hit for path in SOURCES
              for hit in _holders(path, _calls("_primitive"))}
    assert {hit for hit in copies if not hit.startswith("sympoly.")} == \
        {"groebner._buchberger_loop"}
    exits = {hit for path in SOURCES
             for hit in _holders(path, _calls("_divided", 4))}
    assert exits == {"sympoly._Divisors.quotients"}
    probe = tmp_path / "probe.py"
    probe.write_text(
        "def copy(g, order):\n    return sympoly._primitive(g, order)\n"
        "class Setup:\n    def exit(self, q, k):\n"
        "        _divided(cls, q, scale)\n"
        "        return _divided(cls, q, scale * k.denominator,\n"
        "                        k.numerator)\n")
    assert _holders(probe, _calls("_primitive")) == ["probe.copy"]
    assert _holders(probe, _calls("_divided", 4)) == ["probe.Setup.exit"]


SET_UPS = {"_Divisors", "_OpDivisors", "_SeriesDivisors"}
TUPLE_LEADS = {"in_e", "ord_e", "leading", "le", "key"}


def _tuple_leads_in_set_ups(path):
    """Qualified names of the set-up class methods that call one of
    TUPLE_LEADS (a function or method of that name)."""
    return [hit for hit in _holders(path, lambda node: isinstance(
                node, ast.Call) and _callee(node) in TUPLE_LEADS)
            if hit.split(".")[1] in SET_UPS]


def test_set_ups_read_packed_copies(tmp_path):
    assert {"sympoly.py", "opdiv.py", "staircase.py"} <= \
        {p.name for p in SOURCES}
    found = [hit for path in SOURCES for hit in _tuple_leads_in_set_ups(path)]
    assert found == []
    probe = tmp_path / "probe.py"
    probe.write_text(
        "class _OpDivisors:\n    def __init__(self, gs, order):\n"
        "        self.levels = [ord_e(g) for g in gs]\n"
        "        self.initials = [in_e(g) for g in gs]\n"
        "        self.leads = [g.leading(order) for g in gs]\n"
        "class _SeriesDivisors:\n    def __init__(self, gs, order):\n"
        "        self.exps = [g.le(order) for g in gs]\n"
        "        self.keys = sorted(gs, key=order.key)\n"
        "        self.top = order.key(gs[0])\n"
        "def outside(g, order):\n    return g.leading(order)\n")
    assert _tuple_leads_in_set_ups(probe) == \
        ["probe._OpDivisors.__init__"] * 3 + \
        ["probe._SeriesDivisors.__init__"] * 2


SCANS = {"max", "min", "sorted", "map", "filter", "sum", "any", "all",
         "list", "tuple", "set", "frozenset", "enumerate", "zip"}


def _is_dividend(node):
    """h itself, or a view of it such as h.items()."""
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
        node = node.func.value
    return isinstance(node, ast.Name) and node.id == "h"


def _is_rescale(loop):
    """The one loop over h allowed: pseudo-division's in-place
    multiplication of every term by one name,

        for e in h:
            h[e] *= b

    which reads no exponent's key, degree or coefficient."""
    if not (isinstance(loop, ast.For) and isinstance(loop.iter, ast.Name)
            and isinstance(loop.target, ast.Name)
            and len(loop.body) == 1 and not loop.orelse):
        return False
    stmt = loop.body[0]
    return (isinstance(stmt, ast.AugAssign) and isinstance(stmt.op, ast.Mult)
            and isinstance(stmt.target, ast.Subscript)
            and _is_dividend(stmt.target.value)
            and isinstance(stmt.target.slice, ast.Name)
            and stmt.target.slice.id == loop.target.id
            and isinstance(stmt.value, ast.Name)
            and stmt.value.id not in ("h", loop.target.id))


def _dividend_scans(source, name, funcs=("mora_div", "reduce_global")):
    """Places in the division loops that scan their running dividend h:
    a max( call, or a loop, comprehension or whole-collection call over h.
    Copying h whole (dict(h)) is not a scan, and neither is the rescale
    _is_rescale accepts."""
    found = []
    for node in ast.walk(ast.parse(source, name)):
        if not (isinstance(node, ast.FunctionDef) and node.name in funcs):
            continue
        for sub in ast.walk(node):
            where = f"{name}:{node.name}:{getattr(sub, 'lineno', '?')}"
            if isinstance(sub, (ast.For, ast.comprehension)) and \
                    _is_dividend(sub.iter) and not _is_rescale(sub):
                found.append(f"{where} loops over h")
            elif isinstance(sub, ast.Call) and _callee(sub) in SCANS and (
                    _callee(sub) == "max"
                    or any(map(_is_dividend, sub.args))):
                found.append(f"{where} calls {_callee(sub)}(")
    return found


def test_division_loops_keep_leaders_in_heaps():
    # mora_div and reduce_global find the leader (and Mora's ecart) from
    # lazy heaps, so no step looks at every term of the dividend
    source = (Path(bfunc.__file__).parent / "groebner.py").read_text()
    assert _dividend_scans(source, "groebner.py") == []
    probe = ("def mora_div(p):\n"
             "    for e in h:\n        pass\n"
             "    he = max(h, key=keys.__getitem__)\n"
             "    top = max(map(degs.__getitem__, h))\n"
             "    new = [e for e in h.keys() if e]\n"
             "    pool = dict(h)\n"
             "def other(h):\n    return max(h)\n")
    assert len(_dividend_scans(probe, "probe.py")) == 5
    # pseudo-division's rescale passes; a leader or ecart scan dressed up
    # beside it, or a multiply that reads a term's key, does not
    rescale = "    for e in h:\n        h[e] *= b\n"
    scans = ["    for e in h:\n        if keys[e] > best:\n"
             "            best = keys[e]\n",
             "    for e in h:\n        h[e] *= b\n        top = e\n",
             "    for e in h:\n        h[e] *= keys[e]\n",
             "    for e in h.items():\n        h[e] *= b\n",
             "    for e in h:\n        h[e] *= h\n",
             "    for e in h:\n        h[e] += b\n",
             "    top = max(sum(e) for e in h)\n"]
    assert _dividend_scans(f"def reduce_global(p):\n{rescale}", "probe.py") \
        == []
    for scan in scans:
        probe = f"def reduce_global(p):\n{rescale}{scan}"
        assert len(_dividend_scans(probe, "probe.py")) >= 1, scan


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


# -- no public name that nothing uses -------------------------------------

REPO = Path(__file__).resolve().parent.parent


def _public_defs(tree):
    """Public module-level function names and (class, method) pairs of the
    public classes; private names and dunders are left out."""
    funcs, methods = [], []
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            funcs.append(node.name)
        elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            methods += [(node.name, item.name) for item in node.body
                        if isinstance(item, ast.FunctionDef)
                        and not item.name.startswith("_")]
    return funcs, methods


def _uses(tree):
    """(names, attributes) the tree reads, each paired with the name of the
    innermost def it sits in, so a def's mention of itself can be told
    apart."""
    names, attrs = set(), set()

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.FunctionDef):
                visit(child, child.name)
                continue
            if isinstance(child, ast.Name):
                names.add((child.id, owner))
            elif isinstance(child, ast.Attribute):
                attrs.add((child.attr, owner))
            visit(child, owner)

    visit(tree, None)
    return names, attrs


def _unused_public(sources, acceptance, readme):
    """Public names of sources that no other source code (the package's
    export list aside), no acceptance test and no README line mentions."""
    trees = {path.name: ast.parse(path.read_text(), str(path))
             for path in sources}
    names, attrs = set(), set()
    for name, tree in trees.items():
        if name != "__init__.py":
            tree_names, tree_attrs = _uses(tree)
            names |= tree_names
            attrs |= tree_attrs
    acc_names, acc_attrs = (
        {read for read, _ in found} for found in _uses(ast.parse(acceptance)))

    def used(name, pairs, in_acceptance, pattern):
        return (any(read == name and owner != name for read, owner in pairs)
                or name in in_acceptance or re.search(pattern, readme))

    unused = []
    for tree in trees.values():
        funcs, methods = _public_defs(tree)
        unused += [f for f in funcs
                   if not used(f, names | attrs, acc_names | acc_attrs,
                               rf"\b{f}\b")]
        unused += [f"{cls}.{m}" for cls, m in methods
                   if not used(m, attrs, acc_attrs, rf"\.{m}\b")]
    return unused


def test_public_names_are_used(tmp_path):
    acceptance = (REPO / "tests" / "test_acceptance.py").read_text()
    readme = (REPO / "README.md").read_text()
    assert _unused_public(SOURCES, acceptance, readme) == []
    probe = tmp_path / "probe.py"
    probe.write_text(
        "def kept():\n    return 1\n\n"
        "def loner():\n    return loner()\n\n"
        "def told():\n    pass\n\n"
        "def tested():\n    pass\n\n"
        "def _hidden():\n    return kept() + Box().size()\n\n"
        "class Box:\n"
        "    def size(self):\n        return 1\n"
        "    def area(self):\n        return self.area()\n"
        "    def __len__(self):\n        return 0\n\n"
        "class _Inner:\n    def spare(self):\n        pass\n")
    exports = tmp_path / "__init__.py"
    exports.write_text("from .probe import loner\n__all__ = ['loner']\n")
    assert _unused_public([exports, probe], "tested()",
                          "see told() in the README") == ["loner", "Box.area"]
