"""The ROADMAP's design rules, checked on the package source.

Each test scans ``src/gibbslab/*.py``, parsed once below, for one rule: a
budget of settable inputs, frozen value types, and one owner for each of the
sample-jump test, the R/L sweep, the refinement route, the index rules, the
sum of translates, the piecewise-polynomial Horner and alignment, and the
accuracy order.  A new
rule is one more test here.
"""

import ast
import re
from pathlib import Path

_SRC = Path(__file__).resolve().parent.parent / "src" / "gibbslab"
_TEXT = {p.name: p.read_text() for p in sorted(_SRC.glob("*.py"))}
_TREE = {name: ast.parse(text) for name, text in _TEXT.items()}
_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _name(node):
    """The name a node spells: a Name's id, an Attribute's attr, or the name
    of a def, a class or an import alias; None otherwise."""
    return (
        getattr(node, "id", None)
        or getattr(node, "attr", None)
        or (node.name if isinstance(node, _DEFS + (ast.alias,)) else None)
    )


def _callee(node):
    """The called name of a Call, by bare name or attribute; None otherwise."""
    return _name(node.func) if isinstance(node, ast.Call) else None


def _named(names, outside=()):
    """(module, line, name) of every node naming one of ``names`` in a module
    not listed in ``outside``."""
    return [
        (module, node.lineno, _name(node))
        for module, tree in _TREE.items()
        if module not in outside
        for node in ast.walk(tree)
        if _name(node) in names
    ]


def _fn(module, *path):
    """The def or class reached by ``path`` from the top level of ``module``."""
    node = _TREE[module]
    for name in path:
        node = next(n for n in node.body if getattr(n, "name", None) == name)
    return node


def test_the_rules_scan_at_least_one_module():
    assert _TREE, f"no module under {_SRC}"


def test_settable_inputs_do_not_grow():
    # function defaults (kw_defaults and lambdas included) plus add_argument calls
    n = 0
    for tree in _TREE.values():
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                n += len(node.args.defaults) + sum(d is not None for d in node.args.kw_defaults)
            elif isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "add_argument":
                n += 1
    assert n <= 55, f"{n} settable inputs, at most 55"


def test_value_types_are_frozen_dataclasses():
    bad = []
    for module, tree in _TREE.items():
        for node in tree.body:
            if not isinstance(node, ast.ClassDef):
                continue
            if any((_name(b) or "").endswith(("Error", "Exception")) for b in node.bases):
                continue
            if not any(
                isinstance(d, ast.Call)
                and getattr(d.func, "id", None) == "dataclass"
                and any(k.arg == "frozen" and getattr(k.value, "value", None) is True for k in d.keywords)
                for d in node.decorator_list
            ):
                bad.append((module, node.lineno, node.name))
    assert not bad, "a top-level class that is neither an error nor @dataclass(frozen=True)"


def test_only_funcmodel_reads_the_sample_jump_test():
    # a text search, so a comment naming either counts too
    bad = [m for m, text in _TEXT.items() if m != "funcmodel.py" and re.search(r"_MAX_SAMPLE_JUMP|_continuity_defect", text)]
    assert not bad


def test_only_gibbs_reads_R_and_L():
    bad = _named({"_grid_nonneg"}) + _named({"_overshoot_both", "_sweep", "_sweep_on_grid"}, outside=("gibbs.py",))
    assert not bad


def test_one_refinement_route():
    calls = [(m, n.lineno) for m, tree in _TREE.items() for n in ast.walk(tree) if _callee(n) == "_refine"]
    assert len(calls) == 1 and calls[0][0] == "funcmodel.py", calls


def test_index_rules_have_one_owner():
    for f in (_fn("funcmodel.py", "cascade"), _fn("funcmodel.py", "RefinableFunction", "_integer_cumulative")):
        assert not any(isinstance(n, (ast.For, ast.AsyncFor, ast.While)) for n in ast.walk(f)), f.name
        assert any(isinstance(n, ast.Call) and getattr(n.func, "id", None) == "_two_scale" for n in ast.walk(f)), f.name
    sweep = _fn("gibbs.py", "_sweep_on_grid")
    assert not any(isinstance(n, ast.Attribute) and n.attr == "support" for n in ast.walk(sweep))
    derive = _fn("framelet.py", "derive_wavelets")
    assert not any("dirac" in (getattr(n, "id", None), getattr(n, "attr", None)) for n in ast.walk(derive))
    bad = _named({"_sgn_window", "_sgn_expansion"}) + _named({"support_bound"}, outside=("quasiproj.py", "cli.py"))
    assert not bad


def test_one_sum_of_translates():
    kernels = {"_synthesis", "_window_sums", "_sample_table"}
    bad = _named({"_tap_sum", "sliding_window_view"})
    for module, tree in _TREE.items():
        for node in ast.walk(tree):
            if isinstance(node, _DEFS) and node.name in kernels and module != "funcmodel.py":
                bad.append((module, node.lineno, node.name))
            if _callee(node) == "_window_sums" and (len(node.args) > 3 or any(k.arg in ("chunk", None) for k in node.keywords)):
                bad.append((module, node.lineno, "_window_sums with a chunk"))
    assert not bad


def test_one_horner_and_one_alignment():
    assert not _named({"_polyval_asc"})
    for f in (_fn("funcmodel.py", "PiecewisePoly", "__add__"), _fn("funcmodel.py", "_pp_inner")):
        assert not any("searchsorted" in (getattr(n, "id", None), getattr(n, "attr", None)) for n in ast.walk(f)), f.name
        assert any(isinstance(n, ast.Call) and getattr(n.func, "id", None) == "_aligned" for n in ast.walk(f)), f.name


def test_one_accuracy_route():
    # the grid residual serves accuracy_order's sampled fallback only; poly_reproduction is for tests
    bad = [
        (m, n.lineno, _callee(n))
        for m, tree in _TREE.items()
        for n in ast.walk(tree)
        if (_callee(n) == "_reproduction_residual" and m != "quasiproj.py") or _callee(n) == "poly_reproduction"
    ]
    assert not bad, bad
    # the sum-rule order is read in quasiproj._exact_order alone, with no wrapper of its own
    assert not _named({"_sum_rule_order"}), _named({"_sum_rule_order"})
    reads = [
        (m, n.lineno)
        for m, tree in _TREE.items()
        if m != "quasiproj.py"
        for n in ast.walk(tree)
        if (isinstance(n, ast.Attribute) and n.attr == "_sum_rules")
        or (_callee(n) == "getattr" and any(getattr(a, "value", None) == "_sum_rules" for a in n.args))
    ]
    assert not reads, reads
