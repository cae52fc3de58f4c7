"""The end-to-end criteria, one test and one printed verdict line each."""

import ast
import json
from pathlib import Path

import pytest

from diagdeform.acceptance import CRITERIA, criterion_weyl_iso, run_suite
from diagdeform.cli import _encode

SRC = Path(__file__).resolve().parents[1] / "src" / "diagdeform"


@pytest.mark.parametrize("name,fn", CRITERIA, ids=[n for n, _ in CRITERIA])
def test_criterion(name, fn):
    rep = fn()
    print(("PASS " if rep["ok"] else "FAIL ") + name)
    failed = [k for k, v in rep["checks"].items() if not v]
    assert rep["ok"], f"{name}: failed checks {failed}"


def test_suite_covers_all_ten():
    names = [n for n, _ in CRITERIA]
    assert len(names) == 10
    assert len(set(names)) == 10


def test_filter_selects_substring():
    reports = run_suite("weyl")
    assert [r["name"] for r in reports] == ["weyl-isomorphism", "q-weyl-identities"]


def test_reports_are_byte_identical_across_runs():
    a = json.dumps(_encode(run_suite()), sort_keys=True)
    b = json.dumps(_encode(run_suite()), sort_keys=True)
    assert a == b


# A primitive that a shared check wraps, and the one (module, function) in
# cli.py or acceptance.py that may call it; None where the check lives in the
# module that owns its mathematics.
WRAPPED = {
    "star_commutator": None,
    "pochhammer_xy": None,
    "canonical_class": None,
    "DiagramCochain.random": None,
    "total_coboundary": None,
    "diagram_algebra": ("acceptance", "sample_glued_algebra"),
    "triangle_check": ("acceptance", "sample_triangle_verdicts"),
}


def _callee(call):
    f = call.func
    if isinstance(f, ast.Name):
        return f.id
    if isinstance(f, ast.Attribute) and isinstance(f.value, ast.Name):
        return f"{f.value.id}.{f.attr}"
    return None


def _fraction_matrix(node):
    """A literal [[F(a), ...], ...] as nested ints, else None."""
    if not isinstance(node, ast.List) or not all(isinstance(r, ast.List) for r in node.elts):
        return None
    rows = []
    for row in node.elts:
        entries = []
        for c in row.elts:
            if not (isinstance(c, ast.Call) and _callee(c) in ("F", "Fraction")
                    and len(c.args) == 1 and isinstance(c.args[0], ast.Constant)):
                return None
            entries.append(c.args[0].value)
        rows.append(entries)
    return rows


def test_cli_and_acceptance_share_one_implementation_of_each_check():
    for module in ("cli", "acceptance"):
        tree = ast.parse((SRC / f"{module}.py").read_text())
        for top in tree.body:
            owner = (module, top.name if isinstance(top, ast.FunctionDef) else None)
            for node in ast.walk(top):
                if isinstance(node, ast.Call) and _callee(node) in WRAPPED:
                    assert WRAPPED[_callee(node)] == owner, f"{owner} calls {_callee(node)}"
                if _fraction_matrix(node) == [[1, 0], [0, 0]]:
                    assert owner == ("acceptance", "sample_morphism"), f"{owner} spells it out"


def test_weyl_isomorphism_solves_once(monkeypatch):
    from diagdeform import weyl_iso

    orders = []
    solve = weyl_iso.solve_z
    monkeypatch.setattr(weyl_iso, "solve_z", lambda order: orders.append(order) or solve(order))
    assert criterion_weyl_iso(1729)["ok"]
    assert orders == [10]
