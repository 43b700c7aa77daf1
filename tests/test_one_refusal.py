"""One budget knob and one refusal.

Every BudgetExceeded in the package is raised by `ff.require`, whose
message names what was requested, how much, the limit and how to raise
it; and no function takes a `budget` argument, so WILDRAM_BUDGET is the
only way to set the enumeration budget.
"""

import ast
from pathlib import Path

import wildram

PACKAGE = Path(wildram.__file__).resolve().parent


def _trees():
    for path in sorted(PACKAGE.rglob("*.py")):
        rel = path.relative_to(PACKAGE).with_suffix("").as_posix()
        yield rel, ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _raises_budget_exceeded(node) -> bool:
    if not isinstance(node, ast.Raise) or node.exc is None:
        return False
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    return isinstance(exc, ast.Name) and exc.id == "BudgetExceeded"


def test_budget_exceeded_is_raised_only_by_require():
    sites = []

    def visit(node, module, owner):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner = node.name
        if _raises_budget_exceeded(node):
            sites.append((module, owner))
        for child in ast.iter_child_nodes(node):
            visit(child, module, owner)

    for module, tree in _trees():
        visit(tree, module, None)
    assert sites == [("ff", "require")]


def test_no_function_takes_a_budget_argument():
    found = []
    for module, tree in _trees():
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                a = fn.args
                names = [x.arg for x in (*a.posonlyargs, *a.args, *a.kwonlyargs)]
                if "budget" in names:
                    found.append((module, getattr(fn, "name", "<lambda>")))
    assert found == []
