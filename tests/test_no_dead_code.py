"""No dead definitions in the package.

Every function, class and method defined in ``src/wildram`` (dunders aside)
must be named somewhere in the package, its tests or its benchmark besides
its own ``def``: as a name, an attribute, an imported name, or a string
that is exactly the identifier (the benchmark's tracer binds names that
way).  A definition nothing names is a second path that no caller takes.
"""

import ast
from collections import Counter
from pathlib import Path

import wildram

PACKAGE = Path(wildram.__file__).resolve().parent
ROOT = PACKAGE.parents[1]
SEARCHED = [PACKAGE, ROOT / "tests", ROOT / "bench"]

_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _trees(dirs):
    for d in dirs:
        for path in sorted(d.rglob("*.py")):
            yield path, ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _mentions(node):
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.alias):
        return node.name.rpartition(".")[2]
    if isinstance(node, ast.Constant) and isinstance(node.value, str) and node.value.isidentifier():
        return node.value
    return None


def unreferenced():
    mentioned = Counter()
    for _path, tree in _trees(d for d in SEARCHED if d.is_dir()):
        mentioned.update(m for m in map(_mentions, ast.walk(tree)) if m is not None)
    dead = []
    for path, tree in _trees([PACKAGE]):
        for node in ast.walk(tree):
            name = getattr(node, "name", None)
            if isinstance(node, _DEFS) and not (name.startswith("__") and name.endswith("__")):
                if not mentioned[name]:
                    dead.append(f"{path.relative_to(PACKAGE).as_posix()}:{node.lineno} {name}")
    return dead


def test_every_definition_is_named_somewhere():
    assert unreferenced() == []
