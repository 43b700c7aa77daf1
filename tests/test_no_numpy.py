"""No module of the package imports numpy: F_p matrices are rows packed
into ints by `_linalg`, and the package has no runtime dependency."""

import ast
from pathlib import Path

import wildram

PACKAGE = Path(wildram.__file__).resolve().parent


def _imported_roots(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            yield node.module.partition(".")[0]


def test_no_module_imports_numpy():
    importers = [path.relative_to(PACKAGE).as_posix() for path in sorted(PACKAGE.rglob("*.py"))
                 if "numpy" in _imported_roots(ast.parse(path.read_text(encoding="utf-8")))]
    assert importers == []
