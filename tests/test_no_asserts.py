"""No runtime checks by `assert` in the package: `python -O` strips them.

Certificates go through `errors._certify`, which raises CertificateFailed
(exit 4) under every interpreter flag.  A `raise AssertionError` is counted
too: it escapes the CLI's handlers as a traceback.  ALLOWANCE lists the
checks that remain per module; it is empty and stays so.
"""

import ast
from pathlib import Path

import wildram

PACKAGE = Path(wildram.__file__).resolve().parent

ALLOWANCE = {}


def _is_assertion(node) -> bool:
    if isinstance(node, ast.Assert):
        return True
    if not isinstance(node, ast.Raise) or node.exc is None:
        return False
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    return isinstance(exc, ast.Name) and exc.id == "AssertionError"


def assert_counts():
    counts = {}
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        n = sum(_is_assertion(node) for node in ast.walk(tree))
        if n:
            counts[path.relative_to(PACKAGE).with_suffix("").as_posix()] = n
    return counts


def test_asserts_only_where_allowed():
    assert assert_counts() == ALLOWANCE
