"""No runtime checks by `assert` in the package: `python -O` strips them.

Certificates go through `errors._certify`, which raises CertificateFailed
(exit 4) under every interpreter flag.  ALLOWANCE lists the asserts that
remain per module; it may only shrink, and it must match the source, so a
removed assert also removes its allowance.
"""

import ast
from pathlib import Path

import wildram

PACKAGE = Path(wildram.__file__).resolve().parent

ALLOWANCE = {"addpoly": 4, "monodromy": 6}


def assert_counts():
    counts = {}
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        n = sum(isinstance(node, ast.Assert) for node in ast.walk(tree))
        if n:
            counts[path.relative_to(PACKAGE).with_suffix("").as_posix()] = n
    return counts


def test_asserts_only_where_allowed():
    assert assert_counts() == ALLOWANCE
