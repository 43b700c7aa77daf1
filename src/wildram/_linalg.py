"""Dense linear algebra over the prime field F_p, on numpy int64 arrays.

All matrices hold integers reduced mod p.  These routines back the parts of
the package that solve F_p matrices: kernels of additive operators,
subfield detection, rank certificates and canonical basis extraction.
Everything is exact.  numpy is imported on the first call, not with the
module, so field arithmetic that never reaches a matrix never loads it.

Products are exact while inner_dim * (p-1)^2 < 2^63; ``matmul``, and so
``matpow``, refuses larger ones with BadParameter.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .errors import BadParameter

if TYPE_CHECKING:
    import numpy as np

INT64_LIMIT = 1 << 63


def rref(mat: np.ndarray, p: int) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form mod p.  Returns (rref matrix, pivot columns)."""
    import numpy as np

    a = np.array(mat, dtype=np.int64) % p
    rows, cols = a.shape
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        nz = np.nonzero(a[r:, c])[0]
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            a[[r, i]] = a[[i, r]]
        inv = pow(int(a[r, c]), -1, p)
        a[r] = (a[r] * inv) % p
        col = a[:, c].copy()
        col[r] = 0
        a = (a - np.outer(col, a[r])) % p
        pivots.append(c)
        r += 1
    return a, pivots


def rank(mat: np.ndarray, p: int) -> int:
    _, pivots = rref(mat, p)
    return len(pivots)


def nullspace(mat: np.ndarray, p: int) -> np.ndarray:
    """Basis of the right kernel of mat over F_p, one basis vector per row."""
    import numpy as np

    a, pivots = rref(mat, p)
    cols = a.shape[1]
    free = [c for c in range(cols) if c not in pivots]
    basis = np.zeros((len(free), cols), dtype=np.int64)
    for i, fc in enumerate(free):
        basis[i, fc] = 1
        for r, pc in enumerate(pivots):
            basis[i, pc] = (-a[r, fc]) % p
    return basis


def matmul(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """a @ b mod p for entries in [0, p); b may be a vector."""
    import numpy as np

    a, b = np.asarray(a, dtype=np.int64), np.asarray(b, dtype=np.int64)
    inner = a.shape[-1]
    if inner * (p - 1) ** 2 >= INT64_LIMIT:
        raise BadParameter(
            f"mod-{p} product of shapes {a.shape} x {b.shape}: inner dimension "
            f"{inner} * (p-1)^2 >= 2^63 would overflow int64"
        )
    return (a @ b) % p


def matpow(mat: np.ndarray, e: int, p: int) -> np.ndarray:
    import numpy as np

    base = np.array(mat, dtype=np.int64) % p
    result = np.eye(base.shape[0], dtype=np.int64)
    while e > 0:
        if e & 1:
            result = matmul(result, base, p)
        base = matmul(base, base, p)
        e >>= 1
    return result


def row_space_basis(mat: np.ndarray, p: int) -> np.ndarray:
    """Canonical basis (rref pivot rows) of the row space of mat over F_p."""
    a, pivots = rref(mat, p)
    return a[: len(pivots)]
