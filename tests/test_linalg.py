import numpy as np
import pytest

from wildram import _linalg
from wildram.errors import BadParameter

P = 2**31 - 1  # (p-1)^2 is just below 2^62: two terms fit in int64, three do not


def test_products_past_int64_are_refused():
    a = np.full((2, 3), P - 1, dtype=np.int64)
    b = np.full((3, 2), P - 1, dtype=np.int64)
    with pytest.raises(BadParameter, match=f"mod-{P}.*inner dimension 3"):
        _linalg.matmul(a, b, P)
    with pytest.raises(BadParameter, match=f"mod-{P}.*inner dimension 3"):
        _linalg.matpow(np.full((3, 3), P - 1, dtype=np.int64), 2, P)
    # the unchecked int64 product wraps around: the guard is not overcautious
    assert ((a @ b) % P).tolist() != [[3 * (P - 1) ** 2 % P] * 2] * 2


def test_products_inside_int64_are_exact():
    a = np.full((2, 2), P - 1, dtype=np.int64)
    assert _linalg.matmul(a, a, P).tolist() == [[2 * (P - 1) ** 2 % P] * 2] * 2
    assert _linalg.matpow(a, 3, P).tolist() == [[4 * (P - 1) ** 3 % P] * 2] * 2
    assert _linalg.matmul(a, [1, P - 1], P).tolist() == [((P - 1) + (P - 1) ** 2) % P] * 2
