"""The packed F_p linear algebra against sympy's DomainMatrix over GF(p)."""

from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import GF
from sympy.polys.matrices import DomainMatrix

from wildram import _linalg

PRIMES = [2, 3, 5, 7, 2**31 - 1]


@st.composite
def matrices(draw):
    """(p, rows of ints, columns): a product B C with inner dimension at
    most min(rows, columns), so the rank is often below full."""
    p = draw(st.sampled_from(PRIMES))
    r, c = draw(st.integers(1, 12)), draw(st.integers(1, 12))
    d = draw(st.integers(0, min(r, c)))
    entry = st.integers(0, p - 1)
    b = draw(st.lists(st.lists(entry, min_size=d, max_size=d), min_size=r, max_size=r))
    cm = draw(st.lists(st.lists(entry, min_size=c, max_size=c), min_size=d, max_size=d))
    return p, [[sum(x * y for x, y in zip(row, col)) % p for col in zip(*cm)] if d else [0] * c
               for row in b], c


def sympy_rref(mat, p, c):
    K = GF(p)
    dm = DomainMatrix([[K(v) for v in row] for row in mat], (len(mat), c), K)
    red, pivots = dm.rref()
    return [[int(v) % p for v in row] for row in red.to_list()], list(pivots)


def packed(mat, p):
    return [_linalg.pack(row, p) for row in mat]


def unpacked(rows, p, c):
    return [_linalg.unpack(row, p, c) for row in rows]


@settings(max_examples=150, deadline=None)
@given(matrices())
def test_rref_matches_sympy(case):
    p, mat, c = case
    red, pivots = _linalg.rref(packed(mat, p), p, c)
    assert (unpacked(red, p, c), pivots) == sympy_rref(mat, p, c)
    assert _linalg.rank(packed(mat, p), p, c) == len(pivots)


@settings(max_examples=150, deadline=None)
@given(matrices())
def test_nullspace_is_the_kernel(case):
    p, mat, c = case
    rank = len(sympy_rref(mat, p, c)[1])
    kernel = unpacked(_linalg.nullspace(packed(mat, p), p, c), p, c)
    assert len(kernel) == c - rank
    assert all(sum(a * x for a, x in zip(row, vec)) % p == 0 for row in mat for vec in kernel)
    if kernel:  # independent: the kernel vectors have full rank
        assert len(sympy_rref(kernel, p, c)[1]) == c - rank


@settings(max_examples=150, deadline=None)
@given(matrices())
def test_row_space_basis_is_the_nonzero_rref_rows(case):
    p, mat, c = case
    red, pivots = sympy_rref(mat, p, c)
    assert unpacked(_linalg.row_space_basis(packed(mat, p), p, c), p, c) == red[: len(pivots)]


@settings(max_examples=150, deadline=None)
@given(matrices(), st.data())
def test_unreduced_combinations_eliminate_like_reduced_rows(case, data):
    # combine may sum 2n products per slot without carrying; a sum of n
    # rows may go on into rref, which adds up to n more
    p, mat, c = case
    rows = packed(mat, p)
    n = min(len(rows), c)
    coeffs = data.draw(st.lists(st.integers(0, p - 1), min_size=n, max_size=n))
    combo = _linalg.combine(coeffs, rows, p)
    want = [sum(a * row[j] for a, row in zip(coeffs, mat)) % p for j in range(c)]
    assert _linalg.unpack(combo, p, c) == want
    assert _linalg.rref([combo] + rows, p, c) == _linalg.rref([_linalg.pack(want, p)] + rows, p, c)
    # the largest sum a slot is sized for: 2n products (p-1)^2
    top = _linalg.combine([p - 1] * (2 * c), [_linalg.pack([p - 1] * c, p)] * (2 * c), p)
    assert _linalg.unpack(top, p, c) == [2 * c * (p - 1) ** 2 % p] * c
