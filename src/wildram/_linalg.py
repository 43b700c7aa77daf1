"""Dense linear algebra over the prime field F_p, on rows packed into ints.

A vector of length n over F_p is one Python int with a w-bit slot per
entry, entry j in bits j*w to j*w + w - 1.  For p = 2, w = 1: bit j is
entry j and adding two rows is one XOR, as in bit-packed elimination
(Albrecht, Bard & Hart, ACM TOMS 37, 2010, "M4RI").  For odd p the one
slot-width bound is

    w >= bit_length(n * p^2) + 1,   so 2^w > 2n (p-1)^2:

a slot holds any sum of 2n products of two residues mod p, so rows
combine by big-int multiply-adds with no carry between slots, and are
reduced mod p only when read or passed to ``reduce``.  w is the bound
rounded up to 8, 16, 32 or 64 bits when it fits, so that packing is a
byte copy.  This module is the only code that knows the layout; the
others pass packed rows around as opaque ints.

These routines back the parts of the package that solve F_p matrices:
kernels of additive operators, subfield detection, rank certificates and
canonical basis extraction.  They also serve F_p[x] arithmetic: the field
product (``mulmod``), and the ``poly_*`` product, remainder, gcd, inverse
and power with which ``ff`` searches and tests moduli, inverts elements
and builds Frobenius rows.  A polynomial of degree at most k keeps
coefficient i in slot i, in the odd-p width for k entries at p = 2 too,
since integer products carry.  Everything is exact, at every p.
"""

from __future__ import annotations

import sys
from array import array
from functools import lru_cache

_TYPECODES = {8: "B", 16: "H", 32: "I", 64: "Q"}  # unsigned array items of w bits
_TO_DIGITS = bytes.maketrans(b"\x00\x01", b"01")
_FROM_DIGITS = bytes.maketrans(b"01", b"\x00\x01")


@lru_cache(maxsize=None)
def _width(p: int, n: int) -> int:
    bits = (n * p * p).bit_length() + 1
    return next((w for w in _TYPECODES if bits <= w), bits)


@lru_cache(maxsize=None)
def _residues(p: int, shift: int = 0) -> bytes:
    """The table that translates each byte v to (v << shift) mod p."""
    return bytes((v << shift) % p for v in range(256))


def _planes(x: int, n: int, p: int) -> bytes:
    """The n 16-bit slots of x mod p, a byte each, by byte planes (p < 128)."""
    b = x.to_bytes(2 * n, "little")
    s = (int.from_bytes(b[0::2].translate(_residues(p)), "little")
         + int.from_bytes(b[1::2].translate(_residues(p, 8)), "little"))
    return s.to_bytes(n, "little").translate(_residues(p))


def _pack(vec, w: int) -> int:
    if w == 8:
        return int.from_bytes(bytes(vec), "little")
    if w not in _TYPECODES or len(vec) <= 8:  # for short rows shifting is cheaper
        x = 0
        for v in reversed(vec):
            x = (x << w) | v
        return x
    items = array(_TYPECODES[w], vec)
    if sys.byteorder == "big":
        items.byteswap()
    return int.from_bytes(items.tobytes(), "little")


def _unpack(x: int, w: int, n: int, p: int) -> list[int]:
    if w == 8:
        return list(x.to_bytes(n, "little").translate(_residues(p)))
    if w == 16 and p < 128 and n > 8:
        return list(_planes(x, n, p))
    if w not in _TYPECODES or n <= 4:  # for short rows shifting is cheaper
        mask = (1 << w) - 1
        return [(x >> j * w & mask) % p for j in range(n)]
    items = array(_TYPECODES[w], x.to_bytes(n * w // 8, "little"))
    if sys.byteorder == "big":
        items.byteswap()
    return [v % p for v in items]


def _reduce(x: int, w: int, n: int, p: int) -> int:
    if w == 8:
        return int.from_bytes(x.to_bytes(n, "little").translate(_residues(p)), "little")
    if w == 16 and p < 128 and n > 8:
        out = bytearray(2 * n)
        out[0::2] = _planes(x, n, p)
        return int.from_bytes(out, "little")
    if w not in _TYPECODES or n <= 8:
        mask = (1 << w) - 1
        return sum([(x >> j * w & mask) % p << j * w for j in range(n)])
    return _pack(_unpack(x, w, n, p), w)


def pack(vec, p: int) -> int:
    """The entries of vec, residues mod p, as one packed row of len(vec) slots."""
    if p == 2:
        return int(bytes(vec[::-1]).translate(_TO_DIGITS) or b"0", 2)
    return _pack(vec, _width(p, len(vec)))


def unpack(x: int, p: int, n: int) -> list[int]:
    """The n entries of a packed row, reduced mod p."""
    if p == 2:
        return list(format(x, f"0{n}b").encode()[::-1].translate(_FROM_DIGITS))
    return _unpack(x, _width(p, n), n, p)


def reduce(x: int, p: int, n: int) -> int:
    """The packed row x of n entries with every slot reduced mod p."""
    return x if p == 2 else _reduce(x, _width(p, n), n, p)


def combine(coeffs, rows, p: int) -> int:
    """sum_t coeffs[t] * rows[t], coefficients residues mod p, rows reduced.

    The sum is unreduced: it may take up to 2n terms, or n if it goes on
    into ``rref`` (which adds up to n more before it reduces a row).
    """
    if p == 2:
        acc = 0
        for c, row in zip(coeffs, rows):
            if c & 1:
                acc ^= row
        return acc
    return sum([c * row for c, row in zip(coeffs, rows) if c])


def reduction(mu, p: int) -> list[int]:
    """x^(k+j) modulo the monic mu of degree k, j < k - 1, by shifts of x^k."""
    k, w = len(mu) - 1, _width(p, len(mu) - 1)
    xk = _pack([-m % p for m in mu[:k]], w)
    return x_multiples(xk, xk, p, k, w)[: k - 1]


def mulmod(a, b, reduction: list[int], p: int) -> list[int]:
    """Coordinates of a * b modulo the degree-k modulus, a and b residue
    vectors of length k: one big-int product of the packed a and b (2k - 1
    slots of at most k products each), whose top k - 1 slots, reduced, fold
    back onto the low k through the ``reduction`` rows, k - 1 more products."""
    k = len(a)
    w = _width(p, k)
    z = _pack(a, w) * _pack(b, w)
    low = z & ((1 << k * w) - 1)
    for c, row in zip(_unpack(z >> k * w, w, k - 1, p), reduction):
        if c:
            low += c * row
    return _unpack(low, w, k, p)


def x_multiples(row: int, xn: int, p: int, n: int, w: int = 0) -> list[int]:
    """The packed rows row * x^t modulo a monic modulus of degree n, t < n,
    from the reduced row and xn, the packed x^n modulo the modulus; in
    slots of width w if given (at p = 2, XOR keeps any slot at 0 or 1)."""
    w = w or (1 if p == 2 else _width(p, n))
    top, mask, low = (n - 1) * w, (1 << w) - 1, (1 << n * w) - 1
    out = [row]
    for _ in range(n - 1):
        lead = ((row >> top) & mask) % p
        row = (row << w) & low
        if lead:
            row = row ^ xn if p == 2 else _reduce(row + lead * xn, w, n, p)
        out.append(row)
    return out


def poly_pack(coeffs, p: int, k: int) -> int:
    """The residues coeffs, constant first, as a polynomial of degree <= k."""
    return _pack(coeffs, _width(p, k))


def poly_unpack(x: int, p: int, k: int, n: int) -> list[int]:
    """The first n coefficients mod p of a polynomial of degree <= k."""
    return _unpack(x, _width(p, k), n, p)


def poly_row(x: int, p: int, k: int) -> int:
    """The reduced polynomial x of degree < k as a ``pack`` row of k entries."""
    return pack(poly_unpack(x, p, k, k), 2) if p == 2 else x


def poly_sub(a: int, b: int, p: int, k: int) -> int:
    """a - b, reduced, for reduced a and b of degree < k."""
    return _reduce(a + (p - 1) * b, _width(p, k), k, p)


def poly_mulmod(a: int, b: int, reduction: list[int], p: int, k: int) -> int:
    """``mulmod`` on reduced polynomials a and b of degree < k."""
    w = _width(p, k)
    z = a * b
    low = z & ((1 << k * w) - 1)
    for c, row in zip(_unpack(z >> k * w, w, k - 1, p), reduction):
        if c:
            low += c * row
    return _reduce(low, w, k, p)


def poly_powmod(a: int, e: int, reduction: list[int], p: int, k: int) -> int:
    """a^e modulo the degree-k modulus by square-and-multiply, deg a < k."""
    out = a if e else 1
    for bit in bin(e)[3:]:
        out = poly_mulmod(out, out, reduction, p, k)
        if bit == "1":
            out = poly_mulmod(out, a, reduction, p, k)
    return out


def poly_divmod(a: int, b: int, p: int, k: int) -> tuple[int, int]:
    """Quotient and remainder of a by b != 0, reduced, of degree at most k.
    A step reads a's leading slot mod p and clears it by a += (p - c) b x^s,
    c the quotient digit (an XOR at p = 2): at most k steps add at most
    (p - 1)^2 to a slot each, within the width, so r is reduced once."""
    w = _width(p, k)
    mask = (1 << w) - 1
    db = (b.bit_length() - 1) // w
    inv = pow(b >> db * w, -1, p)
    q = 0
    for s in range((a.bit_length() - 1) // w - db, -1, -1):
        c = (a >> (s + db) * w & mask) * inv % p
        if c:
            q |= c << s * w
            a = a ^ b << s * w if p == 2 else a + ((p - c) * b << s * w)
    r = a & ((1 << db * w) - 1)
    return q, r if p == 2 else _reduce(r, w, db, p)


def poly_gcd(a: int, b: int, p: int, k: int) -> int:
    """The monic gcd of reduced a and b of degree at most k; 0 for two zeros."""
    w = _width(p, k)
    while b:
        a, b = b, poly_divmod(a, b, p, k)[1]
    return a and poly_divmod(a, a >> (a.bit_length() - 1) // w * w, p, k)[0]  # a / lead(a)


def poly_inverse(a: int, mu: int, p: int, k: int) -> int:
    """a^(-1) modulo mu of degree k, for a reduced a of degree < k prime to mu:
    extended Euclid on r_0 = mu, r_1 = a, ... with u_(i+1) = u_(i-1) + q_i u_i,
    so that u_i a = (-1)^(i+1) r_i modulo mu and no step subtracts."""
    r0, r1, u0, u1, sign = mu, a, 0, 1, 1
    while True:
        q, r = poly_divmod(r0, r1, p, k)
        if not r:  # r1 is a nonzero constant
            return _reduce(u1 * (sign * pow(r1, -1, p) % p), _width(p, k), k, p)
        r0, r1, u0, u1, sign = r1, r, u1, _reduce(u0 + q * u1, _width(p, k), k, p), -sign


def rref(rows, p: int, n: int) -> tuple[list[int], list[int]]:
    """Reduced row echelon form over F_p of the matrix with these packed
    rows of n entries; a row may be an unreduced ``combine`` of n terms.

    Returns (reduced rref rows, pivot columns).  Each pivot row is reduced
    and scaled once; every other row is updated lazily by a_j += (p - f) r
    (a_j ^= r at p = 2), and reduced when it becomes a pivot row or at the
    end.
    """
    w = 1 if p == 2 else _width(p, n)
    mask = (1 << w) - 1
    a, pivots = list(rows), []
    for c in range(n):
        s, r = c * w, len(pivots)
        i = next((i for i in range(r, len(a)) if ((a[i] >> s) & mask) % p), None)
        if i is None:
            continue
        piv = a[i]
        if p != 2:
            vals = unpack(piv, p, n)
            piv = pack([v * pow(vals[c], -1, p) % p for v in vals], p)
        a[i], a[r] = a[r], piv
        for j, row in enumerate(a):
            f = ((row >> s) & mask) % p
            if f and j != r:
                a[j] = row ^ piv if p == 2 else row + (p - f) * piv
        pivots.append(c)
    return [reduce(row, p, n) for row in a], pivots


def rank(rows, p: int, n: int) -> int:
    return len(rref(rows, p, n)[1])


def nullspace(rows, p: int, n: int) -> list[int]:
    """Basis of the right kernel over F_p, one packed row per free column:
    1 there, 0 at the other free columns."""
    red, pivots = rref(rows, p, n)
    mat = [unpack(row, p, n) for row in red[: len(pivots)]]
    basis = []
    for fc in sorted(set(range(n)) - set(pivots)):
        vec = [0] * n
        vec[fc] = 1
        for row, pc in zip(mat, pivots):
            vec[pc] = -row[fc] % p
        basis.append(pack(vec, p))
    return basis


def row_space_basis(rows, p: int, n: int) -> list[int]:
    """Canonical basis (rref pivot rows) of the row space over F_p."""
    red, pivots = rref(rows, p, n)
    return red[: len(pivots)]
