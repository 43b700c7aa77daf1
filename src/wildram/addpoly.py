"""Additive (linearized) polynomials: sums of a_i z^(p^i) over F_q.

An additive polynomial is an F_p-linear map on every extension field, so
its roots form an F_p-vector space.  This module provides the composition
ring structure, iteration, separability, and the root spaces Z_n of the
iterates, computed as kernels of the induced linear operator on the
splitting field.  The splitting field itself comes from the linearized
Frobenius: z^(p^i) modulo an additive L is again additive, so its powers
live in an mn-dimensional space over F_q (McGuire & Sheekey, Finite
Fields Appl. 57, 2019) and f^n is never written out densely.
"""

from __future__ import annotations

import math
from functools import lru_cache, reduce
from itertools import product

from . import _linalg
from .errors import BadParameter, CertificateFailed, FieldMismatch, Inseparable, _certify
from .ff import (
    GF,
    FieldElement,
    FiniteField,
    FqPoly,
    embed,
    field_from_json,
    require,
)


class AdditivePoly:
    """Sum of a_i z^(p^i), 0 <= i <= m, with a_m != 0; immutable."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field: FiniteField, coeffs):
        cs = [field.from_int(c) if isinstance(c, int) else c for c in coeffs]
        for c in cs:
            if c.field != field:
                raise FieldMismatch("coefficient from a different field")
        while cs and cs[-1].is_zero():
            cs.pop()
        # empty tuple encodes the zero map (needed for ring closure)
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("AdditivePoly is immutable")

    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def frobenius_degree(self) -> int:
        """m: the polynomial has ordinary degree p^m."""
        if self.is_zero():
            raise Inseparable("the zero map has no Frobenius degree")
        return len(self.coeffs) - 1

    @property
    def degree(self) -> int:
        return self.field.p ** self.frobenius_degree

    def __eq__(self, other):
        return (
            isinstance(other, AdditivePoly)
            and other.field == self.field
            and other.coeffs == self.coeffs
        )

    def __hash__(self):
        return hash((self.field.key(), tuple(c.coords for c in self.coeffs)))

    def __repr__(self):
        if self.is_zero():
            return f"AdditivePoly(0 over {self.field!r})"
        return f"AdditivePoly(m={self.frobenius_degree} over {self.field!r})"

    def to_fqpoly(self) -> FqPoly:
        if self.is_zero():
            return FqPoly(self.field, [])
        p = self.field.p
        dense = [self.field.zero()] * (self.degree + 1)
        for i, c in enumerate(self.coeffs):
            dense[p**i] = c
        return FqPoly(self.field, dense)

    def map_into(self, target: FiniteField) -> AdditivePoly:
        return AdditivePoly(target, [embed(c, target) for c in self.coeffs])

    def evaluate(self, x: FieldElement) -> FieldElement:
        # sum a_i * x^(p^i) using repeated Frobenius, not dense powering
        acc = x.field.zero()
        cur = x
        for i, c in enumerate(self.coeffs):
            if i > 0:
                cur = cur.frobenius()
            if not c.is_zero():
                ce = c if c.field == x.field else embed(c, x.field)
                acc = acc + ce * cur
        return acc

    def operator_matrix(self, K: FiniteField) -> list[int]:
        """Matrix of the induced F_p-linear map on K (coefficients embedded),
        as packed rows: row s holds coordinate s of the images of the x^t.

        Horner in the Frobenius F: with H_m = c_m and H_i = c_i + H_(i+1) F,
        H_0 = sum_i c_i F^i.  The images of the x^t under H_i are packed
        rows: c_i x^t, plus the images under H_(i+1) combined by the
        coordinates of (x^t)^p, the cached row t of F.
        """
        p, k = K.p, K.k
        frobenius = []  # row t of F as (1 and the nonzero entries, their columns)
        for row in K._frobenius_rows(1):
            entries = _linalg.unpack(row, p, k)
            frobenius.append(([1] + [v for v in entries if v], [u for u, v in enumerate(entries) if v]))
        xk = _linalg.pack([-m % p for m in K.modulus[:k]], p)  # x^k mod the modulus
        images = [0] * k
        for c in reversed(self.coeffs):
            scaled = _linalg.x_multiples(_linalg.pack(embed(c, K).coords, p), xk, p, k)
            images = [_linalg.reduce(_linalg.combine(coeffs, [row] + [images[u] for u in us], p), p, k)
                      for row, (coeffs, us) in zip(scaled, frobenius)]
        columns = [_linalg.unpack(image, p, k) for image in images]
        return [_linalg.pack([col[s] for col in columns], p) for s in range(k)]

    def splitting_degree(self) -> int:
        """Least e with every root in F_(q^e), q = |F|: least e with
        z^(q^e) = z modulo self.  Needs a separable polynomial.

        z^(p^i) mod L = sum_(j<M) v_j z^(p^j) for L of Frobenius degree M.
        One p-step raises that to the p-th power: Frobenius on each v_j,
        a shift up by one, and z^(p^M) folded back in as
        -sum_(j<M) (a_j / a_M) z^(p^j).  k p-steps make a q-step, which is
        F_q-linear; on the roots it is q-Frobenius, an element of
        GL_M(F_p), so e < p^M.
        """
        if not is_separable(self):
            raise Inseparable("splitting degree of an inseparable additive polynomial")
        F = self.field
        p, k, M = F.p, F.k, self.frobenius_degree
        if M == 0:  # a*z: the only root is 0
            return 1
        require(f"the roots of an additive polynomial of Frobenius degree {M}: {p}^{M}", p**M)
        # one p-step as a packed F_p-linear map on the M*k coordinates of
        # (v_0, ..., v_(M-1)): row (j, u) is the image of x^u in place j
        fold = [-c / self.coeffs[-1] for c in self.coeffs[:-1]]
        xps = [F.element(_linalg.unpack(row, p, k)) for row in F._frobenius_rows(1)]  # (x^u)^p
        zero = (0,) * k
        steps = [_linalg.pack(zero * (j + 1) + xp.coords + zero * (M - j - 2), p)
                 for j in range(M - 1) for xp in xps]
        steps += [_linalg.pack(sum(((a * xp).coords for a in fold), ()), p) for xp in xps]
        z = [1] + [0] * (M * k - 1)
        v = z
        for e in range(1, p**M):
            for _ in range(k):
                v = _linalg.unpack(_linalg.combine(v, steps, p), p, M * k)
            if v == z:
                return e
        raise CertificateFailed(f"z^(q^e) != z modulo L for every e < {p}^{M}")


def solve_affine(L: AdditivePoly, r: FieldElement) -> tuple[FieldElement, FiniteField]:
    """Least solution c of L(c) = r by ``sort_key``, r in L's field, and the
    field K that holds it: the splitting field of L(z) - r.

    Drop the e vanishing low coefficients, L = L' o z^(p^e) with L'
    separable.  The roots of A = (w^p - r^(p-1) w) o L' are the z with
    L'(z) in F_p r, span(ker L', u0) for L'(u0) = r; they generate the same
    field as the roots c0 + ker L of L(z) - r, since c^(p^e) runs over
    u0 + ker L'.  So K comes from ``A.splitting_degree`` (gated by
    ``require`` on p^(M+1-e), M the Frobenius degree of L), and c from one rref
    of [L | r] on K, reduced to 0 at the pivot columns of the kernel's
    rref basis: those coordinates are free over the coset, and the ones
    before each pivot are fixed, so it is the lexicographic least.
    """
    if L.is_zero():
        raise BadParameter("L(c) = r needs a nonzero additive L")
    F = L.field
    p = F.p
    e = next(i for i, a in enumerate(L.coeffs) if a)
    core = AdditivePoly(F, L.coeffs[e:])
    A = add_compose(AdditivePoly(F, [-(r ** (p - 1)), F.one()]), core) if r else core
    d = A.splitting_degree()
    K = F if d == 1 else GF(p, F.k * d)
    n = K.k
    op, rK = L.operator_matrix(K), embed(r, K)
    augmented = [_linalg.pack(_linalg.unpack(row, p, n) + [v], p) for row, v in zip(op, rK.coords)]
    red, pivots = _linalg.rref(augmented, p, n + 1)
    _certify(n not in pivots, f"L(z) = r has no solution in {K!r}")
    x = [0] * n
    for row, col in zip(red, pivots):
        x[col] = _linalg.unpack(row, p, n + 1)[n]
    kernel, kernel_pivots = _linalg.rref(_linalg.nullspace(op, p, n), p, n)
    for row, col in zip(kernel, kernel_pivots):
        x = [(a - x[col] * b) % p for a, b in zip(x, _linalg.unpack(row, p, n))]
    c = K.element(x)
    _certify(L.map_into(K).evaluate(c) == rK, "affine solution does not solve L(c) = r")
    return c, K


def recognize_additive(f: FqPoly) -> AdditivePoly | None:
    """Additive form of f when every term sits at an exponent p^i, else None."""
    if f.is_zero():
        return None
    p = f.field.p
    coeffs = {}
    for e in range(f.degree + 1):
        c = f[e]
        if c.is_zero():
            continue
        i = 0
        n = e
        while n > 1 and n % p == 0:
            n //= p
            i += 1
        if n != 1:  # exponent is 0 or not a pure p-power
            return None
        coeffs[i] = c
    if not coeffs:
        return None
    m = max(coeffs)
    return AdditivePoly(
        f.field, [coeffs.get(i, f.field.zero()) for i in range(m + 1)]
    )


def add_compose(f: AdditivePoly, g: AdditivePoly) -> AdditivePoly:
    """f o g via twisted convolution: (f o g)_{i+j} += a_i * (b_j)^(p^i)."""
    if f.field != g.field:
        raise FieldMismatch("composition needs a common base field")
    F = f.field
    if f.is_zero() or g.is_zero():
        return AdditivePoly(F, [])
    mf, mg = f.frobenius_degree, g.frobenius_degree
    out = [F.zero()] * (mf + mg + 1)
    for i, a in enumerate(f.coeffs):
        if a.is_zero():
            continue
        for j, b in enumerate(g.coeffs):
            if not b.is_zero():
                out[i + j] = out[i + j] + a * b.frobenius(i)
    return AdditivePoly(F, out)


def iterate(f: AdditivePoly, n: int) -> AdditivePoly:
    """n-fold self-composition; the z-coefficient comes out as a_0^n."""
    if n < 1:
        raise BadParameter("iterate needs n >= 1")
    out = f
    for _ in range(n - 1):
        out = add_compose(out, f)
    _certify(out.coeffs[0] == f.coeffs[0] ** n, "z-coefficient of the iterate is not a_0^n")
    return out


def is_separable(f: AdditivePoly) -> bool:
    """True iff the z-coefficient (= the derivative) is nonzero."""
    return bool(f.coeffs) and not f.coeffs[0].is_zero()


class RootSpace:
    """The F_p-vector space Z_n of roots of f^n, in its splitting field.

    ``basis`` is the canonical rref basis of the coordinate vectors of the
    roots, certified by ``root_space`` as m*n roots of f^n (independent rref
    rows, so they span all p^(mn) roots of the separable f^n);
    ``all_roots`` enumerates that span, sorted, on first access; every
    access is refused while p^dimension exceeds the budget.
    """

    __slots__ = ("poly", "level", "field", "basis", "_roots")

    def __init__(self, poly, level, field, basis):
        object.__setattr__(self, "poly", poly)
        object.__setattr__(self, "level", level)
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "_roots", None)

    def __setattr__(self, name, value):
        raise AttributeError("RootSpace is immutable")

    @property
    def dimension(self) -> int:
        return len(self.basis)

    @property
    def all_roots(self) -> tuple:
        p, dim = self.field.p, self.dimension
        require(f"listing |Z_{self.level}| = {p}^{dim}", p**dim)
        if self._roots is None:
            K = self.field
            coords = sorted(tuple(row) for row in _span(self.basis, p, K.k))
            object.__setattr__(self, "_roots", tuple(K.element(c) for c in coords))
        return self._roots

    @property
    def min_splitting_degree(self) -> int:
        """Degree over F_p of the least field holding F and every root."""
        return reduce(math.lcm, [b.degree_over_prime() for b in self.basis], self.poly.field.k)

    def __len__(self):
        p, dim = self.field.p, self.dimension
        if p**dim >= 1 << 63:  # beyond what len() can return; use p ** dimension
            raise BadParameter(f"|Z_{self.level}| = {p}^{dim} is too large for len()")
        return p**dim

    def __repr__(self):
        return (
            f"RootSpace(dim {self.dimension} of level {self.level} in {self.field!r})"
        )


@lru_cache(maxsize=128)
def _root_space_cached(f: AdditivePoly, n: int, ambient) -> RootSpace:
    F = f.field
    p = F.p
    m = f.frobenius_degree
    fn = iterate(f, n)
    K = GF(p, F.k * fn.splitting_degree()) if ambient is None else ambient
    kernel = _linalg.nullspace(fn.operator_matrix(K), p, K.k)
    if len(kernel) != m * n:
        raise BadParameter(
            f"kernel dimension {len(kernel)} != {m*n}; ambient field too small"
        )
    basis = tuple(K.element(_linalg.unpack(row, p, K.k))
                  for row in _linalg.row_space_basis(kernel, p, K.k))
    fnK = fn.map_into(K)
    _certify(
        len(basis) == m * n and all(fnK.evaluate(b).is_zero() for b in basis),
        f"the basis of Z_{n} is not {m*n} roots of f^{n}",
    )
    return RootSpace(f, n, K, basis)


def _span(basis, p: int, k: int) -> list[list[int]]:
    """Coordinates of every F_p combination of the basis elements."""
    rows = [_linalg.pack(b.coords, p) for b in basis]
    return [_linalg.unpack(_linalg.combine(cs, rows, p), p, k)
            for cs in product(range(p), repeat=len(rows))]


def additive_from_json(d: dict) -> AdditivePoly:
    F = field_from_json(d["field"])
    return AdditivePoly(F, [F.element(c) for c in d["a"]])


def root_space(f: AdditivePoly, n: int, *, ambient: FiniteField | None = None) -> RootSpace:
    """Z_n for separable f: a certified canonical basis of the roots of f^n.

    The splitting field is the canonical field of the minimal degree unless
    an explicit ambient extension is supplied (it must contain all roots).
    """
    if not is_separable(f):
        raise Inseparable("root spaces need a separable additive polynomial")
    if n < 1:
        raise BadParameter("level must be >= 1")
    p, m = f.field.p, f.frobenius_degree
    # before the cache: a space built under a larger budget is refused too
    require(f"|Z_{n}| = {p}^{m * n}", p ** (m * n))
    return _root_space_cached(f, n, ambient)
