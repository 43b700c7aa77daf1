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

import numpy as np

from . import _linalg
from .errors import (BadParameter, BudgetExceeded, CertificateFailed, FieldMismatch,
                     Inseparable, _certify)
from .ff import (
    GF,
    FieldElement,
    FiniteField,
    FqPoly,
    embed,
    enumeration_budget,
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

    def operator_matrix(self, K: FiniteField) -> np.ndarray:
        """Matrix of the induced F_p-linear map on K (coefficients embedded)."""
        p = self.field.p
        frob = K.frobenius_matrix()
        mat = np.zeros((K.k, K.k), dtype=np.int64)
        power = np.eye(K.k, dtype=np.int64)
        for i, c in enumerate(self.coeffs):
            if i > 0:
                power = _linalg.matmul(frob, power, p)
            if not c.is_zero():
                mul = K.mult_matrix(embed(c, K))
                mat = (mat + _linalg.matmul(mul, power, p)) % p
        return mat

    def splitting_degree(self, budget: int | None = None) -> int:
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
        if budget is None:
            budget = enumeration_budget()
        if p**M > budget:
            raise BudgetExceeded(f"{p}^{M} roots exceed the budget {budget}")
        lead_inv = self.coeffs[-1].inverse()
        fold = np.stack([F.mult_matrix(-c * lead_inv) for c in self.coeffs[:-1]])
        frob_t = F.frobenius_matrix().T
        z = np.zeros((M, k), dtype=np.int64)
        z[0, 0] = 1
        v = z
        for e in range(1, p**M):
            for _ in range(k):
                w = (v @ frob_t) % p
                top = w[-1]
                v = (fold @ top) % p
                v[1:] += w[:-1]
                v %= p
            if np.array_equal(v, z):
                return e
        raise CertificateFailed(f"z^(q^e) != z modulo L for every e < {p}^{M}")


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
    ``all_roots`` enumerates that span, sorted, on first access.
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
        if self._roots is None:
            K = self.field
            basis = np.array([b.coords for b in self.basis], dtype=np.int64).reshape(-1, K.k)
            coords = sorted(tuple(int(v) for v in row) for row in _span(basis, K.p))
            object.__setattr__(self, "_roots", tuple(K.element(c) for c in coords))
        return self._roots

    @property
    def min_splitting_degree(self) -> int:
        """Degree over F_p of the least field holding F and every root."""
        return reduce(math.lcm, [b.degree_over_prime() for b in self.basis], self.poly.field.k)

    def __len__(self):
        return self.field.p ** self.dimension

    def __repr__(self):
        return (
            f"RootSpace(dim {self.dimension} of level {self.level} in {self.field!r})"
        )


@lru_cache(maxsize=128)
def _root_space_cached(f: AdditivePoly, n: int, budget: int, ambient) -> RootSpace:
    F = f.field
    p = F.p
    m = f.frobenius_degree
    count = p ** (m * n)
    if count > budget:
        raise BudgetExceeded(f"|Z_{n}| = {count} exceeds the budget {budget}")
    fn = iterate(f, n)
    K = GF(p, F.k * fn.splitting_degree(budget)) if ambient is None else ambient
    kernel = _linalg.nullspace(fn.operator_matrix(K), p)
    if kernel.shape[0] != m * n:
        raise BudgetExceeded(
            f"kernel dimension {kernel.shape[0]} != {m*n}; ambient field too small"
        )
    basis = tuple(K.element(row) for row in _linalg.row_space_basis(kernel, p))
    fnK = fn.map_into(K)
    _certify(
        len(basis) == m * n and all(fnK.evaluate(b).is_zero() for b in basis),
        f"the basis of Z_{n} is not {m*n} roots of f^{n}",
    )
    return RootSpace(f, n, K, basis)


def _span(basis: np.ndarray, p: int) -> np.ndarray:
    dim, width = basis.shape
    if dim == 0:
        return np.zeros((1, width), dtype=np.int64)
    coeffs = np.indices((p,) * dim).reshape(dim, -1).T  # all F_p coefficient rows
    return (coeffs @ basis) % p


def additive_to_json(f: AdditivePoly) -> dict:
    from .ff import field_to_json

    return {
        "field": field_to_json(f.field),
        "a": [list(c.coords) for c in f.coeffs],
    }


def additive_from_json(d: dict) -> AdditivePoly:
    from .ff import field_from_json

    F = field_from_json(d["field"])
    return AdditivePoly(F, [F.element(c) for c in d["a"]])


def root_space(f: AdditivePoly, n: int, budget: int | None = None,
               ambient: FiniteField | None = None) -> RootSpace:
    """Z_n for separable f: a certified canonical basis of the roots of f^n.

    The splitting field is the canonical field of the minimal degree unless
    an explicit ambient extension is supplied (it must contain all roots).
    """
    if not is_separable(f):
        raise Inseparable("root spaces need a separable additive polynomial")
    if n < 1:
        raise BadParameter("level must be >= 1")
    if budget is None:
        budget = enumeration_budget()
    return _root_space_cached(f, n, budget, ambient)
