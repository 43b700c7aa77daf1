"""Exact arithmetic in finite fields F_{p^k} and polynomial algebra over them.

A field is F_p[x]/(modulus) with an explicit monic irreducible modulus,
elements are coordinate vectors in the power basis of the modulus root,
and polynomials are coefficient lists (constant term first).  Everything
is exact and deterministic:

* when no modulus is supplied, the lexicographically smallest monic
  irreducible is chosen (coefficients read as base-p digits, leading
  term most significant), so serialized fields replay bit-for-bit;
* the modulus search and x^p mod a polynomial use square-and-multiply,
  so building F_{p^k} costs time polynomial in k and log p;
* root finding compares the cost of scanning the field (|K| * deg
  evaluations) with equal-degree splitting driven by a seeded
  deterministic generator (about deg * (deg-1) * log|K| products) and
  takes the cheaper route; both return the same sorted roots;
* n-th roots (``solve_power``) need no root finding: one exponentiation
  and, per prime r dividing gcd(n, |K| - 1), Adleman-Manders-Miller
  root extraction in the Sylow r-subgroup, so their cost grows with
  log|K| and gcd(n, |K| - 1), not with |K| or n;
* embeddings between fields are constructed once, cached, and routed
  through already-known smaller embeddings so that chains compose
  consistently within a session.

Element arithmetic runs on plain Python ints, and F_p matrices are lists of
rows packed into ints by ``_linalg``.  A product in F_(p^k) is one
Kronecker product of the two coordinate vectors, in slots of at least
bit_length(k * p^2) + 1 bits (``_linalg``'s slot-width bound, so no slot
carries into the next), folded back by the packed rows x^(k+j) mod the
modulus; a Frobenius power combines cached packed rows; inverses come
from extended Euclid.  Every p and k is supported, within time and
memory.
"""

from __future__ import annotations

import hashlib
import math
import os
import random
from functools import reduce
from itertools import accumulate

from . import _linalg, _poly
from .errors import (
    BadInput,
    BadParameter,
    BudgetExceeded,
    CertificateFailed,
    DegreeMismatch,
    FieldMismatch,
    NoEmbedding,
    NotPrime,
    ReducibleModulus,
    ZeroBase,
    ZeroPolynomial,
    _certify,
)

DEFAULT_BUDGET = 1 << 16

# Root finding scans K when |K| <= _SCAN_RATIO * (deg - 1) * bit_length(|K|).
# A scan costs about |K| * deg products in K; Cantor-Zassenhaus about
# deg * (deg - 1) * log|K| (powering modulo the polynomial, and nothing
# when deg = 1).  The ratio was fitted on the routes' measured times over
# fields of order 2 to 6561 and degrees 1 to 7.
_SCAN_RATIO = 10


def enumeration_budget() -> int:
    """Active enumeration budget; WILDRAM_BUDGET overrides the default 2^16.

    Read on every call; a value that is not an integer >= 1 is refused.
    """
    raw = os.environ.get("WILDRAM_BUDGET") or str(DEFAULT_BUDGET)
    try:
        budget = int(raw)
    except ValueError:
        budget = 0
    if budget < 1:
        raise BadParameter(f"WILDRAM_BUDGET={raw!r} is not an integer of at least 1")
    return budget


def require(what: str, requested: int, allowed: int | None = None) -> None:
    """Refuse ``requested`` units of ``what`` above ``allowed``; the one
    place BudgetExceeded is raised.

    ``allowed=None`` is the enumeration budget, which WILDRAM_BUDGET sets;
    an explicit ``allowed`` is a fixed limit that no knob raises.
    """
    if allowed is None:
        allowed, limit = enumeration_budget(), "the budget {}; set WILDRAM_BUDGET to allow more"
    else:
        limit = "the fixed limit {}, which WILDRAM_BUDGET does not raise"
    if requested > allowed:
        raise BudgetExceeded(f"{what} = {requested} would exceed " + limit.format(allowed))


def _scan_is_cheaper(order: int, deg: int) -> bool:
    """Whether scanning a field of this order for roots of a degree-deg
    polynomial costs less than Cantor-Zassenhaus splitting."""
    return order <= enumeration_budget() and order <= _SCAN_RATIO * (deg - 1) * order.bit_length()


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, valid far beyond any field size used here."""
    if n < 2:
        return False
    for q in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _stable_seed(*parts) -> int:
    blob = repr(parts).encode()
    return int.from_bytes(hashlib.sha256(blob).digest()[:8], "big")


# ---------------------------------------------------------------------------
# Polynomials over the prime field, as int tuples (constant first).
# Only used for modulus bookkeeping; everything user-facing is FqPoly.
# This is the one arithmetic kept apart from the object-generic _poly
# kernel: Ben-Or in make_field runs it before the field exists, on bare
# ints, where element objects would only add cost to every first use.
# ---------------------------------------------------------------------------

def _fp_trim(c: list[int]) -> tuple[int, ...]:
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def _fp_mul(a, b, p):
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return _fp_trim(out)


def _fp_divmod(a, b, p):
    a = [int(v) for v in a]
    db, dl = len(b) - 1, int(b[-1])
    inv = pow(dl, -1, p)
    q = [0] * max(len(a) - db, 0)
    while len(a) - 1 >= db and any(a):
        if a[-1] == 0:
            a.pop()
            continue
        shift = len(a) - 1 - db
        coef = a[-1] * inv % p
        q[shift] = coef
        for j in range(db + 1):
            a[shift + j] = (a[shift + j] - coef * b[j]) % p
        a.pop()
    return _fp_trim(q), _fp_trim(a)


def _fp_gcd(a, b, p):
    a, b = _fp_trim(list(a)), _fp_trim(list(b))
    while b:
        a, b = b, _fp_divmod(a, b, p)[1]
    if a:
        inv = pow(a[-1], -1, p)
        a = tuple(c * inv % p for c in a)
    return a


def _fp_mulmod(a, b, mu, p):
    return _fp_divmod(_fp_mul(a, b, p), mu, p)[1]


def _fp_powmod(base, e: int, mu, p: int) -> tuple[int, ...]:
    """base^e mod mu by square-and-multiply: O(deg(mu)^2 log e)."""
    result, base = (1,), _fp_divmod(base, mu, p)[1]
    while e:
        if e & 1:
            result = _fp_mulmod(result, base, mu, p)
        e >>= 1
        if e:
            base = _fp_mulmod(base, base, mu, p)
    return result


def _fp_power_rows(mu: tuple[int, ...], p: int, e: int) -> list[int]:
    """Packed rows x^(i*e) mod mu for 0 <= i < k = deg(mu).

    With e = p^j, row i holds the coordinates of (x^i)^(p^j): the rows of
    the transposed matrix of c -> c^(p^j).
    """
    k = len(mu) - 1
    # xe on the left: for e < k it is the monomial x^e, so each product is
    # a shift and the table costs what direct shifting would.
    xe = _fp_powmod((0, 1), e, mu, p)
    rows = []
    cur: tuple[int, ...] = (1,)
    for i in range(k):
        rows.append(_linalg.pack(cur + (0,) * (k - len(cur)), p))
        if i + 1 < k:
            cur = _fp_mulmod(xe, cur, mu, p)
    return rows


def _fp_is_irreducible(mu: tuple[int, ...], p: int) -> bool:
    """Ben-Or's test: mu is irreducible iff gcd(x^(p^i) - x, mu) = 1 for i <= k/2.

    A reducible mu has an irreducible factor of degree i <= k/2, which
    divides x^(p^i) - x; most candidates fail at a small i.
    """
    k = len(mu) - 1
    if k == 1:
        return True
    if mu[0] == 0:  # divisible by x
        return False
    h: tuple[int, ...] = (0, 1)
    for _ in range(k // 2):
        h = _fp_powmod(h, p, mu, p)
        diff = list(h) + [0] * (2 - len(h))
        diff[1] = (diff[1] - 1) % p
        if _fp_gcd(mu, _fp_trim(diff), p) != (1,):
            return False
    return True


def _prime_divisors(n: int) -> list[int]:
    out, d = [], 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def _search_irreducible(p: int, k: int) -> tuple[int, ...]:
    """Smallest monic irreducible of degree k over F_p in base-p digit order.

    Coefficient i is digit i of the candidate's index, so the x^(k-1)
    coefficient is the most significant digit.
    """
    if k == 1:
        return (0, 1)
    for n in range(1, p**k):
        if n % p == 0:  # divisible by x
            continue
        mu = tuple((n // p**i) % p for i in range(k)) + (1,)
        if _fp_is_irreducible(mu, p):
            return mu
    raise ReducibleModulus(f"no irreducible of degree {k} over F_{p}")  # unreachable


# ---------------------------------------------------------------------------
# Fields and elements
# ---------------------------------------------------------------------------

class FiniteField:
    """F_{p^k} = F_p[x]/(modulus); immutable, compared by (p, k, modulus)."""

    __slots__ = ("p", "k", "modulus", "_cache")

    def __init__(self, p: int, k: int, modulus=None, _trusted=False):
        if not is_prime(p):
            raise NotPrime(f"{p} is not prime")
        if k < 1:
            raise DegreeMismatch("extension degree must be positive")
        if modulus is None:
            modulus = _search_irreducible(p, k)
        else:
            modulus = tuple(int(c) % p for c in modulus)
            if len(modulus) != k + 1 or modulus[-1] != 1:
                raise DegreeMismatch(
                    f"modulus must be monic of degree {k}, got {modulus}"
                )
            if not _trusted and not _fp_is_irreducible(modulus, p):
                raise ReducibleModulus(f"{modulus} is reducible over F_{p}")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "modulus", modulus)
        object.__setattr__(self, "_cache", {})

    def __setattr__(self, name, value):
        raise AttributeError("FiniteField is immutable")

    # -- identity ----------------------------------------------------------

    @property
    def order(self) -> int:
        return self.p**self.k

    def key(self):
        return (self.p, self.k, self.modulus)

    def __eq__(self, other):
        return isinstance(other, FiniteField) and self.key() == other.key()

    def __hash__(self):
        return hash(self.key())

    def __repr__(self):
        return f"GF({self.p}^{self.k})" if self.k > 1 else f"GF({self.p})"

    # -- construction of elements -------------------------------------------

    def element(self, coords) -> FieldElement:
        c = tuple(int(v) % self.p for v in coords)
        if len(c) != self.k:
            raise DegreeMismatch(f"need {self.k} coordinates, got {len(c)}")
        return FieldElement(self, c)

    def from_int(self, n: int) -> FieldElement:
        return FieldElement(self, (n % self.p,) + (0,) * (self.k - 1))

    def zero(self) -> FieldElement:
        return self.from_int(0)

    def one(self) -> FieldElement:
        return self.from_int(1)

    def gen(self) -> FieldElement:
        """The class of x, a root of the modulus."""
        if self.k == 1:
            return self.zero()
        return FieldElement(self, (0, 1) + (0,) * (self.k - 2))

    def element_from_index(self, n: int) -> FieldElement:
        coords = tuple((n // self.p ** (self.k - 1 - j)) % self.p for j in range(self.k))
        return FieldElement(self, coords)

    def elements(self):
        """All field elements in lexicographic coordinate order."""
        for n in range(self.order):
            yield self.element_from_index(n)

    # -- cached structure ----------------------------------------------------

    def _reduction_rows(self) -> list[int]:
        """x^(k+j) mod modulus for 0 <= j < k - 1, packed for ``mulmod``."""
        red = self._cache.get("red")
        if red is None:
            p, k, mu = self.p, self.k, self.modulus
            rows = [tuple(-m % p for m in mu[:k])]  # x^k; then multiply by x and reduce
            while len(rows) < k - 1:
                top = rows[-1][-1]
                rows.append(tuple((a - top * m) % p for a, m in zip((0,) + rows[-1][:-1], mu)))
            red = self._cache["red"] = _linalg.reduction(rows, p)
        return red

    def _frobenius_rows(self, j: int) -> list[int]:
        """Packed row i holds the coordinates of (x^i)^(p^j), for 0 <= i < k."""
        rows = self._cache.get(("frob_rows", j))
        if rows is None:
            rows = _fp_power_rows(self.modulus, self.p, self.p**j)
            self._cache[("frob_rows", j)] = rows
        return rows

    # -- coordinate arithmetic ----------------------------------------------

    def _mul_coords(self, a, b):
        p, k = self.p, self.k
        if k == 1:
            return ((a[0] * b[0]) % p,)
        return tuple(_linalg.mulmod(a, b, self._reduction_rows(), p))

    def _frobenius_coords(self, a, j: int):
        """Coordinates of a^(p^j) for 0 < j < k, from the cached rows for j."""
        p = self.p
        return tuple(_linalg.unpack(_linalg.combine(a, self._frobenius_rows(j), p), p, self.k))

    def _inv_coords(self, a):
        p, k = self.p, self.k
        if all(v == 0 for v in a):
            raise ZeroDivisionError("inversion of zero field element")
        if k == 1:
            return (pow(a[0], -1, p),)
        # extended Euclid in F_p[x]: maintain t_i with t_i * a = r_i (mod modulus)
        r0, r1 = self.modulus, _fp_trim(list(a))
        t0, t1 = (), (1,)
        while r1:
            q, r = _fp_divmod(r0, r1, p)
            qt = _fp_mul(q, t1, p)
            m = max(len(t0), len(qt))
            t2 = _fp_trim(
                [
                    ((t0[i] if i < len(t0) else 0) - (qt[i] if i < len(qt) else 0)) % p
                    for i in range(m)
                ]
            )
            r0, r1 = r1, r
            t0, t1 = t1, t2
        # r0 is a nonzero constant: modulus is irreducible and a != 0
        lead_inv = pow(r0[-1], -1, p)
        inv = [0] * k
        for i, v in enumerate(t0):
            inv[i] = v * lead_inv % p
        return tuple(inv)


class FieldElement:
    """Immutable element of a FiniteField, hashable, with exact arithmetic."""

    __slots__ = ("field", "coords")

    def __init__(self, field: FiniteField, coords: tuple[int, ...]):
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "coords", coords)

    def __setattr__(self, name, value):
        raise AttributeError("FieldElement is immutable")

    def _coerce(self, other):
        if isinstance(other, FieldElement):
            if other.field != self.field:
                raise FieldMismatch(f"{other.field} vs {self.field}")
            return other
        if isinstance(other, int):
            return self.field.from_int(other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        p = self.field.p
        return FieldElement(
            self.field, tuple((a + b) % p for a, b in zip(self.coords, o.coords))
        )

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        p = self.field.p
        return FieldElement(
            self.field, tuple((a - b) % p for a, b in zip(self.coords, o.coords))
        )

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        p = self.field.p
        return FieldElement(self.field, tuple((-a) % p for a in self.coords))

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return FieldElement(self.field, self.field._mul_coords(self.coords, o.coords))

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        return o * self.inverse()

    def __pow__(self, e: int):
        if e < 0:
            return self.inverse() ** (-e)
        result = self.field.one()
        base = self
        while e > 0:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def inverse(self) -> FieldElement:
        return FieldElement(self.field, self.field._inv_coords(self.coords))

    def frobenius(self, j: int = 1) -> FieldElement:
        """p^j-th power, a linear map on coordinates cached per j."""
        F = self.field
        j %= F.k
        if j == 0:
            return self
        return FieldElement(F, F._frobenius_coords(self.coords, j))

    def is_zero(self) -> bool:
        return not any(self.coords)

    def __bool__(self):
        return any(self.coords)

    def __eq__(self, other):
        if isinstance(other, int):
            other = self.field.from_int(other)
        return (
            isinstance(other, FieldElement)
            and other.field == self.field
            and other.coords == self.coords
        )

    def __hash__(self):
        return hash((self.field.key(), self.coords))

    def sort_key(self):
        return self.coords

    def multiplicative_order(self) -> int:
        if self.is_zero():
            raise ZeroBase("order of zero")
        n = self.field.order - 1
        order = n
        for q in _prime_divisors(n):
            while order % q == 0 and self ** (order // q) == self.field.one():
                order //= q
        return order

    def degree_over_prime(self) -> int:
        """Size of the Frobenius orbit: degree of the element over F_p."""
        cur = self.frobenius()
        d = 1
        while cur != self:
            cur = cur.frobenius()
            d += 1
        return d

    def __repr__(self):
        return f"{list(self.coords)}:{self.field!r}"


# ---------------------------------------------------------------------------
# Polynomials over a field
# ---------------------------------------------------------------------------

class FqPoly:
    """Dense univariate polynomial over a FiniteField, constant term first."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field: FiniteField, coeffs):
        cs = list(coeffs)
        for i, c in enumerate(cs):
            if isinstance(c, int):
                cs[i] = field.from_int(c)
            elif c.field != field:
                raise FieldMismatch("coefficient from a different field")
        while cs and cs[-1].is_zero():
            cs.pop()
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("FqPoly is immutable")

    @classmethod
    def from_ints(cls, field, ints):
        return cls(field, [field.from_int(v) for v in ints])

    @classmethod
    def x(cls, field):
        return cls.from_ints(field, [0, 1])

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1  # -1 for the zero polynomial

    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        return (
            isinstance(other, FqPoly)
            and other.field == self.field
            and other.coeffs == self.coeffs
        )

    def __hash__(self):
        return hash((self.field.key(), tuple(c.coords for c in self.coeffs)))

    def __getitem__(self, i: int) -> FieldElement:
        return self.coeffs[i] if i < len(self.coeffs) else self.field.zero()

    def lead(self) -> FieldElement:
        if self.is_zero():
            raise ZeroPolynomial("leading coefficient of zero")
        return self.coeffs[-1]

    def __add__(self, other):
        if not isinstance(other, FqPoly):
            return NotImplemented
        return FqPoly(self.field, _poly.add(self.coeffs, other.coeffs))

    def __sub__(self, other):
        if not isinstance(other, FqPoly):
            return NotImplemented
        return FqPoly(self.field, _poly.sub(self.coeffs, other.coeffs))

    def __neg__(self):
        return FqPoly(self.field, [-c for c in self.coeffs])

    def __mul__(self, other):
        if isinstance(other, FieldElement):
            return FqPoly(self.field, _poly.scale(self.coeffs, other))
        if not isinstance(other, FqPoly):
            return NotImplemented
        return FqPoly(self.field, _poly.mul(self.coeffs, other.coeffs))

    __rmul__ = __mul__

    def __divmod__(self, other: FqPoly):
        if other.is_zero():
            raise ZeroPolynomial("division by the zero polynomial")
        q, r = _poly.divmod(self.coeffs, other.coeffs, FieldElement.inverse)
        return FqPoly(self.field, q), FqPoly(self.field, r)

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def monic(self) -> FqPoly:
        if self.is_zero():
            return self
        return self * self.lead().inverse()

    def gcd(self, other: FqPoly) -> FqPoly:
        return FqPoly(self.field, _poly.gcd(self.coeffs, other.coeffs, FieldElement.inverse))

    def derivative(self) -> FqPoly:
        return FqPoly(self.field, _poly.deriv(self.coeffs))

    def evaluate(self, x: FieldElement) -> FieldElement:
        if x.field != self.field:
            raise FieldMismatch("evaluate: embed the polynomial first")
        return _poly.evaluate(self.coeffs, x)

    def compose(self, other: FqPoly) -> FqPoly:
        return FqPoly(self.field, _poly.compose(self.coeffs, other.coeffs))

    def map_into(self, target: FiniteField) -> FqPoly:
        return FqPoly(target, [embed(c, target) for c in self.coeffs])

    def pow_mod(self, e: int, modulus: FqPoly) -> FqPoly:
        mod, inv = modulus.coeffs, FieldElement.inverse
        result = [self.field.one()]
        base = _poly.divmod(self.coeffs, mod, inv)[1]
        while e > 0:
            if e & 1:
                result = _poly.divmod(_poly.mul(result, base), mod, inv)[1]
            e >>= 1
            if e:
                base = _poly.divmod(_poly.mul(base, base), mod, inv)[1]
        return FqPoly(self.field, result)

    def to_int_lists(self):
        return [list(c.coords) for c in self.coeffs]

    def __repr__(self):
        if self.is_zero():
            return "FqPoly(0)"
        return f"FqPoly(deg {self.degree} over {self.field!r})"


# ---------------------------------------------------------------------------
# Frobenius powering mod a fixed polynomial (the DDF/root-finding engine)
# ---------------------------------------------------------------------------

class _FrobMod:
    """Computes h -> h^p mod g cheaply via the table of x^(ip) mod g.

    Over F_q the p-th power map on F_q[x]/(g) is semilinear: coefficients
    get their p-th power (an F_p-linear map on coordinates) and x^i turns
    into x^(ip), which is reduced once and tabulated.
    """

    def __init__(self, g: FqPoly):
        self.g = g.monic()
        self.field = g.field
        xp = FqPoly.x(self.field).pow_mod(self.field.p, self.g)
        rows = [FqPoly.from_ints(self.field, [1])]
        for _ in range(1, self.g.degree):
            rows.append((xp * rows[-1]) % self.g)  # xp left: see _fp_power_rows
        self.rows = rows

    def apply_p(self, h: FqPoly) -> FqPoly:
        """h^p mod g for deg(h) < deg(g)."""
        acc = FqPoly(self.field, [])
        for i, c in enumerate(h.coeffs):
            if not c.is_zero():
                acc = acc + self.rows[i] * c.frobenius()
        return acc

    def apply_q(self, h: FqPoly) -> FqPoly:
        for _ in range(self.field.k):
            h = self.apply_p(h)
        return h

    def power_of_x(self, e_log_q: int) -> FqPoly:
        """x^(q^e) mod g."""
        h = FqPoly.x(self.field) % self.g
        for _ in range(e_log_q):
            h = self.apply_q(h)
        return h


# ---------------------------------------------------------------------------
# Public field constructors
# ---------------------------------------------------------------------------

_FIELD_REGISTRY: dict[tuple, FiniteField] = {}


def make_field(p: int, k: int, modulus=None) -> FiniteField:
    """Field of order p^k; without a modulus the canonical one is searched."""
    if modulus is not None:
        modulus = tuple(int(c) for c in modulus)
    key = (p, k, modulus)
    f = _FIELD_REGISTRY.get(key)
    if f is None:
        f = FiniteField(p, k, modulus)
        _FIELD_REGISTRY[key] = f
        _FIELD_REGISTRY.setdefault((p, k, f.modulus), f)
    return f


def GF(p: int, k: int = 1) -> FiniteField:
    """Canonical field of order p^k (deterministic modulus)."""
    return make_field(p, k)


# ---------------------------------------------------------------------------
# Embeddings
# ---------------------------------------------------------------------------

_EMBED_CACHE: dict[tuple, list[int]] = {}


def _roots_of_fp_poly(mu: tuple[int, ...], target: FiniteField) -> list[FieldElement]:
    """All roots in target of an irreducible mu over F_p with deg | target.k.

    They are the Frobenius orbit of any one root, sorted, so the result does
    not depend on which root _one_root_of_fp_poly finds.
    """
    a = len(mu) - 1
    beta = _one_root_of_fp_poly(mu, target)
    orbit = [beta]
    cur = beta.frobenius()
    while cur != beta:
        orbit.append(cur)
        cur = cur.frobenius()
    _certify(len(orbit) == a, f"a root of {mu} has {len(orbit)} Frobenius conjugates, not {a}")
    return sorted(orbit, key=lambda e: e.sort_key())


def _one_root_of_fp_poly(mu: tuple[int, ...], target: FiniteField) -> FieldElement:
    a = len(mu) - 1
    p = target.p
    if _scan_is_cheaper(target.order, a):
        coeffs = [target.from_int(c) for c in mu]
        for elem in target.elements():
            if not _poly.evaluate(coeffs, elem):
                return elem
        raise NoEmbedding(f"no root of {mu} in {target!r}")
    # Otherwise locate the subfield of order p^a, the kernel of Frob^a - 1,
    # present mu over an abstract copy of it, where it splits into distinct
    # linear factors, split it and map one root back.
    k = target.k
    images = [_linalg.unpack(row, p, k) for row in target._frobenius_rows(a)]  # (x^i)^(p^a)
    frob_minus_one = [_linalg.pack([(images[i][s] - (s == i)) % p for i in range(k)], p)
                      for s in range(k)]
    sub_basis = [target.element(_linalg.unpack(row, p, k))
                 for row in _linalg.nullspace(frob_minus_one, p, k)]
    _certify(len(sub_basis) == a, f"the subfield of order {p}^{a} has dimension {len(sub_basis)}")
    gamma = next((b for b in sub_basis if b and b.degree_over_prime() == a), None)
    if gamma is None:
        acc = target.zero()
        for b in sub_basis:
            acc = acc + b
            if acc.degree_over_prime() == a:
                gamma = acc
                break
    if gamma is None:
        rng = random.Random(_stable_seed("gamma", mu, target.key()))
        while gamma is None:
            coefs = [rng.randrange(p) for _ in range(a)]
            acc = target.zero()
            for c, b in zip(coefs, sub_basis):
                acc = acc + b * c
            if not acc.is_zero() and acc.degree_over_prime() == a:
                gamma = acc
    powers = [target.one()]
    for _ in range(a):
        powers.append(powers[-1] * gamma)
    # dependencies among 1, gamma, ..., gamma^a: the kernel of the matrix
    # whose columns are their coordinates
    columns = [_linalg.pack(row, p) for row in zip(*(e.coords for e in powers))]
    minpoly = None
    for row in _linalg.nullspace(columns, p, a + 1):
        dep = _linalg.unpack(row, p, a + 1)
        if dep[a] != 0:
            inv = pow(dep[a], -1, p)
            minpoly = tuple(v * inv % p for v in dep)
            break
    _certify(minpoly is not None and len(minpoly) == a + 1,
             f"no minimal polynomial of degree {a} for the subfield generator")
    ab = FiniteField(p, a, minpoly, _trusted=True)
    root = _split_linear(FqPoly.from_ints(ab, mu), ab)[0]
    beta = target.zero()
    for c, pw in zip(root.coords, powers):
        beta = beta + pw * c
    return beta


def embedding_matrix(src: FiniteField, target: FiniteField) -> list[int]:
    """The session-fixed embedding src -> target as packed rows: row j is
    the image of x^j, target.k entries."""
    if src.p != target.p:
        raise NoEmbedding("different characteristics")
    if target.k % src.k != 0:
        raise NoEmbedding(f"{src.k} does not divide {target.k}")
    key = (src.key(), target.key())
    mat = _EMBED_CACHE.get(key)
    if mat is not None:
        return mat
    mat = _compose_via_cache(src, target)
    if mat is None:
        # x goes to itself, or to the least root of src's modulus in target;
        # for src.k = 1 only x^0 = 1 has an image
        same = src.key() == target.key() or src.k == 1
        beta = target.gen() if same else _roots_of_fp_poly(src.modulus, target)[0]
        powers = accumulate(range(src.k - 1), lambda y, _: y * beta, initial=target.one())
        mat = [_linalg.pack(y.coords, src.p) for y in powers]
    _EMBED_CACHE[key] = mat
    return mat


def _compose_via_cache(src: FiniteField, target: FiniteField) -> list[int] | None:
    # Route through an already-chosen intermediate so towers stay coherent.
    p = src.p
    for (a_key, b_key), m1 in list(_EMBED_CACHE.items()):
        if a_key == src.key() and b_key != target.key():
            mid_k = b_key[1]
            if target.k % mid_k == 0 and mid_k > src.k:
                m2 = _EMBED_CACHE.get((b_key, target.key()))
                if m2 is not None:
                    return [_linalg.reduce(_linalg.combine(_linalg.unpack(row, p, mid_k), m2, p),
                                           p, target.k) for row in m1]
    return None


def embed(x: FieldElement, target: FiniteField) -> FieldElement:
    """Image of x under the fixed embedding of its field into target."""
    if x.field == target:
        return x
    if x.field.k == 1:  # F_p sits in every field of characteristic p as the constants
        if x.field.p != target.p:
            raise NoEmbedding("different characteristics")
        return FieldElement(target, x.coords + (0,) * (target.k - 1))
    p, rows = target.p, embedding_matrix(x.field, target)
    return FieldElement(target, tuple(_linalg.unpack(_linalg.combine(x.coords, rows, p), p, target.k)))


def common_overfield(*fields: FiniteField) -> FiniteField:
    """Canonical field containing embeddings of all the given fields."""
    p = fields[0].p
    k = reduce(math.lcm, [f.k for f in fields], 1)
    return GF(p, k)


# ---------------------------------------------------------------------------
# Factorization-flavored operations
# ---------------------------------------------------------------------------

def _pth_root_coeff(c: FieldElement) -> FieldElement:
    # Frobenius is invertible on a finite field; its inverse is p^(k-1)-power.
    return c.frobenius(c.field.k - 1)


def _pth_root_poly(f: FqPoly) -> FqPoly:
    p = f.field.p
    out = []
    for i in range(0, len(f.coeffs), p):
        out.append(_pth_root_coeff(f.coeffs[i]))
        for j in range(1, p):
            if i + j < len(f.coeffs) and not f.coeffs[i + j].is_zero():
                raise ZeroPolynomial("polynomial is not a p-th power")  # internal
    return FqPoly(f.field, out)


def squarefree_factor(f: FqPoly) -> list[tuple[FqPoly, int]]:
    """Squarefree decomposition [(g_i, e_i)] with monic pairwise-coprime g_i.

    Inseparable input (a polynomial in z^p) is handled by repeated p-th
    root descent; multiplicities multiply by p at each descent.
    """
    if f.is_zero():
        raise ZeroPolynomial("squarefree decomposition of zero")
    p = f.field.p
    f = f.monic()
    factors: list[tuple[FqPoly, int]] = []
    n = 1
    while True:
        df = f.derivative()
        sqf = False
        if not df.is_zero():
            g = f.gcd(df)
            h = f // g
            i = 1
            one = FqPoly.from_ints(f.field, [1])
            while h != one:
                gg = g.gcd(h)
                hh = h // gg
                if hh.degree > 0:
                    factors.append((hh, i * n))
                g, h, i = g // gg, gg, i + 1
            if g == one:
                sqf = True
            else:
                f = g
        if sqf or f.degree == 0:
            break
        f = _pth_root_poly(f)
        n *= p
    factors.sort(key=lambda t: (t[0].degree, [c.coords for c in t[0].coeffs], t[1]))
    return factors


def _exhaustive_distinct_roots(g: FqPoly, K: FiniteField) -> list[FieldElement]:
    roots = []
    for elem in K.elements():
        if g.evaluate(elem).is_zero():
            roots.append(elem)
    return roots


def _linear_part(g: FqPoly, K: FiniteField) -> FqPoly:
    """gcd(g, z^|K| - z): the product of (z - r) over the roots r in K."""
    g = g.monic()
    if g.degree == 1:
        return g
    fm = _FrobMod(g)
    h = fm.power_of_x(1)  # z^|K| mod g
    return g.gcd(h - FqPoly.x(K))


def _split_linear(ell: FqPoly, K: FiniteField) -> list[FieldElement]:
    """All roots of a product of distinct linear factors, via seeded CZ."""
    roots = []
    stack = [ell.monic()]
    rng = random.Random(_stable_seed("split", ell.to_int_lists(), K.key()))
    while stack:
        cur = stack.pop()
        if cur.degree == 0:
            continue
        if cur.degree == 1:
            roots.append(-cur.coeffs[0] / cur.coeffs[1])
            continue
        if not cur.coeffs[0]:
            roots.append(K.zero())
            cur = cur // FqPoly.x(K)
            stack.append(cur)
            continue
        r = FqPoly(
            K, [K.element_from_index(rng.randrange(K.order)) for _ in range(cur.degree)]
        )
        if r.degree < 1 and K.p != 2:
            r = r + FqPoly.x(K)
        if K.p == 2:
            tr = r % cur
            term = r % cur
            e = K.k
            for _ in range(e - 1):
                term = (term * term) % cur
                tr = tr + term
            gpart = cur.gcd(tr)
        else:
            s = r.pow_mod((K.order - 1) // 2, cur)
            gpart = cur.gcd(s - FqPoly.from_ints(K, [1]))
        if 0 < gpart.degree < cur.degree:
            stack.append(gpart)
            stack.append(cur // gpart)
        else:
            stack.append(cur)
    return roots


def roots_in(f: FqPoly, K: FiniteField) -> list[tuple[FieldElement, int]]:
    """Roots of f lying in K with multiplicities, sorted by coordinates.

    Each squarefree part is solved by scanning K or by equal-degree
    splitting (seeded, deterministic), whichever _scan_is_cheaper picks;
    both give the same sorted list.
    """
    if f.is_zero():
        raise ZeroPolynomial("roots of the zero polynomial")
    fe = f if f.field == K else f.map_into(K)
    if fe.degree < 1:
        return []
    out: list[tuple[FieldElement, int]] = []
    for part, mult in squarefree_factor(fe):
        if part.degree < 1:
            continue
        if _scan_is_cheaper(K.order, part.degree):
            rs = _exhaustive_distinct_roots(part, K)
        else:
            ell = _linear_part(part, K)
            rs = _split_linear(ell, K) if ell.degree >= 1 else []
        out.extend((r, mult) for r in rs)
    out.sort(key=lambda t: t[0].sort_key())
    return out


def distinct_degree_profile(f: FqPoly) -> dict[int, int]:
    """Map e -> total degree of the product of irreducible factors of degree e.

    f must be squarefree.  The Frobenius iteration runs modulo the original
    polynomial; factors are peeled off a shrinking cofactor.
    """
    f = f.monic()
    field = f.field
    res: dict[int, int] = {}
    if f.degree < 1:
        return res
    fm = _FrobMod(f)
    h = FqPoly.x(field) % f
    rem = f
    e = 0
    x = FqPoly.x(field)
    while rem.degree > 0:
        e += 1
        if 2 * e > rem.degree:
            res[rem.degree] = res.get(rem.degree, 0) + rem.degree
            break
        h = fm.apply_q(h)
        g = rem.gcd(h - x)
        if g.degree > 0:
            res[e] = res.get(e, 0) + g.degree
            rem = rem // g
    return res


def splitting_degree(f: FqPoly) -> int:
    """Least e with all roots of f inside F_{q^e}: lcm of factor degrees."""
    if f.is_zero():
        raise ZeroPolynomial("splitting degree of zero")
    if f.degree < 1:
        return 1
    radical = FqPoly.from_ints(f.field, [1])
    for part, _ in squarefree_factor(f):
        radical = radical * part
    profile = distinct_degree_profile(radical)
    return reduce(math.lcm, profile.keys(), 1)


def _non_residue(K: FiniteField, r: int) -> FieldElement:
    """An element of K^x that is not an r-th power (r a prime dividing
    |K| - 1), drawn from a seeded generator: about r/(r-1) draws."""
    N, one = K.order - 1, K.one()
    rng = random.Random(_stable_seed("non-residue", r, K.key()))
    while True:
        x = K.element_from_index(rng.randrange(1, K.order))
        if x ** (N // r) != one:
            return x


def _log_prime_order(base: FieldElement, x: FieldElement, r: int) -> int:
    """l < r with base^l = x, base of prime order r: baby-step giant-step."""
    step = math.isqrt(r - 1) + 1
    baby, cur = {}, base.field.one()
    for j in range(step):
        baby.setdefault(cur.coords, j)
        cur = cur * base
    giant = base ** (r - step)  # base^(-step)
    for i in range(step):
        if x.coords in baby:
            return i * step + baby[x.coords]
        x = x * giant
    raise CertificateFailed(f"no logarithm to a base of order {r}")


def _prime_root(d: FieldElement, r: int, rho: FieldElement) -> FieldElement:
    """One r-th root of the r-th power d, r prime, rho not an r-th power
    (Adleman, Manders & Miller, FOCS 1977).

    With |K| - 1 = r^s t, r coprime to t, and alpha = r^(-1) mod t, d^alpha
    is a root up to the error beta = d^(1 - r alpha), an r-th power in the
    Sylow r-subgroup.  That subgroup is cyclic, generated by c = rho^t, and
    log_c beta comes digit by digit (Pohlig-Hellman) from logarithms to the
    order-r base c^(r^(s-1)); then c^(log_c beta / r) mends the error.
    """
    t, s = d.field.order - 1, 0
    while t % r == 0:
        t, s = t // r, s + 1
    alpha = pow(r, -1, t)
    beta = d ** (1 - r * alpha)
    c = rho ** t
    base = c ** (r ** (s - 1))
    log = 0
    for i in range(1, s):  # digit 0 is 0: beta is an r-th power
        log += _log_prime_order(base, (beta * c ** -log) ** (r ** (s - 1 - i)), r) * r**i
    _certify(c**log == beta, "Sylow logarithm does not reproduce its target")
    return d**alpha * c ** (log // r)


def solve_power(a: FieldElement, n: int) -> tuple[FieldElement, FiniteField]:
    """Smallest-extension solution b of b^n = a, lexicographically least.

    Returns (b, K) with K the smallest-degree extension of a's field that
    contains such a b.  With N = |K| - 1 and g = gcd(n, N), the solutions
    are b0 mu_g for any one of them: c = a^((n/g)^(-1) mod N/g) satisfies
    c^(n/g) = a, and b0 is a g-th root of c, taken one prime r | g at a
    time by ``_prime_root`` with a non-r-th power rho_r.  The same rho_r
    give zeta = prod rho_r^(N / r^e) of order g, and the least of the g
    products b0 zeta^i is returned; g above the enumeration budget is
    refused before any is formed.  No root finding and no factorization
    of N: besides O(g + log N) products, each r-th root costs
    O(s (sqrt(r) + log N)) products, r^s the r-part of N.
    """
    if a.is_zero():
        raise ZeroBase("cannot extract a root of zero")
    if n < 1:
        raise DegreeMismatch("exponent must be positive")
    F = a.field
    q = F.order
    # b exists in F_{q^j} iff a^((q^j - 1)/gcd(n, q^j - 1)) = 1.
    for j in range(1, n + 1):
        m = q**j - 1
        g = math.gcd(n, m)
        if a ** (m // g) == F.one():
            require(f"the number of {n}-th roots of {a!r}", g)
            K = GF(F.p, F.k * j)
            ae = embed(a, K)
            b, zeta, primes = ae ** pow(n // g, -1, m // g), K.one(), _prime_divisors(g)
            for r in primes:
                rho, e = _non_residue(K, r), 0
                while g % r ** (e + 1) == 0:
                    b, e = _prime_root(b, r, rho), e + 1
                zeta = zeta * rho ** (m // r**e)
            _certify(zeta**g == K.one() and all(zeta ** (g // r) != K.one() for r in primes),
                     f"zeta does not have order {g}")
            roots = accumulate(range(g - 1), lambda x, _: x * zeta, initial=b)
            least = min(roots, key=FieldElement.sort_key)
            _certify(least**n == ae, f"x^{n} = {a!r} solved wrongly in {K!r}")
            return least, K
    # Unreachable: a root of x^n - a has degree at most n over F.
    raise CertificateFailed(f"no {n}-th root of {a!r} found within the degree bound")


# ---------------------------------------------------------------------------
# JSON forms
# ---------------------------------------------------------------------------

def field_to_json(F: FiniteField) -> dict:
    return {"p": F.p, "k": F.k, "modulus": list(F.modulus)}


def json_ints(data, what: str) -> list:
    """data if it is a list of JSON integers (not bool, float or string), else BadInput."""
    if type(data) is not list or any(type(v) is not int for v in data):
        raise BadInput(f"{what} must be JSON integers, got {data!r}")
    return data


def field_from_json(d: dict) -> FiniteField:
    p, k = json_ints([d["p"], d["k"]], "a field's p and k")
    modulus = d.get("modulus")
    return make_field(p, k, None if modulus is None else json_ints(modulus, "a field modulus"))


def element_to_json(x: FieldElement) -> list[int]:
    return list(x.coords)


def element_from_json(F: FiniteField, data) -> FieldElement:
    return F.element(data)


def poly_to_json(f: FqPoly) -> list[list[int]]:
    return [list(c.coords) for c in f.coeffs]


def poly_from_json(F: FiniteField, data) -> FqPoly:
    return FqPoly(F, [F.element(c) for c in data])
