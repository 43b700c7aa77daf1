"""Exact coefficient domains for the dynamics layer.

Rational-map code is generic over a small interface: ring/field operations
come from the element objects themselves (all support the arithmetic
operators), and the domain object supplies construction, comparison keys,
squarefree factorization, and root extraction in extensions.  Finite
fields extend themselves as needed; the characteristic-zero domains only
extract roots they can represent (rational, respectively linear-factor)
and fail loudly otherwise.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from . import _poly
from . import ff as _ff
from .cyclotomic import CyclotomicNumber
from .errors import BadInput, UnsupportedExtension, ZeroPolynomial
from .ff import GF, FiniteField, FqPoly, embed, json_ints


class FiniteFieldDomain:
    """Coefficient domain wrapping a FiniteField."""

    kind = "finite_field"

    def __init__(self, field: FiniteField):
        self.field = field

    @property
    def characteristic(self) -> int:
        return self.field.p

    def key(self):
        return ("ff", self.field.key())

    def __eq__(self, other):
        return isinstance(other, FiniteFieldDomain) and other.field == self.field

    def __hash__(self):
        return hash(self.key())

    def __repr__(self):
        return f"Domain({self.field!r})"

    def zero(self):
        return self.field.zero()

    def one(self):
        return self.field.one()

    def from_int(self, n: int):
        return self.field.from_int(n)

    def inv(self, x):
        return x.inverse()

    def sort_key(self, x):
        return x.sort_key()

    def fmt(self, x) -> str:
        return str(list(x.coords))

    def coeff_to_json(self, x):
        return list(x.coords)

    def squarefree(self, coeffs) -> list[tuple[list, int]]:
        f = FqPoly(self.field, coeffs)
        return [(list(g.coeffs), m) for g, m in _ff.squarefree_factor(f)]

    def splitting_roots(self, coeffs):
        """All roots with multiplicity, in a large enough extension.

        Returns (new_domain, transfer, [(root, mult)]).
        """
        f = FqPoly(self.field, coeffs)
        if f.is_zero():
            raise ZeroPolynomial("roots of zero")
        d = _ff.splitting_degree(f)
        K = self.field if d == 1 else GF(self.field.p, self.field.k * d)
        dom = self if K == self.field else FiniteFieldDomain(K)
        roots = _ff.roots_in(f, K)
        return dom, (lambda x: embed(x, K)), roots

    def to_json(self):
        return {"kind": self.kind, **_ff.field_to_json(self.field)}


def _char0_squarefree(coeffs, domain) -> list[tuple[list, int]]:
    """Yun-style squarefree decomposition in characteristic zero."""
    inv = domain.inv
    f = _poly.trim(coeffs)
    f = _poly.scale(f, inv(f[-1]))
    out = []
    g = _poly.gcd(f, _poly.deriv(f), inv)
    w = _poly.divmod(f, g, inv)[0]
    i = 1
    while len(w) > 1:
        y = _poly.gcd(w, g, inv)
        fac = _poly.divmod(w, y, inv)[0]
        if len(fac) > 1:
            out.append((fac, i))
        w = y
        g = _poly.divmod(g, y, inv)[0]
        i += 1
    return out


def _rational_roots(coeffs) -> tuple[list[tuple[Fraction, int]], list]:
    """Rational roots with multiplicity, plus the unsplit cofactor."""
    f = _poly.trim([Fraction(c) for c in coeffs])
    roots: list[tuple[Fraction, int]] = []
    zmult = 0
    while f and f[0] == 0:
        f = f[1:]
        zmult += 1
    if zmult:
        roots.append((Fraction(0), zmult))
    if len(f) <= 1:
        return roots, f
    # primitive integer model for the root candidates
    den = lcm(*(c.denominator for c in f))
    ints = [int(c * den) for c in f]
    g = gcd(*ints)
    ints = [c // g for c in ints]
    cands = set()
    for pnum in _divisors(abs(ints[0])):
        for pden in _divisors(abs(ints[-1])):
            cands.add(Fraction(pnum, pden))
            cands.add(Fraction(-pnum, pden))
    work = f
    for r in sorted(cands):
        mult = 0
        while len(work) > 1:
            quot, rem = _poly.divmod(work, [-r, Fraction(1)], RationalDomain.inv)
            if rem:
                break
            work = quot
            mult += 1
        if mult:
            roots.append((r, mult))
    return roots, work


def _divisors(n):
    if n == 0:
        return [1]
    out = []
    d = 1
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            out.append(n // d)
        d += 1
    return sorted(set(out))


class RationalDomain:
    """Exact rational numbers (Fraction)."""

    kind = "rationals"
    characteristic = 0

    def key(self):
        return ("Q",)

    def __eq__(self, other):
        return isinstance(other, RationalDomain)

    def __hash__(self):
        return hash(self.key())

    def __repr__(self):
        return "Domain(Q)"

    def zero(self):
        return Fraction(0)

    def one(self):
        return Fraction(1)

    def from_int(self, n):
        return Fraction(n)

    @staticmethod
    def inv(x):
        return Fraction(1) / x

    def sort_key(self, x):
        return (float(x), x.numerator, x.denominator)

    def fmt(self, x) -> str:
        return str(x)

    def coeff_to_json(self, x):
        return [x.numerator, x.denominator]

    def squarefree(self, coeffs):
        return _char0_squarefree([Fraction(c) for c in coeffs], self)

    def splitting_roots(self, coeffs):
        roots, cofactor = _rational_roots(coeffs)
        if len(cofactor) > 1:
            raise UnsupportedExtension(
                "irrational roots required; rational domain cannot extend"
            )
        return self, (lambda x: x), roots

    def to_json(self):
        return {"kind": self.kind}


class CyclotomicDomain:
    """The field Q(zeta_p) with exact coordinates."""

    kind = "cyclotomic"
    characteristic = 0

    def __init__(self, p: int):
        self.p = p

    def key(self):
        return ("cyclo", self.p)

    def __eq__(self, other):
        return isinstance(other, CyclotomicDomain) and other.p == self.p

    def __hash__(self):
        return hash(self.key())

    def __repr__(self):
        return f"Domain(Q(zeta_{self.p}))"

    def zero(self):
        return CyclotomicNumber.from_rational(self.p, 0)

    def one(self):
        return CyclotomicNumber.from_rational(self.p, 1)

    def from_int(self, n):
        return CyclotomicNumber.from_rational(self.p, n)

    def inv(self, x):
        return x.inverse()

    def sort_key(self, x):
        return tuple((c.numerator, c.denominator) for c in x.coords)

    def fmt(self, x) -> str:
        return repr(x)

    def coeff_to_json(self, x):
        return [[c.numerator, c.denominator] for c in x.coords]

    def squarefree(self, coeffs):
        return _char0_squarefree(list(coeffs), self)

    def splitting_roots(self, coeffs):
        # only roots visible without extending: z-powers and linear factors
        roots = []
        parts = self.squarefree(coeffs)
        for part, mult in parts:
            work = list(part)
            while len(work) > 1 and work[0].is_zero():
                roots.append((self.zero(), mult))
                work = work[1:]
            if len(work) == 2:
                roots.append((-work[0] / work[1], mult))
            elif len(work) > 2:
                raise UnsupportedExtension(
                    "nonlinear factor over Q(zeta_p); extension not modeled"
                )
        return self, (lambda x: x), roots

    def to_json(self):
        return {"kind": self.kind, "p": self.p}


def domain_from_json(d) -> FiniteFieldDomain | RationalDomain | CyclotomicDomain:
    kind = d.get("kind", "finite_field")
    if kind == "finite_field":
        return FiniteFieldDomain(_ff.field_from_json(d))
    if kind == "rationals":
        return RationalDomain()
    if kind == "cyclotomic":
        return CyclotomicDomain(*json_ints([d["p"]], "the cyclotomic domain's p"))
    raise ValueError(f"unknown domain kind {kind!r}")


def _json_fraction(pair) -> Fraction:
    n, d = json_ints(pair, "a fraction [numerator, denominator]")
    if d == 0:
        raise BadInput(f"zero denominator in {pair!r}")
    return Fraction(n, d)


def coeff_from_json(domain, data):
    if isinstance(domain, FiniteFieldDomain):
        return domain.field.element(json_ints(data, "a coordinate vector"))
    if isinstance(domain, RationalDomain):
        return _json_fraction(data)
    if isinstance(domain, CyclotomicDomain):
        return CyclotomicNumber(domain.p, [_json_fraction(c) for c in data])
    raise ValueError("unknown domain")
