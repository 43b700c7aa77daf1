"""Exact arithmetic in Q(zeta_p) and in the s-rings Q(zeta_p)[s]/(s^(p-1) - a).

Elements of Q(zeta_p) are stored on the power basis 1, zeta, ..., zeta^(p-2)
as integer numerators over one positive common denominator, kept canonical
(the gcd of the denominator and all numerators is 1).  Equality and hashing
compare integer tuples; a product is one integer cyclic convolution modulo
zeta^p - 1, one fold by the p-th cyclotomic polynomial and one gcd.
``coords`` gives the same coordinates as a tuple of Fractions.

The valuation at the totally ramified prime above p is normalized so that
v(lambda) = 1 for lambda = zeta - 1, hence v(p) = p - 1.  It is read off the
lambda-adic digits: 1, lambda, ..., lambda^(p-2) is an integral basis of
Z_p[zeta_p], and the valuations (p-1) v_p(b) + j of the terms b lambda^j are
pairwise distinct, so the smallest of them is the valuation of the sum.
``norm`` (the product of the Galois conjugates) is kept as its oracle.

p = 2 degenerates gracefully: zeta_2 = -1, lambda = -2, and everything
collapses to plain rational arithmetic.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, gcd, inf, lcm
from operator import add, mul, sub

from . import _poly
from .errors import (
    BadDenominator,
    BadResidueChoice,
    NegativeValuation,
    NotPrime,
    ZeroDivisor,
    _certify,
)
from .ff import FieldElement, is_prime, require

INFINITE = inf  # valuation of zero

_setattr = object.__setattr__


def check_cyclotomic_budget(p: int) -> None:
    """Refuse Q(zeta_p) work beyond the budget before any of it starts.

    A product in Q(zeta_p)[s]/(s^(p-1) - a), the step of the lift, its
    orbits and the scaling check, is (p-1)^2 products in Q(zeta_p) of
    (p-1)^2 integer products each: (p-1)^4 is the size checked.
    """
    require(f"Q(zeta_{p}) arithmetic of size (p-1)^4", (p - 1) ** 4)


class CyclotomicNumber:
    """Element of Q(zeta_p): sum of (num[i]/den) zeta^i for i = 0..p-2.

    ``num`` is a tuple of ints and ``den`` a positive int with
    gcd(den, *num) = 1, so equal elements have equal ``num`` and ``den``.
    """

    __slots__ = ("p", "num", "den")

    def __init__(self, p: int, coords):
        cs = [Fraction(c) for c in coords]
        if len(cs) != p - 1:
            raise ValueError(f"need {p - 1} coordinates for Q(zeta_{p})")
        # the lcm of reduced denominators is already canonical
        den = lcm(*(c.denominator for c in cs))
        _setattr(self, "p", p)
        _setattr(self, "num", tuple(c.numerator * (den // c.denominator) for c in cs))
        _setattr(self, "den", den)

    def __setattr__(self, name, value):
        raise AttributeError("CyclotomicNumber is immutable")

    @property
    def coords(self) -> tuple[Fraction, ...]:
        """Power-basis coordinates c_0..c_(p-2) as Fractions."""
        den = self.den
        return tuple(Fraction(c, den) for c in self.num)

    # -- constructors ---------------------------------------------------------

    @classmethod
    def from_rational(cls, p: int, value) -> CyclotomicNumber:
        if type(value) is int:
            return _raw(p, (value,) + (0,) * (p - 2), 1)
        q = Fraction(value)
        return _raw(p, (q.numerator,) + (0,) * (p - 2), q.denominator)

    @classmethod
    def zeta(cls, p: int, i: int = 1) -> CyclotomicNumber:
        i %= p
        if i == p - 1:  # zeta^(p-1) = -(1 + zeta + ... + zeta^(p-2))
            return _raw(p, (-1,) * (p - 1), 1)
        return _raw(p, tuple(int(j == i) for j in range(p - 1)), 1)

    @classmethod
    def lam(cls, p: int) -> CyclotomicNumber:
        """lambda = zeta_p - 1, the uniformizer above p."""
        return cls.zeta(p) - cls.from_rational(p, 1)

    # -- arithmetic -----------------------------------------------------------

    def _check(self, other) -> CyclotomicNumber:
        if isinstance(other, CyclotomicNumber):
            if other.p != self.p:
                raise ValueError("mixed cyclotomic fields")
            return other
        return CyclotomicNumber.from_rational(self.p, other)

    def __add__(self, other):
        return _add_sub(self, self._check(other), add)

    __radd__ = __add__

    def __sub__(self, other):
        return _add_sub(self, self._check(other), sub)

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return _raw(self.p, tuple(-c for c in self.num), self.den)

    def __mul__(self, other):
        o = self._check(other)
        return _canon(self.p, _convolve(self.p, self.num, o.num), self.den * o.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._check(other)
        return self * o.inverse()

    def __rtruediv__(self, other):
        return self._check(other) * self.inverse()

    def __pow__(self, e: int):
        if e < 0:
            return self.inverse() ** (-e)
        out = CyclotomicNumber.from_rational(self.p, 1)
        base = self
        while e:
            if e & 1:
                out = out * base
            e >>= 1
            if e:
                base = base * base
        return out

    def inverse(self) -> CyclotomicNumber:
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero")
        p, num = self.p, self.num
        # x = N/den with N integral: 1/x = den * (other conjugates of N) / Norm(N)
        others = (1,) + (0,) * (p - 2)
        for j in range(2, p):
            others = _convolve(p, others, _permute(p, num, j))
        norm = _convolve(p, num, others)
        _certify(not any(norm[1:]), "the norm of an element is not rational")
        n = norm[0]
        scale = self.den if n > 0 else -self.den
        return _canon(p, [c * scale for c in others], abs(n))

    def conjugate(self, j: int) -> CyclotomicNumber:
        """Galois conjugate zeta -> zeta^j for j prime to p."""
        if j % self.p == 0:
            raise ValueError(f"zeta -> zeta^{j} is not an automorphism of Q(zeta_{self.p})")
        # an automorphism keeps the least common denominator: no gcd needed
        return _raw(self.p, _permute(self.p, self.num, j), self.den)

    def norm(self) -> Fraction:
        """Product of all p-1 Galois conjugates; an exact rational."""
        out = CyclotomicNumber.from_rational(self.p, 1)
        for j in range(1, self.p):
            out = out * self.conjugate(j)
        _certify(out.is_rational(), "the norm of an element is not rational")
        return out.coords[0]

    def is_zero(self) -> bool:
        return not any(self.num)

    def is_rational(self) -> bool:
        return not any(self.num[1:])

    def is_integral(self) -> bool:
        """All power-basis coordinates integral (Z[zeta_p] is the maximal order)."""
        return self.den == 1

    def __bool__(self):
        return any(self.num)

    def __eq__(self, other):
        if isinstance(other, CyclotomicNumber):
            return other.p == self.p and other.den == self.den and other.num == self.num
        if isinstance(other, (int, Fraction)):
            return self.is_rational() and Fraction(self.num[0], self.den) == other
        return False

    def __hash__(self):
        return hash((self.p, self.num, self.den))

    def __repr__(self):
        terms = []
        for i, c in enumerate(self.coords):
            if c:
                terms.append(f"{c}*z^{i}" if i else f"{c}")
        return "Cyc(" + (" + ".join(terms) if terms else "0") + f"; p={self.p})"

    def to_json(self):
        return {
            "p": self.p,
            "coords": [[c.numerator, c.denominator] for c in self.coords],
        }

    @classmethod
    def from_json(cls, d) -> CyclotomicNumber:
        return cls(int(d["p"]), [Fraction(n, m) for n, m in d["coords"]])


def _raw(p: int, num: tuple, den: int) -> CyclotomicNumber:
    """An element from numerators and a denominator already in canonical form."""
    x = object.__new__(CyclotomicNumber)
    _setattr(x, "p", p)
    _setattr(x, "num", num)
    _setattr(x, "den", den)
    return x


def _canon(p: int, num, den: int) -> CyclotomicNumber:
    """An element from integer numerators over den > 0, divided by their gcd."""
    if den != 1:
        g = gcd(den, *num)
        if g != 1:
            return _raw(p, tuple(c // g for c in num), den // g)
    return _raw(p, tuple(num), den)


def _add_sub(x: CyclotomicNumber, y: CyclotomicNumber, op) -> CyclotomicNumber:
    d, e = x.den, y.den
    if d == e:
        return _canon(x.p, tuple(map(op, x.num, y.num)), d)
    g = gcd(d, e)
    sx, sy = e // g, d // g
    return _canon(x.p, [op(a * sx, b * sy) for a, b in zip(x.num, y.num)], d * sx)


def _convolve(p: int, a: tuple, b: tuple) -> list:
    """Numerators of a * b: cyclic convolution mod zeta^p - 1, folded by Phi_p.

    With B = b padded by a zero to length p, the zeta^k coefficient of the
    cyclic product is sum_i a_i B[(k - i) mod p]; the reversed, doubled B
    turns each of these into one slice.
    """
    rb = [0, *reversed(b)] * 2
    c = [sum(map(mul, a, rb[s:s + p - 1])) for s in range(p - 1, -1, -1)]
    top = c[p - 1]  # zeta^(p-1) = -(1 + zeta + ... + zeta^(p-2))
    return [x - top for x in c[:p - 1]]


def _permute(p: int, num: tuple, j: int) -> tuple:
    """Numerators of the conjugate zeta -> zeta^j (j prime to p)."""
    v = [0] * p
    for i, c in enumerate(num):
        v[i * j % p] = c
    top = v[p - 1]
    return tuple(x - top for x in v[:p - 1])


@lru_cache(maxsize=None)
def _digit_rows(p: int) -> tuple:
    """Row j holds C(i, j) for i = 0..p-2: zeta^i = sum_j C(i, j) lambda^j."""
    return tuple(tuple(comb(i, j) for i in range(p - 1)) for j in range(p - 1))


def _ord(n: int, p: int) -> int:
    """p-adic valuation of a nonzero integer."""
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def lambda_val(x: CyclotomicNumber) -> int | float:
    """Valuation at the prime above p, normalized with v(lambda) = 1.

    With b_j = sum_i C(i, j) num_i the lambda-adic digits of the numerator
    (its coordinates on the integral basis 1, lambda, ..., lambda^(p-2)),
    v(x) = min_j ((p-1) v_p(b_j) + j) - (p-1) v_p(den): the candidates are
    pairwise distinct mod p - 1, so the minimum is attained.  O(p^2)
    integer operations, against the O(p^3) products of taking the norm.
    """
    if x.is_zero():
        return INFINITE
    p, num = x.p, x.num
    best = INFINITE
    for j, row in enumerate(_digit_rows(p)):
        b = sum(map(mul, row, num))
        if b:
            best = min(best, (p - 1) * _ord(b, p) + j)
    return best - (p - 1) * _ord(x.den, p)


def residue(x: CyclotomicNumber) -> int:
    """Image in the residue field F_p (as an int in [0, p)): zeta -> 1, mod p."""
    if x.den % x.p == 0:
        raise BadDenominator("a coordinate denominator is divisible by p")
    if lambda_val(x) < 0:
        raise NegativeValuation("element has a pole above p")
    return sum(x.num) * pow(x.den, -1, x.p) % x.p


def verify_cyclotomic_identities(p: int) -> dict:
    """Exact checks: prod(1 - zeta^i) = p, v(p) = p-1, Wilson residue, digits.

    Returns a report dict; raises CertificateFailed on any failure (also
    under ``python -O``), NotPrime for composite p and BudgetExceeded
    beyond ``check_cyclotomic_budget``.
    """
    if not is_prime(p):
        raise NotPrime(f"{p} is not prime")
    check_cyclotomic_budget(p)
    one = CyclotomicNumber.from_rational(p, 1)
    zeta = CyclotomicNumber.zeta(p)
    prod = one
    for i in range(1, p):
        prod = prod * (one - zeta**i)
    _certify(prod == p, f"prod(1 - zeta^i) = {prod!r} != {p}")

    lam = CyclotomicNumber.lam(p)
    _certify(lambda_val(lam) == 1, "v(lambda) != 1")
    _certify(lambda_val(CyclotomicNumber.from_rational(p, p)) == p - 1, "v(p) != p - 1")
    _certify(lambda_val(zeta) == 0, "v(zeta) != 0")

    unit = CyclotomicNumber.from_rational(p, p) / lam ** (p - 1)
    wilson = residue(unit)
    _certify(wilson == (-1) % p, f"residue(p/lambda^(p-1)) = {wilson}")

    digit_checks = []
    for i in range(1, p):
        partial = sum((zeta**j for j in range(i)), CyclotomicNumber.from_rational(p, 0))
        r = residue(partial)
        _certify(r == i % p, f"residue(1 + ... + zeta^{i - 1}) = {r} != {i % p}")
        digit_checks.append(r)

    return {
        "p": p,
        "product_identity": True,
        "lambda_val_p": p - 1,
        "wilson_residue": wilson,
        "digit_residues": digit_checks,
    }


class SRingElement:
    """Element of Q(zeta_p)[s]/(s^(p-1) - a): coefficients by power of s."""

    __slots__ = ("ring", "coeffs")

    def __init__(self, ring: SRing, coeffs):
        p = ring.p
        cs = list(coeffs)
        for i, c in enumerate(cs):
            if not isinstance(c, CyclotomicNumber):
                cs[i] = CyclotomicNumber.from_rational(p, c)
        if len(cs) != p - 1:
            raise ValueError(f"need {p - 1} s-coefficients")
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("SRingElement is immutable")

    def _check(self, other) -> SRingElement:
        if isinstance(other, SRingElement):
            if other.ring is not self.ring and other.ring.key() != self.ring.key():
                raise ValueError("mixed s-rings")
            return other
        return self.ring.scalar(other)

    def __add__(self, other):
        o = self._check(other)
        return SRingElement(self.ring, [a + b for a, b in zip(self.coeffs, o.coeffs)])

    __radd__ = __add__

    def __sub__(self, other):
        o = self._check(other)
        return SRingElement(self.ring, [a - b for a, b in zip(self.coeffs, o.coeffs)])

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return SRingElement(self.ring, [-a for a in self.coeffs])

    def __mul__(self, other):
        o = self._check(other)
        n = self.ring.p - 1
        a = self.ring.a_cyclo
        out = [CyclotomicNumber.from_rational(self.ring.p, 0)] * n
        for i, x in enumerate(self.coeffs):
            if x.is_zero():
                continue
            for j, y in enumerate(o.coeffs):
                if not y.is_zero():
                    e = i + j
                    term = x * y
                    if e >= n:
                        e -= n
                        term = term * a
                    out[e] = out[e] + term
        return SRingElement(self.ring, out)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._check(other)
        return self * self.ring.invert(o)

    def __pow__(self, e: int):
        out = self.ring.one()
        base = self
        if e < 0:
            base = self.ring.invert(self)
            e = -e
        while e:
            if e & 1:
                out = out * base
            base = base * base
            e >>= 1
        return out

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.coeffs)

    def __bool__(self):
        return not self.is_zero()

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, CyclotomicNumber)):
            other = self.ring.scalar(other)
        return (
            isinstance(other, SRingElement)
            and other.ring.key() == self.ring.key()
            and other.coeffs == self.coeffs
        )

    def __hash__(self):
        return hash((self.ring.key(), self.coeffs))

    def gauss_val(self) -> int | float:
        """min over s-coefficients of the lambda-adic valuation (s is a unit)."""
        return min((lambda_val(c) for c in self.coeffs), default=INFINITE)

    def __repr__(self):
        return f"SRing({[repr(c) for c in self.coeffs]})"

    def to_json(self):
        return {"a": self.ring.a, "coeffs": [c.to_json() for c in self.coeffs]}


class SRing:
    """Arithmetic handle for Q(zeta_p)[s]/(s^(p-1) - a), a a p-unit integer.

    The relation need not be irreducible; division detects zero divisors
    and reports the offending factor of s^(p-1) - a.
    """

    def __init__(self, p: int, a: int):
        if not is_prime(p):
            raise NotPrime(f"{p} is not prime")
        if a == 0:
            raise BadResidueChoice("parameter a must be nonzero")
        if a % p == 0 and p != 2:
            # the coefficient-min valuation on formal s assumes v(s) = 0;
            # only the degenerate p = 2 ring (s literal) tolerates p | a
            raise BadResidueChoice(f"parameter a = {a} must be prime to {p}")
        self.p = p
        self.a = a
        self.a_cyclo = CyclotomicNumber.from_rational(p, a)

    def key(self):
        return (self.p, self.a)

    def zero(self) -> SRingElement:
        return self.scalar(0)

    def one(self) -> SRingElement:
        return self.scalar(1)

    def scalar(self, c) -> SRingElement:
        if not isinstance(c, CyclotomicNumber):
            c = CyclotomicNumber.from_rational(self.p, c)
        pad = [CyclotomicNumber.from_rational(self.p, 0)] * (self.p - 2)
        return SRingElement(self, [c] + pad)

    def s(self) -> SRingElement:
        if self.p == 2:
            # s^1 = a: s is the rational a itself
            return self.scalar(self.a)
        coeffs = [CyclotomicNumber.from_rational(self.p, 0)] * (self.p - 1)
        coeffs[1] = CyclotomicNumber.from_rational(self.p, 1)
        return SRingElement(self, coeffs)

    def invert(self, x: SRingElement) -> SRingElement:
        """Inverse via extended Euclid against s^(p-1) - a; ZeroDivisor if stuck."""
        if x.is_zero():
            raise ZeroDivisor("inversion of zero", factor=self.modulus_coeffs())
        n = self.p - 1
        inv = CyclotomicNumber.inverse
        # polynomials in s over Q(zeta_p): t_i x = r_i modulo s^(p-1) - a
        r0, r1 = list(self.modulus_coeffs()), _poly.trim(x.coeffs)
        t0, t1 = [], [CyclotomicNumber.from_rational(self.p, 1)]
        while r1:
            q, r = _poly.divmod(r0, r1, inv)
            t0, t1 = t1, _poly.sub(t0, _poly.mul(q, t1))
            r0, r1 = r1, r
        if len(r0) != 1:
            raise ZeroDivisor(
                "relation s^(p-1) - a is reducible; hit a zero divisor",
                factor=tuple(r0),
            )
        t0 = _poly.scale(t0, r0[0].inverse())
        zero = CyclotomicNumber.from_rational(self.p, 0)
        return SRingElement(self, t0 + [zero] * (n - len(t0)))

    def modulus_coeffs(self):
        n = self.p - 1
        out = [CyclotomicNumber.from_rational(self.p, -self.a)]
        out += [CyclotomicNumber.from_rational(self.p, 0)] * (n - 1)
        out.append(CyclotomicNumber.from_rational(self.p, 1))
        return tuple(out)

    def residue_s(self, x: SRingElement, sbar: FieldElement) -> FieldElement:
        """Reduce coefficient-wise (zeta -> 1, mod p) and substitute s -> sbar.

        sbar must satisfy sbar^(p-1) = a mod p inside its own field.
        """
        K = sbar.field
        if K.p != self.p:
            raise BadResidueChoice("sbar lives in the wrong characteristic")
        if self.a % self.p == 0:
            raise BadResidueChoice("reduction needs p not dividing a")
        target = K.from_int(self.a % self.p)
        if sbar ** (self.p - 1) != target:
            raise BadResidueChoice(
                f"sbar^(p-1) != {self.a} mod {self.p} in {K!r}"
            )
        acc = K.zero()
        power = K.one()
        for i, c in enumerate(x.coeffs):
            if i > 0:
                power = power * sbar
            acc = acc + K.from_int(residue(c)) * power
        return acc


def s_arith(p: int, a: int) -> SRing:
    """Ring handle for Q(zeta_p)[s]/(s^(p-1) - a) with p not dividing a."""
    return SRing(p, a)
