import json
import random
import time
from fractions import Fraction
from math import gcd, inf

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from wildram.cyclotomic import (
    CyclotomicNumber,
    lambda_val,
    residue,
    s_arith,
    verify_cyclotomic_identities,
)
from wildram.errors import BadDenominator, BadResidueChoice, NotPrime, ZeroDivisor
from wildram.ff import GF
from wildram.gmlift import build_lift, orbit_search

PRIMES = (2, 3, 5, 7, 11, 13)


class FractionCyclotomic:
    """Oracle: Q(zeta_p) on Fraction coordinates, multiplied term by term."""

    def __init__(self, p, coords):
        self.p = p
        self.coords = tuple(Fraction(c) for c in coords)
        assert len(self.coords) == p - 1

    @classmethod
    def from_powers(cls, p, powers):
        # reduce zeta^p = 1 and zeta^(p-1) = -(1 + zeta + ... + zeta^(p-2))
        coords = [Fraction(0)] * (p - 1)
        for e, c in powers.items():
            e %= p
            if e < p - 1:
                coords[e] += c
            else:
                for j in range(p - 1):
                    coords[j] -= c
        return cls(p, coords)

    def _other(self, other):
        if isinstance(other, FractionCyclotomic):
            return other
        return FractionCyclotomic(self.p, [other] + [0] * (self.p - 2))

    def __add__(self, other):
        o = self._other(other)
        return FractionCyclotomic(self.p, [a + b for a, b in zip(self.coords, o.coords)])

    def __sub__(self, other):
        return self + (-self._other(other))

    def __neg__(self):
        return FractionCyclotomic(self.p, [-a for a in self.coords])

    def __mul__(self, other):
        o = self._other(other)
        prod = {}
        for i, a in enumerate(self.coords):
            for j, b in enumerate(o.coords):
                prod[i + j] = prod.get(i + j, Fraction(0)) + a * b
        return FractionCyclotomic.from_powers(self.p, prod)

    def __truediv__(self, other):
        return self * self._other(other).inverse()

    def __pow__(self, e):
        if e < 0:
            return self.inverse() ** (-e)
        out = self._other(1)
        for _ in range(e):
            out = out * self
        return out

    def conjugate(self, j):
        return FractionCyclotomic.from_powers(
            self.p, {i * j: c for i, c in enumerate(self.coords)}
        )

    def norm(self):
        out = self._other(1)
        for j in range(1, self.p):
            out = out * self.conjugate(j)
        assert not any(out.coords[1:])
        return out.coords[0]

    def inverse(self):
        others = self._other(1)
        for j in range(2, self.p):
            others = others * self.conjugate(j)
        return others * self._other(1 / (self * others).coords[0])

    def to_json(self):
        return {"p": self.p, "coords": [[c.numerator, c.denominator] for c in self.coords]}


def mixed_coords(p, rng):
    """Coordinates whose denominators are divisible by p and by other primes."""
    dens = (1, p, p * p, 6, 7 * p, 10 * p)
    return [Fraction(rng.randrange(-30, 31), rng.choice(dens)) for _ in range(p - 1)]


def vp(q, p):
    num, den, v = q.numerator, q.denominator, 0
    while num % p == 0:
        num //= p
        v += 1
    while den % p == 0:
        den //= p
        v -= 1
    return v


def random_cyclo(p, rng, ints=False):
    if ints:
        return CyclotomicNumber(p, [rng.randrange(-5, 6) for _ in range(p - 1)])
    return CyclotomicNumber(
        p, [Fraction(rng.randrange(-9, 10), rng.randrange(1, 7)) for _ in range(p - 1)]
    )


def test_basic_arithmetic():
    p = 5
    z = CyclotomicNumber.zeta(p)
    one = CyclotomicNumber.from_rational(p, 1)
    # zeta^5 = 1 and the minimal polynomial relation
    assert z**5 == one
    assert sum((z**i for i in range(5)), CyclotomicNumber.from_rational(p, 0)) == 0

    rng = random.Random(5)
    for _ in range(20):
        x = random_cyclo(p, rng)
        y = random_cyclo(p, rng)
        zc = random_cyclo(p, rng)
        assert (x + y) * zc == x * zc + y * zc
        if not x.is_zero():
            assert x * x.inverse() == one


def test_conjugates_and_norm():
    rng = random.Random(9)
    for p in (3, 5, 7):
        one = CyclotomicNumber.from_rational(p, 1)
        for _ in range(10):
            x = random_cyclo(p, rng)
            y = random_cyclo(p, rng)
            assert (x * y).norm() == x.norm() * y.norm()
        lam = CyclotomicNumber.lam(p)
        # Norm(lambda) = +- p
        assert abs(lam.norm()) == p
        assert one.norm() == 1


def test_lambda_val():
    for p in (2, 3, 5, 7, 11, 13):
        lam = CyclotomicNumber.lam(p)
        assert lambda_val(lam) == 1
        assert lambda_val(CyclotomicNumber.from_rational(p, p)) == p - 1
        if p > 2:
            assert lambda_val(CyclotomicNumber.zeta(p)) == 0
        assert lambda_val(CyclotomicNumber.from_rational(p, 0)) == inf

    # oracle: for plain integers v_lambda(n) = (p-1) * v_p(n)
    p = 5
    assert lambda_val(CyclotomicNumber.from_rational(p, 50)) == 2 * (p - 1)
    assert lambda_val(CyclotomicNumber.from_rational(p, Fraction(1, 5))) == -(p - 1)


def test_valuation_laws_random():
    rng = random.Random(31)
    p = 5
    for _ in range(30):
        x = random_cyclo(p, rng)
        y = random_cyclo(p, rng)
        if x.is_zero() or y.is_zero():
            continue
        vx, vy = lambda_val(x), lambda_val(y)
        assert lambda_val(x * y) == vx + vy
        vsum = lambda_val(x + y)
        assert vsum >= min(vx, vy)
        if vx != vy:
            assert vsum == min(vx, vy)


def test_integrality_vs_valuation():
    rng = random.Random(41)
    for _ in range(20):
        x = random_cyclo(7, rng, ints=True)
        if not x.is_zero():
            assert x.is_integral()
            assert lambda_val(x) >= 0


def test_residue():
    p = 5
    lam = CyclotomicNumber.lam(p)
    assert residue(lam) == 0
    z = CyclotomicNumber.zeta(p)
    for i in range(1, p):
        partial = sum((z**j for j in range(i)), CyclotomicNumber.from_rational(p, 0))
        assert residue(partial) == i % p

    unit = CyclotomicNumber.from_rational(p, p) / lam ** (p - 1)
    assert residue(unit) == p - 1  # Wilson: -1 mod p

    with pytest.raises(BadDenominator):
        residue(CyclotomicNumber.from_rational(p, Fraction(1, p)))


def test_residue_is_ring_hom():
    rng = random.Random(43)
    p = 7
    for _ in range(25):
        x = random_cyclo(p, rng, ints=True)
        y = random_cyclo(p, rng, ints=True)
        assert residue(x + y) == (residue(x) + residue(y)) % p
        assert residue(x * y) == (residue(x) * residue(y)) % p


def test_verify_identities_all_small_primes():
    for p in (2, 3, 5, 7, 11, 13):
        rep = verify_cyclotomic_identities(p)
        assert rep["product_identity"]
        assert rep["lambda_val_p"] == p - 1
        assert rep["wilson_residue"] == (-1) % p
    with pytest.raises(NotPrime):
        verify_cyclotomic_identities(4)


def test_p2_degenerate():
    # zeta_2 = -1, lambda = -2: everything is rational
    lam = CyclotomicNumber.lam(2)
    assert lam == CyclotomicNumber.from_rational(2, -2)
    assert lambda_val(lam) == 1
    assert residue(CyclotomicNumber.from_rational(2, -1)) == 1


def test_s_ring_arithmetic():
    R = s_arith(3, 2)
    s = R.s()
    one = R.one()
    # s^2 = 2
    assert s * s == R.scalar(2)
    # (1+s)(1-s) = 1 - s^2 = -1, a unit
    prod = (one + s) * (one - s)
    assert prod == R.scalar(-1)
    inv = R.invert(prod)
    assert inv * prod == one


def test_s_ring_zero_divisor():
    R = s_arith(3, 1)  # s^2 = 1 factors as (s-1)(s+1)
    s = R.s()
    one = R.one()
    assert (s - one) * (s + one) == R.zero()
    with pytest.raises(ZeroDivisor) as ei:
        R.invert(s - one)
    assert ei.value.factor is not None


def test_s_ring_residue():
    R = s_arith(3, 1)
    F3 = GF(3)
    sbar = F3.one()
    s = R.s()
    assert R.residue_s(s * s, sbar) == F3.one()
    with pytest.raises(BadResidueChoice):
        R.residue_s(s, F3.from_int(0))

    # residue through an extension: sbar in F_9 with sbar^2 = 2
    R2 = s_arith(3, 2)
    F9 = GF(3, 2)
    roots = [e for e in F9.elements() if e * e == F9.from_int(2)]
    assert roots
    sbar9 = roots[0]
    assert R2.residue_s(R2.s() * R2.s(), sbar9) == F9.from_int(2)


def test_s_ring_p2():
    R = s_arith(2, 3)
    s = R.s()
    assert s == R.scalar(3)
    assert (s * s) == R.scalar(9)


@pytest.mark.parametrize("p", PRIMES)
def test_specialize_is_the_ring_map_from_free_s(p):
    # s^e -> a^(e div (p-1)) s^(e mod (p-1)); at p = 2 the image of s is s() = a
    rng = random.Random(p)
    for a in (1, -1, p + 1, 2 * p - 1):
        R = s_arith(p, a)
        assert R.specialize([0, 1]) == R.s()
        assert R.specialize([0] * (p - 1) + [1]) == R.scalar(a)
        f, g = ([CyclotomicNumber(p, [rng.randrange(-3, 4) for _ in range(p - 1)])
                 for _ in range(rng.randrange(1, 2 * p))] for _ in range(2))
        product = [sum((f[i] * g[e - i] for i in range(len(f)) if 0 <= e - i < len(g)),
                       CyclotomicNumber.from_rational(p, 0))
                   for e in range(len(f) + len(g) - 1)]
        assert R.specialize(product) == R.specialize(f) * R.specialize(g)


def test_json_roundtrip():
    x = CyclotomicNumber(5, [Fraction(1, 2), 3, 0, Fraction(-7, 3)])
    assert CyclotomicNumber.from_json(x.to_json()) == x


@pytest.mark.parametrize("p", PRIMES)
def test_packed_kernel_matches_fraction_oracle(p):
    rng = random.Random(1000 + p)
    for _ in range(6):
        cx, cy = mixed_coords(p, rng), mixed_coords(p, rng)
        x, y = CyclotomicNumber(p, cx), CyclotomicNumber(p, cy)
        ox, oy = FractionCyclotomic(p, cx), FractionCyclotomic(p, cy)
        q = Fraction(rng.randrange(1, 9), p * rng.randrange(1, 4))
        pairs = [
            (x + y, ox + oy),
            (x - y, ox - oy),
            (-x, -ox),
            (x * y, ox * oy),
            (x * q, ox * q),
            (x + q, ox + q),
            (x**3, ox**3),
            (x**0, ox**0),
        ]
        pairs += [(x.conjugate(j), ox.conjugate(j)) for j in range(1, p)]
        with pytest.raises(ValueError):
            x.conjugate(p)  # zeta -> 1 is not an automorphism
        if not y.is_zero():
            pairs += [(x / y, ox / oy), (y.inverse(), oy.inverse()), (y**-2, oy**-2)]
            assert y.norm() == oy.norm()
        for got, want in pairs:
            assert got.coords == want.coords
            assert json.dumps(got.to_json()) == json.dumps(want.to_json())
            assert got.den > 0 and gcd(got.den, *got.num) == 1


@st.composite
def valued_elements(draw):
    """(p, coords, k): an element of Q(zeta_p) times lambda^k."""
    p = draw(st.sampled_from(PRIMES))
    coord = st.builds(
        lambda n, e, d: Fraction(n * p**e, d),
        st.integers(-50, 50),
        st.integers(0, 3),
        st.sampled_from((1, 2, 3, p, p * p, 6 * p)),
    )
    coords = draw(st.lists(coord, min_size=p - 1, max_size=p - 1))
    return p, coords, draw(st.integers(-2 * (p - 1), 3 * (p - 1)))


@settings(max_examples=150, deadline=None)
@given(valued_elements())
def test_lambda_val_is_vp_of_the_norm(case):
    p, coords, k = case
    x = CyclotomicNumber(p, coords) * CyclotomicNumber.lam(p) ** k
    assume(not x.is_zero())
    assert lambda_val(x) == vp(x.norm(), p)


@pytest.mark.parametrize("p", PRIMES)
def test_equal_values_hash_equal_whatever_the_route(p):
    rng = random.Random(2000 + p)
    cs = mixed_coords(p, rng)
    while not any(cs):
        cs = mixed_coords(p, rng)
    x = CyclotomicNumber(p, cs)
    y = CyclotomicNumber(p, mixed_coords(p, rng)) + CyclotomicNumber.zeta(p)
    common = 6 * p * p * 210
    routes = [
        CyclotomicNumber(p, [Fraction(c * common) / common for c in cs]),
        CyclotomicNumber(p, [c.numerator if c.denominator == 1 else c for c in cs]),
        CyclotomicNumber.from_json(
            {"p": p, "coords": [[c.numerator * 6, c.denominator * 6] for c in cs]}
        ),
        CyclotomicNumber.from_json(json.loads(json.dumps(x.to_json()))),
        (x * 6 + x) / 7,
        (x + y) - y,
        x * y / y,
        x.conjugate(p - 1).conjugate(p - 1) if p > 2 else x,
    ]
    seen = {x: "x"}
    for z in routes:
        assert z == x and hash(z) == hash(x)
        assert seen[z] == "x"
    assert x * 0 == 0 and hash(x * 0) == hash(CyclotomicNumber.from_rational(p, 0))
    r = CyclotomicNumber.from_rational(p, Fraction(3, 2 * p))
    assert r == Fraction(3, 2 * p) and r * (2 * p) == 3


def test_orbit_search_p11_is_fast():
    t0 = time.perf_counter()
    cert = orbit_search(build_lift(11, a=1), 6)
    assert time.perf_counter() - t0 < 1.0
    # the answer the Fraction implementation gave (in about 6.5 s)
    assert cert.verdict == "escape" and cert.threshold_index == 0
    assert cert.valuations == (-11, -121, -1331, -14641)
