"""The dense polynomial kernel and the root splitter against independent oracles.

Over Q the oracle is sympy's dense arithmetic over QQ, over F_p its
galoistools; the s-ring inverse is checked by multiplying back, and the
Cantor-Zassenhaus splitter by scanning the field.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from test_ff import ROUTE_GRID, planted_poly
from wildram import _poly, ff
from wildram.cyclotomic import CyclotomicNumber, SRing, SRingElement
from wildram.domains import RationalDomain
from wildram.ff import GF, FqPoly, squarefree_factor

sympy = pytest.importorskip("sympy")
from sympy.polys.domains import QQ, ZZ  # noqa: E402
from sympy.polys.galoistools import gf_div, gf_gcd, gf_sqf_list  # noqa: E402

X = sympy.symbols("x")
INV_Q = RationalDomain.inv

# -- over Q -----------------------------------------------------------------

coeff_q = st.fractions(min_value=-6, max_value=6, max_denominator=5)
poly_q = st.lists(coeff_q, max_size=7).map(_poly.trim)
nonzero_q = poly_q.filter(bool)


def to_qq(a):
    return sympy.Poly(list(reversed(a)) or [0], X, domain=QQ)


def from_qq(P):
    cs = reversed(P.all_coeffs())
    return _poly.trim(Fraction(int(c.numerator), int(c.denominator)) for c in cs)


@settings(max_examples=80, deadline=None)
@given(poly_q, nonzero_q)
def test_divmod_over_q_matches_sympy(a, b):
    q, r = _poly.divmod(a, b, INV_Q)
    sq, sr = to_qq(a).div(to_qq(b))
    assert (q, r) == (from_qq(sq), from_qq(sr))


@settings(max_examples=80, deadline=None)
@given(poly_q, poly_q, poly_q)
def test_monic_gcd_over_q_matches_sympy(a, b, c):
    a, b = _poly.mul(a, c), _poly.mul(b, c)  # a common factor most of the time
    assert _poly.gcd(a, b, INV_Q) == from_qq(to_qq(a).gcd(to_qq(b)))


@settings(max_examples=60, deadline=None)
@given(poly_q, st.integers(1, 5))
def test_pow_over_q_matches_sympy(a, e):
    assert _poly.pow(a, e) == from_qq(to_qq(a) ** e)


@settings(max_examples=60, deadline=None)
@given(st.lists(coeff_q, max_size=4).map(_poly.trim), st.lists(coeff_q, max_size=3).map(_poly.trim))
def test_compose_over_q_matches_sympy(a, b):
    assert _poly.compose(a, b) == from_qq(to_qq(a).compose(to_qq(b)))


factor_q = st.lists(coeff_q, min_size=2, max_size=3).map(_poly.trim).filter(lambda f: len(f) > 1)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(factor_q, st.integers(1, 3)), min_size=1, max_size=3))
def test_rational_squarefree_matches_sympy(parts):
    f = [Fraction(1)]
    for g, e in parts:
        f = _poly.mul(f, _poly.pow(g, e))
    ours = sorted((tuple(g), m) for g, m in RationalDomain().squarefree(f))
    _, factors = to_qq(f).sqf_list()
    theirs = sorted((tuple(from_qq(P.monic())), m) for P, m in factors)
    assert ours == theirs


# -- over GF(p) ---------------------------------------------------------------

PRIMES_GF = [2, 3, 5, 7]


@st.composite
def fp_polys(draw, min_degree=-1, max_degree=8):
    p = draw(st.sampled_from(PRIMES_GF))
    n = draw(st.integers(min_degree + 1, max_degree + 1))
    cs = draw(st.lists(st.integers(0, p - 1), min_size=n, max_size=n))
    if min_degree >= 0:
        cs[-1] = draw(st.integers(1, p - 1))
    return p, cs


def fq(p, ints):
    return FqPoly.from_ints(GF(p), ints)


def gf_list(f):
    """FqPoly over GF(p) as a galoistools list (leading coefficient first)."""
    return [c.coords[0] for c in reversed(f.coeffs)]


@settings(max_examples=150, deadline=None)
@given(fp_polys(), st.data())
def test_fqpoly_divmod_matches_galoistools(case, data):
    p, a = case
    b = data.draw(st.lists(st.integers(0, p - 1), min_size=1, max_size=6))
    b[-1] = data.draw(st.integers(1, p - 1))
    q, r = divmod(fq(p, a), fq(p, b))
    sq, sr = gf_div(gf_list(fq(p, a)), gf_list(fq(p, b)), p, ZZ)
    assert (gf_list(q), gf_list(r)) == (sq, sr)


@settings(max_examples=150, deadline=None)
@given(fp_polys(), st.data())
def test_fqpoly_gcd_matches_galoistools(case, data):
    p, a = case
    b = data.draw(st.lists(st.integers(0, p - 1), max_size=7))
    c = data.draw(st.lists(st.integers(0, p - 1), max_size=4))
    f, g = fq(p, a) * fq(p, c), fq(p, b) * fq(p, c)
    assert gf_list(f.gcd(g)) == gf_gcd(gf_list(f), gf_list(g), p, ZZ)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(PRIMES_GF), st.data())
def test_squarefree_factor_matches_galoistools(p, data):
    f = fq(p, [1])
    for _ in range(data.draw(st.integers(1, 3))):
        g = data.draw(st.lists(st.integers(0, p - 1), min_size=2, max_size=4))
        g[-1] = 1
        f = f * FqPoly(GF(p), _poly.pow(fq(p, g).coeffs, data.draw(st.integers(1, 2 * p + 1))))
    ours = sorted((tuple(gf_list(g)), m) for g, m in squarefree_factor(f))
    _, factors = gf_sqf_list(gf_list(f), p, ZZ)
    assert ours == sorted((tuple(g), m) for g, m in factors)


# -- the s-ring inverse -------------------------------------------------------

@st.composite
def sring_elements(draw):
    """(ring, x) with x in Q(zeta_p)[s]/(s^(p-1) - 2), a field for these p (Capelli)."""
    p = draw(st.sampled_from([3, 5, 7]))
    coord = st.fractions(min_value=-4, max_value=4, max_denominator=3)
    zero = [Fraction(0)] * (p - 1)
    cyclo = st.one_of(st.just(zero), st.lists(coord, min_size=p - 1, max_size=p - 1))
    coeffs = draw(st.lists(cyclo, min_size=p - 1, max_size=p - 1))
    ring = SRing(p, 2)
    return ring, SRingElement(ring, [CyclotomicNumber(p, c) for c in coeffs])


@settings(max_examples=60, deadline=None)
@given(sring_elements())
def test_sring_invert_is_an_inverse(case):
    ring, x = case
    assume(not x.is_zero())
    assert x * ring.invert(x) == ring.one()


# -- the root splitter ---------------------------------------------------------

SCANNABLE = [(p, k, deg) for p, k, deg in ROUTE_GRID if p**k * deg <= 1 << 14]


@pytest.mark.parametrize("p,k,deg", SCANNABLE)
def test_split_linear_matches_scanning(p, k, deg):
    K = GF(p, k)
    rng = random.Random(p * 1000 + k * 10 + deg)
    for _ in range(3):
        for part, _m in squarefree_factor(planted_poly(K, deg, rng)):
            ell = ff._linear_part(part, K)
            split = ff._split_linear(ell, K) if ell.degree >= 1 else []
            split.sort(key=lambda r: r.sort_key())
            assert split == ff._exhaustive_distinct_roots(part, K)
