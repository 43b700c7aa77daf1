"""The packed F_p[x] kernel (``_linalg.poly_*``, Ben-Or's test, the Frobenius
rows), the factoring of group orders and element powers against the int
tuple routines they replaced and against sympy; and a guard that importing
the CLI builds no field."""

import os
import subprocess
import sys
import time
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st
from sympy.polys.domains import ZZ
from sympy.polys.galoistools import gf_irreducible_p

import wildram
from wildram import _linalg, ff
from wildram.ff import GF

from oracles import (fp_divmod, fp_gcd, fp_is_irreducible, fp_mul, fp_mulmod, fp_powmod, fp_trim,
                     trial_prime_divisors)


PRIMES = [2, 3, 5, 7, 31, 2**31 - 1]
MAX_DEGREE = 64


def trim(c):
    return fp_trim(list(c))


def coeffs(p, n):
    """Lists of n residues mod p, leaning to 0 and p - 1, the widest slots."""
    return st.lists(st.one_of(st.sampled_from([0, p - 1]), st.integers(0, p - 1)), min_size=n, max_size=n)


@st.composite
def modulus_and_pair(draw):
    """(p, k, monic mu of degree k, a, b of degree < k) as residue lists."""
    p = draw(st.sampled_from(PRIMES))
    k = draw(st.integers(2, MAX_DEGREE))
    return p, k, draw(coeffs(p, k)) + [1], draw(coeffs(p, k)), draw(coeffs(p, k))


@st.composite
def dividend_and_divisor(draw):
    """(p, k, a, b != 0) with deg a, deg b <= k <= MAX_DEGREE."""
    p = draw(st.sampled_from(PRIMES))
    k = draw(st.integers(1, MAX_DEGREE))
    a = draw(coeffs(p, draw(st.integers(0, k + 1))))
    b = draw(coeffs(p, draw(st.integers(1, k + 1))).filter(any))
    return p, k, a, b


def packed(c, p, k):
    return _linalg.poly_pack(c, p, k)


def as_tuple(x, p, k):
    return trim(_linalg.poly_unpack(x, p, k, k + 1))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(modulus_and_pair())
def test_mulmod_matches_tuple_oracle(case):
    p, k, mu, a, b = case
    red = _linalg.reduction(mu, p)
    got = _linalg.poly_mulmod(packed(a, p, k), packed(b, p, k), red, p, k)
    assert as_tuple(got, p, k) == fp_mulmod(trim(a), trim(b), tuple(mu), p)
    assert _linalg.mulmod(a, b, red, p) == _linalg.poly_unpack(got, p, k, k)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(dividend_and_divisor())
def test_divmod_and_gcd_match_tuple_oracle(case):
    p, k, a, b = case
    q, r = _linalg.poly_divmod(packed(a, p, k), packed(trim(b), p, k), p, k)
    assert (as_tuple(q, p, k), as_tuple(r, p, k)) == fp_divmod(trim(a), trim(b), p)
    g = _linalg.poly_gcd(packed(a, p, k), packed(trim(b), p, k), p, k)
    assert as_tuple(g, p, k) == fp_gcd(a, b, p)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(modulus_and_pair(), st.integers(0, 10**6))
def test_powmod_and_inverse_match_tuple_oracle(case, e):
    p, k, mu, a, _ = case
    red, mu_t = _linalg.reduction(mu, p), tuple(mu)
    got = _linalg.poly_powmod(packed(a, p, k), e, red, p, k)
    assert as_tuple(got, p, k) == fp_powmod(trim(a), e, mu_t, p)
    if fp_gcd(a, mu_t, p) == (1,):
        inv = _linalg.poly_inverse(packed(a, p, k), packed(mu, p, k), p, k)
        assert fp_mulmod(trim(a), as_tuple(inv, p, k), mu_t, p) == (1,)


def test_widest_slots_do_not_carry():
    # every coefficient p - 1 at the largest degree: the most a slot holds
    for p in PRIMES:
        k = MAX_DEGREE
        mu, a = [p - 1] * k + [1], [p - 1] * k
        red = _linalg.reduction(mu, p)
        got = _linalg.poly_powmod(packed(a, p, k), 3, red, p, k)
        assert as_tuple(got, p, k) == fp_powmod(tuple(a), 3, tuple(mu), p)
        q, r = _linalg.poly_divmod(packed(mu, p, k), packed([p - 1], p, k), p, k)
        assert (as_tuple(q, p, k), as_tuple(r, p, k)) == fp_divmod(tuple(mu), (p - 1,), p)


@st.composite
def monic(draw):
    p = draw(st.sampled_from(PRIMES))
    k = draw(st.integers(1, MAX_DEGREE if p < 100 else 12))
    return p, tuple(draw(coeffs(p, k))) + (1,)


def sympy_irreducible(mu, p):
    return bool(gf_irreducible_p([ZZ(c) for c in reversed(mu)], p, ZZ))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(monic())
def test_ben_or_matches_sympy(case):
    p, mu = case
    assert ff._fp_is_irreducible(mu, p) == sympy_irreducible(mu, p)


def test_ben_or_refuses_products_at_every_factor_degree():
    # g h with g irreducible of degree d: the least factor degree meets each
    # checkpoint and each stretch between two of them
    for p in (2, 3, 5, 7):
        for d in range(1, 13):
            for e in (d, d + 1, 2 * d + 3):
                mu = fp_mul(GF(p, d).modulus, GF(p, e).modulus, p)
                assert not ff._fp_is_irreducible(mu, p), (p, d, e)
                assert not fp_is_irreducible(mu, p)


def test_frobenius_rows_are_powers_of_x_to_the_p_j():
    for p, k in [(2, 12), (3, 10), (5, 8), (31, 4)]:
        F = GF(p, k)
        x = F.gen()
        for j in range(1, k):
            rows = [_linalg.unpack(row, p, k) for row in F._frobenius_rows(j)]
            assert rows == [list((x ** (i * p**j)).coords) for i in range(k)]


def test_prime_divisors_match_trial_division():
    assert [ff._prime_divisors(n) for n in range(1, 10**5 + 1)] == [
        trial_prime_divisors(n) for n in range(1, 10**5 + 1)
    ]
    n = 2**67 - 1
    assert ff._prime_divisors(n) == [193707721, 761838257287]
    assert ff._prime_divisors(n * 3**5 * 1000003**2) == [3, 1000003, 193707721, 761838257287]


def test_multiplicative_order_of_a_large_field_is_fast():
    F = GF(2, 67)
    start = time.perf_counter()
    order = F.gen().multiplicative_order()
    assert time.perf_counter() - start < 1.0
    # 2^67 - 1 = 193707721 * 761838257287, so the order is one of four
    assert order in (193707721, 761838257287, 2**67 - 1)
    assert F.gen() ** order == F.one()
    assert all(F.gen() ** (order // q) != F.one() for q in (193707721, 761838257287) if order % q == 0)


def test_power_matches_repeated_products(monkeypatch):
    for F in (GF(2, 3), GF(3, 2), GF(5), GF(7, 2)):
        for y in (F.zero(), F.one(), F.gen(), F.element_from_index(F.order - 1)):
            acc = F.one()
            for e in range(2 * F.order + 1):
                assert y**e == acc, (y, e)
                acc = acc * y
    # square-and-multiply: one product per bit of e and no square past the last
    calls = []
    mul = ff.FiniteField._mul_coords
    monkeypatch.setattr(ff.FiniteField, "_mul_coords", lambda F, a, b: calls.append(1) or mul(F, a, b))
    for e in range(1, 70):
        calls.clear()
        GF(3, 4).gen() ** e
        assert len(calls) == e.bit_length() - 1 + bin(e).count("1"), e


def test_import_builds_no_field():
    # import time is every CLI call's set-up: no table, no field, no embedding
    code = ("import wildram.cli\nfrom wildram import ff\n"
            "print(len(ff._FIELD_REGISTRY), len(ff._EMBED_CACHE))")
    path = [str(Path(wildram.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60)
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["0", "0"]
