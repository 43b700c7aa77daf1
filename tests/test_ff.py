import random
import time

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from sympy import Poly, symbols

from wildram import ff
from wildram.errors import (
    BudgetExceeded,
    NoEmbedding,
    NotPrime,
    ReducibleModulus,
    ZeroBase,
    ZeroPolynomial,
)
from wildram._linalg import unpack
from wildram.ff import GF, FqPoly, embed, make_field, roots_in, solve_power, splitting_degree, squarefree_factor

from oracles import fp_divmod, root_degree, scanning_solve_power


def brute_irreducible(mu, p):
    """Oracle: check irreducibility of a monic F_p-polynomial by exhaustive trial division."""
    k = len(mu) - 1
    for d in range(1, k // 2 + 1):
        for n in range(p ** (d + 1)):
            g = tuple((n // p**i) % p for i in range(d)) + (1,)
            if not fp_divmod(mu, g, p)[1] and len(g) - 1 >= 1:
                return False
    return True


def test_make_field_basics():
    f3 = make_field(3, 1)
    assert f3.order == 3
    assert f3.modulus == (0, 1)

    f9 = make_field(3, 2, [1, 0, 1])  # z^2 + 1, irreducible since -1 is a non-square
    assert f9.order == 9

    # oracle: the only monic irreducible quadratic over F_2, by exhausting all 4
    candidates = []
    for n in range(4):
        mu = (n % 2, (n // 2) % 2, 1)
        if brute_irreducible(mu, 2):
            candidates.append(mu)
    assert candidates == [(1, 1, 1)]
    f4 = make_field(2, 2)
    assert f4.modulus == (1, 1, 1)


def test_make_field_errors():
    with pytest.raises(NotPrime):
        make_field(4, 1)
    with pytest.raises(ReducibleModulus):
        make_field(2, 2, [0, 0, 1])  # z^2 = z*z
    with pytest.raises(Exception):
        make_field(3, 2, [1, 1])  # degree mismatch


def test_deterministic_modulus_search():
    # replaying the search gives identical fields
    a = ff._search_irreducible(3, 5)
    b = ff._search_irreducible(3, 5)
    assert a == b
    assert brute_irreducible(a, 3)
    # nothing smaller in base-p digit order is irreducible
    val = sum(c * 3**i for i, c in enumerate(a[:-1]))
    for n in range(val):
        mu = tuple((n // 3**i) % 3 for i in range(5)) + (1,)
        assert not brute_irreducible(mu, 3)


def first_irreducible(p, k):
    """Oracle: the first monic irreducible in base-p digit order, by sympy's test."""
    from sympy.polys.domains import ZZ
    from sympy.polys.galoistools import gf_irreducible_p

    for n in range(p**k):
        digits = [(n // p**i) % p for i in range(k)]  # digit i is the x^i coefficient
        if gf_irreducible_p([1] + digits[::-1], p, ZZ):
            return tuple(digits) + (1,)


MODULUS_GRID = [(p, k) for p in (2, 3, 5, 7) for k in range(1, 9)] + [
    (31, 4),
    (101, 3),
    (9001, 2),
    (30011, 2),
    (2**31 - 1, 2),
    (2, 64),
    (3, 36),
    (3, 48),
    (5, 40),
    (7, 42),
]


@pytest.mark.parametrize("p,k", MODULUS_GRID)
def test_canonical_modulus_is_first_irreducible(p, k):
    pytest.importorskip("sympy")
    assert GF(p, k).modulus == first_irreducible(p, k)


def test_large_prime_field_first_use_is_fast():
    # building a field and its Frobenius table must cost polylog(p), not poly(p)
    t0 = time.perf_counter()
    F = ff.FiniteField(30011, 2)
    x = F.gen()
    x.frobenius()
    assert time.perf_counter() - t0 < 0.5
    assert x.frobenius() == x**30011


def test_int64_range_guard():
    p = 2**31 - 1
    F = GF(p, 2)
    assert F.modulus == (1, 0, 1)
    x = F.gen()
    assert x.frobenius() == x**p == -x
    # roots_in stays exact at p = 2^31 - 1
    r1, r2 = F.element([123456789, 987654321]), F.element([2**30 + 7, 5])
    z = FqPoly.x(F)
    f = (z - FqPoly(F, [r1])) * (z - FqPoly(F, [r2]))
    assert roots_in(f, F) == [(r1, 1), (r2, 1)]
    K = GF(p, 3)  # 3 * (p-1)^2 >= 2^63: its products overflow any int64 sum
    rng = random.Random(3)
    for y in [K.gen(), K.element([p - 1] * 3)] + [K.element_from_index(rng.randrange(K.order)) for _ in range(8)]:
        assert y**p == y.frobenius()
        assert y * y.inverse() == K.one()


def test_field_axioms_random():
    rng = random.Random(7)
    for F in (GF(2, 3), GF(3, 2), GF(5, 2), GF(2, 8), GF(2, 30), GF(3, 25)):
        elems = [F.element_from_index(rng.randrange(F.order)) for _ in range(12)]
        one = F.one()
        for x in elems:
            for y in elems[:6]:
                for z in elems[:3]:
                    assert (x + y) + z == x + (y + z)
                    assert (x * y) * z == x * (y * z)
                    assert x * (y + z) == x * y + x * z
            if not x.is_zero():
                assert x * x.inverse() == one
            # Frobenius additivity
            for y in elems[:6]:
                assert (x + y) ** F.p == x**F.p + y**F.p


PRODUCT_FIELDS = [(p, k) for k in (2, 3, 4, 5, 6, 24, 25, 48) for p in (2, 3)] + [(2**31 - 1, 3)]


@pytest.mark.parametrize("p,k", PRODUCT_FIELDS)
def test_products_match_sympy(p, k):
    # the Kronecker product and its packed reduction against sympy's
    # polynomial product reduced mod the modulus
    F = GF(p, k)
    x = symbols("x")
    mu = Poly(list(reversed(F.modulus)), x, modulus=p)

    def as_poly(e):
        return Poly(list(reversed(e.coords)), x, modulus=p)

    def coords(poly):
        cs = [int(c) % p for c in reversed(poly.all_coeffs())]
        return tuple(cs + [0] * (k - len(cs)))

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.integers(0, p - 1), min_size=2 * k, max_size=2 * k))
    def check(flat):
        a, b = F.element(flat[:k]), F.element(flat[k:])
        assert (a * b).coords == coords((as_poly(a) * as_poly(b)).rem(mu))

    check()
    top = F.element([p - 1] * k)  # every coordinate p - 1: the fullest slots
    assert (top * top).coords == coords((as_poly(top) ** 2).rem(mu))


def test_frobenius_matrix_agrees_with_powering():
    F = GF(3, 4)
    rng = random.Random(1)
    for _ in range(10):
        x = F.element_from_index(rng.randrange(F.order))
        assert x.frobenius() == x**3


@pytest.mark.parametrize("p,k", [(2, 5), (3, 4), (101, 2), (2, 30)])
def test_frobenius_powers_match_powering(p, k, monkeypatch):
    # cached per-j int rows
    F = GF(p, k)
    rng = random.Random(p * k)
    xs = [F.gen()] + [F.element_from_index(rng.randrange(F.order)) for _ in range(3)]
    for x in xs:
        for j in range(k):
            assert x.frobenius(j) == x ** (p**j), (x, j)
    monkeypatch.setattr(ff, "_fp_power_rows", lambda *a: pytest.fail("Frobenius rows recomputed"))
    assert [x.frobenius(j) for x in xs for j in range(k)] == [x ** (p**j) for x in xs for j in range(k)]


@pytest.mark.parametrize("src", [(2, None), (3, None), (101, None), (5, (2, 1))])
def test_embed_from_prime_field_matches_embedding_matrix(src, fresh_embeddings):
    p, modulus = src
    Fp = make_field(p, 1, modulus)
    for k in (1, 2, 3, 30 if p == 2 else 4):
        K = GF(p, k)
        (row,) = ff.embedding_matrix(Fp, K)
        for c in range(min(p, 7)):
            x = Fp.from_int(c)
            assert embed(x, K) == K.element([c * v for v in unpack(row, p, k)]), (p, k, c)
    with pytest.raises(NoEmbedding):
        embed(Fp.one(), GF(7, 2))


def test_embed_unit_and_homomorphism():
    F2, F4, F16 = GF(2), GF(2, 2), GF(2, 4)
    assert embed(F2.one(), F4) == F4.one()

    # oracle: solve z^2 + z + 1 = 0 in F16 by exhaustion
    gen_image = embed(F4.gen(), F16)
    sols = [e for e in F16.elements() if e * e + e + F16.one() == F16.zero()]
    assert gen_image in sols

    rng = random.Random(3)
    for _ in range(20):
        x = F4.element_from_index(rng.randrange(4))
        y = F4.element_from_index(rng.randrange(4))
        assert embed(x + y, F16) == embed(x, F16) + embed(y, F16)
        assert embed(x * y, F16) == embed(x, F16) * embed(y, F16)


def test_embed_no_embedding():
    with pytest.raises(NoEmbedding):
        embed(GF(2, 2).one(), GF(2, 3))


def test_embed_chain_consistency():
    F2, F4, F8_ = GF(2), GF(2, 2), GF(2, 8)
    # force the small embedding first, then the chain
    a = F4.gen()
    via_mid = embed(a, F8_)
    for x in F4.elements():
        lhs = embed(x, F8_)
        assert lhs == embed(x, F8_)  # cache idempotence
    # prime-field chains commute automatically
    assert embed(embed(F2.one(), F4), F8_) == embed(F2.one(), F8_)
    assert via_mid * via_mid + via_mid + F8_.one() == F8_.zero()


def test_embed_composes_through_cached_intermediates(fresh_embeddings):
    # with the two small embeddings chosen first, the big one is their composite
    F4, F16, F256 = GF(2, 2), GF(2, 4), GF(2, 8)
    m1 = ff.embedding_matrix(F4, F16)
    m2 = ff.embedding_matrix(F16, F256)
    direct = ff.embedding_matrix(F4, F256)
    # row j of each is the image of x^j; composing maps row j of m1 through m2
    composite = [[sum(a * b for a, b in zip(unpack(row, 2, 4), column)) % 2
                  for column in zip(*(unpack(r, 2, 8) for r in m2))] for row in m1]
    assert [unpack(row, 2, 8) for row in direct] == composite
    for x in F4.elements():
        assert embed(x, F256) == embed(embed(x, F16), F256)


def test_embed_large_target_uses_subfield_route():
    # 3^22 is far past the scan threshold: this exercises the CZ branch
    src = GF(3, 11)
    tgt = GF(3, 22)
    beta = embed(src.gen(), tgt)
    mu = FqPoly.from_ints(tgt, src.modulus)
    assert mu.evaluate(beta).is_zero()
    x, y = src.gen(), src.gen() + src.one()
    assert embed(x * y, tgt) == embed(x, tgt) * embed(y, tgt)


def embedding_pairs(top):
    return [(d, e) for e in range(2, top + 1) for d in range(2, e) if e % d == 0]


@pytest.mark.parametrize("p", [2, 3])
def test_embedding_sends_generator_to_smallest_root(p, fresh_embeddings):
    for d, e in embedding_pairs(12):
        ff._EMBED_CACHE.clear()  # chained routes may pick another root (D1)
        S, T = GF(p, d), GF(p, e)
        beta = T.element(unpack(ff.embedding_matrix(S, T)[1], p, e))
        assert FqPoly.from_ints(T, S.modulus).evaluate(beta).is_zero()
        # the roots of an irreducible modulus are the Frobenius orbit of one root
        orbit = [beta]
        for _ in range(d - 1):
            orbit.append(orbit[-1] ** p)
        assert len(set(orbit)) == d
        assert beta == min(orbit, key=lambda r: r.sort_key()), (d, e)


@pytest.mark.parametrize("p", [2, 3])
def test_embedding_roots_agree_on_both_routes(p, fresh_embeddings, monkeypatch):
    for d, e in embedding_pairs(12):
        if p**e > 4096:
            continue
        S, T = GF(p, d), GF(p, e)
        mats = []
        for scan in (True, False):
            monkeypatch.setattr(ff, "_scan_is_cheaper", lambda order, deg, s=scan: s)
            ff._EMBED_CACHE.clear()
            mats.append(ff.embedding_matrix(S, T))
        assert mats[0] == mats[1], (d, e)


def all_values(f, K):
    """Oracle: f at every element of K in index order, by vectorized Horner."""
    p, k = K.p, K.k
    n = np.arange(K.order)
    xs = [(n // p ** (k - 1 - j)) % p for j in range(k)]  # coordinate j of element n
    acc = [np.zeros(K.order, dtype=np.int64) for _ in range(k)]
    for c in reversed(f.coeffs):
        prod = [np.zeros(K.order, dtype=np.int64) for _ in range(2 * k - 1)]
        for i in range(k):
            for j in range(k):
                prod[i + j] += acc[i] * xs[j]
        for top in range(2 * k - 2, k - 1, -1):  # x^top = x^(top-k) * -(sum mu_t x^t)
            high = prod[top] % p
            for t, m in enumerate(K.modulus[:k]):
                if m:
                    prod[top - k + t] -= high * m
        acc = [(prod[i] + c.coords[i]) % p for i in range(k)]
    return np.stack(acc, axis=1)


def planted_poly(K, deg, rng):
    """Monic degree-deg poly with about deg/2 planted roots (some repeated)."""
    z = FqPoly.x(K)
    f = FqPoly.from_ints(K, [1])
    roots = [K.element_from_index(rng.randrange(K.order)) for _ in range(max(1, deg // 3))]
    for _ in range(deg // 2):
        f = f * (z - FqPoly(K, [rng.choice(roots)]))
    rest = [K.element_from_index(rng.randrange(K.order)) for _ in range(deg - f.degree)]
    return f * FqPoly(K, rest + [K.one()])


ROUTE_GRID = [
    (101, 2, 2),
    (2, 16, 4),
    (2, 4, 16),
    (7, 2, 49),
    (3, 2, 3),
    (5, 2, 6),
    (2, 8, 5),
    (3, 4, 8),
    (2, 6, 1),
]


@pytest.mark.parametrize("p,k,deg", ROUTE_GRID)
def test_roots_in_routes_agree_with_oracle(p, k, deg, monkeypatch):
    K = GF(p, k)
    rng = random.Random(p * 1000 + k * 10 + deg)
    for _ in range(3):
        f = planted_poly(K, deg, rng)
        hits = np.nonzero(~all_values(f, K).any(axis=1))[0]
        expected = [K.element_from_index(int(i)) for i in hits]
        cheap = K.order * deg <= 1 << 14  # scanning K is affordable in a test
        if cheap:
            assert ff._exhaustive_distinct_roots(f, K) == expected
        results = [roots_in(f, K)]
        for scan in (True, False) if cheap else (False,):
            monkeypatch.setattr(ff, "_scan_is_cheaper", lambda order, d, s=scan: s)
            results.append(roots_in(f, K))
        monkeypatch.undo()
        for got in results:
            assert [r for r, _ in got] == expected
            assert got == results[0]
        assert sum(m for _, m in results[0]) <= deg


def test_squarefree_factor_examples():
    F3 = GF(3)
    z = FqPoly.x(F3)
    assert squarefree_factor(z * z) == [(z, 2)]

    F2 = GF(2)
    f = FqPoly.from_ints(F2, [0, 1, 0, 0, 1])  # z^4 + z
    # oracle: gcd(f, f') = gcd(z^4+z, 1) = 1, so f is squarefree
    assert f.gcd(f.derivative()).degree == 0
    assert squarefree_factor(f) == [(f, 1)]

    g = FqPoly.from_ints(F3, [1, 0, 1])  # z^2 + 1
    assert squarefree_factor(g * g) == [(g, 2)]


def test_squarefree_factor_reconstructs():
    rng = random.Random(11)
    for F in (GF(2, 2), GF(3), GF(5)):
        for _ in range(15):
            coeffs = [rng.randrange(F.order) for _ in range(rng.randrange(2, 7))] + [1]
            f = FqPoly(F, [F.element_from_index(c) for c in coeffs])
            e = rng.randrange(1, 4)
            fe = FqPoly.from_ints(F, [1])
            for _ in range(e):
                fe = fe * f
            parts = squarefree_factor(fe)
            prod = FqPoly.from_ints(F, [1])
            for g, m in parts:
                for _ in range(m):
                    prod = prod * g
            assert prod == fe.monic()
            for i in range(len(parts)):
                for j in range(i + 1, len(parts)):
                    assert parts[i][0].gcd(parts[j][0]).degree == 0


def test_squarefree_factor_inseparable():
    F3 = GF(3)
    z9 = FqPoly.from_ints(F3, [0] * 9 + [1])
    assert squarefree_factor(z9) == [(FqPoly.x(F3), 9)]
    with pytest.raises(ZeroPolynomial):
        squarefree_factor(FqPoly(F3, []))


def test_roots_in_examples():
    F3, F9 = GF(3), GF(3, 2)
    f = FqPoly.from_ints(F3, [1, 0, 1])  # z^2 + 1
    assert roots_in(f, F3) == []

    # oracle: exhaust F9
    expected = sorted(
        [e for e in F9.elements() if (e * e + F9.one()).is_zero()],
        key=lambda e: e.sort_key(),
    )
    assert [r for r, m in roots_in(f, F9)] == expected
    assert all(m == 1 for _, m in roots_in(f, F9))

    F2, F4 = GF(2), GF(2, 2)
    g = FqPoly.from_ints(F2, [0, 1, 0, 0, 1])  # z^4 + z, identically zero on F4
    rts = roots_in(g, F4)
    assert len(rts) == 4 and {r for r, _ in rts} == set(F4.elements())
    assert all(m == 1 for _, m in rts)


def test_roots_in_multiplicity():
    F3 = GF(3)
    z = FqPoly.x(F3)
    f = (z - FqPoly.from_ints(F3, [1])) * (z - FqPoly.from_ints(F3, [1])) * z
    rts = roots_in(f, F3)
    assert rts == [(F3.zero(), 1), (F3.one(), 2)]


def test_roots_count_bound_and_splitting():
    rng = random.Random(5)
    F = GF(3)
    for _ in range(10):
        coeffs = [rng.randrange(3) for _ in range(rng.randrange(2, 6))] + [1]
        f = FqPoly.from_ints(F, coeffs)
        d = splitting_degree(f)
        # full root count exactly when d divides [K : F_q], partial otherwise
        for mult in (1, 2):
            K = GF(3, d * mult)
            rts = roots_in(f, K)
            assert sum(m for _, m in rts) == f.degree
        small = roots_in(f, F)
        assert sum(m for _, m in small) <= f.degree
        if d > 1:
            assert sum(m for _, m in small) < f.degree


def test_splitting_degree_ignores_multiplicity():
    F2 = GF(2)
    f = FqPoly.from_ints(F2, [0, 1, 0, 0, 1])  # z^4 + z, splitting degree 2
    assert splitting_degree(f * f * f) == 2


def test_splitting_degree_minimality_oracle():
    # d is the least extension degree containing all roots: count them at
    # every smaller degree by exhaustion
    rng = random.Random(77)
    F = GF(2)
    for _ in range(12):
        coeffs = [rng.randrange(2) for _ in range(rng.randrange(2, 7))] + [1]
        f = FqPoly.from_ints(F, coeffs)
        d = splitting_degree(f)
        for e in range(1, d):
            K = GF(2, e)
            assert sum(m for _, m in roots_in(f, K)) < f.degree
        K = GF(2, d)
        assert sum(m for _, m in roots_in(f, K)) == f.degree


def test_roots_in_large_field_cz_path():
    # 3^11 > 2^16 forces the equal-degree-splitting branch
    F3 = GF(3)
    K = GF(3, 11)
    f = FqPoly.from_ints(F3, [2, 0, 1])  # z^2 - 2 = z^2 + 1 over F3? no: z^2+2
    rts = roots_in(f, K)
    for r, m in rts:
        assert (r * r + embed(F3.from_int(2), K)).is_zero()
    # two runs agree bit for bit
    assert rts == roots_in(f, K)


def test_splitting_degree_examples():
    F2 = GF(2)
    f = FqPoly.from_ints(F2, [0, 1, 0, 0, 1])  # z^4 + z = z(z+1)(z^2+z+1)
    assert splitting_degree(f) == 2

    F3 = GF(3)
    assert splitting_degree(FqPoly.from_ints(F3, [1, 0, 1])) == 2
    assert splitting_degree(FqPoly.from_ints(F3, [0, 2, 0, 1])) == 1  # z^3 - z


def test_solve_power():
    F3 = GF(3)
    one = F3.one()
    b, K = solve_power(one, 5)
    assert b == K.one() and K == F3

    two = F3.from_int(2)
    b, K = solve_power(two, 2)
    assert K.order == 9
    assert b * b == embed(two, K)
    # deterministic tie-break: the lexicographically least root
    cands = sorted(
        [e for e in K.elements() if e * e == embed(two, K)], key=lambda e: e.sort_key()
    )
    assert b == cands[0]

    F5 = GF(5)
    a = F5.from_int(2)
    b, K = solve_power(a, 4)
    # oracle: exhausting F_5 and F_25 finds no 4th root of 2; F_5^4 is the
    # smallest extension that contains one (z^4 - 2 is irreducible over F_5)
    assert all(e**4 != a for e in F5.elements() if not e.is_zero())
    F25 = GF(5, 2)
    assert all(e**4 != embed(a, F25) for e in F25.elements())
    assert K.order == 5**4
    assert b**4 == embed(a, K)

    with pytest.raises(ZeroBase):
        solve_power(F3.zero(), 2)


@st.composite
def power_equations(draw):
    """(a, n): a in F_q^x, q <= 16; n up to 40 or a multiple of p up to 12 p."""
    p, k = draw(st.sampled_from([(2, 1), (2, 2), (2, 3), (2, 4), (3, 1), (3, 2),
                                 (5, 1), (7, 1), (11, 1), (13, 1)]))
    F = GF(p, k)
    a = F.element_from_index(draw(st.integers(1, F.order - 1)))
    return a, draw(st.one_of(st.integers(1, 40), st.integers(1, 12).map(lambda t: p * t)))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(power_equations())
def test_solve_power_matches_scanning_oracle(eq):
    a, n = eq
    # the oracle finds the roots of the dense z^n - a, about n |K| products
    assume(a.field.order ** root_degree(a, n) <= 2**12)
    assert solve_power(a, n) == scanning_solve_power(a, n)


def test_solve_power_without_factoring_the_group_order():
    # 2^61 - 1 is prime, so g = gcd(3, 2^61 - 1) = 1 and b = x^(3^(-1) mod N):
    # a discrete logarithm in GF(2, 61)^x would need about 1.5e9 giant steps
    x = GF(2, 61).gen()
    start = time.perf_counter()
    b, K = solve_power(x, 3)
    elapsed = time.perf_counter() - start
    assert (b, K) == scanning_solve_power(x, 3)
    assert elapsed < 1.0, elapsed


def test_solve_power_refuses_more_roots_than_the_budget(monkeypatch):
    # 1 has g = gcd(6, 6) = 6 sixth roots in F_7: refused before any is formed
    monkeypatch.setenv("WILDRAM_BUDGET", "5")
    with pytest.raises(BudgetExceeded, match="exceed the budget 5"):
        solve_power(GF(7).one(), 6)
    monkeypatch.setenv("WILDRAM_BUDGET", "6")
    assert solve_power(GF(7).one(), 6) == (GF(7).one(), GF(7))


def test_poly_divmod_gcd():
    F = GF(5)
    rng = random.Random(9)
    for _ in range(20):
        a = FqPoly(F, [F.element_from_index(rng.randrange(5)) for _ in range(6)])
        b = FqPoly(F, [F.element_from_index(rng.randrange(5)) for _ in range(3)])
        if b.is_zero():
            continue
        q, r = divmod(a, b)
        assert q * b + r == a
        assert r.degree < b.degree
        g = a.gcd(b)
        if not a.is_zero():
            assert (a % g).is_zero() and (b % g).is_zero()


def test_json_roundtrip():
    F = GF(3, 2)
    d = ff.field_to_json(F)
    assert d == {"p": 3, "k": 2, "modulus": [1, 0, 1]}
    assert ff.field_from_json(d) == F
    x = F.element([2, 1])
    assert ff.element_from_json(F, ff.element_to_json(x)) == x
    fpoly = FqPoly.from_ints(F, [1, 2, 1])
    assert ff.poly_from_json(F, ff.poly_to_json(fpoly)) == fpoly
