"""Earlier library routes kept as differential oracles.

Dense root finding: these were the library's routes for the scaling and
the translation of a monic additive normal form before both became linear
algebra and exponentiation: the least root of z^n - a found by
``roots_in`` (a scan of the field, or Cantor-Zassenhaus splitting), and the
least root of the dense degree-p^m polynomial L(z) - r in the field that
``splitting_degree`` finds by distinct-degree factorization.  Their cost
grows with the field order and with p^m, so tests run them on small grids
only.

Polynomials over F_p as int tuples (constant first): the F_p[x] kernel
of ``ff`` before it moved onto ``_linalg``'s packed ints, one Python step
per coefficient product, with Ben-Or's test one gcd per i.  Trial
division: ``ff._prime_divisors`` before Pollard's rho.

Per-a lift expansions: ((lambda z + s)^p - s^p)/lambda^p, its derivative
side and its critical fiber expanded by repeated multiplication inside
Q(zeta_p)[s]/(s^(p-1) - a) for each a, where the library expands them once
per prime with s free and specializes.
"""

from __future__ import annotations

import math

from wildram.addpoly import AdditivePoly
from wildram.cyclotomic import CyclotomicNumber, SRing
from wildram.ff import GF, FqPoly, common_overfield, embed, roots_in, splitting_degree
from wildram.gmlift import LiftCriticalData, LiftPoly, RPoly
from wildram.moduli import _affine_conjugate_additive, _parse_additive_with_constant


def fp_trim(c: list[int]) -> tuple[int, ...]:
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def fp_mul(a, b, p):
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return fp_trim(out)


def fp_divmod(a, b, p):
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
    return fp_trim(q), fp_trim(a)


def fp_gcd(a, b, p):
    a, b = fp_trim(list(a)), fp_trim(list(b))
    while b:
        a, b = b, fp_divmod(a, b, p)[1]
    if a:
        inv = pow(a[-1], -1, p)
        a = tuple(c * inv % p for c in a)
    return a


def fp_mulmod(a, b, mu, p):
    return fp_divmod(fp_mul(a, b, p), mu, p)[1]


def fp_powmod(base, e: int, mu, p: int) -> tuple[int, ...]:
    """base^e mod mu by square-and-multiply: O(deg(mu)^2 log e)."""
    result, base = (1,), fp_divmod(base, mu, p)[1]
    while e:
        if e & 1:
            result = fp_mulmod(result, base, mu, p)
        e >>= 1
        if e:
            base = fp_mulmod(base, base, mu, p)
    return result


def fp_is_irreducible(mu: tuple[int, ...], p: int) -> bool:
    """Ben-Or's test with one gcd(x^(p^i) - x, mu) per i <= k/2."""
    k = len(mu) - 1
    if k == 1:
        return True
    if mu[0] == 0:
        return False
    h: tuple[int, ...] = (0, 1)
    for _ in range(k // 2):
        h = fp_powmod(h, p, mu, p)
        diff = list(h) + [0] * (2 - len(h))
        diff[1] = (diff[1] - 1) % p
        if fp_gcd(mu, fp_trim(diff), p) != (1,):
            return False
    return True


def trial_prime_divisors(n: int) -> list[int]:
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


def root_degree(a, n) -> int:
    """Least j with an n-th root of a in the degree-j extension of a's field:
    a^((q^j - 1)/gcd(n, q^j - 1)) = 1."""
    F = a.field
    for j in range(1, 4 * n * F.k + 4):
        m = F.order**j - 1
        if a ** (m // math.gcd(n, m)) == F.one():
            return j
    raise AssertionError("no root within the degree bound")


def scanning_solve_power(a, n):
    """(b, K): the least root b of z^n - a by ``roots_in``, in the least
    extension K of a's field that holds one."""
    F = a.field
    K = GF(F.p, F.k * root_degree(a, n))
    ae = embed(a, K)
    roots = roots_in(FqPoly(K, [-ae] + [K.zero()] * (n - 1) + [K.one()]), K)
    assert roots, f"z^{n} = {a!r} has no root in {K!r} despite the criterion"
    return roots[0][0], K


def dense_translation(L: AdditivePoly, r):
    """(c, K): the least root of the dense L(z) - r in its splitting field."""
    E = L.field
    target = FqPoly(E, [-r]) + L.to_fqpoly()
    d = splitting_degree(target)
    K = E if d == 1 else GF(E.p, E.k * d)
    return roots_in(target, K)[0][0], K


def dense_monic_form(g):
    """(field, monic coefficients, b, c) of the monic additive normal form of
    g, from ``scanning_solve_power`` and ``dense_translation``."""
    F, coeffs, const = _parse_additive_with_constant(g)
    b, Kb = scanning_solve_power(coeffs[-1], F.p ** (len(coeffs) - 1) - 1)
    E = common_overfield(F, Kb)
    b, coeffs, const = embed(b, E), [embed(a, E) for a in coeffs], embed(const, E)
    monic, new_const = _affine_conjugate_additive(coeffs, const, b, E.zero())
    c = E.zero()
    if not new_const.is_zero():
        L = AdditivePoly(E, [monic[0] - E.one(), *monic[1:]])
        c, E = dense_translation(L, b * const)
        b, coeffs, const = embed(b, E), [embed(a, E) for a in coeffs], embed(const, E)
        monic, new_const = _affine_conjugate_additive(coeffs, const, b, c)
    return E, monic, b, c


def expanded_lift(p: int, a: int) -> LiftPoly:
    """The lift whose coefficients are ((lambda z + s)^p - s^p)/lambda^p
    expanded by repeated multiplication in Q(zeta_p)[s]/(s^(p-1) - a)."""
    lam = CyclotomicNumber.lam(p)
    ring = SRing(p, a)
    s = ring.s()
    direct = RPoly(ring, [s, ring.scalar(lam)]) ** p - RPoly(ring, [s**p])
    return LiftPoly(p, a, ring, (direct * ring.scalar(1 / lam**p)).coeffs)


def expanded_critical_data(L: LiftPoly) -> LiftCriticalData:
    """Critical data of L, its derivative and fiber identities checked
    against (p/lambda^(p-1))(lambda z + s)^(p-1) and (z + s/lambda)^p
    expanded in L's own ring."""
    ring, p = L.ring, L.p
    lam = CyclotomicNumber.lam(p)
    s = ring.s()
    crit_pt = -s * ring.scalar(1 / lam)
    deriv = RPoly(ring, [L.coeffs[j] * j for j in range(1, p + 1)])
    assert deriv == RPoly(ring, [s, ring.scalar(lam)]) ** (p - 1) * ring.scalar(p / lam ** (p - 1))
    value = L.evaluate(crit_pt)
    assert value == -(s**p) * ring.scalar(1 / lam**p)
    fiber = RPoly(ring, L.coeffs) - RPoly(ring, [value])
    assert fiber == RPoly(ring, [-crit_pt, ring.one()]) ** p
    return LiftCriticalData(((None, p), (crit_pt, p)), value, value.gauss_val(), crit_pt.gauss_val())
