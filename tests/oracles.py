"""Earlier library routes kept as differential oracles.

Dense root finding: these were the library's routes for the scaling and
the translation of a monic additive normal form before both became linear
algebra and exponentiation: the least root of z^n - a found by
``roots_in`` (a scan of the field, or Cantor-Zassenhaus splitting), and the
least root of the dense degree-p^m polynomial L(z) - r in the field that
``splitting_degree`` finds by distinct-degree factorization.  Their cost
grows with the field order and with p^m, so tests run them on small grids
only.

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
