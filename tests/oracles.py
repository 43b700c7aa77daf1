"""Dense root-finding routes kept as differential oracles.

These were the library's routes for the scaling and the translation of a
monic additive normal form before both became linear algebra and
exponentiation: the least root of z^n - a found by ``roots_in`` (a scan of
the field, or Cantor-Zassenhaus splitting), and the least root of the dense
degree-p^m polynomial L(z) - r in the field that ``splitting_degree`` finds
by distinct-degree factorization.  Their cost grows with the field order
and with p^m, so tests run them on small grids only.
"""

from __future__ import annotations

import math

from wildram.addpoly import AdditivePoly
from wildram.ff import GF, FqPoly, common_overfield, embed, roots_in, splitting_degree
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
