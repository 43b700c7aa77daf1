import os
import random
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from wildram.addpoly import (
    AdditivePoly,
    add_compose,
    is_separable,
    iterate,
    recognize_additive,
    root_space,
)
from wildram.errors import BadParameter, BudgetExceeded, FieldMismatch, Inseparable
from wildram.ff import GF, FqPoly, splitting_degree


def is_additive_function(f: FqPoly, trials: int = 8) -> bool:
    """Audit-only semantic test: f(x+y) = f(x)+f(y) over a witnessing extension.

    A degree-d polynomial identity over a field with more than d elements is
    decided by sampling; we use a deterministic grid in an extension of size
    greater than deg(f)^2.
    """
    K = f.field
    j = 1
    while K.order ** j <= max(f.degree, 1) ** 2 + 1:
        j += 1
    E = GF(K.p, K.k * j)
    fe = f.map_into(E)
    count = 0
    for n in range(E.order):
        x = E.element_from_index(n)
        y = E.element_from_index((n * 2 + 1) % E.order)
        if fe.evaluate(x + y) != fe.evaluate(x) + fe.evaluate(y):
            return False
        count += 1
        if count >= trials:
            break
    return not f.is_zero() and f[0].is_zero()


def add_sum(f: AdditivePoly, g: AdditivePoly) -> AdditivePoly:
    if f.field != g.field:
        raise FieldMismatch("sum needs a common base field")
    F = f.field
    n = max(len(f.coeffs), len(g.coeffs))

    def at(h, i):
        return h.coeffs[i] if i < len(h.coeffs) else F.zero()

    return AdditivePoly(F, [at(f, i) + at(g, i) for i in range(n)])


def random_separable(F, m, rng):
    while True:
        coeffs = [F.element_from_index(rng.randrange(F.order)) for _ in range(m + 1)]
        if not coeffs[0].is_zero() and not coeffs[m].is_zero():
            return AdditivePoly(F, coeffs)


def test_recognize_additive():
    F2 = GF(2)
    f = FqPoly.from_ints(F2, [0, 1, 0, 0, 1])  # z^4 + z
    a = recognize_additive(f)
    assert a is not None
    assert a.frobenius_degree == 2
    assert [c.coords[0] for c in a.coeffs] == [1, 0, 1]

    F3 = GF(3)
    g = FqPoly.from_ints(F3, [0, -1, 0, 1])  # z^3 - z
    a = recognize_additive(g)
    assert a is not None and a.frobenius_degree == 1
    assert a.coeffs[0] == F3.from_int(-1)

    assert recognize_additive(FqPoly.from_ints(F2, [1, 1, 1])) is None  # constant term
    assert recognize_additive(FqPoly.from_ints(F3, [0, 1, 1])) is None  # z^2 term


def test_semantic_additivity_audit():
    F2 = GF(2)
    assert is_additive_function(FqPoly.from_ints(F2, [0, 1, 0, 0, 1]))
    assert not is_additive_function(FqPoly.from_ints(F2, [0, 1, 0, 1]))  # z^3 + z
    assert not is_additive_function(FqPoly.from_ints(F2, [1, 1, 1]))  # constant term


def test_add_compose_examples():
    F2 = GF(2)
    f = AdditivePoly(F2, [1, 1])  # z^2 + z
    ff2 = add_compose(f, f)
    # oracle: expand (z^2+z)^2 + (z^2+z) by ordinary composition
    dense = f.to_fqpoly().compose(f.to_fqpoly())
    assert ff2.to_fqpoly() == dense
    assert [c.coords[0] for c in ff2.coeffs] == [1, 0, 1]  # z^4 + z

    # identity
    F9 = GF(3, 2)
    x = AdditivePoly(F9, [1])
    g = AdditivePoly(F9, [F9.gen(), F9.one()])
    assert add_compose(g, x) == g and add_compose(x, g) == g


def test_add_compose_frobenius_twist():
    # (z^p - cz) o (z^p - cz) = z^{p^2} - (c^p + c) z^p + c^2 z
    F9 = GF(3, 2)
    c = F9.gen()
    f = AdditivePoly(F9, [-c, F9.one()])
    f2 = add_compose(f, f)
    assert f2.coeffs[2] == F9.one()
    assert f2.coeffs[1] == -(c**3 + c)
    assert f2.coeffs[0] == c * c
    # cross-check against dense composition
    assert f2.to_fqpoly() == f.to_fqpoly().compose(f.to_fqpoly())


def test_ring_laws_random():
    rng = random.Random(13)
    F4 = GF(2, 2)
    for _ in range(10):
        f = random_separable(F4, rng.randrange(1, 3), rng)
        g = random_separable(F4, rng.randrange(1, 3), rng)
        h = random_separable(F4, rng.randrange(1, 3), rng)
        assert add_compose(add_compose(f, g), h) == add_compose(f, add_compose(g, h))
        assert add_compose(add_sum(f, g), h) == add_sum(add_compose(f, h), add_compose(g, h))
        assert add_compose(h, add_sum(f, g)) == add_sum(add_compose(h, f), add_compose(h, g))


def test_iterate():
    F3 = GF(3)
    f = AdditivePoly(F3, [-1, 1])  # z^3 - z
    assert iterate(f, 1) == f

    F2 = GF(2)
    g = AdditivePoly(F2, [1, 1])
    assert [c.coords[0] for c in iterate(g, 2).coeffs] == [1, 0, 1]

    rng = random.Random(17)
    for F in (GF(2, 2), GF(3)):
        for _ in range(6):
            f = random_separable(F, rng.randrange(1, 3), rng)
            for n in range(1, 5):
                assert iterate(f, n).coeffs[0] == f.coeffs[0] ** n

    # iterate(f, a+b) = iterate(f, a) o iterate(f, b)
    f = random_separable(GF(3), 1, rng)
    for a in range(1, 3):
        for b in range(1, 3):
            assert iterate(f, a + b) == add_compose(iterate(f, a), iterate(f, b))


def test_is_separable():
    F3 = GF(3)
    assert is_separable(AdditivePoly(F3, [-1, 1]))
    assert not is_separable(AdditivePoly(F3, [0, 0, 1]))  # z^9
    F2 = GF(2)
    assert is_separable(AdditivePoly(F2, [1, 0, 1]))


def test_root_space_small():
    F2 = GF(2)
    f = AdditivePoly(F2, [1, 1])  # z^2 + z = z(z+1)
    zs = root_space(f, 1)
    assert zs.dimension == 1
    assert {r.coords for r in zs.all_roots} == {(0,), (1,)}

    zs2 = root_space(f, 2)
    assert zs2.dimension == 2
    assert zs2.field.order == 4
    assert len(zs2.all_roots) == 4  # z^4 + z vanishes on all of F_4


def test_root_space_theorem_dimension():
    F3 = GF(3)
    f = AdditivePoly(F3, [-1, 1])
    zs = root_space(f, 2)
    assert len(zs.all_roots) == 9
    assert zs.dimension == 2


def test_root_space_matches_bruteforce_roots():
    # oracle: an exhaustive scan of the splitting field for the roots of the
    # iterate, against the span of the certified basis, in sort_key order
    for field, coeffs, n in (
        ((3, 1), [1, 1], 2),  # z^3 + z: 9 roots in GF(3^6)
        ((3, 1), [-1, 1], 3),  # z^3 - z: GF(27) is the root space
        ((5, 1), [-1, 1], 2),  # 25 roots in GF(5^5)
        ((2, 2), [1, 1, 1], 3),  # 64 roots in GF(2^12)
        ((2, 1), [1, 0, 0, 1], 4),  # z^8 + z: 2^12 roots, all of GF(2^12)
    ):
        f = AdditivePoly(GF(*field), coeffs)
        zs = root_space(f, n)
        fn = iterate(f, n).map_into(zs.field)
        brute = [e for e in zs.field.elements() if fn.evaluate(e).is_zero()]
        assert zs.all_roots == tuple(sorted(brute, key=lambda e: e.sort_key()))
        assert len(zs) == len(brute) == zs.field.p ** zs.dimension


def test_root_space_span_equals_roots():
    rng = random.Random(23)
    for F, m in ((GF(2), 1), (GF(3), 1), (GF(2, 2), 2)):
        f = random_separable(F, m, rng)
        zs = root_space(f, 2)
        assert zs.dimension == m * 2
        # the span of the basis is exactly the root set
        p = F.p
        span = set()
        from itertools import product

        for coeffs in product(range(p), repeat=zs.dimension):
            acc = zs.field.zero()
            for c, b in zip(coeffs, zs.basis):
                acc = acc + b * c
            span.add(acc)
        assert span == set(zs.all_roots)


def test_root_space_additivity_identity():
    rng = random.Random(29)
    F9 = GF(3, 2)
    f = random_separable(F9, 1, rng)
    zs = root_space(f, 1)
    K = zs.field
    fe = f.map_into(K)
    for _ in range(10):
        x = K.element_from_index(rng.randrange(K.order))
        y = K.element_from_index(rng.randrange(K.order))
        assert fe.evaluate(x + y) == fe.evaluate(x) + fe.evaluate(y)
        for lam in range(3):
            assert fe.evaluate(x * lam) == fe.evaluate(x) * lam


def test_root_space_errors():
    F3 = GF(3)
    with pytest.raises(Inseparable):
        root_space(AdditivePoly(F3, [0, 1, 1]), 1)
    f = AdditivePoly(F3, [1, 1])
    with pytest.raises(BudgetExceeded):
        root_space(f, 2, budget=5)


def test_corrupted_basis_fails_under_python_O():
    # a wrong kernel basis must be caught with asserts off, before any root
    # is enumerated: 1 is not a root of (z^3 + z)^2, so b + 1 is not either
    child = textwrap.dedent(
        """
        import sys
        from wildram import _linalg
        from wildram.addpoly import AdditivePoly, root_space
        from wildram.errors import CertificateFailed
        from wildram.ff import GF

        assert False, "asserts are on"
        real = _linalg.row_space_basis

        def shifted(mat, p):
            rows = real(mat, p).copy()
            rows[0, 0] = (rows[0, 0] + 1) % p
            return rows

        _linalg.row_space_basis = shifted
        try:
            root_space(AdditivePoly(GF(3), [1, 1]), 2)
        except CertificateFailed as exc:
            print("CertificateFailed:", exc)
            sys.exit(0)
        sys.exit(1)
        """
    )
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-O", "-c", child],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(src)},
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "is not 2 roots of f^2" in proc.stdout


def test_level_below_one_is_a_bad_parameter():
    f = AdditivePoly(GF(3), [1, 1])
    with pytest.raises(BadParameter):
        root_space(f, 0)
    with pytest.raises(BadParameter):
        iterate(f, 0)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_linearized_splitting_degree_matches_dense_oracle(p):
    # oracle: DDF of the dense f^n of degree p^(mn); the grid stops where
    # p^(mn) * j > 343, beyond which the dense route takes seconds per case
    rng = random.Random(p)
    for j in (1, 2, 3):
        F = GF(p, j)
        units = [x for x in F.elements() if not x.is_zero()]
        az = AdditivePoly(F, [rng.choice(units)])  # a*z: Frobenius degree 0
        assert az.splitting_degree() == splitting_degree(az.to_fqpoly()) == 1
        assert root_space(az, 1).field == F
        for m in (1, 2, 3):
            n = 1
            while p ** (m * n) * j <= 343:
                lead = rng.choice([u for u in units if u != F.one()] or units)
                middle = [F.element_from_index(rng.randrange(F.order)) for _ in range(m - 1)]
                fn = iterate(AdditivePoly(F, [rng.choice(units)] + middle + [lead]), n)
                assert fn.splitting_degree() == splitting_degree(fn.to_fqpoly()), (j, m, n)
                n += 1


def test_linearized_splitting_degree_guards():
    F3 = GF(3)
    with pytest.raises(Inseparable):
        AdditivePoly(F3, [0, 1]).splitting_degree()
    with pytest.raises(BudgetExceeded):
        AdditivePoly(F3, [-1, 0, 1]).splitting_degree(budget=8)
    assert AdditivePoly(F3, [-1, 0, 1]).splitting_degree(budget=9) == 2  # z^9 - z


def test_root_space_min_splitting_degree():
    F2 = GF(2)
    f = AdditivePoly(F2, [1, 1])
    zs = root_space(f, 2)
    # roots of z^4+z live exactly in F_4
    assert zs.min_splitting_degree == 2
    assert zs.field.k == 2
