import os
import subprocess
import sys
import textwrap
from fractions import Fraction
from pathlib import Path

from unittest import mock

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from oracles import expanded_critical_data, expanded_lift
from wildram import gmlift
from wildram.cyclotomic import CyclotomicNumber, residue
from wildram.errors import BadParameter, BadResidueChoice, BudgetExceeded
from wildram.ff import GF, FqPoly, embed
from wildram.gmlift import (
    build_lift,
    lift_sides,
    lift_critical_data,
    lift_scheme_dot,
    multiplier_at_zero,
    orbit_search,
    pcf_locus_poly,
    reduce_lift,
    scaling_check,
)


def test_build_lift_p2_rational_oracle():
    # p = 2 collapses to Q: ((-2z + s)^2 - s^2)/4 = z^2 - sz exactly
    L = build_lift(2, a=3)
    ring = L.ring
    s = ring.s()
    assert s == ring.scalar(3)
    assert L.coeffs[0].is_zero()
    assert L.coeffs[1] == -s
    assert L.coeffs[2] == ring.one()


def test_build_lift_p3_exact_coefficients():
    # p=3, a=1: z^3 + (3/lambda) s z^2 + (3/lambda^2) s^2 z with lambda = zeta-1
    L = build_lift(3, a=1)
    ring = L.ring
    lam = CyclotomicNumber.lam(3)
    s = ring.s()
    assert L.coeffs[3] == ring.one()
    assert L.coeffs[2] == ring.scalar(CyclotomicNumber.from_rational(3, 3) / lam) * s
    assert L.coeffs[1] == ring.scalar(
        CyclotomicNumber.from_rational(3, 3) / lam**2
    ) * (s * s)
    # the cyclotomic units in closed form: 3/lambda = zeta^2 - 1 and
    # 3/lambda^2 = 1 + zeta (using lambda^2 = -3 zeta)
    zeta = CyclotomicNumber.zeta(3)
    one = CyclotomicNumber.from_rational(3, 1)
    assert CyclotomicNumber.from_rational(3, 3) / lam == zeta * zeta - one
    assert CyclotomicNumber.from_rational(3, 3) / lam**2 == one + zeta
    assert lam * lam == CyclotomicNumber.from_rational(3, -3) * zeta
    # middle coefficient valuation p-1-i: i=1 -> 1; z-coefficient: i=2 -> 0
    assert L.coefficient_valuations() == [0, 1, 0]


def test_build_lift_bad_parameters():
    with pytest.raises(BadParameter):
        build_lift(4, a=1)
    with pytest.raises(BadParameter):
        build_lift(3, a=3)
    with pytest.raises(BadParameter):
        build_lift(3)


def test_reduce_lift_examples():
    # p=3, a=1, sbar=1 -> z^3 - z
    L = build_lift(3, a=1)
    F3 = GF(3)
    out = reduce_lift(L, F3.one())
    assert out == FqPoly.from_ints(F3, [0, -1, 0, 1])

    # p=2, sbar=1 -> z^2 + z
    L2 = build_lift(2, a=1)
    F2 = GF(2)
    out = reduce_lift(L2, F2.one())
    assert out == FqPoly.from_ints(F2, [0, 1, 1])

    # p=5, a=2: sbar a 4th root of 2 in F_5^4 -> z^5 - 2z over that field
    L5 = build_lift(5, a=2)
    K = GF(5, 4)
    two = embed(GF(5).from_int(2), K)
    sbars = [e for e in K.elements() if e**4 == two]
    assert sbars
    out = reduce_lift(L5, sbars[0])
    assert out.degree == 5
    assert out[1] == -two

    with pytest.raises(BadResidueChoice):
        reduce_lift(L, F3.from_int(0))  # 0^2 = 0 != 1


def test_reduce_lift_rejects_bad_sbar():
    L = build_lift(3, a=2)
    F3 = GF(3)
    with pytest.raises(BadResidueChoice):
        reduce_lift(L, F3.one())  # 1^2 = 1 != 2


def test_lift_critical_data():
    L = build_lift(3, a=1)
    data = lift_critical_data(L)
    (inf_pt, e1), (crit, e2) = data.critical_points
    assert inf_pt is None and e1 == 3 and e2 == 3
    # value valuation: v(-s^p/lambda^p) = -p
    assert data.value_valuation == -3
    assert data.point_valuation == -1

    # p=2, s=1: f = z^2 - z, finite critical point -s/lambda = 1/2
    L2 = build_lift(2, a=1)
    d2 = lift_critical_data(L2)
    crit2 = d2.critical_points[1][0]
    assert crit2 == L2.ring.scalar(Fraction(1, 2))


def test_orbit_search_escape_p3():
    for a in (1, 2, 4):
        L = build_lift(3, a=a)
        cert = orbit_search(L, 10)
        assert cert.verdict == "escape"
        assert cert.threshold_index == 0
        v = cert.valuations[0]
        assert v == -3
        for i in range(1, len(cert.valuations)):
            assert cert.valuations[i] == 3 * cert.valuations[i - 1]


def test_orbit_search_finite_p2():
    # z^2 - 2z: critical point 1, value -1; orbit -1 -> 3 -> 3 fixed
    L = build_lift(2, a=2)
    cert = orbit_search(L, 20)
    assert cert.verdict == "finite"
    ring = L.ring
    assert cert.points[0] == ring.scalar(-1)
    assert cert.points[1] == ring.scalar(3)
    assert cert.preperiod == 1 and cert.period == 1


def test_orbit_search_escape_p2():
    # z^2 - z: critical value -1/4, valuations -2, -4, -8 under v = v_2
    L = build_lift(2, a=1)
    cert = orbit_search(L, 10)
    assert cert.verdict == "escape"
    assert cert.points[0] == L.ring.scalar(Fraction(-1, 4))
    assert cert.valuations[0] == -2
    assert cert.valuations[1] == -4
    assert cert.valuations[2] == -8


def test_orbit_search_oracle_p2_plain_rationals():
    # independent oracle: iterate z^2 - z on plain Fractions
    L = build_lift(2, a=1)
    cert = orbit_search(L, 8)
    x = Fraction(1, 2)  # critical point
    vals = []
    for _ in range(len(cert.points)):
        x = x * x - x
        vals.append(x)
    for ours, plain in zip(cert.points, vals):
        assert ours == L.ring.scalar(plain)


def test_pcf_locus_degree():
    poly, rep = pcf_locus_poly(3, 1, 1)
    assert rep.degree == 9
    assert poly.degree == 9
    assert rep.zero_multiplicity >= 1  # s = 0 degenerates

    poly2, rep2 = pcf_locus_poly(2, 1, 1)
    assert rep2.degree == 4
    assert rep2.roots_complete or rep2.rational_roots is not None

    with pytest.raises(BudgetExceeded):
        pcf_locus_poly(3, 2, 3)
    with pytest.raises(BudgetExceeded):
        pcf_locus_poly(7, 1, 1)


def test_pcf_locus_p2_oracle():
    # oracle for p=2: f = z^2 - sz over Q[s], critical point s/2:
    # f(s/2) = -s^2/4; f^2(s/2) = s^4/16 + s^3/4... expand by hand with Fractions
    import random

    poly, rep = pcf_locus_poly(2, 1, 1)
    rng = random.Random(4)
    for _ in range(8):
        s = Fraction(rng.randrange(-9, 10), rng.randrange(1, 5))
        c = s / 2
        f1 = c * c - s * c
        f2 = f1 * f1 - s * f1
        expected = f1 - f2
        got = Fraction(0)
        for i, coeff in enumerate(poly.coeffs):
            got += coeff.coords[0] * s**i
        assert got == expected


def test_scaling_check_all_small_primes():
    for p in (2, 3, 5, 7, 11, 13):
        assert scaling_check(p)


def test_multiplier_at_zero():
    # multipliers agree iff the ring parameter a agrees (s' = gamma s keeps a)
    lam = CyclotomicNumber.lam(3)
    m1 = multiplier_at_zero(build_lift(3, a=1))
    assert m1 == CyclotomicNumber.from_rational(3, 3) / lam**2
    # the exact value is -zeta^2 (the paper-adjacent -s^(p-1) only holds mod lambda)
    zeta = CyclotomicNumber.zeta(3)
    assert m1 == -(zeta * zeta)
    m2 = multiplier_at_zero(build_lift(3, a=2))
    assert m1 != m2
    # residue of the a=1 multiplier is -1 = -c with c = 1
    assert residue(m1) == 2


def test_lift_scheme_dot():
    L = build_lift(3, a=1)
    cert = orbit_search(L, 6)
    dot = lift_scheme_dot(L, cert)
    assert "inf -> inf" in dot and 'label="3"' in dot
    assert "-s/lambda" in dot


def test_reduction_feeds_the_dynamics_layer():
    # the reduced map is z^p - cz, whose scheme is the single wild loop
    from wildram.domains import FiniteFieldDomain
    from wildram.dynsys import RationalMap, post_critical_orbit

    L = build_lift(3, a=2)
    F9 = GF(3, 2)
    two = embed(GF(3).from_int(2), F9)
    sbar = next(e for e in F9.elements() if e * e == two)
    reduced = reduce_lift(L, sbar)
    f = RationalMap(FiniteFieldDomain(F9), list(reduced.coeffs))
    scheme = post_critical_orbit(f, 16)
    assert len(scheme.vertices) == 1 and scheme.vertices[0].is_infinity
    assert scheme.edges == ((0, 0, 3),)


def test_corrupted_closed_form_fails_under_python_O():
    # a wrong binomial in the closed form must still be caught with asserts off
    child = textwrap.dedent(
        """
        import sys
        from math import comb
        from wildram import gmlift
        from wildram.errors import CertificateFailed

        assert False, "asserts are on"
        gmlift.comb = lambda n, k: comb(n, k) + (k == 1)
        try:
            gmlift.build_lift(3, a=1)
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
    assert "closed form disagrees with the direct expansion" in proc.stdout


def run_child(child: str, *flags: str) -> subprocess.CompletedProcess:
    src = Path(__file__).resolve().parents[1] / "src"
    return subprocess.run(
        [sys.executable, *flags, "-c", textwrap.dedent(child)],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(src)},
        timeout=120,
    )


def test_corrupted_closed_form_fails_under_python_O_with_a_warm_prime():
    # the sides expanded for p = 3 are cached; a later a still compares the
    # closed form, built again from comb, with their image
    proc = run_child(
        """
        import sys
        from math import comb
        from wildram import gmlift
        from wildram.errors import CertificateFailed

        assert False, "asserts are on"
        gmlift.build_lift(3, a=1)
        gmlift.comb = lambda n, k: comb(n, k) + (k == 1)
        try:
            gmlift.build_lift(3, a=2)
        except CertificateFailed as exc:
            print("CertificateFailed:", exc)
            sys.exit(0)
        sys.exit(1)
        """,
        "-O",
    )
    assert proc.returncode == 0, proc.stderr
    assert "closed form disagrees with the direct expansion" in proc.stdout


def test_import_does_no_lift_work():
    # importing the package expands nothing; the sides are filled once per prime
    proc = run_child(
        """
        import wildram
        from wildram import gmlift

        print(gmlift.lift_sides.cache_info().currsize)
        gmlift.build_lift(5, a=2)
        gmlift.build_lift(5, a=3)
        print(gmlift.lift_sides.cache_info().currsize)
        """
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["0", "1"]


def _lift_results(p, a):
    L = build_lift(p, a=a)
    return L.coeffs, lift_critical_data(L).to_json(), orbit_search(L, 6)


@settings(max_examples=24, deadline=None, derandomize=True)
@given(p=st.sampled_from([2, 3, 5, 7, 11, 13]), a=st.integers(-30, 30))
@example(p=13, a=-1)
@example(p=7, a=8)
@example(p=2, a=-3)
@example(p=11, a=1)
def test_lift_matches_the_per_a_expansion(p, a):
    assume(a != 0 and (a % p != 0 or p == 2))
    coeffs, critical, orbit = _lift_results(p, a)
    O = expanded_lift(p, a)
    assert coeffs == O.coeffs
    assert critical == expanded_critical_data(O).to_json()
    with mock.patch.object(gmlift, "lift_critical_data", expanded_critical_data):
        assert orbit == orbit_search(O, 6)


def test_results_do_not_depend_on_the_per_prime_cache():
    for p, a in ((2, 2), (3, -1), (7, 3)):
        lift_sides.cache_clear()
        cold = _lift_results(p, a)
        _lift_results(p, a + p)
        assert _lift_results(p, a) == cold
