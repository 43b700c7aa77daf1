import json
import os
import random
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from wildram import dynsys
from wildram.addpoly import AdditivePoly, recognize_additive, root_space
from wildram.domains import FiniteFieldDomain
from wildram.dynsys import Pgl2, RationalMap, conjugate
from wildram.errors import DegreeMismatch, Inseparable, NotAdditiveShape
from wildram.ff import GF, FqPoly, common_overfield, embed, solve_power
from wildram.moduli import (
    CensusReport,
    _affine_conjugate_additive,
    _fixed_point_core,
    _parse_additive_with_constant,
    _witness_carries,
    are_conjugate,
    census,
    closed_form_histogram,
    conjugating_set,
    enumerate_census_polys,
    fix_points,
    to_monic_additive,
)

from oracles import dense_monic_form, root_degree

SRC = Path(__file__).resolve().parents[1] / "src"


def as_rational_map(coeffs, const, F) -> RationalMap:
    """The dense map const + sum coeffs[i] z^(p^i) of degree p^m over F:
    the generic route that checks additive-ring results here."""
    p = F.p
    dense = [F.zero()] * (p ** (len(coeffs) - 1) + 1)
    dense[0] = const
    for i, a in enumerate(coeffs):
        dense[p**i] = dense[p**i] + a
    return RationalMap(FiniteFieldDomain(F), dense)


def brute_affine_monicizers(g: FqPoly, E):
    """Oracle: all (b, c) in E^2, b != 0, with (bz+c) o g o (bz+c)^(-1) monic additive."""
    dom = FiniteFieldDomain(E)
    ge = g.map_into(E)
    fmap = RationalMap(dom, list(ge.coeffs))
    out = []
    for nb in range(E.order):
        b = E.element_from_index(nb)
        if b.is_zero():
            continue
        for nc in range(E.order):
            c = E.element_from_index(nc)
            phi = Pgl2.affine(dom, b, c)
            h = conjugate(fmap, phi)
            if len(h.den) != 1:
                continue
            poly = FqPoly(E, list(h.num))
            add = recognize_additive(poly)
            if add is not None and add.coeffs[-1] == E.one():
                out.append((b, c, add))
    return out


def test_to_monic_additive_identity_case():
    F3 = GF(3)
    g = AdditivePoly(F3, [-1, 1])  # z^3 - z, already monic additive
    nf = to_monic_additive(g)
    assert nf.poly.coeffs[-1] == nf.field.one()
    assert [c.coords for c in nf.poly.coeffs] == [
        embed(x, nf.field).coords for x in g.coeffs
    ]


def test_to_monic_additive_scaling():
    # 2z^9 + z over F_3 -> z^9 + z after scaling by b with b^8 = 2
    F3 = GF(3)
    g = AdditivePoly(F3, [1, 0, 2])
    nf = to_monic_additive(g)
    assert nf.poly.coeffs[-1] == nf.field.one()
    assert nf.poly.coeffs[0] == nf.field.one()  # a_0 is multiplier-invariant
    b = nf.witness.affine_parts()[0]
    assert b**8 == embed(F3.from_int(2), nf.field)


def test_to_monic_additive_with_constant_oracle():
    # the spec/paper example 2z^3 + z + 1 over F_3: settle the witness
    # equation by exhaustive search over affine maps in F_27 (which contains
    # b in F_9 with b^2 = 2 and the translation root c)
    F3 = GF(3)
    g = FqPoly.from_ints(F3, [1, 1, 0, 2])
    nf = to_monic_additive(g)
    got = [c.coords for c in nf.poly.coeffs]
    # expected monic form: z^3 + z (the z-coefficient is invariant)
    assert nf.poly.coeffs[0] == nf.field.one()
    assert nf.poly.coeffs[-1] == nf.field.one()

    E = common_overfield(GF(3, 2), nf.field)
    witnesses = brute_affine_monicizers(g, E)
    assert witnesses, "oracle found no affine monicizer"
    # every oracle witness yields z^3 + z; and our (b, c) is among them
    for b, c, add in witnesses:
        assert list(add.coeffs) == [E.one(), E.one()]
    wb, wc = nf.witness.affine_parts()
    ours = (embed(wb, E), embed(wc, E))
    assert any(b == ours[0] and c == ours[1] for b, c, _ in witnesses)
    # the oracle witness set satisfies c^3 = b (not c^3 + c + b = 0)
    for b, c, _ in witnesses:
        assert c**3 == b
        assert c**3 + c + b != E.zero() or c.is_zero()


def test_to_monic_additive_errors():
    F3 = GF(3)
    with pytest.raises(NotAdditiveShape):
        to_monic_additive(FqPoly.from_ints(F3, [0, 1, 1, 1]))  # z^2 term
    with pytest.raises(Inseparable):
        to_monic_additive(AdditivePoly(F3, [0, 1, 1]))  # no z coefficient


def test_to_monic_additive_of_a_degree_81_map():
    # 2z^81 + z^3 + z over F_3: b^80 = 2 puts b in GF(3, 8), where the dense
    # route scanned 6561 elements at degree 80 (about 9 s); the expected
    # coordinates are that route's output
    F3 = GF(3)
    dense = [F3.zero()] * 82
    dense[1], dense[3], dense[81] = F3.one(), F3.one(), F3.from_int(2)
    start = time.perf_counter()
    nf = to_monic_additive(FqPoly(F3, dense))
    elapsed = time.perf_counter() - start
    assert (nf.field.k, nf.field.modulus) == (8, (2, 0, 1, 0, 0, 0, 0, 0, 1))
    assert [c.coords for c in nf.poly.coeffs] == [
        (1, 0, 0, 0, 0, 0, 0, 0), (2, 0, 2, 0, 0, 0, 1, 0), (0,) * 8, (0,) * 8,
        (1, 0, 0, 0, 0, 0, 0, 0)]
    gamma, delta = nf.witness.affine_parts()
    assert (gamma.coords, delta.coords) == ((0, 0, 0, 0, 0, 0, 0, 1), (0,) * 8)
    assert elapsed < 1.0, elapsed


MONIC_FAMILIES = [(p, m, k) for p in (2, 3, 5, 7, 11, 13) for m in range(1, 9)
                  for k in range(1, 5) if p**m <= 256 and p**k <= 16]


@st.composite
def additive_maps_with_constant(draw):
    """a_0 z + ... + a_m z^(p^m) + const over F_q, q <= 16 and p^m <= 256;
    a_0 = 1 (so the translation equation's L is inseparable) a third of the time."""
    p, m, k = draw(st.sampled_from(MONIC_FAMILIES))
    F = GF(p, k)
    elem = st.integers(0, F.order - 1).map(F.element_from_index)
    unit = st.integers(1, F.order - 1).map(F.element_from_index)
    a0 = draw(st.one_of(st.just(F.one()), unit, unit))
    coeffs = [a0, *draw(st.lists(elem, min_size=m - 1, max_size=m - 1)), draw(unit)]
    dense = [F.zero()] * (p**m + 1)
    dense[0] = draw(elem)
    for i, a in enumerate(coeffs):
        dense[p**i] = a
    return FqPoly(F, dense)


@settings(max_examples=100, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.filter_too_much])
@given(additive_maps_with_constant())
def test_normal_form_matches_dense_oracles(g):
    F, coeffs, const = _parse_additive_with_constant(g)
    p, degree = F.p, g.degree
    # The dense oracles cost about degree * |K| products in the field K of
    # the normal form, so |K| is bounded before either route runs: b's field
    # E by the root criterion, then K by |E|^(p d'), d' the splitting degree
    # of ker L' over E (K has degree d' or p d' over E).
    assume(degree * F.order ** root_degree(coeffs[-1], degree - 1) <= 2**16)
    b, Kb = solve_power(coeffs[-1], degree - 1)
    E = common_overfield(F, Kb)
    monic, shift = _affine_conjugate_additive(
        [embed(a, E) for a in coeffs], embed(const, E), embed(b, E), E.zero())
    L = [monic[0] - E.one(), *monic[1:]]
    core = AdditivePoly(E, L[next(i for i, a in enumerate(L) if a):])
    assume(not shift or degree * E.order ** (p * core.splitting_degree()) <= 2**16)
    nf = to_monic_additive(g)
    K, monic, b, c = dense_monic_form(g)
    assert nf.field == K
    assert [x.coords for x in nf.poly.coeffs] == [x.coords for x in monic]
    assert [x.coords for x in nf.witness.affine_parts()] == [b.coords, c.coords]


def test_fix_points_examples():
    F3 = GF(3)
    # g = z^3 + z: g - z = z^3, only root 0 (inseparability collapses Fix)
    pts, K = fix_points(AdditivePoly(F3, [1, 1]))
    assert set(pts) == {K.zero()}

    # g = z^3 - z: g - z = z^3 - 2z = z(z^2 - 2): 0 and two roots in F_9
    pts, K = fix_points(AdditivePoly(F3, [-1, 1]))
    assert len(pts) == 3
    two = embed(F3.from_int(2), K)
    assert {x for x in pts if not x.is_zero()} == {
        x for x in pts if not x.is_zero() and x * x == two
    }

    F2 = GF(2)
    pts, K = fix_points(AdditivePoly(F2, [1, 1]))  # z^2 + z: g - z = z^2
    assert set(pts) == {K.zero()}


def test_conjugating_set_sizes():
    F3 = GF(3)
    cs = conjugating_set(AdditivePoly(F3, [1, 1]))  # Fix = {0}: just scalings
    assert len(cs) == 2
    cs = conjugating_set(AdditivePoly(F3, [-1, 1]))  # |F_3^x| * |Fix| = 2 * 3
    assert len(cs) == 6
    F2 = GF(2)
    cs = conjugating_set(AdditivePoly(F2, [1, 1]))
    assert len(cs) == 1  # identity only


def test_conjugating_set_completeness_spot_check():
    # affine maps outside the set do NOT give monic additive conjugates
    F3 = GF(3)
    g = AdditivePoly(F3, [1, 1])
    cs = conjugating_set(g)
    E = cs.field
    dom = FiniteFieldDomain(E)
    inset = {phi.affine_parts() for phi in cs.maps}
    fmap = as_rational_map([embed(c, E) for c in g.coeffs], E.zero(), E)
    tried = 0
    for nb in range(E.order):
        b = E.element_from_index(nb)
        if b.is_zero():
            continue
        for nc in range(E.order):
            c = E.element_from_index(nc)
            if (b, c) in inset:
                continue
            phi = Pgl2.affine(dom, b, c)
            h = conjugate(fmap, phi)
            ok = len(h.den) == 1
            if ok:
                add = recognize_additive(FqPoly(E, list(h.num)))
                ok = add is not None and add.coeffs[-1] == E.one()
            assert not ok, f"map outside H_g produced a monic additive conjugate"
            tried += 1
            if tried >= 40:
                return


def test_are_conjugate():
    F3 = GF(3)
    g = AdditivePoly(F3, [1, 1])
    w = are_conjugate(g, g)
    assert w is not None

    g2 = AdditivePoly(F3, [2, 1])
    assert are_conjugate(g, g2) is None  # multipliers 1 vs 2 at the origin

    # f_c vs f_c' for distinct c
    fa = AdditivePoly(F3, [-1, 1])
    fb = AdditivePoly(F3, [-2, 1])
    assert are_conjugate(fa, fb) is None

    with pytest.raises(DegreeMismatch):
        are_conjugate(g, AdditivePoly(F3, [1, 0, 1]))


def test_are_conjugate_nontrivial_witness():
    # conjugate a map by a member of its own conjugating set: must detect
    F3 = GF(3)
    g = AdditivePoly(F3, [-1, 1])
    cs = conjugating_set(g)
    E = cs.field
    gE = AdditivePoly(E, [embed(c, E) for c in g.coeffs])
    from wildram.moduli import _affine_conjugate_additive

    phi = cs.maps[-1]
    new, const = _affine_conjugate_additive(
        list(gE.coeffs), E.zero(), phi.entries[0], phi.entries[1]
    )
    assert const.is_zero()
    h = AdditivePoly(E, new)
    w = are_conjugate(gE, h)
    assert w is not None


def test_census_tiny():
    rep = census(2, 1, 2)
    assert rep.total == 1 and rep.class_count == 1
    assert rep.fiber_histogram == {1: 1}

    rep = census(3, 1, 3)
    assert rep.total == 2 and rep.class_count == 2

    rep = census(3, 1, 9)
    assert rep.total == 8 and rep.class_count == 8
    assert rep.max_fiber == 1
    assert rep.bound_ok


def test_census_q27_multiplier_separation():
    rep = census(3, 1, 27)
    assert rep.class_count == 26  # q - 1


def test_census_m2():
    rep = census(2, 2, 4)
    assert rep.total == 12
    assert rep.bound_ok
    assert sum(size * count for size, count in rep.fiber_histogram.items()) == 12


def test_census_class_count_growth():
    # dimension witness: class counts grow like q^m up to bounded fibers,
    # so count >= total / ((p^m - 1) * p^m) with |Fix| <= p^m
    for p, m, qs in ((3, 1, (3, 9, 27)), (2, 2, (2, 4))):
        counts = []
        for q in qs:
            rep = census(p, m, q)
            bound = (p**m - 1) * p**m
            assert rep.class_count * bound >= rep.total
            counts.append(rep.class_count)
        assert counts == sorted(counts)  # monotone growth in q


def test_census_bruteforce_oracle_f4():
    # independent oracle for census(2, 1, 4): classes of z^2 + a0 z, a0 in F_4^x,
    # determined by brute-force affine conjugacy search inside F_16
    rep = census(2, 1, 4)
    F4, F16 = GF(2, 2), GF(2, 4)
    polys = []
    for n in range(1, 4):
        a0 = F4.element_from_index(n)
        polys.append(AdditivePoly(F4, [a0, F4.one()]))
    classes = []
    for g in polys:
        placed = False
        for cls in classes:
            h = cls[0]
            ge = FqPoly(F16, [embed(c, F16) for c in g.to_fqpoly().coeffs])
            he = FqPoly(F16, [embed(c, F16) for c in h.to_fqpoly().coeffs])
            if brute_conjugate_search(ge, he, F16):
                cls.append(g)
                placed = True
                break
        if not placed:
            classes.append([g])
    assert rep.class_count == len(classes)


def brute_conjugate_search(g: FqPoly, h: FqPoly, E) -> bool:
    dom = FiniteFieldDomain(E)
    gm = RationalMap(dom, list(g.coeffs))
    hm = RationalMap(dom, list(h.coeffs))
    for nb in range(E.order):
        b = E.element_from_index(nb)
        if b.is_zero():
            continue
        for nc in range(E.order):
            c = E.element_from_index(nc)
            if conjugate(gm, Pgl2.affine(dom, b, c)) == hm:
                return True
    return False


def test_round_trip_every_census_poly():
    from wildram.moduli import enumerate_census_polys

    for g in enumerate_census_polys(3, 1, 9):
        nf = to_monic_additive(g)
        assert nf.poly.coeffs[-1] == nf.field.one()


def enumeration_oracle(g1, g2):
    """Conjugacy by enumeration: conjugate g1 by every map of its conjugating
    set, in order, and return the first that gives g2 (over the common
    overfield of the set's field and g2's field)."""
    if g1.field.p != g2.field.p or g1.frobenius_degree != g2.frobenius_degree:
        raise DegreeMismatch("maps must share p and degree")
    cs = conjugating_set(g1)
    E = common_overfield(cs.field, g2.field)
    g2E = [embed(a, E) for a in g2.coeffs]
    g1E = [embed(a, E) for a in g1.coeffs]
    for phi in cs.maps:
        g0, d0 = phi.affine_parts()
        gamma, delta = embed(g0, E), embed(d0, E)
        new, new_const = _affine_conjugate_additive(g1E, E.zero(), gamma, delta)
        if new == g2E and new_const.is_zero():
            return Pgl2.affine(FiniteFieldDomain(E), gamma, delta)
    return None


def assert_matches_oracle(g1, g2):
    want = enumeration_oracle(g1, g2)
    got = are_conjugate(g1, g2)
    if want is None:
        assert got is None
    else:
        assert got == want and got.domain.field == want.domain.field
    return got


def same_multiplier_pairs(polys):
    return [(g, h) for g in polys for h in polys if g.coeffs[0] == h.coeffs[0]]


@pytest.mark.parametrize("family", [(2, 2, 4), (2, 3, 2), (3, 2, 3), (3, 1, 9), (5, 1, 5)])
def test_are_conjugate_matches_enumeration_on_census_families(family):
    found = [
        assert_matches_oracle(g, h) is not None
        for g, h in same_multiplier_pairs(list(enumerate_census_polys(*family)))
    ]
    assert any(found)


def test_are_conjugate_matches_enumeration_on_sampled_2_2_8():
    pairs = same_multiplier_pairs(list(enumerate_census_polys(2, 2, 8)))
    sample = random.Random(228).sample(pairs, 40)
    found = [assert_matches_oracle(g, h) is not None for g, h in sample]
    assert any(found) and not all(found)


def test_are_conjugate_matches_enumeration_into_larger_field(fresh_embeddings):
    # g1 over GF(2, 2); g2 over GF(2, 4): the scaled images of g1 by every
    # gamma in F_4^x, and every other family member with g1's multiplier.
    # The images are found only while F_4 -> F_16 -> E equals F_4 -> E,
    # which a history of other embeddings can break (ROADMAP D1).
    F4, F16 = GF(2, 2), GF(2, 4)
    polys = list(enumerate_census_polys(2, 2, 4))
    found = []
    for g in polys:
        for gamma in F4.elements():
            if gamma.is_zero():
                continue
            image, _ = _affine_conjugate_additive(list(g.coeffs), F4.zero(), gamma, F4.zero())
            h = AdditivePoly(F16, [embed(c, F16) for c in image])
            assert assert_matches_oracle(g, h) is not None
        for h in polys:
            if h.coeffs[0] == g.coeffs[0]:
                found.append(assert_matches_oracle(g, h.map_into(F16)) is not None)
    assert any(found) and not all(found)


def test_are_conjugate_degree_mismatch_like_enumeration():
    g = AdditivePoly(GF(3), [1, 1])
    for h in (AdditivePoly(GF(3), [1, 0, 1]), AdditivePoly(GF(2), [1, 1]),
              AdditivePoly(GF(3, 2), [1, 0, 1])):
        with pytest.raises(DegreeMismatch):
            enumeration_oracle(g, h)
        with pytest.raises(DegreeMismatch):
            are_conjugate(g, h)


def test_are_conjugate_rejects_non_monic_maps():
    # 2z^3 + z is conjugate to z^3 + z (its normal form) by a scaling outside
    # F_3^x, which the scaling walk would miss: refuse rather than say None
    monic, lead2 = AdditivePoly(GF(3), [1, 1]), AdditivePoly(GF(3), [1, 2])
    nf = to_monic_additive(lead2)
    assert list(nf.poly.coeffs) == [embed(c, nf.field) for c in monic.coeffs]
    for g1, g2 in ((lead2, monic), (monic, lead2), (lead2, lead2)):
        with pytest.raises(NotAdditiveShape):
            are_conjugate(g1, g2)


def test_census_2_3_4():
    rep = census(2, 3, 4)
    assert rep.total == 48 and rep.class_count == 48
    assert rep.bound_ok


def test_witness_check_runs_under_python_O():
    # a wrong additive composition must still be caught when asserts are off
    child = textwrap.dedent(
        """
        import sys
        from wildram import moduli
        from wildram.addpoly import AdditivePoly
        from wildram.errors import CertificateFailed
        from wildram.ff import GF

        assert False, "asserts are on"
        moduli.add_compose = lambda f, g: f
        g = AdditivePoly(GF(3), [1, 1])
        try:
            moduli.are_conjugate(g, g)
        except CertificateFailed as exc:
            print("CertificateFailed:", exc)
            sys.exit(0)
        sys.exit(1)
        """
    )
    proc = subprocess.run(
        [sys.executable, "-O", "-c", child],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(SRC)},
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "witness verification failed" in proc.stdout


def dense_carries(a, c1, b, c2, gamma, delta):
    """The oracle: conjugate the dense map of (a, c1) by gamma z + delta."""
    E = gamma.field
    phi = Pgl2.affine(FiniteFieldDomain(E), gamma, delta)
    return conjugate(as_rational_map(a, c1, E), phi) == as_rational_map(b, c2, E)


# (p, m, k): every p^m <= 2^6, coefficients in GF(p, k)
WITNESS_GRID = [(2, m, 2) for m in range(1, 7)] + [(2, 3, 3), (3, 1, 1), (3, 2, 2), (3, 3, 1),
                                                   (5, 1, 2), (5, 2, 1), (7, 1, 1), (7, 2, 1)]


@pytest.mark.parametrize("p, m, k", WITNESS_GRID)
def test_additive_witness_check_matches_dense_conjugation(p, m, k):
    # the true witness and its mutants (wrong gamma, wrong delta, wrong
    # constant on either side, one coefficient dropped) get the dense
    # route's verdict; a wrong gamma or delta may still conjugate (a
    # stabilizer element, a fixed point), the other mutants never do
    F = GF(p, k)
    rng = random.Random(f"witness:{p}:{m}:{k}")
    units = [x for x in F.elements() if x]
    rejected = 0
    for _ in range(3):
        a = [rng.choice(units)] + [F.element_from_index(rng.randrange(F.order)) for _ in range(m)]
        a[-1] = rng.choice(units)
        c1 = F.element_from_index(rng.randrange(F.order))
        gamma, delta = rng.choice(units), F.element_from_index(rng.randrange(F.order))
        b, c2 = _affine_conjugate_additive(a, c1, gamma, delta)
        dropped = rng.choice([i for i, x in enumerate(b) if x])
        cases = [(a, c1, b, c2, gamma, delta),
                 (a, c1, b, c2, rng.choice([u for u in units if u != gamma]), delta),
                 (a, c1, b, c2, gamma, delta + rng.choice(units)),
                 (a, c1, b, c2 + 1, gamma, delta),
                 (a, c1 + 1, b, c2, gamma, delta),
                 (a, c1, [F.zero() if i == dropped else x for i, x in enumerate(b)], c2, gamma, delta)]
        verdicts = [_witness_carries(*case) for case in cases]
        assert verdicts == [dense_carries(*case) for case in cases]
        assert verdicts[0] and not any(verdicts[3:])
        rejected += verdicts[1:3].count(False)
    assert rejected


def test_moduli_never_conjugates_dense_maps(monkeypatch):
    def boom(*args):
        raise AssertionError("dense conjugation reached")

    monkeypatch.setattr(dynsys, "conjugate", boom)
    monkeypatch.setattr(RationalMap, "compose", boom)
    F4 = GF(2, 2)
    g = AdditivePoly(F4, [F4.gen(), 0, 1])
    gamma = F4.gen()
    h = AdditivePoly(F4, _affine_conjugate_additive(list(g.coeffs), F4.zero(), gamma, F4.zero())[0])
    assert are_conjugate(g, h) is not None
    assert are_conjugate(g, AdditivePoly(F4, [1, 0, 1])) is None
    nf = to_monic_additive(FqPoly(GF(3), [1, 1, 0, 2]))  # 2z^3 + z + 1
    assert nf.poly.coeffs[-1] == nf.field.one()
    rep = census(2, 2, 4)
    assert rep.bound_ok and len(rep.witness_samples) == 3
    assert rep.witness_samples == pairwise_census_oracle(2, 2, 4).witness_samples


def pairwise_census_oracle(p, m, q, keep_witnesses=3):
    """Census by pairwise conjugacy tests: union-find over every pair with
    the same z-coefficient, the least index of a class as its root."""
    polys = list(enumerate_census_polys(p, m, q))
    total = len(polys)
    groups = {}
    for i, g in enumerate(polys):
        groups.setdefault(g.coeffs[0].coords, []).append(i)
    parent = list(range(total))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    witness_samples = []
    for key in sorted(groups):
        idxs = groups[key]
        for ii, i in enumerate(idxs):
            for j in idxs[ii + 1:]:
                ri, rj = find(i), find(j)
                if ri == rj:
                    continue
                w = are_conjugate(polys[i], polys[j])
                if w is None:
                    continue
                parent[max(ri, rj)] = min(ri, rj)
                if len(witness_samples) < keep_witnesses:
                    gamma, delta = w.affine_parts()
                    witness_samples.append({
                        "first": [list(c.coords) for c in polys[i].coeffs],
                        "second": [list(c.coords) for c in polys[j].coeffs],
                        "gamma": list(gamma.coords),
                        "delta": list(delta.coords),
                    })
    classes = {}
    for i in range(total):
        classes.setdefault(find(i), []).append(i)
    hist = {}
    bound_ok = True
    for root, members in classes.items():
        hist[len(members)] = hist.get(len(members), 0) + 1
        bound = (p**m - 1) * len(root_space(_fixed_point_core(polys[root]), 1))
        bound_ok = bound_ok and len(members) <= bound
    return CensusReport(
        p=p, m=m, q=q, total=total, class_count=len(classes), fiber_histogram=hist,
        max_fiber=max(hist), bound_ok=bound_ok,
        classes=[sorted(tuple(c.coords for c in polys[i].coeffs) for i in members)
                 for members in classes.values()],
        witness_samples=witness_samples,
    )


ORACLE_FAMILIES = [(2, 1, 2), (2, 1, 4), (3, 1, 3), (3, 1, 9), (2, 1, 16), (3, 1, 27),
                   (5, 1, 25), (7, 1, 49), (2, 2, 4), (2, 2, 8), (2, 3, 2), (2, 3, 4),
                   (3, 2, 3), (5, 2, 5)]


@pytest.mark.parametrize("family", ORACLE_FAMILIES, ids=str)
def test_census_matches_pairwise_oracle(family):
    got, want = census(*family), pairwise_census_oracle(*family)
    assert json.dumps(got.to_json()) == json.dumps(want.to_json())
    assert got.classes == want.classes


@pytest.mark.parametrize("family,classes", [((2, 3, 8), 70), ((2, 2, 32), 992), ((3, 2, 27), 364),
                                            ((2, 4, 4), 72), ((5, 2, 25), 120)], ids=str)
def test_census_equals_closed_form(family, classes):
    rep = census(*family)
    assert rep.class_count == sum(closed_form_histogram(*family).values()) == classes
    assert rep.fiber_histogram == closed_form_histogram(*family)
    assert sum(size * n for size, n in rep.fiber_histogram.items()) == rep.total
    assert rep.bound_ok


@pytest.mark.parametrize("p,m,js,low,high", [(2, 2, 8, 0.33, 1.0), (3, 2, 4, 0.25, 0.5),
                                             (2, 3, 8, 0.13, 1.0)])
def test_class_count_grows_like_q_to_the_m(p, m, js, low, high):
    # the classes meeting the family are m-dimensional: class_count / q^m
    # stays between constants as q = p^j grows, inside the proven bounds
    # 1 / (2^m (p^m - 1)) and 1
    for j in range(1, js + 1):
        q = p**j
        ratio = sum(closed_form_histogram(p, m, q).values()) / q**m
        assert 1 / (2**m * (p**m - 1)) <= low <= ratio <= high <= 1, (q, ratio)


def test_census_certificates_run_under_python_O():
    # a corrupted closed form or orbit step must be caught when asserts are off
    child = textwrap.dedent(
        """
        from wildram import moduli
        from wildram.errors import CertificateFailed
        from wildram.ff import FieldElement

        assert False, "asserts are on"

        def expect_failure(family):
            try:
                moduli.census(*family)
            except CertificateFailed as exc:
                print("CertificateFailed:", exc)
            else:
                print("passed", family)

        closed_form = moduli.closed_form_histogram
        moduli.closed_form_histogram = lambda p, m, q: {**closed_form(p, m, q), 1: 0}
        expect_failure((2, 2, 4))
        moduli.closed_form_histogram = closed_form

        # zeta = 1: every step is 1 and every class a singleton
        order = FieldElement.multiplicative_order
        FieldElement.multiplicative_order = lambda x: (x.field.order - 1) * (x == x.field.one())
        expect_failure((2, 2, 4))
        FieldElement.multiplicative_order = order

        # the step a_1 -> -a_1 of census(3, 2, 3) read back as 0
        embed = moduli.embed
        moduli.embed = lambda x, E: E.zero() if x.field.k == 2 else embed(x, E)
        expect_failure((3, 2, 3))
        """
    )
    proc = subprocess.run(
        [sys.executable, "-O", "-c", child],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(SRC)},
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "CertificateFailed: class sizes differ from the closed form",
        "CertificateFailed: class sizes differ from the closed form",
        "CertificateFailed: scaling orbits overlap",
    ]
