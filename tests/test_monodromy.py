import random
from fractions import Fraction
from itertools import permutations, product

import pytest

from wildram import addpoly
from wildram.addpoly import AdditivePoly
from wildram.domains import RationalDomain
from wildram.dynsys import RationalMap
from wildram.errors import BadParameter, BudgetExceeded, Inseparable, NotPolynomial, NotPrime
from wildram.ff import GF
from wildram.moduli import are_conjugate, census
from wildram.monodromy import (
    GroupAction,
    char0_obstruction,
    is_free,
    lift_obstruction,
    monodromy_level,
    odometer_check,
    stabilizer_orders,
    tower,
    wreath_log_order,
)

QQ = RationalDomain()


def symmetric(n):
    """The natural action of S_n on n points."""
    pts = list(range(n))
    elems = list(permutations(pts))
    return GroupAction(elems, pts, {g: {i: g[i] for i in pts} for g in elems})


def test_monodromy_level_examples():
    F2 = GF(2)
    lvl = monodromy_level(AdditivePoly(F2, [1, 1]), 2)
    assert lvl.order == 4
    assert lvl.abelian_invariants() == (2, 2)

    F3 = GF(3)
    lvl = monodromy_level(AdditivePoly(F3, [-1, 1]), 1)
    assert lvl.order == 3
    assert lvl.action.is_free() and lvl.action.is_transitive()

    lvl = monodromy_level(AdditivePoly(F3, [1, 0, 1]), 1)  # z^9 + z
    assert lvl.order == 9
    assert lvl.abelian_invariants() == (3, 3)


def test_level_order_past_the_int64_range(monkeypatch):
    # |Z_64| = 2^64 is an int, but len() cannot return it
    monkeypatch.setenv("WILDRAM_BUDGET", str(2**70))
    lvl = monodromy_level(AdditivePoly(GF(2), [1, 1]), 64)
    assert lvl.order == 2**64
    with pytest.raises(BadParameter):
        len(lvl.space)


def test_monodromy_level_inseparable():
    F3 = GF(3)
    with pytest.raises(Inseparable):
        monodromy_level(AdditivePoly(F3, [0, 1, 1]), 1)


def test_free_transitive_order_equality():
    rng = random.Random(3)
    for F, m in ((GF(2), 1), (GF(3), 1)):
        for n in (1, 2):
            coeffs = [F.element_from_index(rng.randrange(1, F.order)) for _ in range(m + 1)]
            f = AdditivePoly(F, coeffs)
            lvl = monodromy_level(f, n)
            assert len(lvl.action.elements) == len(lvl.action.points)


def test_group_action_helpers():
    s3 = symmetric(3)
    assert not is_free(s3)
    assert stabilizer_orders(s3) == [2, 2, 2]

    trivial = GroupAction([()], [0, 1], {(): {0: 0, 1: 1}})
    assert is_free(trivial)

    F2 = GF(2)
    lvl = monodromy_level(AdditivePoly(F2, [1, 1]), 2)
    assert is_free(lvl.action)


def test_tower_z2z():
    F2 = GF(2)
    f = AdditivePoly(F2, [1, 1])
    tw = tower(f, 2)
    assert tw.depth == 2
    proj = tw.projections[0]
    assert proj.source_level == 2 and proj.target_level == 1
    assert proj.kernel_size == 2
    # the projection is alpha -> alpha^2 + alpha on F_4
    K = tw.levels[1].space.field
    for alpha, img in proj.mapping.items():
        assert img == alpha * alpha + alpha


def test_tower_z3_minus_z():
    F3 = GF(3)
    f = AdditivePoly(F3, [-1, 1])
    tw = tower(f, 2)
    proj = tw.projections[0]
    assert proj.kernel_size == 3
    # kernel of the projection is Z_1 = {0, 1, -1} in the top field
    kernel = {a for a, img in proj.mapping.items() if img.is_zero()}
    K = tw.levels[1].space.field
    assert kernel == {K.zero(), K.one(), -K.one()}


def _random_separable(F, m, rng):
    while True:
        coeffs = [F.element_from_index(rng.randrange(F.order)) for _ in range(m + 1)]
        if not coeffs[0].is_zero() and not coeffs[m].is_zero():
            return AdditivePoly(F, coeffs)


@pytest.mark.parametrize("p,m,n_max", [(2, 1, 4), (2, 2, 2), (3, 1, 3), (3, 2, 2), (5, 1, 2)])
def test_tables_agree_with_basis_certificates(p, m, n_max):
    # oracle: the explicit permutation tables and the literal projection
    # mapping, at the sizes of acceptance criterion 1
    rng = random.Random(p * 10 + m)
    F = GF(p, m)
    for _ in range(2):
        f = _random_separable(F, m, rng)
        for n in range(1, n_max + 1):
            lvl = monodromy_level(f, n)
            table = lvl.action.table()
            assert table.is_free() and table.is_transitive()
            assert lvl.action.is_free() and lvl.action.is_transitive()
            assert len(table.elements) == len(table.points) == lvl.order == p ** (m * n)
            orders = {g: table.element_order(g) for g in table.elements}
            assert orders == {g: lvl.action.element_order(g) for g in lvl.action.elements}
            assert sorted(set(orders.values())) == [1, p]
            assert lvl.abelian_invariants() == (p,) * (m * n)
            assert stabilizer_orders(lvl.action) == [1] * lvl.order
        tw = tower(f, n_max)
        for proj, upper, lower in zip(tw.projections, tw.levels[1:], tw.levels):
            space = upper.space
            # the literal mapping is the linear extension of the basis images
            for coeffs in product(range(p), repeat=space.dimension):
                alpha = sum((b * c for b, c in zip(space.basis, coeffs)), space.field.zero())
                image = sum((y * c for y, c in zip(proj.images, coeffs)), space.field.zero())
                assert proj.mapping[alpha] == image
            assert set(proj.mapping.values()) == set(lower.space.all_roots)
            kernel = sum(1 for img in proj.mapping.values() if img.is_zero())
            assert kernel == proj.kernel_size == p**m


def test_translation_table_respects_budget(monkeypatch):
    monkeypatch.setenv("WILDRAM_BUDGET", "1000")
    lvl = monodromy_level(AdditivePoly(GF(2), [1, 1]), 6)  # |Z_6| = 64 <= 1000 < 64^2
    assert lvl.order == 64 and lvl.action.is_free() and lvl.action.is_transitive()
    assert lvl.abelian_invariants() == (2,) * 6
    with pytest.raises(BudgetExceeded):
        lvl.action.table()
    with pytest.raises(BudgetExceeded):
        lvl.action.perms
    with pytest.raises(BudgetExceeded):
        GroupAction.translation(lvl.space.all_roots)


def test_a_lowered_budget_refuses_a_level_built_before(monkeypatch):
    # a level built under a raised budget is neither listed nor served from
    # the root-space cache once the budget is lowered
    f = AdditivePoly(GF(2), [1, 1])
    monkeypatch.setenv("WILDRAM_BUDGET", "131072")
    lvl = monodromy_level(f, 17)
    monkeypatch.setenv("WILDRAM_BUDGET", "65536")
    assert lvl.order == 2**17
    with pytest.raises(BudgetExceeded, match="131072"):
        lvl.space.all_roots
    with pytest.raises(BudgetExceeded, match="131072"):
        monodromy_level(f, 17)


def test_queries_never_enumerate_root_spaces(monkeypatch):
    # every query answer comes from the basis of Z_n; spanning it is an oracle
    def no_span(*args):
        raise AssertionError("a query enumerated a root space")

    addpoly._root_space_cached.cache_clear()
    monkeypatch.setattr(addpoly, "_span", no_span)
    f = AdditivePoly(GF(2), [1, 1])
    lvl = monodromy_level(f, 16)
    assert lvl.order == 2**16 and lvl.action.is_free() and lvl.action.is_transitive()
    assert lvl.abelian_invariants() == (2,) * 16
    assert [pr.kernel_size for pr in tower(AdditivePoly(GF(3), [1, 1]), 3).projections] == [3, 3]
    assert lift_obstruction(f).level_points == 8
    assert census(2, 2, 4).bound_ok
    g = AdditivePoly(GF(3), [-1, 1])
    assert are_conjugate(g, g) is not None
    addpoly._root_space_cached.cache_clear()


def test_range_errors_are_bad_parameters():
    with pytest.raises(BadParameter):
        char0_obstruction(2, 0)
    with pytest.raises(BadParameter):
        wreath_log_order(3, 0)


def test_tower_depth_one():
    F3 = GF(3)
    tw = tower(AdditivePoly(F3, [1, 1]), 1)
    assert tw.depth == 1 and tw.projections == ()


def test_char0_obstruction_table():
    rep = char0_obstruction(2, 3)
    assert rep.crit_count == 14
    assert not rep.divides and rep.obstructed

    rep = char0_obstruction(2, 2)
    assert rep.crit_count == 6
    assert rep.divides and not rep.obstructed
    assert rep.iterate_hint == 2  # pass to f^n with n*m >= 3

    rep = char0_obstruction(3, 2)
    assert rep.crit_count == 8
    assert not rep.divides and rep.obstructed

    with pytest.raises(NotPrime):
        char0_obstruction(6, 2)


def test_lemma_divisibility_sweep():
    # p^(m-1) never divides 2(p^m-1)/(p-1) for primes p <= 13, 2 <= m <= 8,
    # except exactly (2, 2)
    exceptions = []
    for p in (2, 3, 5, 7, 11, 13):
        for m in range(2, 9):
            rep = char0_obstruction(p, m)
            if rep.divides:
                exceptions.append((p, m))
    assert exceptions == [(2, 2)]


def test_lift_obstruction_pipeline():
    F2 = GF(2)
    cert = lift_obstruction(AdditivePoly(F2, [1, 1]))
    assert cert.ell == 1 and cert.n == 3
    assert cert.level_order == 8 and cert.level_points == 8
    assert cert.level_free and cert.level_transitive
    assert cert.invariants == (2, 2, 2)
    assert cert.report.crit_count == 14 and cert.report.obstructed

    F9 = GF(3, 2)
    cert = lift_obstruction(AdditivePoly(F9, [F9.gen(), F9.zero(), F9.one()]))
    assert cert.ell == 2 and cert.n == 2
    assert cert.report.p == 3 and cert.report.m == 4


def test_wreath_log_order():
    assert wreath_log_order(3, 2) == 4
    assert wreath_log_order(2, 1) == 1
    assert wreath_log_order(5, 3) == 31
    # the monodromy-size gap at matching degree p^(m*n): the iterated wreath
    # tower strictly beats the flat additive tower once the depth exceeds 1
    for p in (2, 3, 5, 7):
        for m in (1, 2, 3):
            for n in range(1, 6):
                if m * n >= 2:
                    assert wreath_log_order(p, m * n) > m * n
    assert wreath_log_order(2, 1) == 1  # depth one: towers agree


def test_odometer_check():
    f = RationalMap(QQ, [Fraction(1), Fraction(0), Fraction(1)])  # z^2 + 1
    assert odometer_check(f, 3)

    g = RationalMap(QQ, [Fraction(0)] * 3 + [Fraction(1)])  # z^3
    assert odometer_check(g, 2)

    h = RationalMap(QQ, [Fraction(0), Fraction(-1), Fraction(1)])  # z^2 - z
    assert odometer_check(h, 2)

    rational = RationalMap(QQ, [Fraction(1)], [Fraction(0), Fraction(1)])  # 1/z
    with pytest.raises(NotPolynomial):
        odometer_check(rational, 2)
