"""Geometric monodromy of additive polynomials and the lifting obstruction.

The fiber of f^n over a transcendental basepoint is a torsor over the root
space Z_n: fixing one preimage theta_n, the others are theta_n + alpha for
alpha in Z_n, and the Galois action is translation.  The levels therefore
carry a free transitive action of an elementary abelian p-group of rank
m*n, and the tower projections are alpha -> f(alpha).

Every answer comes from a basis of Z_n, never from enumerating the group:
root_space certifies m*n independent vectors on which f^n vanishes, so
their span is all p^(m*n) roots of the separable f^n, the order is
p^(m*n) and the action is free and transitive; p*b = 0 on the basis gives
exponent p.  A projection is f on the basis of Z_n, and rank certificates
show that its image is Z_(n-1) and its kernel has order p^m.  Element
lists, permutation tables (``GroupAction``) and the literal projection
``mapping`` are built only when asked for, as oracles.

Characteristic zero cannot reproduce this: a polynomial of degree d has a
cyclic inertia group of order d over infinity (the d-adic odometer), which
has elements of unbounded order, and for degree p^M with M >= 3 the
critical-point count 2(p^M - 1)/(p - 1) is not divisible by p^(M-1), so an
elementary abelian monodromy group of exponent p cannot act freely.  Both
obstructions are computed exactly here.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import _linalg
from .addpoly import AdditivePoly, RootSpace, is_separable, root_space
from .dynsys import ProjPoint, RationalMap, ram_profile
from .errors import BadParameter, BudgetExceeded, Inseparable, NotPolynomial, NotPrime, _certify
from .ff import enumeration_budget, is_prime


# ---------------------------------------------------------------------------
# Finite group actions, explicitly
# ---------------------------------------------------------------------------

class GroupAction:
    """A finite group acting on a finite set, stored as permutations.

    ``elements`` are hashable group labels, ``points`` hashable set labels,
    and ``perms[g]`` maps each point to its image under g.
    """

    def __init__(self, elements, points, perms):
        self.elements = list(elements)
        self.points = list(points)
        self.perms = perms

    @classmethod
    def translation(cls, roots):
        """The regular action x -> x + a of an additive group on itself.

        The table has |roots|^2 entries; more than the enumeration budget
        raises BudgetExceeded before anything is built.
        """
        elems = list(roots)
        budget = enumeration_budget()
        if len(elems) ** 2 > budget:
            raise BudgetExceeded(
                f"translation table of {len(elems)}^2 entries exceeds the budget {budget}"
            )
        perms = {a: {x: a + x for x in elems} for a in elems}
        return cls(elems, list(elems), perms)

    def stabilizer_orders(self) -> dict:
        """Point -> order of its stabilizer subgroup."""
        out = {}
        for x in self.points:
            out[x] = sum(1 for g in self.elements if self.perms[g][x] == x)
        return out

    def is_free(self) -> bool:
        return all(v == 1 for v in self.stabilizer_orders().values())

    def is_transitive(self) -> bool:
        if not self.points:
            return True
        x0 = self.points[0]
        orbit = {self.perms[g][x0] for g in self.elements}
        return len(orbit) == len(self.points)

    def element_order(self, g) -> int:
        perm = self.perms[g]
        order = 1
        cur = perm
        while any(cur[x] != x for x in self.points):
            cur = {x: perm[cur[x]] for x in self.points}
            order += 1
        return order


def is_free(action: GroupAction) -> bool:
    """Every point stabilizer trivial."""
    return action.is_free()


def stabilizer_orders(action: GroupAction) -> list[int]:
    return sorted(action.stabilizer_orders().values())


# ---------------------------------------------------------------------------
# Monodromy levels and towers
# ---------------------------------------------------------------------------

def _coords(elems) -> np.ndarray:
    return np.array([x.coords for x in elems], dtype=np.int64)


class TranslationAction(GroupAction):
    """Z_n acting on itself by x -> x + a, answered from its basis.

    ``rank`` is the dimension of the certified basis.  When it is m*n the
    action is free and transitive (see the module docstring); in
    characteristic p every nonzero element has order p.  ``elements`` and
    ``points`` list Z_n; ``perms``, ``stabilizer_orders()`` and ``table()``
    go through the explicit GroupAction, built on demand.
    """

    def __init__(self, space: RootSpace):
        self.space = space
        self.rank = space.dimension
        self.certified = self.rank == space.poly.frobenius_degree * space.level

    @property
    def elements(self):
        return list(self.space.all_roots)

    points = elements

    def table(self) -> GroupAction:
        """The explicit permutation tables, within the enumeration budget."""
        return GroupAction.translation(self.space.all_roots)

    @cached_property
    def perms(self) -> dict:
        return self.table().perms

    def is_free(self) -> bool:
        return self.certified

    def is_transitive(self) -> bool:
        return self.certified

    def element_order(self, g) -> int:
        K = self.space.field
        if getattr(g, "field", None) != K:
            raise KeyError(g)
        if _linalg.rank(_coords(self.space.basis + (g,)), K.p) != self.rank:  # g is not in Z_n
            raise KeyError(g)
        return 1 if g.is_zero() else K.p


@dataclass(frozen=True)
class MonodromyLevel:
    """Level n of the tower: Z_n acting on the fiber model by translation.

    The basepoint label theta_n corresponds to 0; the group is Z_n under
    addition and acts freely and transitively, so |group| = |fiber|.
    """

    poly: AdditivePoly
    level: int
    space: RootSpace
    action: TranslationAction

    @property
    def order(self) -> int:
        return len(self.space)

    def abelian_invariants(self) -> tuple[int, ...]:
        """Invariant factors, all p: p*b = 0 on a basis of rank dim Z_n."""
        p = self.poly.field.p
        _certify(all((b * p).is_zero() for b in self.space.basis), f"basis element of order > {p}")
        return (p,) * self.space.dimension


def _level(f: AdditivePoly, zs: RootSpace) -> MonodromyLevel:
    action = TranslationAction(zs)
    _certify(action.certified, f"basis of Z_{zs.level} has rank {action.rank}")
    return MonodromyLevel(f, zs.level, zs, action)


def monodromy_level(f: AdditivePoly, n: int, budget: int | None = None,
                    ambient=None) -> MonodromyLevel:
    """Build level n with certified transitivity and freeness."""
    if not is_separable(f):
        raise Inseparable("monodromy needs a separable additive polynomial")
    return _level(f, root_space(f, n, budget=budget, ambient=ambient))


@dataclass(frozen=True)
class TowerProjection:
    """alpha -> f(alpha) from Z_n onto Z_(n-1): surjective, kernel Z_1.

    ``images`` are f on the basis of Z_n, certified by rank to span
    Z_(n-1).  ``mapping`` evaluates f on every element of Z_n, on first
    access.
    """

    source_level: int
    target_level: int
    images: tuple
    kernel_size: int
    source: RootSpace = field(repr=False, compare=False)
    poly: AdditivePoly = field(repr=False, compare=False)  # f over source.field

    @cached_property
    def mapping(self) -> dict:
        """Element of Z_n -> element of Z_(n-1), by literal evaluation."""
        return {alpha: self.poly.evaluate(alpha) for alpha in self.source.all_roots}


@dataclass(frozen=True)
class Tower:
    poly: AdditivePoly
    levels: tuple[MonodromyLevel, ...]
    projections: tuple[TowerProjection, ...]

    @property
    def depth(self) -> int:
        return len(self.levels)


def tower(f: AdditivePoly, N: int, budget: int | None = None) -> Tower:
    """Levels 1..N in a common ambient field with certified projections.

    All levels are realized inside the splitting field of f^N so that the
    projection alpha -> f(alpha) is literal evaluation.  f is evaluated on
    the basis of Z_n only: rank([basis Z_(n-1); images]) = rank(basis
    Z_(n-1)) puts the image inside Z_(n-1), rank(images) = m(n-1) makes it
    onto, and the kernel has order p^(mn - rank) = p^m.  Equivariance
    f(x + a) = f(x) + f(a) is the additivity of f.
    """
    if not is_separable(f):
        raise Inseparable("towers need a separable additive polynomial")
    if budget is None:
        budget = enumeration_budget()
    top = root_space(f, N, budget=budget)
    K = top.field
    levels = [
        _level(f, top if n == N else root_space(f, n, budget=budget, ambient=K))
        for n in range(1, N + 1)
    ]
    fK = f.map_into(K)
    p = f.field.p
    m = f.frobenius_degree
    projections = []
    for n in range(2, N + 1):
        upper, lower = levels[n - 1], levels[n - 2]
        images = tuple(fK.evaluate(b) for b in upper.space.basis)
        rows = _coords(images)
        stacked = np.vstack([_coords(lower.space.basis), rows])
        _certify(_linalg.rank(stacked, p) == lower.action.rank,
                 "projection left the lower root space")
        rank = _linalg.rank(rows, p)
        _certify(rank == m * (n - 1), "projection must be onto")
        kernel = p ** (m * n - rank)
        _certify(kernel == p**m, f"kernel size {kernel} != p^m")
        projections.append(TowerProjection(n, n - 1, images, kernel, upper.space, fK))
    return Tower(f, tuple(levels), tuple(projections))


# ---------------------------------------------------------------------------
# Characteristic-zero obstructions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ObstructionReport:
    """Exact arithmetic behind the no-free-action argument at one degree.

    crit_count = 2(p^M - 1)/(p - 1) counts critical points of a degree-p^M
    map in characteristic zero whose monodromy is elementary abelian of
    exponent p (every ramification index is then p).  If p^(M-1) does not
    divide it, some branch point has an unramified preimage and the
    inertia generator fixes a fiber point: the action is not free.
    """

    p: int
    m: int
    crit_count: int
    divides: bool
    obstructed: bool
    iterate_hint: int
    exponent_note: str

    def to_json(self):
        return {
            "p": self.p,
            "m": self.m,
            "crit_count": self.crit_count,
            "p_power_divides": self.divides,
            "obstructed": self.obstructed,
            "iterate_hint": self.iterate_hint,
            "exponent_note": self.exponent_note,
        }


def char0_obstruction(p: int, m: int) -> ObstructionReport:
    """Critical-point count and divisibility test for degree p^m, exactly."""
    if not is_prime(p):
        raise NotPrime(f"{p} is not prime")
    if m < 1:
        raise BadParameter("m must be >= 1")
    crit_count = 2 * (p**m - 1) // (p - 1)
    divides = crit_count % p ** (m - 1) == 0
    # an inconclusive level passes to an iterate f^n of degree p^(nm), nm >= 3
    iterate_hint = max(1, -(-3 // m))  # ceil(3/m)
    exponent_note = (
        f"char p monodromy has exponent {p}; a degree-{p}^{m} polynomial in "
        f"characteristic zero embeds a cyclic inertia group of order {p**m} "
        "over infinity, of unbounded order along the tower"
    )
    return ObstructionReport(
        p=p,
        m=m,
        crit_count=crit_count,
        divides=divides,
        obstructed=not divides,
        iterate_hint=iterate_hint,
        exponent_note=exponent_note,
    )


@dataclass(frozen=True)
class LiftObstructionCertificate:
    """The full pipeline for one additive map: free level + arithmetic."""

    p: int
    ell: int
    n: int
    level_order: int
    level_points: int
    level_free: bool
    level_transitive: bool
    invariants: tuple[int, ...]
    report: ObstructionReport

    def to_json(self):
        return {
            "p": self.p,
            "ell": self.ell,
            "n": self.n,
            "level_order": self.level_order,
            "level_points": self.level_points,
            "level_free": self.level_free,
            "level_transitive": self.level_transitive,
            "abelian_invariants": list(self.invariants),
            "obstruction": self.report.to_json(),
        }


def lift_obstruction(f: AdditivePoly, budget: int | None = None) -> LiftObstructionCertificate:
    """Choose n with n*ell >= 3, exhibit the free level, emit the arithmetic.

    The free translation action at level n together with the critical-count
    arithmetic at degree p^(n*ell) shows no characteristic-zero map can
    realize the same monodromy action.
    """
    if not is_separable(f):
        raise Inseparable("the obstruction pipeline needs separable input")
    p = f.field.p
    ell = f.frobenius_degree
    n = max(1, -(-3 // ell))
    level = monodromy_level(f, n, budget=budget)
    report = char0_obstruction(p, n * ell)
    _certify(report.obstructed, "nm >= 3 must yield an obstructed degree")
    return LiftObstructionCertificate(
        p=p,
        ell=ell,
        n=n,
        level_order=level.order,
        level_points=len(level.space),
        level_free=level.action.is_free(),
        level_transitive=level.action.is_transitive(),
        invariants=level.abelian_invariants(),
        report=report,
    )


def wreath_log_order(p: int, n: int) -> int:
    """log_p of the order of the n-fold iterated wreath product of Z/pZ."""
    if not is_prime(p):
        raise NotPrime(f"{p} is not prime")
    if n < 1:
        raise BadParameter("n must be >= 1")
    return sum(p**i for i in range(n))


def odometer_check(f: RationalMap, N: int) -> bool:
    """Profiles [d^n] over infinity for 1 <= n <= N: the cyclic inertia witness.

    f must be a polynomial of degree >= 2 over an exact characteristic-zero
    domain; total ramification over infinity at every iterate is the
    profile-level trace of the d-adic odometer.
    """
    if not f.is_polynomial:
        raise NotPolynomial("odometer needs a polynomial map")
    if f.domain.characteristic != 0:
        raise NotPolynomial("odometer lives in characteristic zero")
    d = f.degree
    g = f
    for n in range(1, N + 1):
        if ram_profile(g, ProjPoint.infinity()) != [d**n]:
            return False
        if n < N:
            g = g.compose(f)
    return True
