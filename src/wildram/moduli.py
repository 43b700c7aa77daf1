"""Normal forms and conjugacy classes of additive dynamical systems.

A monic additive form fixes 0 and infinity and has leading coefficient 1.
Every affine conjugacy z -> gamma z + delta that preserves monic additive
shape has gamma a (p^m - 1)-st root of unity and delta/gamma a fixed point
of the map, which makes the set of monic additive representatives of a
class finite and enumerable (``conjugating_set``).  Conjugacy testing
needs only gamma: the conjugated coefficients a_i gamma^(1 - p^i) do not
depend on delta, and delta = 0 is always allowed (0 is a fixed point).
Every returned witness is re-verified through the generic conjugation
routine (``_certify``, kept under ``python -O``), so bookkeeping errors in
embeddings cannot produce a false positive.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from itertools import accumulate

from .addpoly import AdditivePoly, recognize_additive, root_space
from .domains import FiniteFieldDomain
from .dynsys import Pgl2, RationalMap, conjugate
from .errors import (
    BudgetExceeded,
    DegreeMismatch,
    Inseparable,
    NotAdditiveShape,
    _certify,
)
from .ff import (
    GF,
    FieldElement,
    FiniteField,
    FqPoly,
    common_overfield,
    embed,
    enumeration_budget,
    roots_in,
    solve_power,
    splitting_degree,
)


def _parse_additive_with_constant(g) -> tuple[FiniteField, list[FieldElement], FieldElement]:
    """Split input into (field, additive coefficients a_0..a_m, constant)."""
    if isinstance(g, AdditivePoly):
        return g.field, list(g.coeffs), g.field.zero()
    if isinstance(g, FqPoly):
        F = g.field
        const = g[0]
        rest = FqPoly(F, [F.zero()] + list(g.coeffs[1:]))
        add = recognize_additive(rest)
        if add is None:
            raise NotAdditiveShape("not of the shape sum a_i z^(p^i) + constant")
        return F, list(add.coeffs), const
    raise NotAdditiveShape(f"unsupported input {type(g).__name__}")


def _affine_conjugate_additive(
    coeffs: list[FieldElement], const: FieldElement, b: FieldElement, c: FieldElement
) -> tuple[list[FieldElement], FieldElement]:
    """Coefficients of phi o g o phi^(-1) for phi = b z + c, g additive + const.

    Conjugating an additive map by an affine map keeps the additive shape:
    the new p^i-coefficient is a_i b^(1 - p^i) and only the constant term
    moves.
    """
    F = b.field
    p = F.p
    new = []
    for i, a in enumerate(coeffs):
        new.append(a * b ** (1 - p**i))
    # constant of b*g((z - c)/b) + c
    shift = F.zero()
    cpow = c
    for i, A in enumerate(new):
        if i > 0:
            cpow = cpow.frobenius()  # c^(p^i)
        shift = shift + A * cpow
    new_const = b * const + c - shift
    return new, new_const


@dataclass(frozen=True)
class MonicAdditiveForm:
    """A monic additive representative with the conjugating witness."""

    poly: AdditivePoly
    witness: Pgl2
    source_field: FiniteField
    source_coeffs: tuple
    source_const: object

    @property
    def field(self) -> FiniteField:
        return self.poly.field


def _as_rational_map(coeffs, const, F) -> RationalMap:
    p = F.p
    dense = [F.zero()] * (p ** (len(coeffs) - 1) + 1)
    dense[0] = const
    for i, a in enumerate(coeffs):
        dense[p**i] = dense[p**i] + a
    return RationalMap(FiniteFieldDomain(F), dense)


def to_monic_additive(g) -> MonicAdditiveForm:
    """Conjugate an additive-with-constant map into monic additive form.

    The scaling witness b solves b^(p^m - 1) = a_m; when a constant term is
    present, the translation part c solves the additive equation
    sum A_i c^(p^i) - c = b * const, which always has a root in a finite
    extension.  The returned witness is verified by generic conjugation.
    """
    F, coeffs, const = _parse_additive_with_constant(g)
    p = F.p
    m = len(coeffs) - 1
    if m < 1:
        raise NotAdditiveShape("need degree at least p")
    if coeffs[0].is_zero():
        raise Inseparable("z-coefficient vanishes; the map is inseparable")
    b, Kb = solve_power(coeffs[-1], p**m - 1)
    E = common_overfield(F, Kb)
    bE = embed(b, E)
    coeffsE = [embed(a, E) for a in coeffs]
    constE = embed(const, E)
    monic, new_const = _affine_conjugate_additive(coeffsE, constE, bE, E.zero())
    c = E.zero()
    if not new_const.is_zero():
        # find c with the conjugated constant zero: sum A_i c^(p^i) - c = b*const
        # (always solvable: the left side is additive with leading coefficient 1)
        h_coeffs = list(monic)
        h_coeffs[0] = h_coeffs[0] - E.one()
        rhs = bE * constE
        hp = AdditivePoly(E, h_coeffs).to_fqpoly()
        target = FqPoly(E, [-rhs]) + hp
        d = splitting_degree(target)
        E2 = E if d == 1 else GF(p, E.k * d)
        roots = roots_in(target, E2)
        _certify(roots, "additive translation equation must split")
        c = roots[0][0]
        if E2 != E:
            E = E2
            bE = embed(bE, E)
            coeffsE = [embed(a, E) for a in coeffsE]
            constE = embed(constE, E)
        monic, new_const = _affine_conjugate_additive(coeffsE, constE, bE, c)
        _certify(new_const.is_zero(), "translation left a constant term")
    result = AdditivePoly(E, monic)
    dom = FiniteFieldDomain(E)
    witness = Pgl2.affine(dom, bE, c)
    # mandatory dual-route verification through the generic machinery
    lhs = conjugate(_as_rational_map(coeffsE, constE, E), witness)
    rhs_map = _as_rational_map(list(result.coeffs), E.zero(), E)
    _certify(lhs == rhs_map, "witness verification failed")
    return MonicAdditiveForm(
        result, witness, F, tuple(coeffs), const
    )


def _fixed_point_core(g: AdditivePoly) -> AdditivePoly:
    """Separable additive polynomial with the roots of g(z) - z: its p^e-th
    root when the low coefficients vanish (multiplicity dropped)."""
    F = g.field
    diff = list(g.coeffs)
    diff[0] = diff[0] - F.one()
    e = 0
    while e < len(diff) and diff[e].is_zero():
        e += 1
    return AdditivePoly(F, [c.frobenius((-e) % F.k) for c in diff[e:]])


def fix_points(g: AdditivePoly) -> tuple[tuple[FieldElement, ...], FiniteField]:
    """Distinct fixed points of a monic additive map, in a splitting field.

    g(z) - z is additive, so the fixed points form an F_p-vector space.
    """
    zs = root_space(_fixed_point_core(g), 1)
    return zs.all_roots, zs.field


@dataclass(frozen=True)
class ConjugatingSet:
    """All affine maps carrying a monic additive g to monic additive forms."""

    poly: AdditivePoly
    field: FiniteField  # where the maps live
    maps: tuple[Pgl2, ...]

    def __len__(self):
        return len(self.maps)


def conjugating_set(g: AdditivePoly) -> ConjugatingSet:
    """Enumerate gamma in F_(p^m)^x, delta in gamma*Fix(g); verify each map.

    Every listed map is checked to produce a monic additive conjugate; the
    size is bounded by (p^m - 1) * |Fix(g)|.
    """
    F = g.field
    p = F.p
    m = g.frobenius_degree
    fixed, Kfix = fix_points(g)
    E = common_overfield(F, GF(p, m), Kfix)
    dom = FiniteFieldDomain(E)
    gammas = [
        embed(x, E) for x in GF(p, m).elements() if not x.is_zero()
    ]
    fixedE = [embed(x, E) for x in fixed]
    coeffsE = [embed(a, E) for a in g.coeffs]
    maps = []
    for gamma in sorted(gammas, key=lambda x: x.sort_key()):
        for fx in sorted(fixedE, key=lambda x: x.sort_key()):
            delta = gamma * fx
            new, new_const = _affine_conjugate_additive(
                coeffsE, E.zero(), gamma, delta
            )
            _certify(
                new[-1] == E.one() and new_const.is_zero(),
                "enumerated map failed the monic additive check",
            )
            maps.append(Pgl2.affine(dom, gamma, delta))
    _certify(len(maps) <= (p**m - 1) * len(fixed), "conjugating set exceeds its bound")
    return ConjugatingSet(g, E, tuple(maps))


def are_conjugate(g1: AdditivePoly, g2: AdditivePoly) -> Pgl2 | None:
    """Witness phi with conjugate(g1, phi) = g2, or None.

    Complete for monic additive inputs (others raise NotAdditiveShape): all
    monic additive forms in the class of g1 are exactly its conjugates
    under ``conjugating_set(g1)``.  Those depend on gamma alone and delta = 0
    is in the set for every gamma, so gamma is walked in the set's order and
    field; the witness is the set's first map carrying g1 to g2, z -> gamma z,
    over the common overfield of the set's field and g2's field.  Fix(g1)
    enters only through its field, read off its root space's certified basis.
    """
    F, p, m = g1.field, g1.field.p, g1.frobenius_degree
    if p != g2.field.p or m != g2.frobenius_degree:
        raise DegreeMismatch("maps must share p and degree")
    if g1.coeffs[-1] != F.one() or g2.coeffs[-1] != g2.field.one():
        raise NotAdditiveShape("both maps must be monic additive; see to_monic_additive")
    if F == g2.field and g1.coeffs[0] != g2.coeffs[0]:
        return None  # the multiplier at the fixed point 0 is an invariant
    units = GF(p, m)
    cs_field = common_overfield(F, units, root_space(_fixed_point_core(g1), 1).field)
    E = common_overfield(cs_field, g2.field)
    gammas = sorted(
        (embed(x, cs_field) for x in units.elements() if not x.is_zero()),
        key=lambda x: x.sort_key(),
    )
    b = [embed(c, E) for c in g2.coeffs]
    a = [embed(c, E) for c in g1.coeffs]
    for gamma in gammas:
        gamma = embed(gamma, E)
        # a_i gamma^(1 - p^i) = b_i, as a_i gamma = b_i gamma^(p^i), lazily
        powers = accumulate(range(m), lambda x, _: x.frobenius(), initial=gamma)
        if all(ai * gamma == bi * power for ai, bi, power in zip(a, b, powers)):
            witness = Pgl2.affine(FiniteFieldDomain(E), gamma, E.zero())
            # soundness: re-verify through generic conjugation
            lhs = conjugate(_as_rational_map(a, E.zero(), E), witness)
            _certify(lhs == _as_rational_map(b, E.zero(), E), "witness verification failed")
            return witness
    return None


@dataclass
class CensusReport:
    p: int
    m: int
    q: int
    total: int
    class_count: int
    fiber_histogram: dict[int, int]
    max_fiber: int
    bound_ok: bool
    classes: list[list[tuple]] = dc_field(default_factory=list)
    witness_samples: list[dict] = dc_field(default_factory=list)

    def to_json(self):
        return {
            "p": self.p,
            "m": self.m,
            "q": self.q,
            "total": self.total,
            "class_count": self.class_count,
            "fiber_histogram": {str(k): v for k, v in sorted(self.fiber_histogram.items())},
            "max_fiber": self.max_fiber,
            "bound_ok": self.bound_ok,
            "witness_samples": self.witness_samples,
        }


def enumerate_census_polys(p: int, m: int, q: int):
    """Monic separable additive tuples (a_0 != 0, a_1..a_(m-1)) over F_q."""
    F = _field_of_order(p, q)
    for n in range(q**m):
        digits = []
        t = n
        for _ in range(m):
            digits.append(t % q)
            t //= q
        if digits[0] == 0:  # separability: a_0 != 0
            continue
        coeffs = [F.element_from_index(d) for d in digits] + [F.one()]
        yield AdditivePoly(F, coeffs)


def _field_of_order(p: int, q: int) -> FiniteField:
    k = 0
    t = q
    while t > 1:
        if t % p:
            raise DegreeMismatch(f"{q} is not a power of {p}")
        t //= p
        k += 1
    return GF(p, max(k, 1))


def census(p: int, m: int, q: int, budget: int | None = None,
           keep_witnesses: int = 3) -> CensusReport:
    """Partition the enumerated monic additive separable family by conjugacy.

    The z-coefficient is the multiplier at the fixed point 0 and is equal
    across all monic additive members of a class, so it prefilters the
    pairwise tests.  Fibers of the coefficient parametrization are class
    sizes; each is checked against the (p^m - 1) * |Fix| bound, |Fix| = p^dim.
    """
    if budget is None:
        budget = enumeration_budget()
    total = (q - 1) * q ** (m - 1)
    if total > budget:
        raise BudgetExceeded(f"census size {total} exceeds budget {budget}")
    polys = list(enumerate_census_polys(p, m, q))
    _certify(len(polys) == total, f"enumerated {len(polys)} maps, expected {total}")
    # group by the invariant z-coefficient first
    groups: dict[tuple, list[int]] = {}
    for i, g in enumerate(polys):
        groups.setdefault(g.coeffs[0].coords, []).append(i)
    parent = list(range(total))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    def union(i, j):
        ri, rj = find(i), find(j)
        if ri != rj:
            # canonical minimal representative wins, independent of order
            lo, hi = min(ri, rj), max(ri, rj)
            parent[hi] = lo

    witness_samples = []
    for key in sorted(groups):
        idxs = groups[key]
        for ii, i in enumerate(idxs):
            for j in idxs[ii + 1:]:
                if find(i) == find(j):
                    continue
                w = are_conjugate(polys[i], polys[j])
                if w is None:
                    continue
                union(i, j)
                if len(witness_samples) < keep_witnesses:
                    gamma, delta = w.affine_parts()
                    witness_samples.append(
                        {
                            "first": [list(c.coords) for c in polys[i].coeffs],
                            "second": [list(c.coords) for c in polys[j].coeffs],
                            "gamma": list(gamma.coords),
                            "delta": list(delta.coords),
                        }
                    )
    classes: dict[int, list[int]] = {}
    for i in range(total):
        classes.setdefault(find(i), []).append(i)
    hist: dict[int, int] = {}
    bound_ok = True
    for root, members in classes.items():
        size = len(members)
        hist[size] = hist.get(size, 0) + 1
        bound = (p**m - 1) * len(root_space(_fixed_point_core(polys[root]), 1))
        if size > bound:
            bound_ok = False
    max_fiber = max(hist) if hist else 0
    return CensusReport(
        p=p,
        m=m,
        q=q,
        total=total,
        class_count=len(classes),
        fiber_histogram=hist,
        max_fiber=max_fiber,
        bound_ok=bound_ok,
        classes=[
            sorted(tuple(c.coords for c in polys[i].coeffs) for i in members)
            for members in classes.values()
        ],
        witness_samples=witness_samples,
    )
