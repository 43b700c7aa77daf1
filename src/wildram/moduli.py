"""Normal forms and conjugacy classes of additive dynamical systems.

A monic additive form fixes 0 and infinity and has leading coefficient 1.
Every affine conjugacy z -> gamma z + delta that preserves monic additive
shape has gamma a (p^m - 1)-st root of unity and delta/gamma a fixed point
of the map, which makes the set of monic additive representatives of a
class finite and enumerable (``conjugating_set``).  Conjugacy testing
needs only gamma: the conjugated coefficients a_i gamma^(1 - p^i) do not
depend on delta, and delta = 0 is always allowed (0 is a fixed point).
Every returned witness phi is re-verified as phi o g1 = g2 o phi among
additive maps plus constants (``_witness_carries``, kept under ``python
-O``), so errors in embedding bookkeeping cannot give a false positive.

The census: write a monic separable additive map over F_q as
a = (a_0, ..., a_(m-1)), a_0 != 0, with support S = {i >= 1 : a_i != 0};
let N = p^m - 1.  Its monic additive conjugates are the a_i gamma^(1 - p^i),
gamma in mu_N.  gamma fixes a iff gamma^(p^i - 1) = 1 for i in S: the
stabilizer is mu_s, s = gcd(N, p^i - 1 : i in S).  The image stays in F_q iff
gamma^((p^i - 1)(q - 1)) = 1 for i in S: the admissible scalings are mu_h,
h = gcd(N, (p^i - 1)(q - 1) : i in S).  So the class of a in the family is
one orbit of the cyclic group mu_h/mu_s, of h/s members, and

    class_count(p, m, q) = sum over S of (q - 1)^(|S|+1) s_S / h_S.

As h/s <= N, the full support alone gives at least (q - 1)^m / N classes,
and there are (q - 1) q^(m-1) maps, so class_count / q^m stays between
1/(2^m N) and 1 as q grows: the classes form an m-dimensional family modulo
a finite group.  The orbit steps t^(1 - p^i), t generating mu_h, lie in F_q,
so the census walks each class inside F_q.  Their group is Frobenius-stable,
so it is the same whichever embeddings of F_q and F_(p^m) into a common
field were chosen, and no call history that changes those can change it.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field as dc_field
from itertools import accumulate, chain, combinations, islice, product
from math import gcd

from .addpoly import AdditivePoly, add_compose, recognize_additive, root_space, solve_affine
from .domains import FiniteFieldDomain
from .dynsys import Pgl2
from .errors import BadParameter, DegreeMismatch, Inseparable, NotAdditiveShape, _certify
from .ff import (GF, FieldElement, FiniteField, FqPoly, common_overfield, embed, require,
                 solve_power)

# census() reports the conjugacy witnesses of this many pairs
WITNESS_SAMPLES = 3


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


def _witness_carries(a, c1, b, c2, gamma, delta) -> bool:
    """phi o g1 = g2 o phi for phi = gamma z + delta, g1 = sum a_i z^(p^i) + c1,
    g2 = sum b_i z^(p^i) + c2 over one field: linear parts compared as
    additive compositions, constants as gamma c1 + delta = g2(delta) + c2.
    O(m^2) products, where the dense degree-p^m maps cost O(p^(2m))."""
    E = gamma.field
    phi, g1, g2 = AdditivePoly(E, [gamma]), AdditivePoly(E, a), AdditivePoly(E, b)
    return (not gamma.is_zero() and add_compose(phi, g1) == add_compose(g2, phi)
            and gamma * c1 + delta == g2.evaluate(delta) + c2)


def to_monic_additive(g) -> MonicAdditiveForm:
    """Conjugate an additive-with-constant map into monic additive form.

    The scaling witness b is the least solution of b^(p^m - 1) = a_m in the
    least extension holding one (``solve_power``: exponentiation and
    Sylow-local roots).  When a constant term is present, the translation
    part c is the least solution of the additive equation
    sum A_i c^(p^i) - c = b * const in its splitting field
    (``solve_affine``: the linearized splitting degree, then one affine
    solve over F_p).  Neither builds the dense degree-p^m polynomial.  The
    returned witness is verified in the composition ring.
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
        c, E2 = solve_affine(AdditivePoly(E, h_coeffs), bE * constE)
        if E2 != E:
            E = E2
            bE = embed(bE, E)
            coeffsE = [embed(a, E) for a in coeffsE]
            constE = embed(constE, E)
        monic, new_const = _affine_conjugate_additive(coeffsE, constE, bE, c)
        _certify(new_const.is_zero(), "translation left a constant term")
    result = AdditivePoly(E, monic)
    _certify(_witness_carries(coeffsE, constE, result.coeffs, E.zero(), bE, c),
             "witness verification failed")
    witness = Pgl2.affine(FiniteFieldDomain(E), bE, c)
    return MonicAdditiveForm(result, witness, F, tuple(coeffs), const)


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
    enters only through its field, F_q extended by the splitting degree of
    the fixed-point core; the witness is verified in the composition ring.
    Maps whose supports {i : a_i != 0} differ are answered None before any
    field work, and the p^m - 1 scalings are gated by ``require``.
    """
    F, p, m = g1.field, g1.field.p, g1.frobenius_degree
    if p != g2.field.p or m != g2.frobenius_degree:
        raise DegreeMismatch("maps must share p and degree")
    if g1.coeffs[-1] != F.one() or g2.coeffs[-1] != g2.field.one():
        raise NotAdditiveShape("both maps must be monic additive; see to_monic_additive")
    if F == g2.field and g1.coeffs[0] != g2.coeffs[0]:
        return None  # the multiplier at the fixed point 0 is an invariant
    if [c.is_zero() for c in g1.coeffs] != [c.is_zero() for c in g2.coeffs]:
        return None  # z -> gamma z with gamma != 0 keeps the support {i : a_i != 0}
    require(f"the scalings gamma in F_({p}^{m})^*, p^m - 1", p**m - 1)
    units = GF(p, m)
    cs_field = common_overfield(F, units, GF(p, F.k * _fixed_point_core(g1).splitting_degree()))
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
            _certify(_witness_carries(a, E.zero(), b, E.zero(), gamma, E.zero()),
                     "witness verification failed")
            return Pgl2.affine(FiniteFieldDomain(E), gamma, E.zero())
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
        """Every field but ``classes``, in field order, histogram keys as strings."""
        fields = {k: v for k, v in vars(self).items() if k != "classes"}
        hist = {str(k): v for k, v in sorted(self.fiber_histogram.items())}
        return {**fields, "fiber_histogram": hist}


def enumerate_census_polys(p: int, m: int, q: int):
    """Monic separable additive tuples (a_0 != 0, a_1..a_(m-1)) over F_q."""
    F = _field_of_order(p, q)
    elems = list(F.elements())
    # a_0 varies fastest; a_0 != 0 is separability
    for digits in product(*[elems] * (m - 1), elems[1:]):
        yield AdditivePoly(F, [*reversed(digits), F.one()])


def _field_of_order(p: int, q: int) -> FiniteField:
    k = 1
    while GF(p).order ** k < q:  # GF(p) refuses a p that is not prime
        k += 1
    if p**k != q:
        raise DegreeMismatch(f"{q} is not a power of {p}")
    return GF(p, k)


def closed_form_histogram(p: int, m: int, q: int) -> dict[int, int]:
    """Census class sizes in closed form: {h_S/s_S: number of such classes}.

    The (q-1)^(|S|+1) maps of support S make (q-1)^(|S|+1) s_S/h_S classes
    (module docstring); the counts are summed over the supports S.
    """
    N = p**m - 1
    hist: dict[int, int] = {}
    for S in chain.from_iterable(combinations(range(1, m), r) for r in range(m)):
        size = gcd(N, *((p**i - 1) * (q - 1) for i in S)) // gcd(N, *(p**i - 1 for i in S))
        hist[size] = hist.get(size, 0) + (q - 1) ** (len(S) + 1) // size
    return hist


def census(p: int, m: int, q: int) -> CensusReport:
    """Partition the monic separable additive maps over F_q by conjugacy.

    The class of a map of support S is its orbit under a_i -> a_i t^(1 - p^i),
    t a generator of mu_h (module docstring).  Each class is walked once,
    inside F_q, from its least unclassified map in enumeration order, and
    every map the walk visits must be new.  The walk measures the class
    sizes without assuming h/s: their histogram must equal the closed form
    class_count(p, m, q) = sum over S of (q-1)^(|S|+1) s_S/h_S, and each
    size must meet the (p^m - 1) * |Fix| bound, |Fix| = p^M for M the
    Frobenius degree of the separable fixed-point core.  ``witness_samples``
    are the first WITNESS_SAMPLES pairs (least member, member), classes in
    order of their z-coefficient, each found and verified by ``are_conjugate``.
    """
    if m < 1:
        raise BadParameter(f"census needs m >= 1, not {m}")
    total = (q - 1) * q ** (m - 1)
    require(f"the census size (q-1) q^(m-1) = {q - 1}*{q}^{m - 1}", total)
    polys = list(enumerate_census_polys(p, m, q))
    _certify(len(polys) == total, f"enumerated {len(polys)} maps, expected {total}")
    F, N = polys[0].field, p**m - 1

    def key(coeffs):
        return tuple(c.coords for c in coeffs)

    index = {key(g.coeffs): i for i, g in enumerate(polys)}
    classified, classes = [False] * total, []
    steps: dict[tuple, list[FieldElement]] = {}
    in_fq: dict[FieldElement, FieldElement] = {}  # F_q inside E, built on first use
    for start, g in enumerate(polys):
        if classified[start]:
            continue
        S = tuple(i for i in range(1, m) if g.coeffs[i])
        if S not in steps:
            steps[S] = step = [F.one()] * (m + 1)
            if S:
                if not in_fq:
                    units = GF(p, m)
                    zeta = next(x for x in units.elements() if x and x.multiplicative_order() == N)
                    E = common_overfield(F, units)
                    in_fq.update((embed(x, E), x) for x in F.elements())
                t = zeta ** (N // gcd(N, *((p**i - 1) * (q - 1) for i in S)))
                for i in S:
                    step[i] = in_fq.get(embed(t ** ((1 - p**i) % N), E))
                    _certify(step[i] is not None, "orbit step leaves F_q")
        members, j, coeffs = [], start, g.coeffs
        while j != start or not members:
            _certify(not classified[j], "scaling orbits overlap")
            classified[j] = True
            members.append(j)
            coeffs = [a * s for a, s in zip(coeffs, steps[S])]
            j = index[key(coeffs)]
        classes.append(members)
    hist = dict(Counter(len(c) for c in classes))
    _certify(hist == closed_form_histogram(p, m, q), "class sizes differ from the closed form")
    bound_ok = all(len(c) <= N * p ** _fixed_point_core(polys[c[0]]).frobenius_degree
                   for c in classes)
    pairs = ((c[0], j) for c in sorted(classes, key=lambda c: polys[c[0]].coeffs[0].coords)
             for j in sorted(c[1:]))
    witness_samples = []
    for i, j in islice(pairs, WITNESS_SAMPLES):
        w = are_conjugate(polys[i], polys[j])
        _certify(w is not None, "members of one orbit are not conjugate")
        gamma, delta = w.affine_parts()
        witness_samples.append({"first": [list(c.coords) for c in polys[i].coeffs],
                                "second": [list(c.coords) for c in polys[j].coeffs],
                                "gamma": list(gamma.coords), "delta": list(delta.coords)})
    return CensusReport(
        p=p, m=m, q=q, total=total, class_count=len(classes), fiber_histogram=hist,
        max_fiber=max(hist), bound_ok=bound_ok,
        classes=[sorted(key(polys[i].coeffs) for i in c) for c in classes],
        witness_samples=witness_samples,
    )
