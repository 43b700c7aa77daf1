"""The four workloads: seeded query generators, query execution and answer checks.

Each workload is a closed loop: one client sends one query at a time.  Queries
come in rounds.  A round has a fixed composition (which kinds of query, over
which parameters); the seed picks the concrete instances and their order.  A
run measures a fixed number of whole rounds, ``run_rounds(workload, seconds)``,
so every run sees the same mix whatever the speed of the machine or of the
code, and its figures move with the code rather than with the draw.

Instances are distinct within a run wherever the menu is large enough: tower
levels never repeat an (f, n), lift parameters never repeat.  The small
finite menus (identities, locus polynomials, scaling checks, the families of
``oneshot``) cycle in an order fixed by the menu's name (see ``Cycle``);
those functions keep no cache, so a repeat costs what the first call did.  A
census pair's first map may recur once its family's pool class is used up.

Checks never compare witness coordinates: a witness is re-applied, under each
embedding of the base field, and must carry the first map to the second.
Canonical content (partitions, histograms, verdicts, valuations, degrees,
splitting degrees) is compared with ``reference.json``.
"""

from __future__ import annotations

import json
import random
import subprocess
import sys
import time
from pathlib import Path

from wildram import addpoly, cyclotomic, gmlift, moduli, monodromy
from wildram.addpoly import AdditivePoly
from wildram.domains import FiniteFieldDomain
from wildram.dynsys import Pgl2, RationalMap, conjugate
from wildram.ff import GF, FqPoly, embed, make_field

BENCH_DIR = Path(__file__).resolve().parent
REFERENCE_PATH = BENCH_DIR / "reference.json"


def load_reference():
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        return json.load(fh)


# -- menus (fixed; never shrink one to hide a regression) ------------------------

CENSUS_FAMILIES = [(2, 2, 4), (2, 2, 8), (2, 3, 2), (3, 2, 3), (3, 1, 27), (5, 1, 25), (7, 1, 49)]
# q <= 16 and p^m <= 25.  Left out for cost: (5,2,5) and (2,3,16) pairs take up to
# 5 s and 6 s (their conjugating sets live in GF(2, 48) or GF(2, 84)), m = 4 up to 11 s.
PAIR_FAMILIES = [(2, 1, 16), (2, 2, 4), (2, 2, 8), (2, 2, 16), (2, 3, 8), (3, 1, 9),
                 (3, 2, 3), (3, 2, 9), (5, 1, 5), (7, 1, 7), (11, 1, 11), (13, 1, 13)]
# to_monic_additive builds GF(p, k) for the scaling root; these families keep k
# small.  Some (2,2,8) inputs take 0.9 s and (5,1,5) inputs whose normal form
# lives in GF(5, 20) take 1.2 to 2.5 s, twenty to a hundred times the rest.
MONIC_FAMILIES = [(2, 1, 16), (2, 3, 2), (3, 1, 9)]

# (query, p, m, coefficient field degree j, level n); f is drawn from the
# reference pool of separable f = sum a_i z^(p^i) over GF(p, j).
TOWER_SLOTS = [
    ("tower", 2, 1, 4, 6),
    ("level", 3, 1, 2, 4),
    ("root_space", 5, 1, 2, 3),
    ("tower", 7, 1, 1, 2),
    ("level", 2, 2, 2, 3),
    ("tower", 3, 2, 2, 2),
    ("level", 2, 3, 3, 2),
    ("root_space", 7, 1, 1, 1),
    ("tower", 2, 3, 3, 1),
]
ONESHOT_MONODROMY_SLOTS = [("monodromy", 2, 1, 1, 5), ("monodromy", 3, 1, 1, 3), ("monodromy", 5, 1, 1, 2)]

ORBIT_PRIMES = [2, 3, 5, 7]  # p = 11 already takes 7.7 s
ORBIT_STEPS = 6
LIFT_A_RANGE = range(1, 400)
REDUCE_PRIMES = [3, 5]  # sbar lives in GF(p, p - 1), where x^(p-1) = a always has a root
IDENTITY_PRIMES = [2, 3, 5, 7, 11, 13]
SCALING_PRIMES = [2, 3, 5, 7]
LOCUS_MENU = [(p, m, n) for p in (2, 3, 5) for m in range(0, 4) for n in range(1, 5)
              if m + n <= 4 and p ** (m + n) <= 27]

PCO_BANDS = [(100, 1000), (9000, 10000)]
PCO_MAX_STEPS = 8
ONESHOT_CENSUS = [(3, 1, 9), (2, 2, 4), (2, 1, 16), (5, 1, 25), (3, 1, 27), (2, 3, 2), (3, 2, 3)]
ONESHOT_NORMAL_FORM = [(3, 1, 9), (2, 2, 8), (5, 1, 5)]
ONESHOT_CONJUGATE = [(2, 2, 4), (3, 1, 9), (5, 1, 5), (7, 1, 7)]


def run_rounds(workload, seconds):
    """Rounds in a run of about ``seconds`` of query time.

    ``round_s`` is the mean query time of one round in a run of this length,
    measured once on a 2-vCPU x86-64 VM at the commit that added the
    benchmark.  It converts the requested length into a count and is never
    re-measured: the count, and so the work, stays the same across commits.
    """
    return max(workload.trace_rounds, round(seconds / workload.round_s))


def slot_key(p, m, j, n):
    return f"{p},{m},{j},{n}"


def family_key(p, m, q):
    return f"{p},{m},{q}"


def field_of_order(p, q):
    k = 0
    while p ** k < q:
        k += 1
    return GF(p, k)


def primes_in(lo, hi):
    return [n for n in range(max(lo, 2), hi) if all(n % d for d in range(2, int(n ** 0.5) + 1))]


class Cycle:
    """Endless draws from a small finite menu, a fresh order on each pass.

    The orders come from the menu's name, not from the seed: a run of a given
    length then asks for the same menu items whatever the seed, and the seed
    only moves them within their rounds.  A partial last pass would otherwise
    give each seed a different mix of cheap and costly items.
    """

    def __init__(self, name, items):
        self.items = list(items)
        self.rng = random.Random(f"cycle:{name}")
        self.queue = []

    def next(self):
        if not self.queue:
            self.queue = self.rng.sample(self.items, len(self.items))
        return self.queue.pop()


class Draws:
    """Seeded draws without replacement per key; ``next`` returns None when used up."""

    def __init__(self, rng):
        self.rng = rng
        self.orders = {}

    def next(self, key, items):
        order = self.orders.get(key)
        if order is None:
            order = self.orders[key] = self.rng.sample(list(items), len(items))
        return order.pop() if order else None


# -- helpers shared by generators and checks -------------------------------------

def additive_from_indices(F, idx):
    return AdditivePoly(F, [F.element_from_index(i) for i in idx])


def random_monic(F, m, rng, a0=None):
    if a0 is None:
        a0 = F.element_from_index(rng.randrange(1, F.order))
    middle = [F.element_from_index(rng.randrange(F.order)) for _ in range(m - 1)]
    return AdditivePoly(F, [a0] + middle + [F.one()])


def scaled(g, gamma):
    """gamma g(z / gamma): monic again when gamma^(p^m - 1) = 1."""
    p = g.field.p
    return AdditivePoly(g.field, [a * gamma ** (1 - p ** i) for i, a in enumerate(g.coeffs)])


def dense_map(coeffs, const, E):
    """The rational map const + sum coeffs[i] z^(p^i) over E (coefficients already in E)."""
    p = E.p
    dense = [E.zero()] * (p ** (len(coeffs) - 1) + 1)
    dense[0] = const
    for i, a in enumerate(coeffs):
        dense[p ** i] = dense[p ** i] + a
    return RationalMap(FiniteFieldDomain(E), dense)


def witness_carries(witness, first, second, first_const=None):
    """True when conjugating ``first`` (+ constant) by ``witness`` gives ``second``.

    ``first`` is a coefficient list over a base field F; ``second`` lies over
    F or over the witness's field E.  The check accepts the witness under any
    of the embeddings F -> E (the Galois conjugates of the session
    embedding), so it holds whichever embedding the producing process chose.
    """
    E = witness.domain.field
    F = first[0].field
    for j in range(F.k):
        def up(x):
            return x if x.field == E else embed(x, E).frobenius(j)

        const = E.zero() if first_const is None else up(first_const)
        lhs = conjugate(dense_map([up(a) for a in first], const, E), witness)
        if lhs == dense_map([up(a) for a in second], E.zero(), E):
            return True
    return False


class Pairs:
    """Seeded map pairs over F_q.

    g comes from the family's reference pool.  Each family walks a fixed
    sequence of pool classes (the degree of the field of g's fixed points and
    of its conjugating set), so every seed builds the same fields and
    embeddings; the seed picks g within the class, without repeats until the
    class is used up.  A conjugate pair is (g, gamma g(z / gamma)) with
    gamma^(p^m - 1) = 1, which is monic again; a non-conjugate pair has a
    different multiplier at the fixed point 0, a conjugacy invariant of monic
    additive maps.
    """

    def __init__(self, rng, pools):
        self.rng = rng
        self.pools = pools
        self.units = {}
        self.walks = {}
        self.draws = {}

    def pair(self, fam, conj):
        p, m, q = fam
        F = field_of_order(p, q)
        if fam not in self.units:
            self.units[fam] = [x for x in F.elements() if not x.is_zero() and x ** (p ** m - 1) == F.one()]
        pool = self.pools[family_key(*fam)]
        classes = [tuple(entry[1:]) for entry in pool]
        walk = self.walks.setdefault((fam, conj), [random.Random(f"classes:{fam}").sample(classes, len(classes)), 0])
        cls = walk[0][walk[1] % len(classes)]
        walk[1] += 1
        left = self.draws.get((fam, conj, cls))
        if not left:
            members = [entry[0] for entry in pool if tuple(entry[1:]) == cls]
            left = self.draws[(fam, conj, cls)] = self.rng.sample(members, len(members))
        g = additive_from_indices(F, left.pop())
        if conj:
            h = scaled(g, self.rng.choice(self.units[fam]))
        else:
            others = [i for i in range(1, q) if F.element_from_index(i) != g.coeffs[0]]
            h = random_monic(F, m, self.rng, F.element_from_index(self.rng.choice(others)))
        return {"kind": "pair", "family": fam, "g": g, "h": h, "conjugate": conj}


def sbar_for(p, a, rng, cache):
    """A seeded sbar in GF(p, p - 1) with sbar^(p-1) = a mod p."""
    if (p, a % p) not in cache:
        K = GF(p, p - 1)
        target = K.from_int(a)
        cache[(p, a % p)] = [x for x in K.elements() if not x.is_zero() and x ** (p - 1) == target]
    return rng.choice(cache[(p, a % p)])


def expect(cond, message):
    return None if cond else message


def first_error(*errors):
    return next((e for e in errors if e), None)


def check_level_rows(rows, p, m, levels, k):
    """rows: (order, free, transitive, invariants, field degree) for levels 1..levels."""
    if len(rows) != len(levels):
        return f"{len(rows)} levels, expected {len(levels)}"
    for (order, free, transitive, inv, deg), n in zip(rows, levels):
        if order != p ** (m * n):
            return f"|Z_{n}| = {order}, expected {p ** (m * n)}"
        if not (free and transitive):
            return f"level {n}: free={free} transitive={transitive}"
        if tuple(inv) != (p,) * (m * n):
            return f"level {n}: invariants {inv}"
        if deg != k:
            return f"level {n}: splitting field degree {deg}, reference {k}"
    return None


def check_census_content(fam, got, ref):
    p, m, q = fam
    total = (q - 1) * q ** (m - 1)
    sizes = sum(int(s) * c for s, c in got["fiber_histogram"].items())
    return first_error(
        expect(got["total"] == total, f"total {got['total']} != {total}"),
        expect(sizes == total, f"class sizes sum to {sizes}, not {total}"),
        expect(got["bound_ok"] is True, "bound_ok is false"),
        expect(m != 1 or got["class_count"] == q - 1, f"class_count {got['class_count']} != q - 1"),
        expect(got["class_count"] == ref["class_count"], f"class_count {got['class_count']} != reference"),
        expect(got["fiber_histogram"] == ref["fiber_histogram"], "fiber histogram differs from reference"),
    )


def check_witness_samples(fam, samples):
    F = field_of_order(fam[0], fam[2])
    for s in samples:
        E = GF(F.p, len(s["gamma"]))
        w = Pgl2.affine(FiniteFieldDomain(E), E.element(s["gamma"]), E.element(s["delta"]))
        first = [F.element(c) for c in s["first"]]
        second = [F.element(c) for c in s["second"]]
        if not witness_carries(w, first, second):
            return f"census witness does not carry {s['first']} to {s['second']}"
    return None


# -- census: a library session over moduli ---------------------------------------

class Census:
    trace_rounds = len(CENSUS_FAMILIES)
    round_s = 1.05

    def __init__(self, seed, tmp):
        self.rng = random.Random(f"census:{seed}")
        self.ref = load_reference()
        self.pairs = Pairs(self.rng, self.ref["pairs"])

    def _monic(self, fam):
        p, m, q = fam
        F = field_of_order(p, q)
        dense = [F.zero()] * (p ** m + 1)
        dense[0] = F.element_from_index(self.rng.randrange(1, q))
        for i in range(m + 1):
            low = 0 if 0 < i < m else 1
            dense[p ** i] = F.element_from_index(self.rng.randrange(low, q))
        return {"kind": "monic", "family": fam, "m": m, "poly": FqPoly(F, dense)}

    def rounds(self):
        order = self.rng.sample(CENSUS_FAMILIES, len(CENSUS_FAMILIES))
        r = 0
        while True:
            qs = [{"kind": "census", "family": order[r]}] if r < len(order) else []
            for fam in PAIR_FAMILIES:
                qs.append(self.pairs.pair(fam, True))
                qs.append(self.pairs.pair(fam, False))
            qs.extend(self._monic(fam) for fam in MONIC_FAMILIES)
            self.rng.shuffle(qs)
            yield qs
            r += 1

    def execute(self, q):
        if q["kind"] == "census":
            return moduli.census(*q["family"])
        if q["kind"] == "pair":
            return moduli.are_conjugate(q["g"], q["h"])
        return moduli.to_monic_additive(q["poly"])

    def check(self, q, out):
        if q["kind"] == "census":
            fam = q["family"]
            ref = self.ref["census"][family_key(*fam)]
            got = out.to_json()
            classes = sorted(sorted([list(c) for c in m] for m in cls) for cls in out.classes)
            return first_error(
                check_census_content(fam, got, ref),
                expect(classes == ref["classes"], "partition differs from reference"),
                check_witness_samples(fam, got["witness_samples"]),
            )
        if q["kind"] == "pair":
            g, h = q["g"], q["h"]
            if not q["conjugate"]:
                return expect(out is None, "maps with different multipliers reported conjugate")
            if out is None:
                return "conjugate pair reported not conjugate"
            return expect(witness_carries(out, list(g.coeffs), list(h.coeffs)),
                          "conjugacy witness does not carry g to h")
        poly, m = q["poly"], q["m"]
        F = poly.field
        p = F.p
        coeffs = [poly[p ** i] for i in range(m + 1)]
        E = out.field
        result = list(out.poly.coeffs)
        return first_error(
            expect(len(result) == m + 1 and result[-1] == E.one(), "normal form is not monic of degree p^m"),
            expect(any(embed(coeffs[0], E).frobenius(j) == result[0] for j in range(F.k)),
                   "normal form changed the multiplier at 0"),
            expect(witness_carries(out.witness, coeffs, result, poly[0]),
                   "normal-form witness does not carry the input to the monic form"),
        )


# -- tower: a library session over addpoly, _linalg and monodromy ----------------

def level_row(lvl):
    a = lvl.action
    return (lvl.order, a.is_free(), a.is_transitive(), lvl.abelian_invariants(), lvl.space.field.k)


class Tower:
    trace_rounds = 4
    round_s = 1.45

    def __init__(self, seed, tmp):
        self.rng = random.Random(f"tower:{seed}")
        self.ref = load_reference()["tower"]
        self.draws = Draws(self.rng)

    def rounds(self):
        """Round r asks each slot for the r-th splitting degree of a fixed sequence.

        The sequence is the pool's degrees in an order that depends on the
        slot, not on the seed; the seed picks which f of that degree.  The
        fields and embeddings a run builds, which cost seconds on first use,
        are then the same for every seed.
        """
        degrees, by_degree = {}, {}
        for _, p, m, j, n in TOWER_SLOTS:
            key = slot_key(p, m, j, n)
            pool = self.ref[key]
            degrees[key] = random.Random(f"degrees:{key}").sample([k for _, k in pool], len(pool))
            by_degree[key] = {}
            for idx, k in pool:
                by_degree[key].setdefault(k, []).append(idx)
        r = 0
        while all(r < len(d) for d in degrees.values()):  # no (f, n) repeats in a run
            qs = []
            for kind, p, m, j, n in TOWER_SLOTS:
                key = slot_key(p, m, j, n)
                k = degrees[key][r]
                idx = self.draws.next((key, k), by_degree[key][k])
                f = additive_from_indices(GF(p, j), idx)
                qs.append({"kind": kind, "f": f, "p": p, "m": m, "n": n, "k": k})
            self.rng.shuffle(qs)
            yield qs
            r += 1

    def execute(self, q):
        f, n = q["f"], q["n"]
        if q["kind"] == "tower":
            tw = monodromy.tower(f, n)
            return {"rows": [level_row(lvl) for lvl in tw.levels],
                    "kernels": [pr.kernel_size for pr in tw.projections]}
        if q["kind"] == "level":
            return {"rows": [level_row(monodromy.monodromy_level(f, n))]}
        zs = addpoly.root_space(f, n)
        return {"space": zs, "order": len(zs.all_roots), "dim": zs.dimension, "k": zs.field.k}

    def check(self, q, out):
        p, m, n, k = q["p"], q["m"], q["n"], q["k"]
        if q["kind"] == "tower":
            return first_error(
                check_level_rows(out["rows"], p, m, range(1, n + 1), k),
                expect(out["kernels"] == [p ** m] * (n - 1), f"kernels {out['kernels']} != p^m"),
            )
        if q["kind"] == "level":
            return check_level_rows(out["rows"], p, m, [n], k)
        zs = out["space"]
        roots = zs.all_roots
        fn = addpoly.iterate(q["f"], n).map_into(zs.field)
        probe = roots[:: max(1, len(roots) // 4)]
        root_set = set(roots)
        return first_error(
            expect(out["order"] == p ** (m * n), f"|Z_{n}| = {out['order']}"),
            expect(out["dim"] == m * n, f"dimension {out['dim']} != mn"),
            expect(out["k"] == k, f"splitting field degree {out['k']}, reference {k}"),
            expect(all(fn.evaluate(r).is_zero() for r in probe), "a listed root is not a root"),
            expect(all(x + y in root_set for x in probe for y in probe), "Z_n not closed under addition"),
        )


# -- lift: a library session over cyclotomic and gmlift --------------------------

class Lift:
    trace_rounds = 6
    round_s = 0.43

    def __init__(self, seed, tmp):
        self.rng = random.Random(f"lift:{seed}")
        self.ref = load_reference()["lift"]
        self.draws = Draws(self.rng)
        self.identities = Cycle("identities", IDENTITY_PRIMES)
        self.locus = Cycle("locus", LOCUS_MENU)
        self.scaling = Cycle("scaling", SCALING_PRIMES)
        self.sbars = {}

    def _a(self, kind, p):
        return self.draws.next((kind, p), [a for a in LIFT_A_RANGE if a % p])

    def rounds(self):
        while True:
            qs = [{"kind": "orbit", "p": p, "a": self._a("orbit", p)} for p in ORBIT_PRIMES]
            qs.append({"kind": "critical", "p": 7, "a": self._a("critical", 7)})
            for p in REDUCE_PRIMES:
                a = self._a("reduce", p)
                qs.append({"kind": "reduce", "p": p, "a": a, "sbar": sbar_for(p, a, self.rng, self.sbars) if a else None})
            qs.append({"kind": "identities", "p": self.identities.next()})
            qs.extend({"kind": "locus", "pmn": self.locus.next()} for _ in range(2))
            qs.append({"kind": "scaling", "p": self.scaling.next()})
            if any(q.get("a", 1) is None for q in qs):
                return  # a parameter menu is used up
            self.rng.shuffle(qs)
            yield qs

    def execute(self, q):
        kind = q["kind"]
        if kind == "orbit":
            L = gmlift.build_lift(q["p"], a=q["a"])
            c = gmlift.orbit_search(L, ORBIT_STEPS)
            return {"verdict": c.verdict, "valuations": list(c.valuations),
                    "threshold_index": c.threshold_index, "coefficient_valuations": L.coefficient_valuations()}
        if kind == "critical":
            d = gmlift.lift_critical_data(gmlift.build_lift(q["p"], a=q["a"]))
            return {"value_valuation": d.value_valuation, "point_valuation": d.point_valuation,
                    "indices": [e for _, e in d.critical_points]}
        if kind == "reduce":
            return gmlift.reduce_lift(gmlift.build_lift(q["p"], a=q["a"]), q["sbar"])
        if kind == "identities":
            return cyclotomic.verify_cyclotomic_identities(q["p"])
        if kind == "locus":
            return gmlift.pcf_locus_poly(*q["pmn"])[1].to_json()
        return gmlift.scaling_check(q["p"])

    def check(self, q, out):
        kind = q["kind"]
        if kind == "orbit":
            ref = self.ref["orbit"][str(q["p"])]
            return expect(out == ref, f"orbit {out} differs from reference {ref}")
        if kind == "critical":
            ref = self.ref["critical"][str(q["p"])]
            return expect(out == ref, f"critical data {out} differs from reference {ref}")
        if kind == "reduce":
            return check_reduction(q["p"], q["sbar"], out.field, [list(c.coords) for c in out.coeffs])
        if kind == "identities":
            return check_identities(q["p"], out)
        if kind == "locus":
            ref = self.ref["locus"][",".join(map(str, q["pmn"]))]
            return expect(out == ref, f"locus {out} differs from reference {ref}")
        return expect(out is True, "scaling identity failed")


def check_reduction(p, sbar, K, coeff_coords):
    c = sbar ** (p - 1)
    expected = FqPoly(K, [K.zero(), -c] + [K.zero()] * (p - 2) + [K.one()])
    return expect(coeff_coords == [list(x.coords) for x in expected.coeffs], "reduction is not z^p - c z")


def check_identities(p, rep):
    return first_error(
        expect(rep["product_identity"] is True, "product identity failed"),
        expect(rep["lambda_val_p"] == p - 1, f"v(p) = {rep['lambda_val_p']}"),
        expect(rep["wilson_residue"] == p - 1, f"Wilson residue {rep['wilson_residue']} != p - 1"),
        expect(rep["digit_residues"] == [i % p for i in range(1, p)], "digit residues wrong"),
    )


# -- oneshot: the CLI user, one fresh interpreter per query ----------------------

def cubic_map(p, rng):
    """z^3 + a z + b over F_p with critical points outside F_p (they need F_{p^2})."""
    nonresidues = [n for n in range(2, p) if pow(n, (p - 1) // 2, p) == p - 1]
    a = (-3 * rng.choice(nonresidues)) % p
    b = rng.randrange(p)
    return a, {"domain": {"kind": "finite_field", "p": p, "k": 1, "modulus": [0, 1]},
               "num": [[b], [a], [0], [1]], "den": [[1]]}


def field_json(F):
    return {"p": F.p, "k": F.k, "modulus": list(F.modulus)}


def additive_json(g):
    return {"field": field_json(g.field), "a": [list(c.coords) for c in g.coeffs]}


class Oneshot:
    trace_rounds = 2
    round_s = 7.8

    def __init__(self, seed, tmp):
        self.rng = random.Random(f"oneshot:{seed}")
        self.ref = load_reference()
        self.tmp = Path(tmp)
        self.draws = Draws(self.rng)
        self.pco_primes = [primes_in(lo, hi) for lo, hi in PCO_BANDS]
        self.census = Cycle("oneshot-census", ONESHOT_CENSUS)
        self.identities = Cycle("identities", IDENTITY_PRIMES)
        self.locus = Cycle("locus", LOCUS_MENU)
        self.normal = Cycle("oneshot-normal-form", ONESHOT_NORMAL_FORM)
        self.pairs = Pairs(self.rng, self.ref["pairs"])
        self.sbars = {}
        self.conj = Cycle("oneshot-conjugate", ONESHOT_CONJUGATE)
        self.monodromy = Cycle("oneshot-monodromy", ONESHOT_MONODROMY_SLOTS)
        self.files = 0
        self.tracer = None
        self.cli = {"import_ms": 0.0, "process_ms": 0.0}

    def _file(self, payload):
        self.files += 1
        path = self.tmp / f"in{self.files}.json"
        path.write_text(json.dumps(payload))
        return str(path)

    def rounds(self):
        r = 0
        while True:
            qs = []
            for primes in self.pco_primes:
                p = self.draws.next(("pco", primes[0]), primes)
                if p is None:
                    return
                a, data = cubic_map(p, self.rng)
                qs.append({"kind": "pco", "p": p, "a": a,
                           "argv": ["pco", "--map", self._file(data), "--max-steps", str(PCO_MAX_STEPS), "--json"]})
            p, m, order = self.normal.next()
            F = field_of_order(p, order)
            g = random_monic(F, m, self.rng)
            g = AdditivePoly(F, list(g.coeffs[:-1]) + [F.element_from_index(self.rng.randrange(1, order))])
            qs.append({"kind": "normal-form", "g": g, "argv": ["normal-form", "--map", self._file(additive_json(g)), "--json"]})
            fam = self.conj.next()
            pair = self.pairs.pair(fam, r % 2 == 0)
            qs.append({"kind": "conjugate", "g": pair["g"], "h": pair["h"], "conjugate": pair["conjugate"],
                       "argv": ["conjugate", "--first", self._file(additive_json(pair["g"])),
                                "--second", self._file(additive_json(pair["h"])), "--json"]})
            _, p, m, j, n = self.monodromy.next()
            pool = self.ref["oneshot_monodromy"][slot_key(p, m, j, n)]
            idx, k = self.rng.choice(pool)  # every query is a fresh process: a repeat costs the same
            f = additive_from_indices(GF(p, j), idx)
            qs.append({"kind": "monodromy", "p": p, "m": m, "n": n, "k": k,
                       "argv": ["monodromy", "--map", self._file(additive_json(f)), "--depth", str(n), "--json"]})
            fam = self.census.next()
            qs.append({"kind": "census", "family": fam,
                       "argv": ["census", "--p", str(fam[0]), "--m", str(fam[1]), "--q", str(fam[2]), "--json"]})
            p = self.identities.next()
            qs.append({"kind": "identities", "p": p, "argv": ["identities", "--p", str(p), "--json"]})
            pmn = self.locus.next()
            qs.append({"kind": "locus", "pmn": pmn,
                       "argv": ["locus", "--p", str(pmn[0]), "--m", str(pmn[1]), "--n", str(pmn[2]), "--json"]})
            p = REDUCE_PRIMES[r % len(REDUCE_PRIMES)]
            a = self.draws.next(("reduce", p), [a for a in LIFT_A_RANGE if a % p])
            if a is None:
                return
            sbar = sbar_for(p, a, self.rng, self.sbars)
            qs.append({"kind": "lift-reduce", "p": p, "sbar": sbar,
                       "argv": ["lift", "--p", str(p), "--a", str(a), "--reduce", "--sbar",
                                ",".join(map(str, sbar.coords)), "--sbar-degree", str(p - 1), "--json"]})
            self.rng.shuffle(qs)
            yield qs
            r += 1

    def execute(self, q):
        report = None
        if self.tracer is not None:
            report = self.tmp / "trace.json"
        cmd = [sys.executable, str(BENCH_DIR / "cli_child.py"), str(report or "-"), "--", *q["argv"]]
        start = time.perf_counter_ns()
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=150)
        wall = time.perf_counter_ns() - start
        out = {"code": proc.returncode, "stdout": proc.stdout, "stderr": proc.stderr}
        if report is not None and report.exists():
            data = json.loads(report.read_text())
            report.unlink()
            self.cli["import_ms"] += data["import_ns"] / 1e6
            self.cli["process_ms"] += (wall - data["import_ns"] - data["main_ns"] - data["bench_ns"]) / 1e6
            out["trace"] = data
        return out

    def check(self, q, out):
        kind = q["kind"]
        want = 1 if kind == "conjugate" and not q["conjugate"] else 0
        if out["code"] != want:
            return f"exit code {out['code']} (expected {want}): {out['stderr'].strip()[-300:]}"
        try:
            payload = json.loads(out["stdout"])
        except json.JSONDecodeError:
            return "output is not JSON"
        if kind == "pco":
            return check_pco(q["p"], q["a"], payload)
        if kind == "normal-form":
            g = q["g"]
            F = make_field(payload["field"]["p"], payload["field"]["k"], payload["field"]["modulus"])
            mon = [F.element(c) for c in payload["monic_coeffs"]]
            w = Pgl2.affine(FiniteFieldDomain(F), F.element(payload["witness"]["scale"]),
                            F.element(payload["witness"]["shift"]))
            return first_error(
                expect(mon[-1] == F.one(), "normal form is not monic"),
                expect(witness_carries(w, list(g.coeffs), mon), "normal-form witness does not carry the input"),
            )
        if kind == "conjugate":
            if not q["conjugate"]:
                return expect(payload == {"conjugate": False}, "non-conjugate pair reported conjugate")
            E = GF(q["g"].field.p, len(payload["witness"]["scale"]))
            w = Pgl2.affine(FiniteFieldDomain(E), E.element(payload["witness"]["scale"]),
                            E.element(payload["witness"]["shift"]))
            return expect(witness_carries(w, list(q["g"].coeffs), list(q["h"].coeffs)),
                          "conjugacy witness does not carry g to h")
        if kind == "monodromy":
            p, m, n = q["p"], q["m"], q["n"]
            rows = [(lv["order"], lv["free"], lv["transitive"], lv["abelian_invariants"],
                     lv["splitting_field_degree"]) for lv in payload["levels"]]
            kernels = [pr["kernel_size"] for pr in payload["projections"]]
            return first_error(
                check_level_rows(rows, p, m, range(1, n + 1), q["k"]),
                expect(kernels == [p ** m] * (n - 1), f"kernels {kernels} != p^m"),
            )
        if kind == "census":
            fam = q["family"]
            return first_error(
                check_census_content(fam, payload, self.ref["census"][family_key(*fam)]),
                check_witness_samples(fam, payload["witness_samples"]),
            )
        if kind == "identities":
            return check_identities(q["p"], payload)
        if kind == "locus":
            ref = self.ref["lift"]["locus"][",".join(map(str, q["pmn"]))]
            return expect(payload == ref, f"locus {payload} differs from reference {ref}")
        red = payload["reduction"]
        K = make_field(red["field"]["p"], red["field"]["k"], red["field"]["modulus"])
        return expect(K == q["sbar"].field, "reduction over an unexpected field") or \
            check_reduction(q["p"], q["sbar"], K, red["coeffs"])


def check_pco(p, a, payload):
    dom = payload["domain"]
    if (dom["p"], dom["k"]) != (p, 2):
        return f"critical points over F_{dom['p']}^{dom['k']}, expected F_{p}^2"
    K = make_field(p, 2, dom["modulus"])
    verts = payload["vertices"]
    out_w = {}
    for s, _t, w in payload["edges"]:
        if s in out_w:
            return f"vertex {s} has two outgoing edges"
        out_w[s] = w
    crit = [i for i, v in enumerate(verts) if v["critical"]]
    if len(crit) != 3:
        return f"{len(crit)} critical points, expected 3 (two finite and infinity)"
    for i in crit:
        pt = verts[i]["point"]
        if pt is None:
            if out_w.get(i) != 3:
                return "infinity is not critical of index 3"
            continue
        c = K.element(pt)
        if not (c * c * 3 + a).is_zero():
            return f"{pt} is not a root of f'"
        if out_w.get(i) != 2:
            return f"finite critical point with weight {out_w.get(i)}"
    missing = [i for i, v in enumerate(verts) if not v["truncated"] and i not in out_w]
    return expect(not missing, f"vertices {missing} have no outgoing edge")


WORKLOADS = {"census": Census, "tower": Tower, "lift": Lift, "oneshot": Oneshot}
