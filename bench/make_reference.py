"""Write reference.json: the instance pools and their canonical answers.

Run from the repository root:  PYTHONPATH=src python3 bench/make_reference.py

The file fixes the tower menus (pools of separable f per slot, with the
splitting-field degree of f^n) and the canonical content of the census
families, locus polynomials and lift orbits.  It holds no witness
coordinates, so legitimate changes to embeddings or witness choice leave it
valid.  Regenerate it only when a menu is extended; a menu never shrinks.
"""

from __future__ import annotations

import itertools
import json
import random

from wildram.addpoly import iterate
from wildram.ff import GF, splitting_degree
from wildram.gmlift import build_lift, lift_critical_data, orbit_search, pcf_locus_poly
from wildram.moduli import census, conjugating_set, fix_points

import workloads as W

POOL_MAX = 240


def pool(p, m, j, n):
    F = GF(p, j)
    q = F.order
    every = [idx for idx in itertools.product(range(q), repeat=m + 1) if idx[0] and idx[-1]]
    if len(every) > POOL_MAX:
        every = sorted(random.Random(f"pool:{p},{m},{j},{n}").sample(every, POOL_MAX))
    out = []
    for idx in every:
        f = W.additive_from_indices(F, idx)
        out.append([list(idx), j * splitting_degree(iterate(f, n).to_fqpoly())])
    return out


def pair_pool(fam):
    """Monic separable g over F_q with the degrees of Fix(g)'s field and of its conjugating set."""
    p, m, q = fam
    F = W.field_of_order(p, q)
    one = sum(c * p ** (F.k - 1 - j) for j, c in enumerate(F.one().coords))
    every = [idx + (one,) for idx in itertools.product(range(q), repeat=m) if idx[0]]
    if len(every) > POOL_MAX:
        every = sorted(random.Random(f"pairs:{p},{m},{q}").sample(every, POOL_MAX))
    out = []
    for idx in every:
        g = W.additive_from_indices(F, idx)
        out.append([list(idx), fix_points(g)[1].k, conjugating_set(g).field.k])
    return out


def census_entry(fam):
    rep = census(*fam)
    got = rep.to_json()
    return {
        "total": got["total"],
        "class_count": got["class_count"],
        "fiber_histogram": got["fiber_histogram"],
        "bound_ok": got["bound_ok"],
        "classes": sorted(sorted([list(c) for c in m] for m in cls) for cls in rep.classes),
    }


def same_for_all_a(p, fn):
    """fn(a) must not depend on a (p does not divide a); checked on a spread of a."""
    values = [a for a in W.LIFT_A_RANGE if a % p]
    sample = values[:6] + values[::37]
    first = fn(sample[0])
    for a in sample[1:]:
        if fn(a) != first:
            raise SystemExit(f"reference for p={p} depends on a (a={a})")
    return first


def orbit_entry(p):
    def fn(a):
        L = build_lift(p, a=a)
        c = orbit_search(L, W.ORBIT_STEPS)
        return {"verdict": c.verdict, "valuations": list(c.valuations),
                "threshold_index": c.threshold_index, "coefficient_valuations": L.coefficient_valuations()}
    return same_for_all_a(p, fn)


def critical_entry(p):
    def fn(a):
        d = lift_critical_data(build_lift(p, a=a))
        return {"value_valuation": d.value_valuation, "point_valuation": d.point_valuation,
                "indices": [e for _, e in d.critical_points]}
    return same_for_all_a(p, fn)


def main():
    ref = {
        "census": {W.family_key(*fam): census_entry(fam)
                   for fam in sorted(set(W.CENSUS_FAMILIES) | set(W.ONESHOT_CENSUS))},
        "pairs": {W.family_key(*fam): pair_pool(fam) for fam in W.PAIR_FAMILIES},
        "tower": {W.slot_key(*s[1:]): pool(*s[1:]) for s in W.TOWER_SLOTS},
        "oneshot_monodromy": {W.slot_key(*s[1:]): pool(*s[1:]) for s in W.ONESHOT_MONODROMY_SLOTS},
        "lift": {
            "orbit": {str(p): orbit_entry(p) for p in W.ORBIT_PRIMES},
            "critical": {str(p): critical_entry(p) for p in [7]},
            "locus": {",".join(map(str, pmn)): pcf_locus_poly(*pmn)[1].to_json() for pmn in W.LOCUS_MENU},
        },
    }
    with open(W.REFERENCE_PATH, "w", encoding="utf-8") as fh:
        json.dump(ref, fh, sort_keys=True, separators=(",", ":"))
        fh.write("\n")


if __name__ == "__main__":
    main()
