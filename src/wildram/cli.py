"""The wildram command line.

Exit codes: 0 success, 1 mathematical negative (e.g. maps not conjugate,
odometer check failed), 2 input/usage error (including a malformed map
file), 3 enumeration budget exceeded, 4 internal verification failed (a
computed result failed its certificate check: a bug, not bad input).
All output is deterministic for fixed flags; --json emits
machine-readable reports that validate against the schemas shipped in
wildram/schemas/.
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import contextmanager

from . import __version__
from .addpoly import AdditivePoly, additive_from_json, recognize_additive
from .cyclotomic import verify_cyclotomic_identities
from .domains import coeff_from_json, domain_from_json
from .dynsys import RationalMap, post_critical_orbit
from .errors import BadInput, BudgetExceeded, CertificateFailed, WildramError
from .ff import GF, FqPoly, field_from_json, json_ints
from .gmlift import (
    build_lift,
    lift_critical_data,
    lift_scheme_dot,
    orbit_search,
    pcf_locus_poly,
    reduce_lift,
    scaling_check,
)
from .moduli import are_conjugate, census, to_monic_additive
from .monodromy import char0_obstruction, lift_obstruction, tower

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_INPUT = 2
EXIT_BUDGET = 3
EXIT_CERTIFICATE = 4


def _emit(args, payload: dict, human: str) -> None:
    if args.json:
        sys.stdout.write(json.dumps(payload, sort_keys=True, indent=2) + "\n")
    else:
        sys.stdout.write(human + "\n")


@contextmanager
def _map_file(path: str):
    """Read a JSON map file; an unreadable or malformed one raises BadInput."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
        yield data
    except (OSError, KeyError, TypeError, ValueError) as exc:  # JSONDecodeError is a ValueError
        raise BadInput(f"map file {path}: {type(exc).__name__}: {exc}") from exc


def _int_list(flag: str, text: str) -> list[int]:
    """Parse a comma-separated list of integers; anything else raises BadInput."""
    try:
        return [int(v) for v in text.split(",")]
    except ValueError as exc:
        raise BadInput(f"{flag} expects comma-separated integers, got {text!r}") from exc


def _load_map(path: str) -> RationalMap:
    with _map_file(path) as data:
        dom = domain_from_json(data["domain"])
        num = [coeff_from_json(dom, c) for c in data["num"]]
        den = (
            [coeff_from_json(dom, c) for c in data["den"]]
            if "den" in data and data["den"]
            else None
        )
        return RationalMap(dom, num, den)


def _load_additive(path: str) -> AdditivePoly:
    with _map_file(path) as data:
        if "a" in data:
            return additive_from_json(data)
        F = field_from_json(data["field"])
        poly = FqPoly(F, [F.element(json_ints(c, "a coordinate vector")) for c in data["coeffs"]])
    add = recognize_additive(poly)
    if add is None:
        raise WildramError("input polynomial is not additive")
    return add


def cmd_census(args) -> int:
    rep = census(args.p, args.m, args.q)
    payload = rep.to_json()
    lines = [
        f"census p={rep.p} m={rep.m} q={rep.q}: {rep.total} maps, "
        f"{rep.class_count} classes",
        f"fiber histogram: {dict(sorted(rep.fiber_histogram.items()))}",
        f"max fiber {rep.max_fiber}; Lemma-bound ok: {rep.bound_ok}",
    ]
    _emit(args, payload, "\n".join(lines))
    return EXIT_OK if rep.bound_ok else EXIT_NEGATIVE


def cmd_normal_form(args) -> int:
    g = _load_additive(args.map)
    nf = to_monic_additive(g)
    gamma, delta = nf.witness.affine_parts()
    payload = {
        "field": {"p": nf.field.p, "k": nf.field.k, "modulus": list(nf.field.modulus)},
        "monic_coeffs": [list(c.coords) for c in nf.poly.coeffs],
        "witness": {"scale": list(gamma.coords), "shift": list(delta.coords)},
    }
    _emit(
        args,
        payload,
        f"monic additive form over {nf.field!r}: coefficients "
        f"{[list(c.coords) for c in nf.poly.coeffs]}",
    )
    return EXIT_OK


def cmd_conjugate(args) -> int:
    g1 = _load_additive(args.first)
    g2 = _load_additive(args.second)
    w = are_conjugate(g1, g2)
    if w is None:
        _emit(args, {"conjugate": False}, "not conjugate")
        return EXIT_NEGATIVE
    gamma, delta = w.affine_parts()
    payload = {
        "conjugate": True,
        "witness": {"scale": list(gamma.coords), "shift": list(delta.coords)},
    }
    _emit(args, payload, f"conjugate via z -> {list(gamma.coords)} z + {list(delta.coords)}")
    return EXIT_OK


def cmd_pco(args) -> int:
    f = _load_map(args.map)
    scheme = post_critical_orbit(f, args.max_steps)
    if args.dot:
        sys.stdout.write(scheme.to_dot() + "\n")
        return EXIT_OK
    payload = scheme.to_json()
    human = [
        f"post-critical orbit: {len(scheme.vertices)} vertices, "
        f"truncated: {scheme.was_truncated}"
    ]
    for s, t, w in scheme.edges:
        human.append(f"  {scheme.vertex_label(s)} -> {scheme.vertex_label(t)}  [{w}]")
    _emit(args, payload, "\n".join(human))
    return EXIT_OK


def cmd_monodromy(args) -> int:
    f = _load_additive(args.map)
    tw = tower(f, args.depth)
    levels = []
    for lvl in tw.levels:
        levels.append(
            {
                "level": lvl.level,
                "order": lvl.order,
                "free": lvl.action.is_free(),
                "transitive": lvl.action.is_transitive(),
                "abelian_invariants": list(lvl.abelian_invariants()),
                "splitting_field_degree": lvl.space.field.k,
            }
        )
    projections = [
        {
            "source": pr.source_level,
            "target": pr.target_level,
            "kernel_size": pr.kernel_size,
        }
        for pr in tw.projections
    ]
    payload = {"p": f.field.p, "depth": tw.depth, "levels": levels, "projections": projections}
    human = [f"monodromy tower to depth {tw.depth} (p={f.field.p}):"]
    for lv in levels:
        human.append(
            f"  level {lv['level']}: order {lv['order']}, invariants "
            f"{lv['abelian_invariants']}, free={lv['free']}"
        )
    for pr in projections:
        human.append(
            f"  projection {pr['source']}->{pr['target']}: kernel {pr['kernel_size']}"
        )
    _emit(args, payload, "\n".join(human))
    return EXIT_OK


def cmd_obstruction(args) -> int:
    if not args.map and (args.p is None or args.m is None):
        raise WildramError("obstruction needs either --map or both --p and --m")
    if args.map:
        cert = lift_obstruction(_load_additive(args.map))
        payload = cert.to_json()
        human = (
            f"degree p^{cert.ell}, level n={cert.n}: free action of order "
            f"{cert.level_order} on {cert.level_points} points; "
            f"#C = {cert.report.crit_count}, p^(M-1) divides: {cert.report.divides} "
            f"=> obstructed: {cert.report.obstructed}"
        )
        _emit(args, payload, human)
        return EXIT_OK if cert.report.obstructed else EXIT_NEGATIVE
    rep = char0_obstruction(args.p, args.m)
    payload = rep.to_json()
    human = (
        f"p={rep.p} m={rep.m}: #C = {rep.crit_count}; p^(m-1) = {rep.p ** (rep.m - 1)} "
        f"divides: {rep.divides} => obstructed: {rep.obstructed}"
        + ("" if rep.obstructed else f" (pass to the iterate n = {rep.iterate_hint})")
    )
    _emit(args, payload, human)
    return EXIT_OK if rep.obstructed else EXIT_NEGATIVE


def cmd_identities(args) -> int:
    rep = verify_cyclotomic_identities(args.p)
    _emit(
        args,
        rep,
        f"p={args.p}: product identity ok, v(p) = {rep['lambda_val_p']}, "
        f"Wilson residue {rep['wilson_residue']}",
    )
    return EXIT_OK


def cmd_lift(args) -> int:
    if args.dot and not args.orbit:
        raise BadInput("--dot draws the orbit's mapping scheme and needs --orbit")
    L = build_lift(args.p, a=args.a)
    payload = {"lift": L.to_json()}
    human = [f"lift for p={args.p}, a={args.a}: valuations {L.coefficient_valuations()}"]
    if args.reduce:
        if args.sbar is None:
            raise WildramError("--reduce needs --sbar")
        coords = _int_list("--sbar", args.sbar)
        K = GF(args.p, max(args.sbar_degree, len(coords)))
        sbar = K.element(coords + [0] * (K.k - len(coords)))
        reduced = reduce_lift(L, sbar)
        payload["reduction"] = {
            "field": {"p": K.p, "k": K.k, "modulus": list(K.modulus)},
            "coeffs": [list(c.coords) for c in reduced.coeffs],
        }
        c = sbar ** (args.p - 1)
        cdesc = str(c.coords[0]) if K.k == 1 else str(list(c.coords))
        human.append(f"reduces to z^{args.p} - {cdesc}*z over {K!r}")
    if args.orbit:
        cert = orbit_search(L, args.orbit)
        payload["orbit"] = cert.to_json()
        human.append(
            f"orbit verdict: {cert.verdict}; valuations "
            f"{[None if v == float('inf') else v for v in cert.valuations]}"
        )
        if args.dot:
            sys.stdout.write(lift_scheme_dot(L, cert) + "\n")
            return EXIT_OK
    if args.locus:
        m_idx, n_idx = args.locus
        _poly, rep = pcf_locus_poly(args.p, m_idx, n_idx)
        payload["locus"] = rep.to_json()
        human.append(
            f"PCF locus polynomial for (m={m_idx}, n={n_idx}): degree {rep.degree}"
        )
    if args.scaling_check:
        ok = scaling_check(args.p)
        payload["scaling_check"] = ok
        human.append(f"scaling conjugacy identity: {'ok' if ok else 'FAILED'}")
    if args.critical:
        data = lift_critical_data(L)
        payload["critical"] = data.to_json()
        human.append(
            f"critical points oo and -s/lambda, both index {args.p}; "
            f"value valuation {data.value_valuation}"
        )
    _emit(args, payload, "\n".join(human))
    return EXIT_OK


def _orbit_worker(task):
    p, a, steps = task
    cert = orbit_search(build_lift(p, a=a), steps)
    return a, cert.to_json()


def cmd_orbit(args) -> int:
    if args.jobs < 1:
        raise BadInput(f"--jobs must be >= 1, got {args.jobs}")
    avals = sorted(set(_int_list("--a", args.a)))
    tasks = [(args.p, a, args.max_steps) for a in avals]
    # never more workers than tasks: a fork-started pool forks them all up front
    workers = min(args.jobs, len(tasks))
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = dict(pool.map(_orbit_worker, tasks))
    else:
        results = dict(_orbit_worker(t) for t in tasks)
    payload = {"p": args.p, "orbits": [{"a": a, **results[a]} for a in avals]}
    human = []
    worst = EXIT_OK
    for a in avals:
        rep = results[a]
        human.append(
            f"p={args.p} a={a}: {rep['verdict']}; valuations {rep['valuations']}"
        )
        if rep["verdict"] == "unknown":
            worst = EXIT_BUDGET
    _emit(args, payload, "\n".join(human))
    return worst


def cmd_locus(args) -> int:
    poly, rep = pcf_locus_poly(args.p, args.m, args.n)
    payload = rep.to_json()
    human = (
        f"p={args.p}: deg_s(f^{args.m} - f^{args.m + args.n}) at the critical "
        f"point = {rep.degree}; zero-root multiplicity {rep.zero_multiplicity}"
    )
    _emit(args, payload, human)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="wildram",
        description="exact computation for wildly ramified additive dynamics",
    )
    ap.add_argument("--version", action="version", version=f"wildram {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--json", action="store_true", help="machine-readable output")

    c = sub.add_parser("census", help="conjugacy census of monic additive maps")
    c.add_argument("--p", type=int, required=True)
    c.add_argument("--m", type=int, required=True)
    c.add_argument("--q", type=int, required=True)
    common(c)
    c.set_defaults(fn=cmd_census)

    c = sub.add_parser("normal-form", help="monic additive normal form")
    c.add_argument("--map", required=True, help="JSON polynomial file")
    common(c)
    c.set_defaults(fn=cmd_normal_form)

    c = sub.add_parser("conjugate", help="decide linear conjugacy of two maps")
    c.add_argument("--first", required=True)
    c.add_argument("--second", required=True)
    common(c)
    c.set_defaults(fn=cmd_conjugate)

    c = sub.add_parser("pco", help="post-critical orbit mapping scheme")
    c.add_argument("--map", required=True, help="JSON rational map file")
    c.add_argument("--max-steps", type=int, default=64)
    c.add_argument("--dot", action="store_true", help="emit DOT")
    common(c)
    c.set_defaults(fn=cmd_pco)

    c = sub.add_parser("monodromy", help="monodromy tower of an additive map")
    c.add_argument("--map", required=True)
    c.add_argument("--depth", type=int, required=True)
    common(c)
    c.set_defaults(fn=cmd_monodromy)

    c = sub.add_parser("obstruction", help="characteristic-zero freeness obstruction")
    c.add_argument("--p", type=int)
    c.add_argument("--m", type=int)
    c.add_argument("--map", help="additive map JSON: run the full pipeline")
    common(c)
    c.set_defaults(fn=cmd_obstruction)

    c = sub.add_parser("identities", help="cyclotomic identities behind the reduction")
    c.add_argument("--p", type=int, required=True)
    common(c)
    c.set_defaults(fn=cmd_identities)

    c = sub.add_parser("lift", help="build the characteristic-zero lift")
    c.add_argument("--p", type=int, required=True)
    c.add_argument("--a", type=int, required=True)
    c.add_argument("--reduce", action="store_true")
    c.add_argument("--sbar", help="comma-separated coordinates of sbar")
    c.add_argument("--sbar-degree", type=int, default=0, help="extension degree of sbar's field")
    c.add_argument("--orbit", type=int, default=0, help="orbit search steps")
    c.add_argument("--locus", type=int, nargs=2, metavar=("M", "N"))
    c.add_argument("--critical", action="store_true")
    c.add_argument("--scaling-check", action="store_true")
    c.add_argument("--dot", action="store_true",
                   help="emit the orbit's mapping scheme as DOT instead of the report (needs --orbit)")
    common(c)
    c.set_defaults(fn=cmd_lift)

    c = sub.add_parser("orbit", help="orbit of the lift's finite critical point")
    c.add_argument("--p", type=int, required=True)
    c.add_argument("--a", required=True, help="parameter value, or a comma list")
    c.add_argument("--max-steps", type=int, default=16)
    c.add_argument("--jobs", type=int, default=1, help="worker processes")
    common(c)
    c.set_defaults(fn=cmd_orbit)

    c = sub.add_parser("locus", help="post-critically-finite parameter locus polynomial")
    c.add_argument("--p", type=int, required=True)
    c.add_argument("--m", type=int, required=True)
    c.add_argument("--n", type=int, required=True)
    common(c)
    c.set_defaults(fn=cmd_locus)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return EXIT_INPUT if exc.code not in (0, None) else 0
    try:
        return args.fn(args)
    except BudgetExceeded as exc:
        sys.stderr.write(f"budget exceeded: {exc}\n")
        return EXIT_BUDGET
    except CertificateFailed as exc:
        sys.stderr.write(f"internal verification failed: {exc}\n")
        return EXIT_CERTIFICATE
    except WildramError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
