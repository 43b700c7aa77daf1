"""Tracing from outside the library: spans and counters around wildram's public functions.

The tracer never edits ``src/``.  ``install`` replaces each traced function in
every ``wildram`` module namespace that binds it (``moduli.embed`` as well as
``ff.embed``) and on the classes that own traced methods, so calls made inside
the package go through the wrappers too.  A span records name, start, end,
parent span and query id; spans stay in memory until ``write_spans``.

Tiny per-element operations (field, cyclotomic and polynomial arithmetic,
``FiniteField.__eq__``) are counted, never timed: a span around each of
millions of calls would cost more than the calls themselves.

``LAYER_METRICS`` is the per-layer metric table.  Each entry names the
end-to-end metric and workload it is expected to move; ``BENCHMARK.json``
lists the same names.
"""

from __future__ import annotations

import collections
import functools
import sys
from time import perf_counter_ns


class Tracer:
    def __init__(self):
        self.on = False
        self.spans = []  # (name, start_ns, end_ns, parent index or -1, query id)
        self.stack = []
        self.qid = -1
        self.counts = collections.Counter()  # counted (untimed) operations
        self.extra = collections.Counter()  # "<span>.<measure>" sums
        self.seen = {}  # span name -> argument keys met so far in this process

    def open(self, name):
        sid = len(self.spans)
        self.spans.append((name, perf_counter_ns(), None, self.stack[-1] if self.stack else -1, self.qid))
        self.stack.append(sid)
        return sid

    def close(self, sid):
        self.stack.pop()
        name, start, _, parent, qid = self.spans[sid]
        self.spans[sid] = (name, start, perf_counter_ns(), parent, qid)

    def note_key(self, name, key):
        seen = self.seen.setdefault(name, set())
        if key in seen:
            self.extra[name + ".repeats"] += 1
        else:
            seen.add(key)
            self.extra[name + ".new"] += 1

    def spanned(self, name, fn, key=None, measure=None):
        tr = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tr.on:
                return fn(*args, **kwargs)
            if key is not None:
                tr.note_key(name, key(*args, **kwargs))
            sid = tr.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tr.close(sid)
            if measure is not None:
                for m, v in measure(result, *args, **kwargs).items():
                    tr.extra[f"{name}.{m}"] += v
            return result

        return wrapper

    def counted(self, name, fn):
        tr = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tr.on:
                tr.counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def merge(self, report, parent):
        """Add a child process's trace report under span ``parent``."""
        base = len(self.spans)
        for name, start, end, par, _ in report["spans"]:
            self.spans.append((name, start, end, parent if par < 0 else base + par, self.qid))
        self.counts.update(report["counts"])
        self.extra.update(report["extra"])

    def report(self):
        return {"spans": self.spans, "counts": dict(self.counts), "extra": dict(self.extra)}


# -- what gets wrapped -------------------------------------------------------

def _field_key(F):
    return F.key() if F is not None else None


def _make_field_key(p, k, modulus=None):
    return (p, k, None if modulus is None else tuple(int(c) for c in modulus))


def _embedding_key(src, target):
    return (src.key(), target.key())


def _root_space_key(f, n, budget=None, ambient=None):
    return (f.field.key(), tuple(c.coords for c in f.coeffs), n, budget, _field_key(ambient))


def _cells(result, mat, *args, **kwargs):
    shape = getattr(mat, "shape", None)
    return {"cells": int(shape[0] * shape[1]) if shape is not None and len(shape) == 2 else 0}


# (module, attribute, span name, argument key for repeat counting, measure)
FUNCTION_SPANS = [
    ("ff", "make_field", "ff.make_field", _make_field_key, None),
    ("ff", "embedding_matrix", "ff.embedding_matrix", _embedding_key, None),
    ("ff", "embed", "ff.embed", None, None),
    ("ff", "squarefree_factor", "ff.squarefree_factor", None, None),
    ("ff", "distinct_degree_profile", "ff.distinct_degree_profile", None, None),
    ("ff", "splitting_degree", "ff.splitting_degree", None, None),
    ("ff", "roots_in", "ff.roots_in", None, None),
    ("_linalg", "nullspace", "linalg.nullspace", None, _cells),
    ("_linalg", "rref", "linalg.rref", None, None),
    ("_linalg", "row_space_basis", "linalg.row_space_basis", None, None),
    ("addpoly", "root_space", "addpoly.root_space", _root_space_key,
     lambda r, *a, **k: {"roots": len(r.all_roots)}),
    ("addpoly", "iterate", "addpoly.iterate", None, None),
    ("moduli", "census", "moduli.census", None, None),
    ("moduli", "are_conjugate", "moduli.are_conjugate", None,
     lambda r, *a, **k: {"found": int(r is not None)}),
    ("moduli", "conjugating_set", "moduli.conjugating_set", None,
     lambda r, *a, **k: {"maps": len(r.maps)}),
    ("moduli", "fix_points", "moduli.fix_points", None, None),
    ("moduli", "to_monic_additive", "moduli.to_monic_additive", None, None),
    ("monodromy", "tower", "monodromy.tower", None, None),
    ("monodromy", "monodromy_level", "monodromy.monodromy_level", None, None),
    ("dynsys", "post_critical_orbit", "dynsys.post_critical_orbit", None, None),
    # post_critical_orbit reaches the critical points through _critical_data,
    # not through critical_points, so the span sits on the shared helper.
    ("dynsys", "_critical_data", "dynsys.critical_points", None, None),
    ("dynsys", "ram_profile", "dynsys.ram_profile", None, None),
    ("dynsys", "conjugate", "dynsys.conjugate", None, None),
    ("cyclotomic", "verify_cyclotomic_identities", "cyclotomic.verify_identities", None, None),
    ("gmlift", "build_lift", "gmlift.build_lift", None, None),
    ("gmlift", "orbit_search", "gmlift.orbit_search", None, None),
    ("gmlift", "pcf_locus_poly", "gmlift.pcf_locus_poly", None, None),
    ("gmlift", "scaling_check", "gmlift.scaling_check", None, None),
    ("gmlift", "reduce_lift", "gmlift.reduce_lift", None, None),
    # no per-layer metric of its own; the span keeps its time in gmlift's share
    ("gmlift", "lift_critical_data", "gmlift.lift_critical_data", None, None),
]

# (module, class, attributes, span name, measure)
METHOD_SPANS = [
    ("addpoly", "AdditivePoly", ["operator_matrix"], "addpoly.operator_matrix", None),
    ("monodromy", "GroupAction", ["translation"], "monodromy.translation",
     lambda r, *a, **k: {"table_entries": len(r.elements) * len(r.points)}),
    ("monodromy", "GroupAction", ["is_free", "is_transitive", "element_order", "stabilizer_orders"],
     "monodromy.action_checks", None),
    ("dynsys", "Pgl2", ["affine"], "dynsys.pgl2_affine", None),
    ("domains", "FiniteFieldDomain", ["squarefree"], "domains.squarefree", None),
    ("domains", "RationalDomain", ["squarefree"], "domains.squarefree", None),
    ("domains", "CyclotomicDomain", ["squarefree"], "domains.squarefree", None),
    ("domains", "FiniteFieldDomain", ["splitting_roots"], "domains.splitting_roots", None),
    ("domains", "RationalDomain", ["splitting_roots"], "domains.splitting_roots", None),
    ("domains", "CyclotomicDomain", ["splitting_roots"], "domains.splitting_roots", None),
    ("cyclotomic", "SRing", ["invert"], "cyclotomic.sring_invert", None),
]

_ARITH = ["__add__", "__radd__", "__sub__", "__rsub__", "__neg__", "__mul__", "__rmul__",
          "__truediv__", "__rtruediv__", "__pow__", "inverse"]

# (module, class, attributes, counter name)
METHOD_COUNTS = [
    ("ff", "FieldElement", _ARITH + ["frobenius"], "ff.elem_ops"),
    ("ff", "FiniteField", ["__eq__"], "ff.field_eq.calls"),
    ("ff", "FqPoly", ["__add__", "__sub__", "__neg__", "__mul__", "__divmod__", "__floordiv__",
                      "__mod__", "monic", "gcd", "derivative", "evaluate", "compose", "pow_mod"],
     "ff.poly_ops"),
    ("cyclotomic", "CyclotomicNumber", _ARITH, "cyclotomic.elem_ops"),
    ("cyclotomic", "SRingElement", _ARITH, "cyclotomic.elem_ops"),
    ("gmlift", "RPoly", ["__add__", "__sub__", "__neg__", "__mul__", "__pow__", "evaluate", "compose"],
     "gmlift.rpoly_ops"),
]


def _wrap_attr(cls, attr, make):
    raw = cls.__dict__.get(attr)
    if raw is None:
        return
    if isinstance(raw, classmethod):
        setattr(cls, attr, classmethod(make(raw.__func__)))
    else:
        setattr(cls, attr, make(raw))


def install(tracer: Tracer) -> None:
    """Wrap every traced name in every loaded ``wildram`` module; call once per process."""
    import importlib

    import wildram  # noqa: F401  (loads every submodule)

    mods = {n: m for n, m in sys.modules.items() if n == "wildram" or n.startswith("wildram.")}

    def rebind(orig, new):
        for m in mods.values():
            for attr in [a for a, v in vars(m).items() if v is orig]:
                setattr(m, attr, new)

    for mod, attr, name, key, measure in FUNCTION_SPANS:
        orig = getattr(importlib.import_module(f"wildram.{mod}"), attr)
        rebind(orig, tracer.spanned(name, orig, key, measure))
    for mod, cls_name, attrs, name, measure in METHOD_SPANS:
        cls = getattr(importlib.import_module(f"wildram.{mod}"), cls_name)
        for attr in attrs:
            _wrap_attr(cls, attr, lambda fn: tracer.spanned(name, fn, None, measure))
    for mod, cls_name, attrs, name in METHOD_COUNTS:
        cls = getattr(importlib.import_module(f"wildram.{mod}"), cls_name)
        for attr in attrs:
            _wrap_attr(cls, attr, lambda fn: tracer.counted(name, fn))


# -- analysis ----------------------------------------------------------------

def self_times(spans):
    """Each span's duration minus the union of its children's intervals, clipped to it."""
    children = collections.defaultdict(list)
    for span in spans:
        if span[3] >= 0:
            children[span[3]].append((span[1], span[2]))
    out = []
    for i, (_, start, end, _, _) in enumerate(spans):
        covered = 0
        cur = None
        for cs, ce in sorted(children.get(i, ())):
            cs, ce = max(cs, start), min(ce, end)
            if ce <= cs:
                continue
            if cur is None or cs > cur[1]:
                if cur is not None:
                    covered += cur[1] - cur[0]
                cur = [cs, ce]
            else:
                cur[1] = max(cur[1], ce)
        if cur is not None:
            covered += cur[1] - cur[0]
        out.append(end - start - covered)
    return out


def span_totals(spans):
    """name -> (calls, self time in ns)."""
    totals = collections.defaultdict(lambda: [0, 0])
    for span, own in zip(spans, self_times(spans)):
        totals[span[0]][0] += 1
        totals[span[0]][1] += own
    return totals


def module_shares(spans):
    """module -> share of all self time (the benchmark's own spans count as ``bench``)."""
    per = collections.Counter()
    for name, (_, own) in span_totals(spans).items():
        per[name.split(".")[0]] += own
    total = sum(per.values()) or 1
    return {m: v / total for m, v in per.most_common()}


# (metric, unit, better, kind, source, expected to move)
LAYER_METRICS = []


def _m(name, unit, better, kind, source, moves):
    LAYER_METRICS.append((name, unit, better, kind, source, moves))


def _calls_self(span, moves):
    _m(f"{span}.calls", "count", "lower", "calls", span, moves)
    _m(f"{span}.self_ms", "ms", "lower", "self_ms", span, moves)


_FF = "queries_per_s on census and tower; query_p50_ms and query_tail_ms on oneshot"
_calls_self("ff.make_field", _FF)
_m("ff.make_field.new", "count", "lower", "extra", "ff.make_field.new", _FF)
_calls_self("ff.embedding_matrix", _FF)
_m("ff.embedding_matrix.repeat_ratio", "1", "higher", "repeat", "ff.embedding_matrix", _FF)
for _s in ["embed", "squarefree_factor", "distinct_degree_profile", "splitting_degree", "roots_in"]:
    _calls_self(f"ff.{_s}", _FF)
_m("ff.elem_ops", "count", "lower", "count", "ff.elem_ops", _FF)
_m("ff.field_eq.calls", "count", "lower", "count", "ff.field_eq.calls", _FF)
_m("ff.poly_ops", "count", "lower", "count", "ff.poly_ops", _FF)

_LA = "queries_per_s on tower"
_calls_self("linalg.nullspace", _LA)
_m("linalg.nullspace.cells", "count", "lower", "extra", "linalg.nullspace.cells", _LA)
_calls_self("linalg.rref", _LA)
_calls_self("linalg.row_space_basis", _LA)

_AP = "queries_per_s and query_tail_ms on tower"
_calls_self("addpoly.root_space", _AP)
_m("addpoly.root_space.repeat_ratio", "1", "higher", "repeat", "addpoly.root_space", _AP)
_m("addpoly.root_space.roots", "count", "lower", "extra", "addpoly.root_space.roots", _AP)
_m("addpoly.iterate.self_ms", "ms", "lower", "self_ms", "addpoly.iterate", _AP)
_m("addpoly.operator_matrix.self_ms", "ms", "lower", "self_ms", "addpoly.operator_matrix", _AP)

_MO = "queries_per_s and query_tail_ms on census"
_calls_self("moduli.census", _MO)
_calls_self("moduli.are_conjugate", _MO)
_m("moduli.are_conjugate.found_ratio", "1", "higher", "ratio", "moduli.are_conjugate.found", _MO)
_calls_self("moduli.conjugating_set", _MO)
_m("moduli.conjugating_set.maps", "count", "lower", "extra", "moduli.conjugating_set.maps", _MO)
_calls_self("moduli.fix_points", _MO)
_calls_self("moduli.to_monic_additive", _MO)

_MD = "queries_per_s and peak_rss_mib on tower"
_calls_self("monodromy.tower", _MD)
_calls_self("monodromy.monodromy_level", _MD)
_calls_self("monodromy.translation", _MD)
_m("monodromy.translation.table_entries", "count", "lower", "extra",
   "monodromy.translation.table_entries", _MD)
_m("monodromy.action_checks.self_ms", "ms", "lower", "self_ms", "monodromy.action_checks", _MD)

_DY = "query_tail_ms on oneshot; queries_per_s on census (witness checks)"
for _s in ["post_critical_orbit", "critical_points", "ram_profile", "conjugate", "pgl2_affine"]:
    _calls_self(f"dynsys.{_s}", _DY)

_DO = "query_tail_ms on oneshot"
_calls_self("domains.squarefree", _DO)
_calls_self("domains.splitting_roots", _DO)

_CY = "queries_per_s on lift"
_calls_self("cyclotomic.verify_identities", _CY)
_calls_self("cyclotomic.sring_invert", _CY)
_m("cyclotomic.elem_ops", "count", "lower", "count", "cyclotomic.elem_ops", _CY)

_GM = "queries_per_s and query_tail_ms on lift"
for _s in ["build_lift", "orbit_search", "pcf_locus_poly", "scaling_check", "reduce_lift"]:
    _calls_self(f"gmlift.{_s}", _GM)
_m("gmlift.rpoly_ops", "count", "lower", "count", "gmlift.rpoly_ops", _GM)

_CL = "query_p50_ms on oneshot"
_m("cli.import_ms", "ms", "lower", "cli", "import_ms", _CL)
_m("cli.main.self_ms", "ms", "lower", "self_ms", "cli.main", _CL)
_m("cli.process_ms", "ms", "lower", "cli", "process_ms", _CL)

_m("trace.overhead_ratio", "1", "higher", "bench", "overhead_ratio",
   "traced over untraced queries_per_s on the same queries; no layer")
_m("src.lines", "count", "lower", "bench", "src_lines", "non-blank lines of src/wildram/*.py")


def layer_metrics(tracer: Tracer, cli: dict, bench: dict) -> dict:
    """Every LAYER_METRICS value from one traced run."""
    totals = span_totals(tracer.spans)
    out = {}
    for name, unit, _better, kind, source, _moves in LAYER_METRICS:
        calls, own = totals.get(source, (0, 0))
        if kind == "calls":
            value = calls
        elif kind == "self_ms":
            value = own / 1e6
        elif kind == "count":
            value = tracer.counts.get(source, 0)
        elif kind == "extra":
            value = tracer.extra.get(source, 0)
        elif kind == "repeat":
            value = tracer.extra.get(source + ".repeats", 0) / calls if calls else 0.0
        elif kind == "ratio":
            span = source.rsplit(".", 1)[0]
            n = totals.get(span, (0, 0))[0]
            value = tracer.extra.get(source, 0) / n if n else 0.0
        elif kind == "cli":
            value = cli.get(source, 0.0)
        else:
            value = bench[source]
        out[name] = {"value": value, "unit": unit}
    return out


def write_spans(spans, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("id,name,start_ns,end_ns,parent,query\n")
        for i, (name, start, end, parent, qid) in enumerate(spans):
            fh.write(f"{i},{name},{start},{end},{parent},{qid}\n")
