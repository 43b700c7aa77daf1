"""Tests of the benchmark itself: span arithmetic, the tail rule, seeded generators, checks."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import metrics  # noqa: E402
import spans  # noqa: E402
import workloads as W  # noqa: E402
from worker import run_loop  # noqa: E402


def test_self_time_nested_and_overlapping_spans():
    s = [
        ("root", 0, 100, -1, 0),
        ("a", 10, 40, 0, 0),
        ("b", 30, 60, 0, 0),  # overlaps a: the union [10, 60] is covered once
        ("a.child", 15, 20, 1, 0),
        ("c", 90, 120, 0, 0),  # runs past its parent: clipped to [90, 100]
    ]
    assert spans.self_times(s) == [40, 25, 30, 5, 30]
    totals = spans.span_totals(s + [("a", 200, 210, -1, 1)])
    assert totals["a"] == [2, 35]


def test_tail_rule_keeps_ten_samples_beyond():
    lat = list(range(100))
    value, pct = metrics.tail(lat)
    assert value == 89 and sum(x > value for x in lat) == 10 and pct == 90.0
    value, pct = metrics.tail(list(range(11)))
    assert value == 0 and pct == pytest.approx(100 / 11)
    assert metrics.tail([5.0, 1.0, 3.0]) == (1.0, 0.0)
    s = metrics.summarize([0.1] * 20 + [1.0] * 10, 3)
    assert s["query_tail_ms"] == pytest.approx(100.0) and s["failed_ratio"] == 0.1


def _plain(v):
    if isinstance(v, W.AdditivePoly):
        return [c.coords for c in v.coeffs]
    if isinstance(v, W.FqPoly):
        return v.to_int_lists()
    if hasattr(v, "coords"):
        return v.coords
    return v


def _signature(q):
    out = {k: _plain(v) for k, v in q.items() if k != "argv"}
    if "argv" in q:
        out["argv"] = [Path(a).read_text() if a.endswith(".json") else a for a in q["argv"]]
    return out


def _rounds(name, seed, tmp, count=2):
    gen = W.WORKLOADS[name](seed, tmp).rounds()
    return [[_signature(q) for q in next(gen)] for _ in range(count)]


@pytest.mark.parametrize("name", sorted(W.WORKLOADS))
def test_generators_are_seed_deterministic(name, tmp_path):
    dirs = [tmp_path / d for d in "abc"]
    for d in dirs:
        d.mkdir()
    first = _rounds(name, 7, dirs[0])
    assert first == _rounds(name, 7, dirs[1])
    assert first != _rounds(name, 8, dirs[2])


def test_small_menus_give_every_seed_the_same_mix(tmp_path):
    def menu_items(seed):
        gen = W.Lift(seed, tmp_path).rounds()
        return [sorted(str(q.get("pmn", q.get("p"))) for q in next(gen) if q["kind"] in ("identities", "locus", "scaling"))
                for _ in range(5)]

    assert menu_items(1) == menu_items(2)


def test_run_length_is_a_round_count():
    for name, cls in W.WORKLOADS.items():
        n = W.run_rounds(cls, 20)
        assert n >= cls.trace_rounds and n == round(20 / cls.round_s), name


def test_tower_menu_never_repeats_f_and_n(tmp_path):
    seen = set()
    for round_ in W.Tower(3, tmp_path).rounds():
        for q in round_:
            key = (q["p"], q["f"].field.k, tuple(c.coords for c in q["f"].coeffs), q["n"])
            assert key not in seen
            seen.add(key)
    rounds = min(len(pool) for pool in W.load_reference()["tower"].values())
    assert len(seen) == rounds * len(W.TOWER_SLOTS)


class Corrupting:
    """A workload whose answers to one query kind are corrupted before the check."""

    def __init__(self, inner, kind, corrupt):
        self.inner, self.kind, self.corrupt = inner, kind, corrupt

    def execute(self, q):
        out = self.inner.execute(q)
        return self.corrupt(out) if q["kind"] == self.kind else out

    def check(self, q, out):
        return self.inner.check(q, out)


def test_corrupted_answers_are_counted_as_failed(tmp_path):
    lift = W.Lift(5, tmp_path)
    rounds = [next(lift.rounds())]
    lat, kinds, failures = run_loop(lift, rounds, 1)
    assert not failures and len(lat) == len(rounds[0])

    def wrong_degree(rep):
        return dict(rep, degree=rep["degree"] + 1)

    lat, kinds, failures = run_loop(Corrupting(lift, "locus", wrong_degree), rounds, 1)
    assert [f["kind"] for f in failures] == ["locus"] * kinds.count("locus")

    def raises(_):
        raise RuntimeError("boom")

    lat, kinds, failures = run_loop(Corrupting(lift, "scaling", raises), rounds, 1)
    assert [f["kind"] for f in failures] == ["scaling"] and "boom" in failures[0]["error"]


def test_checks_reject_wrong_census_and_tower_answers(tmp_path):
    census = W.Census(1, tmp_path)
    q = {"kind": "census", "family": (2, 2, 4)}
    rep = census.execute(q)
    assert census.check(q, rep) is None
    rep.fiber_histogram[1] += 1
    assert census.check(q, rep)

    tower = W.Tower(1, tmp_path)
    q = next(q for q in next(tower.rounds()) if q["kind"] == "root_space" and q["p"] == 7)
    out = tower.execute(q)
    assert tower.check(q, out) is None
    assert tower.check(q, dict(out, k=out["k"] + 1))

    pairs = W.Pairs(W.random.Random(4), W.load_reference()["pairs"])
    pq = pairs.pair((3, 2, 9), True)
    w = census.execute(pq)
    assert census.check(pq, w) is None
    assert census.check(dict(pq, conjugate=False), w)


def test_benchmark_json_names_every_metric():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["per_layer"]] == [m[0] for m in spans.LAYER_METRICS]
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {m[0]: m[1] for m in spans.LAYER_METRICS}
    import run

    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.E2E_UNITS
    assert [w["name"] for w in spec["workloads"]] == run.WORKLOADS


_TRACE_ONE_ROUND = """
import json, sys
import spans, workloads
from worker import run_loop
tracer = spans.Tracer()
spans.install(tracer)
w = workloads.Lift(9, sys.argv[1])
run_loop(w, [next(w.rounds())], 1, tracer)
m = spans.layer_metrics(tracer, {}, {"overhead_ratio": 0, "src_lines": 0})
print(json.dumps({k: v["value"] for k, v in m.items() if v["unit"] == "count"}))
"""


def test_traced_counts_repeat_exactly(tmp_path):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(BENCH.parent / "src"), str(BENCH)]))
    runs = [json.loads(subprocess.run([sys.executable, "-c", _TRACE_ONE_ROUND, str(tmp_path)], env=env,
                                      capture_output=True, text=True, check=True, timeout=120).stdout)
            for _ in range(2)]
    assert runs[0] == runs[1]
    assert runs[0]["gmlift.build_lift.calls"] > 0 and runs[0]["cyclotomic.elem_ops"] > 0
