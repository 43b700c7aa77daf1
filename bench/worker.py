"""One workload process: set up, run the closed loop, check every answer.

Usage:  python3 worker.py WORKLOAD SEED SECONDS MODE

MODE is one of
  setup  generate the first round, print READY and stop (a set-up sample);
  run    print READY, then run the workload's run_rounds(SECONDS) rounds
         (fewer only on a machine or commit so slow that CAP * SECONDS of
         query time pass first);
  fixed  run the workload's fixed trace-length prefix of rounds, untraced;
  trace  the same prefix with spans and counters installed.
A run does a fixed number of rounds, not as many as fit in SECONDS: the query
mix is then the same on a slow or a fast machine and for a slow or a fast
program, so a speed change cannot change which queries are measured.
The last stdout line is a JSON result.  ``run.py`` starts this script with
the benchmark's environment (no WILDRAM_BUDGET, one BLAS/OpenMP thread).
"""

from __future__ import annotations

import json
import os
import resource
import shutil
import sys
import time
from pathlib import Path

import spans

START = time.monotonic()
DEADLINE_S = 150  # leaves the runner room to report inside the 180 s limit
CAP = 1.75  # a run also ends after the round that takes its query time past CAP * SECONDS


def run_loop(workload, rounds, n_rounds, tracer=None, cap_s=None):
    """Run ``n_rounds`` whole rounds, or fewer once ``cap_s`` of query time has passed.

    Returns per-query latencies (s), query kinds and failures.
    """
    latencies, kinds, failures = [], [], []
    done = 0
    timed = 0.0
    for queries in rounds:
        for q in queries:
            qid = len(latencies)
            if tracer is not None:
                tracer.qid, tracer.on = qid, True
                sid = tracer.open("bench.query")
            t0 = time.perf_counter()
            try:
                out, err = workload.execute(q), None
            except Exception as exc:  # a query that raises is a failed query
                out, err = None, f"{type(exc).__name__}: {exc}"
            t1 = time.perf_counter()
            if tracer is not None:
                tracer.close(sid)
                tracer.on = False
                if isinstance(out, dict) and "trace" in out:
                    tracer.merge(out.pop("trace"), sid)
            latencies.append(t1 - t0)
            kinds.append(q["kind"])
            timed += t1 - t0
            if err is None:
                try:
                    err = workload.check(q, out)
                except Exception as exc:  # an answer the check cannot read is wrong
                    err = f"check raised {type(exc).__name__}: {exc}"
            if err:
                failures.append({"query": qid, "kind": q["kind"], "error": err})
            if time.monotonic() - START > DEADLINE_S:
                return latencies, kinds, failures
        done += 1
        if done >= n_rounds or (cap_s is not None and timed >= cap_s):
            break
    return latencies, kinds, failures


def main():
    name, seed, seconds, mode = sys.argv[1], int(sys.argv[2]), float(sys.argv[3]), sys.argv[4]
    root = Path(__file__).resolve().parent.parent
    tmp = root / ".bench_tmp" / f"{name}-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    try:
        import numpy

        import workloads

        workload = workloads.WORKLOADS[name](seed, tmp)
        rounds = workload.rounds()
        first = next(rounds)
        print("READY", flush=True)
        if mode == "setup":
            return 0

        def all_rounds():
            yield first
            yield from rounds

        tracer = None
        if mode == "trace":
            tracer = spans.Tracer()
            spans.install(tracer)
            workload.tracer = tracer
        if mode == "run":
            n_rounds, cap_s = workloads.run_rounds(workload, seconds), CAP * seconds
        else:
            n_rounds, cap_s = workload.trace_rounds, None
        latencies, kinds, failures = run_loop(workload, all_rounds(), n_rounds, tracer, cap_s)
        who = resource.RUSAGE_CHILDREN if name == "oneshot" else resource.RUSAGE_SELF
        result = {
            "latencies": latencies,
            "kinds": kinds,
            "failures": failures,
            "peak_rss_mib": resource.getrusage(who).ru_maxrss / 1024,
            "numpy": numpy.__version__,
        }
        if tracer is not None:
            cli = getattr(workload, "cli", {})
            result["layer"] = spans.layer_metrics(tracer, cli, {"overhead_ratio": 0.0, "src_lines": 0})
            result["modules"] = spans.module_shares(tracer.spans)
            out_dir = root / ".bench_out"
            out_dir.mkdir(exist_ok=True)
            path = out_dir / f"spans-{name}-seed{seed}.csv"
            spans.write_spans(tracer.spans, path)
            result["spans_file"] = str(path.relative_to(root))
            result["span_count"] = len(tracer.spans)
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
