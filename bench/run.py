"""The wildram benchmark: one command, four closed-loop query workloads.

    python3 bench/run.py --workload {census,tower,lift,oneshot,all} --seed N --seconds S --trace {0,1}

Run from the root of a checkout; the library is imported from ``src/``.

--trace 0 measures the end-to-end metrics with tracing off: set-up time (the
median of several fresh set-ups), queries per second over a fixed number of
whole rounds that take about S seconds of query time, median and tail
latency, peak resident memory and the failed-query ratio.  --trace 1 runs
the workload's fixed prefix of rounds twice, untraced and traced, and
reports the per-layer metrics and the tracing overhead; its counts repeat
exactly for a given seed.

Every answer is checked.  The last stdout line is a JSON object with keys
correct, attempted, failed and metrics; the exit code is 0 only when every
query passed its check.  Results, metadata and spans go to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from metrics import summarize

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ["census", "tower", "lift", "oneshot"]
SETUP_SAMPLES = 7
WORKER_TIMEOUT_S = 170
THREAD_VARS = ["OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"]

E2E_UNITS = {"setup_s": "s", "queries_per_s": "1/s", "query_p50_ms": "ms",
             "query_tail_ms": "ms", "peak_rss_mib": "MiB"}


class BenchError(Exception):
    pass


def child_env():
    env = {k: v for k, v in os.environ.items() if k != "WILDRAM_BUDGET"}
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(BENCH)])
    env["PYTHONHASHSEED"] = "0"
    return env


def start_worker(workload, seed, seconds, mode):
    """Start a worker and wait for its READY line; return (process, set-up seconds)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(BENCH / "worker.py"), workload, str(seed), str(seconds), mode],
        stdout=subprocess.PIPE, text=True, env=child_env(), cwd=ROOT)
    line = proc.stdout.readline()
    ready = time.perf_counter() - t0
    if line.strip() != "READY":
        proc.kill()
        proc.wait()
        raise BenchError(f"{workload} worker failed during set-up")
    return proc, ready


def finish_worker(proc, result=True):
    """Wait for a worker; return its JSON result line when ``result``."""
    try:
        out, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError("worker timed out")
    lines = out.strip().splitlines()
    if proc.returncode != 0 or (result and not lines):
        raise BenchError(f"worker exited with code {proc.returncode}")
    return json.loads(lines[-1]) if result else None


def src_lines():
    return sum(1 for path in sorted((ROOT / "src" / "wildram").rglob("*.py"))
               for line in path.read_text(encoding="utf-8").splitlines() if line.strip())


def commit():
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"


def measure(workload, seed, seconds):
    setups = []
    for _ in range(SETUP_SAMPLES - 1):
        proc, ready = start_worker(workload, seed, seconds, "setup")
        finish_worker(proc, result=False)
        setups.append(ready)
    proc, ready = start_worker(workload, seed, seconds, "run")
    setups.append(ready)
    res = finish_worker(proc)
    s = summarize(res["latencies"], len(res["failures"]))
    metrics = {
        "setup_s": statistics.median(setups),
        "queries_per_s": s["queries_per_s"],
        "query_p50_ms": s["query_p50_ms"],
        "query_tail_ms": s["query_tail_ms"],
        "peak_rss_mib": res["peak_rss_mib"],
    }
    lines = [f"  {name:<15} {metrics[name]:>12.4f} {E2E_UNITS[name]}" for name in E2E_UNITS]
    lines[0] += f"   (median of {len(setups)} set-ups)"
    lines[3] += f"   (p{s['tail_percentile']:.1f} of {s['samples']} queries)"
    lines.append(f"  {'failed_ratio':<15} {s['failed_ratio']:>12.4f} 1   "
                 f"({len(res['failures'])} of {s['samples']})")
    meta = {"samples": s["samples"], "tail_percentile": s["tail_percentile"], "numpy": res["numpy"],
            "setup_samples_s": setups}
    return metrics, res, lines, meta


def trace(workload, seed):
    base_proc, _ = start_worker(workload, seed, 0, "fixed")
    base = finish_worker(base_proc)
    traced_proc, _ = start_worker(workload, seed, 0, "trace")
    res = finish_worker(traced_proc)
    qps = summarize(res["latencies"], len(res["failures"]))["queries_per_s"]
    base_qps = summarize(base["latencies"], len(base["failures"]))["queries_per_s"]
    metrics = res["layer"]
    metrics["trace.overhead_ratio"]["value"] = qps / base_qps
    metrics["src.lines"]["value"] = src_lines()
    res["failures"] = base["failures"] + res["failures"]
    res["latencies"] = base["latencies"] + res["latencies"]
    res["kinds"] = base["kinds"] + res["kinds"]
    lines = [f"  traced {len(res['latencies']) // 2} queries; overhead ratio {qps / base_qps:.3f} "
             f"(traced {qps:.3f} / untraced {base_qps:.3f} queries/s); {res['span_count']} spans in "
             f"{res['spans_file']}",
             "  self-time share by module: " + ", ".join(f"{m} {v:.1%}" for m, v in res["modules"].items())]
    meta = {"samples": len(base["latencies"]), "numpy": res["numpy"], "modules": res["modules"],
            "spans_file": res["spans_file"]}
    return metrics, res, lines, meta


def run_one(workload, seed, seconds, traced):
    if traced:
        values, res, lines, meta = trace(workload, seed)
    else:
        raw, res, lines, meta = measure(workload, seed, seconds)
        values = {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in raw.items()}
    meta.update(workload=workload, seed=seed, seconds=seconds, trace=int(traced), commit=commit(),
                python=platform.python_version(), nproc=os.cpu_count(), src_lines=src_lines())
    print(f"workload {workload}  seed {seed}  trace {int(traced)}  commit {meta['commit'][:12]}  "
          f"python {meta['python']}  numpy {meta['numpy']}  nproc {meta['nproc']}  "
          f"src.lines {meta['src_lines']}")
    for line in lines:
        print(line)
    for f in res["failures"][:20]:
        print(f"  FAILED query {f['query']} ({f['kind']}): {f['error']}")
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    by_kind = {}
    for kind, lat in zip(res["kinds"], res["latencies"]):
        by_kind.setdefault(kind, []).append(lat * 1e3)
    meta["query_ms_by_kind"] = {k: {"count": len(v), "median": statistics.median(v), "max": max(v)}
                                for k, v in sorted(by_kind.items())}
    record = {"meta": meta, "metrics": values, "failures": res["failures"]}
    (out_dir / f"result-{workload}-seed{seed}-trace{int(traced)}.json").write_text(json.dumps(record, indent=1))
    attempted = len(res["latencies"])
    return {"correct": not res["failures"], "attempted": attempted, "failed": len(res["failures"]),
            "metrics": values}


def main(argv=None):
    ap = argparse.ArgumentParser(description="wildram benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "wildram" / "__init__.py").is_file():
        sys.stderr.write(f"error: no wildram sources under {ROOT / 'src'}\n")
        return 2
    names = WORKLOADS if args.workload == "all" else [args.workload]
    results = {}
    try:
        for name in names:
            results[name] = run_one(name, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    finally:
        try:
            (ROOT / ".bench_tmp").rmdir()  # workers remove their own directories
        except OSError:
            pass
    if len(names) == 1:
        result = results[names[0]]
    else:
        result = {"correct": all(r["correct"] for r in results.values()),
                  "attempted": sum(r["attempted"] for r in results.values()),
                  "failed": sum(r["failed"] for r in results.values()),
                  "metrics": {f"{n}.{k}": v for n, r in results.items() for k, v in r["metrics"].items()}}
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
