"""One ``oneshot`` query: a fresh interpreter running ``wildram.cli.main(argv)``.

Usage:  python3 cli_child.py REPORT -- ARGV...

REPORT is ``-`` for an untraced query.  Otherwise the child installs the same
wrappers as the library workloads and writes its spans, counters, import time
and ``main`` time to REPORT as JSON.  The CLI's own stdout and exit code pass
through unchanged.
"""

import json
import sys
from time import perf_counter_ns


def main():
    report, argv = sys.argv[1], sys.argv[3:]
    t0 = perf_counter_ns()
    from wildram import cli

    import_ns = perf_counter_ns() - t0
    if report == "-":
        return cli.main(argv)
    t1 = perf_counter_ns()
    import spans

    tracer = spans.Tracer()
    tracer.spans.append(("cli.import", t0, t0 + import_ns, -1, -1))
    spans.install(tracer)
    bench_ns = perf_counter_ns() - t1
    tracer.on = True
    sid = tracer.open("cli.main")
    try:
        code = cli.main(argv)
    finally:
        tracer.close(sid)
        tracer.on = False
    _, start, end, _, _ = tracer.spans[sid]
    sys.stdout.flush()
    data = tracer.report()
    data.update(import_ns=import_ns, main_ns=end - start, bench_ns=bench_ns)
    with open(report, "w", encoding="utf-8") as fh:
        json.dump(data, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
