"""End-to-end latency summaries."""

from __future__ import annotations

import statistics

TAIL_BEYOND = 10


def tail(latencies):
    """(value, percentile) at the highest percentile with at least ten samples beyond it.

    Sorted ascending, the sample at index n - 11 has exactly ten samples above
    it and sits at percentile 100 * (n - 10) / n.  With ten samples or fewer no
    percentile qualifies; the minimum is returned at percentile 0.
    """
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[0], 0.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def summarize(latencies_s, failed):
    """End-to-end figures of one run from its per-query latencies in seconds."""
    value, pct = tail(latencies_s)
    return {
        "queries_per_s": len(latencies_s) / sum(latencies_s),
        "query_p50_ms": statistics.median(latencies_s) * 1e3,
        "query_tail_ms": value * 1e3,
        "tail_percentile": pct,
        "samples": len(latencies_s),
        "failed_ratio": failed / len(latencies_s),
    }
