"""Pure helpers of the benchmark: order statistics, span self times and the
per-layer aggregation.  Nothing here imports h4geom or starts a process."""

from __future__ import annotations

import statistics
import time


def tail(samples: list[float]) -> tuple[float, float, int]:
    """The highest percentile with at least ten samples beyond it.

    Returns (value, percentile, n).  With sorted samples x[0..n-1] that is
    x[n-11], the 100*(n-10)/n percentile.  Below 21 samples no percentile
    above the median has ten beyond it, so the maximum is reported with
    percentile 100 instead.
    """
    xs = sorted(samples)
    n = len(xs)
    if n < 21:
        return xs[-1], 100.0, n
    return xs[n - 11], 100.0 * (n - 10) / n, n


def calibrate() -> float:
    """Seconds for a fixed pure-Python loop.  A diagnostic of machine speed
    recorded beside each sample; it is never used to normalise a metric."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(300_000):
        acc = (acc + i * i) % 1_000_003
    return time.perf_counter() - t0


def self_times(spans: list[dict]) -> dict[tuple, float]:
    """Self time in seconds of each span, keyed by (op, id).

    A span's self time is its duration minus the part of its interval that
    its child spans cover; overlapping children are counted once.
    """
    children: dict[tuple, list[dict]] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault((s["op"], s["parent"]), []).append(s)
    out = {}
    for s in spans:
        key = (s["op"], s["id"])
        covered = 0
        cur_start = cur_end = None
        for c in sorted(children.get(key, ()), key=lambda c: c["start"]):
            lo, hi = max(c["start"], s["start"]), min(c["end"], s["end"])
            if hi <= lo:
                continue
            if cur_end is None or lo > cur_end:
                if cur_end is not None:
                    covered += cur_end - cur_start
                cur_start, cur_end = lo, hi
            else:
                cur_end = max(cur_end, hi)
        if cur_end is not None:
            covered += cur_end - cur_start
        out[key] = (s["end"] - s["start"] - covered) / 1e9
    return out


def layer_values(
    spans: list[dict], counts: dict[object, dict[str, int]], names: list[str]
) -> dict[str, float]:
    """Per-layer metric values from a traced run.

    A time metric `X_s` is the self time of spans named `X` within one op,
    averaged over the ops that ran `X`: the cost of that stage each time it
    runs.  `checks.round_s` sums the self time of every `checks.<group>.<id>`
    span of an op.  A count is averaged over the ops that reported it.  A
    stage or count that no op of the run reached reads 0.
    `trace_overhead_s` is left to `trace_overhead`.
    """
    st = self_times(spans)
    per_op: dict[str, dict[object, float]] = {}
    for s in spans:
        t = st[(s["op"], s["id"])]
        per_op.setdefault(s["name"], {}).setdefault(s["op"], 0.0)
        per_op[s["name"]][s["op"]] += t
        if s["name"].startswith("checks."):
            per_op.setdefault("checks.round", {}).setdefault(s["op"], 0.0)
            per_op["checks.round"][s["op"]] += t
    per_count: dict[str, list[int]] = {}
    for op_counts in counts.values():
        for k, v in op_counts.items():
            per_count.setdefault(k, []).append(v)
    out = {}
    for name in names:
        if name == "trace_overhead_s":
            continue
        if name.endswith("_s"):
            vals = list(per_op.get(name[:-2], {}).values())
        else:
            vals = per_count.get(name, [])
        out[name] = statistics.fmean(vals) if vals else 0.0
    return out


def trace_overhead(span_costs: list[tuple[int, float]]) -> float:
    """The tracer's own cost per op: the median over traced ops of the op's
    span count times the cost one span adds around a call, measured in that
    op's process.  Reads 0 when no traced op completed."""
    return statistics.median(n * cost for n, cost in span_costs) if span_costs else 0.0
