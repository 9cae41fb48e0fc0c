"""Runs the benchmark as the acceptance rule does and records a trajectory point.

    python3 perfbench/trajectory.py LABEL

From the repo root: for each workload of BENCHMARK.json, ten untraced runs
with seeds 1..10 and one traced run (seed 1), each a fresh
`perfbench/run.py`.  For every end-to-end metric it records the ten values,
their median and their quartile spread (distance between the first and
third quartile as a share of the median, as `statistics.quantiles(values,
n=4)` gives them), plus each run's machine facts and calibration times.
It also applies the rule of `wall_s.tail` to the ops of all ten runs
pooled, which matters where one run holds few ops.  Writes
perfbench/results/LABEL.json and prints one line per metric.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import metrics

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RUNS = 10


def one_run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    stem = f"{workload}-seed{seed}-trace{trace}"
    out = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True,
    )
    result = json.loads(out.stdout.splitlines()[-1])
    detail = json.loads((ROOT / ".perfbench_out" / "runs" / f"{stem}.json").read_text())
    result["machine"] = detail["machine"]
    result["calibration_s"] = detail["calibration_s"]
    result["tail"] = detail.get("tail")
    result["op_walls"] = [o["wall"] for o in detail["ops"]]
    return result


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("label")
    args = ap.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    point = {"label": args.label, "run_seconds": spec["run_seconds"], "workloads": {}}
    for w in (w["name"] for w in spec["workloads"]):
        runs = [one_run(w, seed, spec["run_seconds"], 0) for seed in range(1, RUNS + 1)]
        summary = {}
        for m in spec["end_to_end"]:
            vals = [r["metrics"][m["name"]]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(vals, n=4)
            median = statistics.median(vals)
            summary[m["name"]] = {
                "unit": m["unit"], "median": median, "q1": q1, "q3": q3,
                "spread": (q3 - q1) / median, "bound": m["bound"], "values": vals,
            }
            print(f"{w:13} {m['name']:12} median {median:10.4f} spread {(q3 - q1) / median:.3f}"
                  f" (bound {m['bound']})", flush=True)
        value, pct, n = metrics.tail([x for r in runs for x in r["op_walls"]])
        print(f"{w:13} pooled tail  {value:10.4f} at percentile {pct:.1f} of {n} ops", flush=True)
        traced = one_run(w, 1, spec["run_seconds"], 1)
        point["workloads"][w] = {
            "end_to_end": summary,
            "pooled_tail": {"value": value, "percentile": pct, "n": n},
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "runs": [{k: r[k] for k in ("machine", "calibration_s", "tail", "attempted", "failed")}
                     for r in runs],
            "traced": {"attempted": traced["attempted"], "failed": traced["failed"],
                       "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
                       "machine": traced["machine"]},
        }
    out = BENCH / "results" / f"{args.label}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(point, indent=1) + "\n")


if __name__ == "__main__":
    main()
