"""Benchmark of h4geom, a batch program: what a user pays for a cold run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is run from `src/` as
it stands.  Both workloads are closed loops with one client and at most one
h4geom process at a time:

  verify-all  one op = a fresh `h4geom verify --report PATH` (26 checks)
  dump-all    one op = a fresh `h4geom dump OBJECT --out PATH`; a round is
              the six objects in seeded order

The verify argv is fixed, so the seed has no effect on verify-all.  Rounds
run until the next one would end past S seconds from the start (at least
one).  Every output is checked against digests.json; an op fails on a
non-zero exit, a check that does not pass, a report or dump that differs
from its frozen digest, or an exception.

With --trace 0 the last stdout line holds the end-to-end metrics, with
--trace 1 the per-layer metrics of BENCHMARK.json.  Every op of a traced
run runs through stages.py.  Each run
writes its samples and machine facts under .perfbench_out/runs/ and, when
traced, its spans with self times under .perfbench_out/spans/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checker
import metrics

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".perfbench_out"
WORKLOADS = ("verify-all", "dump-all")
DUMP_OBJECTS = ("vertices", "labels", "array", "lines", "planes", "lattice")
# Import-time samples per run: one before each round, the rest after the
# last, so that set-up is sampled across the run rather than in one burst.
SETUP_SAMPLES = 9


def child_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(ROOT / "src"))


def spawn(cmd: list[str], stem: Path) -> dict:
    """Run one process to completion; its own wall, CPU and peak RSS."""
    t0 = time.perf_counter()
    with open(f"{stem}.out", "wb") as out, open(f"{stem}.err", "wb") as err:
        p = subprocess.Popen(cmd, stdout=out, stderr=err, env=child_env(), cwd=ROOT)
        try:
            _, status, ru = os.wait4(p.pid, 0)
        except BaseException:
            p.kill()
            p.wait()
            raise
    p.returncode = os.waitstatus_to_exitcode(status)
    return {
        "rc": p.returncode,
        "wall": time.perf_counter() - t0,
        "cpu": ru.ru_utime + ru.ru_stime,
        "rss_kb": ru.ru_maxrss,
    }


def import_seconds() -> float:
    """Spawn until `import h4geom.cli` returns in the child."""
    code = "import sys, h4geom.cli; sys.stdout.write('.'); sys.stdout.flush()"
    t0 = time.perf_counter()
    with subprocess.Popen([sys.executable, "-c", code], stdout=subprocess.PIPE,
                          env=child_env(), cwd=ROOT) as p:
        mark = p.stdout.read(1)
        elapsed = time.perf_counter() - t0
        p.stdout.read()
    if p.returncode != 0 or mark != b".":
        raise RuntimeError(f"import h4geom.cli failed with exit code {p.returncode}")
    return elapsed


def round_ops(workload: str, rng: random.Random, tmp: Path, digests: dict) -> list[tuple]:
    """The ops of one round: (stage plan, CLI argv, output path, checker)."""
    if workload == "dump-all":
        objs = list(DUMP_OBJECTS)
        rng.shuffle(objs)
        return [
            (f"dump:{o}", ["dump", o, "--out", str(tmp / f"{o}.json")], tmp / f"{o}.json",
             lambda data, o=o: checker.dump_problems(o, data, digests))
            for o in objs
        ]
    path = tmp / "report.json"
    return [("all", ["verify", "--report", str(path)], path,
             lambda data: checker.report_problems(data.decode(), digests))]


def run_op(op_id: int, plan: str, argv: list[str], path: Path, check, traced: bool,
           tmp: Path) -> dict:
    path.unlink(missing_ok=True)
    cmd = ([sys.executable, str(BENCH / "stages.py"), str(op_id), plan, "--", *argv]
           if traced else [sys.executable, "-m", "h4geom.cli", *argv])
    stem = tmp / "op"
    sample = spawn(cmd, stem)
    what = " ".join(argv[:2])
    problems = [f"{what}: exit code {sample['rc']}"] if sample["rc"] else []
    try:
        problems += check(path.read_bytes())
    except OSError as exc:
        problems.append(f"{what}: no output: {exc}")
    if traced and sample["rc"] == 0:
        sample["trace"] = json.loads(Path(f"{stem}.out").read_text().splitlines()[-1])
    sample["problems"] = problems
    sample["plan"] = plan
    return sample


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    rng = random.Random(seed)
    tmp = OUT / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    digests = checker.load_digests()
    setup, calibration, ops = [], [], []
    # Warm-up, untimed: the first start in a fresh checkout compiles every
    # module to bytecode and reads the sources from disk.
    import_seconds()
    start = time.perf_counter()
    while True:
        if not trace:
            setup.append(import_seconds())
        calibration.append(metrics.calibrate())
        ops += [run_op(len(ops) + k, *op, trace, tmp)
                for k, op in enumerate(round_ops(workload, rng, tmp, digests))]
        elapsed = time.perf_counter() - start
        if elapsed * (1 + 1 / len(calibration)) > seconds:
            break
    if not trace:
        setup += [import_seconds() for _ in range(SETUP_SAMPLES - len(setup))]
    traces = [o["trace"] for o in ops if "trace" in o]
    return {
        "setup": setup,
        "calibration_s": calibration,
        "ops": [{"plan": o["plan"], "wall": o["wall"], "cpu": o["cpu"]} for o in ops],
        "peak_rss_kb": max(o["rss_kb"] for o in ops),
        "attempted": len(ops),
        "failed": sum(1 for o in ops if o["problems"]),
        "problems": [p for o in ops for p in o["problems"]],
        "spans": [s for t in traces for s in t["spans"]],
        "counts": {op: c for t in traces for op, c in t["counts"].items()},
        "span_costs": [(len(t["spans"]), t["span_cost_s"]) for t in traces],
    }


def end_to_end(result: dict) -> dict:
    value, pct, n = metrics.tail([o["wall"] for o in result["ops"]])
    result["tail"] = {"percentile": pct, "n": n}
    return {
        "wall_s": statistics.fmean(o["wall"] for o in result["ops"]),
        "wall_s.tail": value,
        "cpu_s": statistics.fmean(o["cpu"] for o in result["ops"]),
        "peak_rss_mb": result["peak_rss_kb"] / 1024,
        "setup_s": statistics.median(result["setup"]),
    }


def per_layer(result: dict, names: list[str]) -> dict:
    values = metrics.layer_values(result["spans"], result["counts"], names)
    values["trace_overhead_s"] = metrics.trace_overhead(result["span_costs"])
    return values


def write_records(args, result: dict) -> Path:
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if result["spans"]:
        st = metrics.self_times(result["spans"])
        for s in result["spans"]:
            s["self_s"] = st[(s["op"], s["id"])]
        spans_dir = OUT / "spans"
        spans_dir.mkdir(parents=True, exist_ok=True)
        (spans_dir / f"{stem}.json").write_text(json.dumps(result["spans"]))
    runs_dir = OUT / "runs"
    runs_dir.mkdir(parents=True, exist_ok=True)
    path = runs_dir / f"{stem}.json"
    record = {k: v for k, v in result.items() if k != "spans"}
    record["problems"] = result["problems"][:50]
    path.write_text(json.dumps(record, indent=1))
    return path


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "h4geom" / "cli.py").is_file():
        print(f"error: no h4geom sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed = spec["per_layer"] if args.trace else spec["end_to_end"]

    machine = {"nproc": os.cpu_count(), "python": platform.python_version(),
               "loadavg_before": os.getloadavg()}
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    machine["loadavg_after"] = os.getloadavg()
    result["machine"] = machine
    result["seed_used"] = args.workload == "dump-all"
    values = per_layer(result, [m["name"] for m in listed]) if args.trace else end_to_end(result)
    record = write_records(args, result)
    print(f"{args.workload}: {result['attempted']} ops, {result['failed']} failed; details in "
          f"{record.relative_to(ROOT)}", file=sys.stderr)
    for p in result["problems"][:10]:
        print(f"  problem: {p}", file=sys.stderr)
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
