"""Tests of the benchmark's own logic: the tail-percentile rule, span self
times, the per-layer aggregation and the failure accounting.

Run from the repo root with `PYTHONPATH=src python -m pytest perfbench/tests`.
"""

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import checker  # noqa: E402
import metrics  # noqa: E402
import run  # noqa: E402
import stages  # noqa: E402


def test_tail_is_highest_percentile_with_ten_samples_beyond():
    xs = [float(i) for i in range(100)]
    assert metrics.tail(list(reversed(xs))) == (89.0, 90.0, 100)
    value, pct, n = metrics.tail(xs[:21])
    assert (value, n) == (10.0, 21)
    assert pct == pytest.approx(100 * 11 / 21)
    assert sum(x > value for x in xs[:21]) == 10


def test_tail_falls_back_to_max_below_21_samples():
    assert metrics.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 3)
    assert metrics.tail([float(i) for i in range(20)]) == (19.0, 100.0, 20)
    assert metrics.tail([5.0]) == (5.0, 100.0, 1)


def _span(i, name, start, end, parent=None, op=0):
    return {"id": i, "name": name, "start": start, "end": end, "parent": parent, "op": op}


def test_self_time_subtracts_union_of_children_clipped_to_parent():
    spans = [
        _span(0, "a", 0, 100),
        _span(1, "b", 10, 30, parent=0),
        _span(2, "c", 20, 40, parent=0),  # overlaps b: covered once
        _span(3, "d", 90, 120, parent=0),  # clipped at the parent's end
        _span(4, "e", 12, 18, parent=1),  # grandchild: counts against b only
        _span(0, "a", 0, 50, op=1),  # same id in another op is another span
    ]
    st = metrics.self_times(spans)
    assert st[(0, 0)] == pytest.approx((100 - 30 - 10) / 1e9)
    assert st[(0, 1)] == pytest.approx((20 - 6) / 1e9)
    assert st[(0, 4)] == pytest.approx(6 / 1e9)
    assert st[(1, 0)] == pytest.approx(50 / 1e9)


def test_layer_values_average_over_ops_that_ran_the_stage():
    spans = [
        _span(0, "op", 0, 1000, op=0),
        _span(1, "mod2.lines", 0, 300, parent=0, op=0),
        _span(2, "checks.s7.lines", 300, 400, parent=0, op=0),
        _span(3, "checks.s7.points", 400, 700, parent=0, op=0),
        _span(0, "op", 0, 1000, op=1),
        _span(1, "mod2.lines", 0, 100, parent=0, op=1),
        _span(0, "op", 0, 1000, op=2),
    ]
    counts = {0: {"checks.passed": 2}, 1: {"checks.passed": 4}}
    names = ["mod2.lines_s", "checks.s7.points_s", "checks.round_s", "mod2.planes_s",
             "checks.passed", "mod2.isotropic4", "trace_overhead_s"]
    got = metrics.layer_values(spans, counts, names)
    assert got["mod2.lines_s"] == pytest.approx(200 / 1e9)
    assert got["checks.s7.points_s"] == pytest.approx(300 / 1e9)
    assert got["checks.round_s"] == pytest.approx(400 / 1e9)
    assert got["mod2.planes_s"] == 0.0
    assert got["checks.passed"] == 3
    assert got["mod2.isotropic4"] == 0.0
    assert "trace_overhead_s" not in got


def test_trace_overhead_is_median_of_spans_times_span_cost():
    assert metrics.trace_overhead([(100, 2e-6), (10, 1e-6), (1000, 1e-6)]) == pytest.approx(2e-4)
    assert metrics.trace_overhead([]) == 0.0


def test_span_cost_is_positive_and_small():
    assert 0 < stages.span_cost() < 1e-3


def test_every_per_layer_metric_has_a_source():
    from h4geom.checks import CHECK_ORDER

    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    objects = [*run.DUMP_OBJECTS, "report"]
    timed = {
        *stages.STAGE_ORDER,
        *(("checks." + c.replace("/", ".")) for c in CHECK_ORDER),
        *(f"serialize.dumps.{o}" for o in objects),
        "golden.split_vector", "checks.round", "cli.main", "trace_overhead",
    }
    counted = {
        "symmetry.order", "embed.norm4_shell", "golden.split_vector_calls", "mod2.isotropic4",
        "checks.passed", *(f"serialize.bytes.{o}" for o in objects),
    }
    names = {m["name"] for m in spec["per_layer"]}
    assert {n[:-2] for n in names if n.endswith("_s")} == timed
    assert {n for n in names if not n.endswith("_s")} == counted


@pytest.fixture(scope="module")
def fact1_report(tmp_path_factory):
    from h4geom.cli import main

    path = tmp_path_factory.mktemp("report") / "r.json"
    assert main(["verify", "--only", "facts/fact1", "--report", str(path)]) == 0
    return path.read_text()


def test_checker_accepts_entry_whose_timing_alone_differs(fact1_report):
    digests = checker.load_digests()
    entry = json.loads(fact1_report)[0]
    assert checker.entry_problems(entry, digests) == []
    entry["elapsed_ms"] += 1000
    assert checker.entry_problems(entry, digests) == []


def test_checker_rejects_corrupted_entries(fact1_report):
    digests = checker.load_digests()
    entry = json.loads(fact1_report)[0]
    wrong_value = dict(entry, observed=dict(entry["observed"], edges=719))
    assert checker.entry_problems(wrong_value, digests)
    failed = dict(entry, status="fail")
    assert checker.entry_problems(failed, digests)


def test_checker_rejects_corrupted_reports(fact1_report):
    digests = checker.load_digests()
    assert checker.report_problems("[{", digests)
    # a valid one-check report is not the frozen report of all 26 checks
    assert checker.report_problems(fact1_report, digests) == [
        "report differs from its frozen digest"
    ]
    assert '"elapsed_ms"' not in checker.strip_timings(fact1_report)


def test_checker_rejects_corrupted_dump(tmp_path):
    from h4geom.cli import main

    path = tmp_path / "vertices.json"
    assert main(["dump", "vertices", "--out", str(path)]) == 0
    data = path.read_bytes()
    digests = checker.load_digests()
    assert checker.dump_problems("vertices", data, digests) == []
    assert checker.dump_problems("vertices", data.replace(b"120", b"121", 1), digests)
    assert checker.dump_problems("vertices", data + b"\n", digests)


def test_failed_ops_are_counted_against_attempted(tmp_path, monkeypatch):
    """One dump-all round whose labels output reaches the checker corrupted:
    exactly that op of the round fails."""
    real_round_ops = run.round_ops

    def corrupted_labels(*args):
        return [
            (plan, argv, path, (lambda data, c=check: c(data + b" ")) if plan == "dump:labels" else check)
            for plan, argv, path, check in real_round_ops(*args)
        ]

    monkeypatch.setattr(run, "round_ops", corrupted_labels)
    monkeypatch.setattr(run, "OUT", tmp_path)
    monkeypatch.setattr(run, "SETUP_SAMPLES", 1)
    result = run.run("dump-all", seed=3, seconds=0.0, trace=False)
    assert result["attempted"] == 6
    assert result["failed"] == 1
    assert result["problems"] == ["dump labels: bytes differ from the frozen digest"]
