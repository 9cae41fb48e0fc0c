"""Spans around h4geom's public builders, and the traced cold op.

The benchmark records spans from its own code, around calls into each
module's public functions; nothing under src/ is changed.  A traced op runs
in a fresh process:

    python3 perfbench/stages.py OP_ID PLAN -- CLI_ARGV...

It imports h4geom, calls the builders the plan names in dependency order
(so each span is that stage's own cold cost), then calls
`h4geom.cli.main(CLI_ARGV)` with `checks.run_check` and the CLI's `dumps`
wrapped in spans.  After the op it measures what one span adds around a
call in this process, the tracer's own cost.  Its last stdout line is a
JSON object with the exit code, the spans, the counts and that span cost;
spans stay in memory until then.
"""

from __future__ import annotations

import json
import sys
import time
from contextlib import contextmanager

# Dependency order.  Each entry is the span name; metric names add "_s".
STAGE_ORDER = (
    "icosian.generate_vertices",
    "icosian.mult_table",
    "polytopes.the_600cell",
    "polytopes.tables",
    "polytopes.cell120",
    "polytopes.rectified",
    "symmetry.generate_group",
    "symmetry.cell_perms",
    "symmetry.ten_perms",
    "embed.certify_e8.m_minus1",
    "embed.certify_e8.m_plus1",
    "embed.golden_basis",
    "embed.lattice_L",
    "embed.decompose_norm4_shell",
    "mod2.f4_geometry",
    "mod2.lines",
    "mod2.planes",
    "mod2.isotropic4",
)

_VERTICES = ("icosian.generate_vertices", "polytopes.the_600cell")
_TABLES = ("icosian.generate_vertices", "icosian.mult_table", "polytopes.the_600cell", "polytopes.tables")
_F4 = (*_VERTICES, "polytopes.tables", "embed.certify_e8.m_minus1", "mod2.f4_geometry", "mod2.lines")

# The stages each kind of op uses, mirroring what the CLI builds for it, so a
# traced op does no work its untraced op would not.
PLANS = {
    "all": STAGE_ORDER,
    "dump:vertices": _VERTICES,
    "dump:labels": _TABLES,
    "dump:array": _TABLES,
    "dump:lines": _F4,
    "dump:planes": (*_F4, "mod2.planes"),
    "dump:lattice": (*_VERTICES, "embed.certify_e8.m_minus1", "embed.golden_basis", "embed.lattice_L"),
}

# The `Cell600` tables that `polytopes.tables` builds for each plan.
TABLES = {
    "all": ("skeleton_counts", "cells24", "partitions", "labels", "hexagons", "decagons"),
    "dump:labels": ("cells24", "labels"),
    "dump:array": ("cells24", "partitions"),
    "dump:lines": ("cells24",),
    "dump:planes": ("cells24",),
}


class Tracer:
    """Spans (id, name, start and end in ns, parent id, op id) kept in memory."""

    def __init__(self, op) -> None:
        self.op = op
        self.spans: list[dict] = []
        self.counts: dict[object, dict[str, int]] = {}
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        rec = {
            "id": len(self.spans),
            "name": name,
            "start": time.perf_counter_ns(),
            "end": None,
            "parent": self._stack[-1] if self._stack else None,
            "op": self.op,
        }
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield
        finally:
            rec["end"] = time.perf_counter_ns()
            self._stack.pop()

    def count(self, name: str, value: int) -> None:
        self.counts.setdefault(self.op, {})[name] = value


def span_cost() -> float:
    """Seconds one span adds around a call: a wrapped no-op call less a
    plain one, the median of five trials of 2,000 calls."""
    reps, trials = 2_000, 5
    probe = Tracer(None)

    def noop():
        return None

    def wrapped():
        with probe.span("probe"):
            return noop()

    costs = []
    for _ in range(trials):
        probe.spans.clear()
        t0 = time.perf_counter_ns()
        for _ in range(reps):
            noop()
        t1 = time.perf_counter_ns()
        for _ in range(reps):
            wrapped()
        t2 = time.perf_counter_ns()
        costs.append(((t2 - t1) - (t1 - t0)) / reps / 1e9)
    return sorted(costs)[trials // 2]


def traced_checks(tracer: Tracer, run_check):
    """`run_check` under a `checks.<group>.<id>` span, counting passes."""
    def traced(check_id: str):
        with tracer.span("checks." + check_id.replace("/", ".")):
            result = run_check(check_id)
        op_counts = tracer.counts.setdefault(tracer.op, {})
        op_counts["checks.passed"] = op_counts.get("checks.passed", 0) + (result.status == "pass")
        return result
    return traced


def build(tracer: Tracer, plan: str) -> None:
    """Call the plan's builders in dependency order, one span each."""
    from h4geom import embed, golden, icosian, mod2, polytopes, symmetry

    def tables():
        c = polytopes.the_600cell()
        for name in TABLES[plan]:
            table = getattr(c, name)
            if callable(table):
                table()

    def group():
        tracer.count("symmetry.order", len(symmetry.generate_group().ops))

    def shell_split():
        # split_vector is wrapped only here, so its spans and count are the
        # shell split's own calls (1,440 vectors x 7 scalings)
        real = golden.ReductionMap.split_vector
        calls = 0

        def split_vector(self, coords):
            nonlocal calls
            calls += 1
            with tracer.span("golden.split_vector"):
                return real(self, coords)

        golden.ReductionMap.split_vector = split_vector
        try:
            classes = embed.decompose_norm4_shell()
        finally:
            golden.ReductionMap.split_vector = real
        tracer.count("golden.split_vector_calls", calls)
        tracer.count("embed.norm4_shell", sum(len(c.vectors) for c in classes))

    def isotropic():
        tracer.count("mod2.isotropic4", len(mod2.f4_geometry().isotropic4))

    builders = {
        "icosian.generate_vertices": icosian.generate_vertices,
        "icosian.mult_table": icosian.mult_table,
        "polytopes.the_600cell": polytopes.the_600cell,
        "polytopes.tables": tables,
        "polytopes.cell120": lambda: polytopes.the_600cell().cell120.labels,
        "polytopes.rectified": lambda: polytopes.the_600cell().rectified,
        "symmetry.generate_group": group,
        "symmetry.cell_perms": lambda: symmetry.generate_group().cell_perms,
        "symmetry.ten_perms": lambda: symmetry.generate_group().ten_perms,
        "embed.certify_e8.m_minus1": lambda: embed.certify_e8(-1),
        "embed.certify_e8.m_plus1": lambda: embed.certify_e8(1),
        "embed.golden_basis": embed.golden_basis,
        "embed.lattice_L": embed.lattice_L,
        "embed.decompose_norm4_shell": shell_split,
        "mod2.f4_geometry": lambda: mod2.f4_geometry().points,
        "mod2.lines": lambda: (mod2.f4_geometry().lines, mod2.f4_geometry().tags),
        "mod2.planes": lambda: mod2.f4_geometry().planes,
        "mod2.isotropic4": isotropic,
    }
    for name in PLANS[plan]:
        with tracer.span(name):
            builders[name]()


def traced_op(op_id: int, plan: str, argv: list[str]) -> dict:
    tracer = Tracer(op_id)
    with tracer.span("op"):
        with tracer.span("import"):
            from h4geom import checks, cli
        build(tracer, plan)
        label = argv[1] if argv[0] == "dump" else "report"

        def dumps(obj):
            with tracer.span(f"serialize.dumps.{label}"):
                text = real_dumps(obj)
            tracer.count(f"serialize.bytes.{label}", len(text.encode()))
            return text

        real_dumps = cli.dumps
        cli.dumps = dumps
        checks.run_check = traced_checks(tracer, checks.run_check)
        with tracer.span("cli.main"):
            rc = cli.main(argv)
    return {"rc": rc, "spans": tracer.spans, "counts": tracer.counts, "span_cost_s": span_cost()}


if __name__ == "__main__":
    op, plan, sep, *cli_argv = sys.argv[1:]
    if sep != "--" or plan not in PLANS:
        sys.exit("usage: stages.py OP_ID PLAN -- CLI_ARGV...")
    result = traced_op(int(op), plan, cli_argv)
    sys.stdout.flush()
    print(json.dumps(result))
    sys.exit(result["rc"])
