"""Batch verification front-end.

`h4geom verify [--only GLOB] [--report PATH]` runs checks and
writes a JSON report; exit code 0 iff every selected check passed, 1 on any
failure, 2 on usage or I/O errors.  `h4geom dump OBJECT [--out PATH]` emits
canonical JSON for the main constructed objects.

Each command imports the modules it uses when it runs, so a cold `dump`
loads neither the checks nor the constructions it does not print.
"""

from __future__ import annotations

import argparse
import json
import sys

from .serialize import dumps, jsonable

def _why_failed(result) -> list[str]:
    """The error text of a check that raised, or each top-level field whose
    expected and observed values differ."""
    expected, observed = jsonable(result.expected), jsonable(result.observed)
    if isinstance(observed, dict) and list(observed) == ["error"]:
        return [f"error: {observed['error']}"]
    if not (isinstance(expected, dict) and isinstance(observed, dict)):
        expected, observed = {"value": expected}, {"value": observed}
    missing = object()
    lines = []
    for key in sorted(expected.keys() | observed.keys()):
        pair = (expected.get(key, missing), observed.get(key, missing))
        if pair[0] != pair[1]:
            e, o = ("(missing)" if v is missing else json.dumps(v, sort_keys=True) for v in pair)
            lines.append(f"{key}: expected {e}, observed {o}")
    return lines


def cmd_verify(args) -> int:
    from fnmatch import fnmatch

    from . import checks

    selected = [cid for cid in checks.CHECK_ORDER if fnmatch(cid, args.only)]
    if not selected:
        print(f"error: no checks match {args.only!r}", file=sys.stderr)
        return 2
    results = [checks.run_check(cid) for cid in selected]
    results.sort(key=lambda r: r.check_id)
    report = [
        {
            "check": r.check_id,
            "status": r.status,
            "provenance": r.provenance,
            "expected": r.expected,
            "observed": r.observed,
            "elapsed_ms": r.elapsed_ms,
        }
        for r in results
    ]
    text = dumps(report)
    if args.report:
        try:
            with open(args.report, "w") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"error: cannot write report: {exc}", file=sys.stderr)
            return 2
    for r in results:
        print(f"{r.status.upper():4}  {r.check_id}  ({r.elapsed_ms} ms)")
    failed = [r for r in results if r.status != "pass"]
    if failed:
        for r in failed:
            for line in _why_failed(r):
                print(f"{r.check_id}: {line}", file=sys.stderr)
        print(f"{len(failed)} of {len(results)} checks failed", file=sys.stderr)
        return 1
    print(f"all {len(results)} checks passed")
    return 0


def _dump_vertices():
    from .polytopes import the_600cell

    cell = the_600cell()
    return {
        "count": cell.n,
        "coordinates_are_golden_pairs": True,
        "vertices": [list(zip(f[::2], f[1::2])) for f in cell.vertices],
    }


def _dump_labels():
    from .polytopes import duad_str, label_str, the_600cell

    cell = the_600cell()
    return {
        "cells": {
            duad_str(cell.duad_of_cell[k]): sorted(cell.cells24[k]) for k in range(25)
        },
        "pairs": [
            {
                "pair": pid,
                "vertices": list(cell.pairs[pid]),
                "label": label_str(cell.labels[pid]),
            }
            for pid in range(60)
        ],
    }


def _dump_array():
    from .polytopes import duad_str, the_600cell

    cell = the_600cell()
    return {
        "rows": [
            [duad_str(cell.duad_of_cell[cell.array[i][j]]) for j in range(5)]
            for i in range(5)
        ],
        "partitions": [sorted(p) for p in cell.partitions],
    }


def _dump_lines():
    from . import mod2

    geo = mod2.f4_geometry()
    out = [
        {
            "points": sorted(line),
            "type": info.type,
            "vertex_pairs": info.vertex_pairs,
            "cells": info.cells,
        }
        for line, info in geo.line_info.items()
    ]
    return {"count": len(out), "lines": out}


def _dump_planes():
    from . import mod2

    geo = mod2.f4_geometry()
    value_names = {0: "0", 1: "1", 2: "w", 3: "w+1"}
    points = []
    planes = []
    for k, plane in enumerate(geo.planes):
        kind, ref = geo.tags[k]
        points.append(
            {
                "point": k,
                "tag": [kind, ref],
                "q_omega_values": sorted(
                    value_names[geo.q_omega(x)] for x in geo.points[k]
                ),
            }
        )
        planes.append({"point": k, "tag": [kind, ref], "points": sorted(plane)})
    return {"count": len(planes), "points": points, "planes": planes}


def _dump_lattice():
    from . import embed

    e8 = embed.certify_e8(-1)
    lat = embed.lattice_L()
    return {
        "e8": {
            "basis": [list(b) for b in e8.basis],
            "gram": [list(r) for r in e8.gram],
            "determinant": e8.det,
            "shells": {str(norm): size for norm, size in e8.shell_sizes.items()},
        },
        "reduced_m0": {
            "basis": [[x // 2 if x % 2 == 0 else f"{x}/2" for x in b] for b in lat.basis],
            "gram": [list(r) for r in lat.gram],
            "determinant": lat.det,
            "census": {str(k): v for k, v in sorted(lat.census.items())},
        },
    }


_DUMPERS = {
    "vertices": _dump_vertices,
    "labels": _dump_labels,
    "array": _dump_array,
    "lines": _dump_lines,
    "planes": _dump_planes,
    "lattice": _dump_lattice,
}
DUMP_OBJECTS = tuple(_DUMPERS)


def cmd_dump(args) -> int:
    if args.object not in _DUMPERS:
        print(
            f"error: unknown object {args.object!r}; choose from {', '.join(DUMP_OBJECTS)}",
            file=sys.stderr,
        )
        return 2
    text = dumps(_DUMPERS[args.object]())
    if args.out:
        try:
            with open(args.out, "w") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"error: cannot write output: {exc}", file=sys.stderr)
            return 2
    else:
        sys.stdout.write(text)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="h4geom",
        description="exact verification of 600-cell, E8 and F4 geometry",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    pv = sub.add_parser("verify", help="run verification checks")
    pv.add_argument("--only", default="*", help="glob over check ids (default: all)")
    pv.add_argument("--report", default=None, help="write JSON report to this path")
    pv.set_defaults(func=cmd_verify)
    pd = sub.add_parser("dump", help="dump a constructed object as canonical JSON")
    pd.add_argument("object", help=f"one of: {', '.join(DUMP_OBJECTS)}")
    pd.add_argument("--out", default=None, help="output path (default: stdout)")
    pd.set_defaults(func=cmd_dump)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code else 0
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
