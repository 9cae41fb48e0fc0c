import ast
import importlib.util
import json
import os
import subprocess
import sys
import threading

from pathlib import Path

import pytest

import h4geom
from h4geom import checks, embed, golden, icosian, mod2, symmetry
from h4geom.cli import _DUMPERS, main
from h4geom.serialize import dumps, jsonable
from h4geom.icosian import ICOSIAN_ONE
from fractions import Fraction

from golden_oracle import GoldenInt


def test_jsonable_encodings():
    """A golden scalar is an (a, b) tuple and prints as [a, b]; the oracle's
    GoldenInt class is not a form `jsonable` knows."""
    assert jsonable((3, -2)) == [3, -2]
    with pytest.raises(TypeError, match="cannot serialize GoldenInt"):
        jsonable(GoldenInt(3, -2))
    assert jsonable({2: {1, 3}}) == {"2": [1, 3]}
    with pytest.raises(TypeError, match="cannot serialize Fraction"):
        jsonable(Fraction(1, 2))


def test_frozen_records_refuse_assignment(cell, gb, shell_classes, geo, lat_l):
    records = {
        "Elimination": golden.eliminate([[2, 1], [1, 1]]),
        "GoldenBasis": gb,
        "ShellClass": shell_classes[0],
        "PhiMap": geo.phi,
        "PrimeArray": cell.prime_array(2),
        "ReducedLattice": lat_l,
        "CheckResult": checks.run_check("facts/fact1"),
    }
    for name, record in records.items():
        assert type(record).__name__ == name
        field = record._fields[0]
        with pytest.raises(AttributeError):
            setattr(record, field, None)
        with pytest.raises(AttributeError):
            record.extra = None
        assert record._replace(**{field: None}) != record


def test_verify_single_check(capsys, tmp_path):
    report = tmp_path / "r.json"
    rc = main(["verify", "--only", "facts/fact1", "--report", str(report)])
    assert rc == 0
    data = json.loads(report.read_text())
    assert len(data) == 1
    assert data[0]["check"] == "facts/fact1"
    assert data[0]["status"] == "pass"
    assert data[0]["provenance"] == "paper"


def test_verify_facts_glob_selects_ten(tmp_path):
    selected = [cid for cid in checks.CHECK_ORDER if cid.startswith("facts/")]
    assert len(selected) == 10
    report = tmp_path / "r.json"
    rc = main(["verify", "--only", "facts/fact[12]*", "--report", str(report)])
    assert rc == 0
    data = json.loads(report.read_text())
    assert {d["check"] for d in data} == {"facts/fact1", "facts/fact2", "facts/fact10"}


def test_verify_unknown_selector_is_usage_error(capsys):
    assert main(["verify", "--only", "nonexistent"]) == 2


def test_dump_unknown_object_is_usage_error():
    assert main(["dump", "wat"]) == 2


def test_failed_check_gives_exit_1_and_writes_report(tmp_path, monkeypatch):
    bad = dict(checks.CHECKS)
    _, fn = bad["facts/fact1"]
    bad["facts/fact1"] = ({"vertices": 121}, fn)
    monkeypatch.setattr(checks, "CHECKS", bad)
    report = tmp_path / "r.json"
    rc = main(["verify", "--only", "facts/fact1", "--report", str(report)])
    assert rc == 1
    data = json.loads(report.read_text())
    assert data[0]["status"] == "fail"


def test_failed_check_names_the_differing_fields_on_stderr(tmp_path, monkeypatch, capsys):
    def boom():
        raise KeyError("missing table")

    bad = dict(checks.CHECKS)
    expected, fn = bad["facts/fact1"]
    bad["facts/fact1"] = ({**expected, "vertices": 121, "faces": 3}, fn)
    expected, _ = bad["facts/fact2"]
    bad["facts/fact2"] = (expected, boom)
    monkeypatch.setattr(checks, "CHECKS", bad)
    report = tmp_path / "r.json"
    assert main(["verify", "--only", "facts/fact[12]", "--report", str(report)]) == 1
    assert capsys.readouterr().err.splitlines() == [
        "facts/fact1: faces: expected 3, observed (missing)",
        "facts/fact1: vertices: expected 121, observed 120",
        "facts/fact2: error: KeyError: 'missing table'",
        "2 of 2 checks failed",
    ]
    assert [d["status"] for d in json.loads(report.read_text())] == ["fail", "fail"]


def test_dump_outputs_are_deterministic(tmp_path):
    for obj in ("vertices", "labels", "array"):
        a = dumps(_DUMPERS[obj]())
        b = dumps(_DUMPERS[obj]())
        assert a == b


def test_dump_matches_fresh_process(tmp_path):
    """Cross-process determinism: a fresh interpreter produces identical bytes."""
    inproc = dumps(_DUMPERS["array"]())
    out = subprocess.run(
        [sys.executable, "-m", "h4geom.cli", "dump", "array"],
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout == inproc


def test_dump_labels_contains_unit_label():
    data = json.loads(dumps(_DUMPERS["labels"]()))
    labels = {entry["label"] for entry in data["pairs"]}
    assert "(16)(27)(38)(49)(5X)" in labels
    assert len(data["pairs"]) == 60


def test_dump_lines_has_357_typed_entries():
    data = json.loads(dumps(_DUMPERS["lines"]()))
    assert data["count"] == 357
    types = {}
    for entry in data["lines"]:
        types[entry["type"]] = types.get(entry["type"], 0) + 1
    assert types == {"partition": 10, "pentagon": 72, "cell16": 75, "triangle": 200}
    points = [entry["points"] for entry in data["lines"]]
    assert all(a < b for a, b in zip(points, points[1:]))
    assert points == [sorted(line) for line in mod2.f4_geometry().lines]


def test_verify_report_matches_fresh_process(tmp_path):
    """Cross-process determinism of the report, timings aside."""
    inproc, fresh = tmp_path / "a.json", tmp_path / "f.json"
    assert main(["verify", "--only", "facts/fact[157]", "--report", str(inproc)]) == 0
    subprocess.run(
        [sys.executable, "-m", "h4geom.cli", "verify", "--only", "facts/fact[157]",
         "--report", str(fresh)],
        capture_output=True,
        check=True,
    )
    a = json.loads(inproc.read_text())
    b = json.loads(fresh.read_text())
    assert len(a) == 3
    for entry in a + b:
        entry.pop("elapsed_ms")
    assert a == b


def test_raising_check_is_a_failure_and_the_run_goes_on(tmp_path, monkeypatch):
    def boom():
        raise KeyError("missing table")

    bad = dict(checks.CHECKS)
    expected, _ = bad["s4/pentagons"]
    bad["s4/pentagons"] = (expected, boom)
    monkeypatch.setattr(checks, "CHECKS", bad)
    report = tmp_path / "r.json"
    assert main(["verify", "--only", "s4/*", "--report", str(report)]) == 1
    data = json.loads(report.read_text())
    assert len(data) == 4
    assert sum(d["status"] == "pass" for d in data) == 3
    failed = next(d for d in data if d["status"] == "fail")
    assert failed["check"] == "s4/pentagons"
    assert failed["observed"] == {"error": "KeyError: 'missing table'"}


def test_unencodable_observed_value_is_a_failure_and_the_report_is_written(tmp_path, monkeypatch):
    """A check whose value `jsonable` refuses fails with the encoder's error,
    in this process (facts/fact1) and in the forked worker (s7/phi)."""
    bad = dict(checks.CHECKS)
    for cid in ("facts/fact1", "s7/phi"):
        bad[cid] = (bad[cid][0], lambda: {"vertices": Fraction(1, 2)})
    monkeypatch.setattr(checks, "CHECKS", bad)
    report = tmp_path / "r.json"
    for only in ("facts/fact1", "*"):
        assert main(["verify", "--only", only, "--report", str(report)]) == 1
        data = {d["check"]: d for d in json.loads(report.read_text())}
        failed = {cid for cid, d in data.items() if d["status"] == "fail"}
        assert failed == {"facts/fact1", "s7/phi"} & data.keys(), only
        for cid in failed:
            assert data[cid]["observed"] == {"error": "TypeError: cannot serialize Fraction"}


def _count_forks(monkeypatch):
    forks = []
    real = os.fork

    def fork():
        forks.append(os.getpid())
        return real()

    monkeypatch.setattr(os, "fork", fork)
    return forks


def test_forked_verify_matches_serial_run_check_on_every_check(tmp_path, monkeypatch):
    """One fork per verify; each check runs once, the worker half in one
    other process; and the report equals `run_check` on all 26 ids in turn,
    entry by entry, timings aside."""
    serial = {
        r.check_id: jsonable({"status": r.status, "provenance": r.provenance,
                              "expected": r.expected, "observed": r.observed})
        for r in map(checks.run_check, checks.CHECK_ORDER)
    }
    log = tmp_path / "ran.log"
    logged = dict(checks.CHECKS)
    for cid, (expected, fn) in checks.CHECKS.items():
        def run(cid=cid, fn=fn):
            with open(log, "a") as fh:  # one O_APPEND write per line, from either process
                fh.write(f"{os.getpid()} {cid}\n")
            return fn()
        logged[cid] = (expected, run)
    monkeypatch.setattr(checks, "CHECKS", logged)
    forks = _count_forks(monkeypatch)
    report = tmp_path / "r.json"
    assert main(["verify", "--report", str(report)]) == 0
    assert forks == [os.getpid()]
    ran = [line.split() for line in log.read_text().splitlines()]
    assert sorted(cid for _, cid in ran) == sorted(checks.CHECK_ORDER)
    ran = {cid: pid for pid, cid in ran}
    worker = {cid for cid, pid in ran.items() if pid != str(os.getpid())}
    assert worker == set(checks.IN_WORKER)
    assert len({ran[cid] for cid in worker}) == 1
    entries = json.loads(report.read_text())
    assert [e["check"] for e in entries] == sorted(serial)
    for e in entries:
        assert isinstance(e.pop("elapsed_ms"), int)
        assert {k: v for k, v in e.items() if k != "check"} == serial[e["check"]], e["check"]


def test_verify_stays_serial_within_one_half_or_beside_a_thread(monkeypatch):
    forks = _count_forks(monkeypatch)
    for ids in (checks.BEFORE_FORK, checks.CHECK_ORDER[2:14], checks.IN_WORKER):
        assert [r.check_id for r in checks.run_checks(ids)] == ids
    done = threading.Event()
    thread = threading.Thread(target=done.wait)
    thread.start()
    try:
        results = checks.run_checks(checks.CHECK_ORDER)
    finally:
        done.set()
        thread.join(timeout=10)
    assert not thread.is_alive()
    assert forks == []
    assert [r.check_id for r in results] == checks.CHECK_ORDER
    assert {r.status for r in results} == {"pass"}


def test_a_worker_that_dies_fails_its_checks_and_leaves_no_child(tmp_path, monkeypatch, capsys):
    """A worker check that ends the worker by `os._exit(3)`: every worker
    check fails with that status, this process's checks still pass, the
    report is written, the exit code is 1 and the worker is reaped."""
    me = os.getpid()

    def die():
        if os.getpid() == me:
            raise RuntimeError("s5/spaces ran in this process, not in a worker")
        os._exit(3)

    bad = dict(checks.CHECKS)
    bad["s5/spaces"] = (bad["s5/spaces"][0], die)
    monkeypatch.setattr(checks, "CHECKS", bad)
    report = tmp_path / "r.json"
    assert main(["verify", "--report", str(report)]) == 1
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    data = {d["check"]: d for d in json.loads(report.read_text())}
    assert len(data) == 26
    for cid, d in data.items():
        if cid in checks.IN_WORKER:
            assert (d["status"], d["observed"]) == ("fail", {"error": "worker exited with status 3"})
        else:
            assert d["status"] == "pass", cid
    err = capsys.readouterr().err.splitlines()
    assert err[-1] == f"{len(checks.IN_WORKER)} of 26 checks failed"


def test_builder_error_in_warm_up_is_reported_by_its_checks(tmp_path, monkeypatch):
    def boom():
        raise RuntimeError("lattice build failed")

    monkeypatch.setattr(embed, "lattice_L", boom)
    report = tmp_path / "r.json"
    assert main(["verify", "--only", "s6/example[12]", "--report", str(report)]) == 1
    data = {d["check"]: d for d in json.loads(report.read_text())}
    assert data["s6/example1"]["status"] == "pass"
    assert data["s6/example2"]["observed"] == {"error": "RuntimeError: lattice build failed"}


def test_example2_reports_its_stored_certificates(monkeypatch, lat_l):
    assert checks.run_check("s6/example2").status == "pass"
    for field in ("rootless", "dual_basis_identity"):
        corrupted = lat_l._replace(**{field: False})
        monkeypatch.setattr(embed, "lattice_L", lambda: corrupted)
        result = checks.run_check("s6/example2")
        assert result.status == "fail"
        assert result.observed[field] is False


def test_example3_fails_on_a_corrupted_shell_image(monkeypatch, e8):
    """The shell split's map for phi**1 is swapped for a non-isometric one."""
    real_init = golden.ReductionMap.__init__

    def corrupted_init(self, m, k=0):
        real_init(self, m, k)
        if self.k == 1:
            p, q, r, s = self.block
            object.__setattr__(self, "block", (p + r, q + s, r, s))

    monkeypatch.setattr(golden.ReductionMap, "__init__", corrupted_init)
    embed.decompose_norm4_shell.cache_clear()
    try:
        result = checks.run_check("s6/example3")
    finally:
        embed.decompose_norm4_shell.cache_clear()
    assert result.status == "fail"
    assert result.observed == {"error": "ValueError: shell class sizes [120, 120, 600, 720]"}


def test_example3_reports_the_gram_certificate(monkeypatch, shell_classes):
    corrupted = tuple(c._replace(isometric=c.phi_power != 0) for c in shell_classes)
    monkeypatch.setattr(embed, "decompose_norm4_shell", lambda: corrupted)
    result = checks.run_check("s6/example3")
    assert result.status == "fail"
    assert result.observed["spectra_match"] is False


def test_report_is_the_same_under_python_O(tmp_path):
    """Certificates are observed values or raise, so stripping asserts
    changes no entry of the whole 26-check report."""
    inproc, optimized = tmp_path / "a.json", tmp_path / "o.json"
    assert main(["verify", "--report", str(inproc)]) == 0
    subprocess.run(
        [sys.executable, "-O", "-m", "h4geom.cli", "verify", "--report", str(optimized)],
        capture_output=True,
        check=True,
    )
    a = json.loads(inproc.read_text())
    b = json.loads(optimized.read_text())
    assert len(a) == len(checks.CHECK_ORDER) == 26
    for entry in a + b:
        entry.pop("elapsed_ms")
    assert a == b


def test_fact2_fails_when_a_16cell_is_not_in_exactly_one_24cell(monkeypatch, cell):
    """A 16-cell moved out of its 24-cell, or copied into a second one."""
    assert checks.run_check("facts/fact2").status == "pass"
    small = cell.cells16[0]
    k = next(i for i, big in enumerate(cell.cells24) if big.issuperset(small))
    outsider = next(p for p in range(60) if p not in cell.cells24[k])
    in_none = list(cell.cells24)
    in_none[k] = in_none[k] - {small[0]} | {outsider}
    in_two = list(cell.cells24)
    in_two[(k + 1) % 25] = in_two[(k + 1) % 25] | frozenset(small)
    for cells24 in (in_none, in_two):
        monkeypatch.setattr(cell, "cells24", tuple(cells24))
        result = checks.run_check("facts/fact2")
        assert result.status == "fail"
        assert result.observed["each_16cell_in_one_24cell"] is False


def test_fact5_fails_when_two_24cells_do_not_meet_in_a_hexagon(monkeypatch, cell):
    """A 24-cell with one pair swapped for an outsider meets some other
    24-cell in 2 or 4 pairs; or two pairs of one meet are made orthogonal."""
    assert checks.run_check("facts/fact5").status == "pass"
    swapped = list(cell.cells24)
    outsider = next(p for p in range(60) if p not in swapped[0])
    swapped[0] = swapped[0] - {min(swapped[0])} | {outsider}
    p, q, _ = sorted(next(s & t for s in cell.cells24 for t in cell.cells24 if len(s & t) == 3))
    classes = [list(row) for row in cell.pair_class]
    classes[p][q] = classes[q][p] = "0"
    for name, value in (("cells24", tuple(swapped)), ("pair_class", tuple(map(tuple, classes)))):
        with monkeypatch.context() as patch:
            patch.setattr(cell, name, value)
            result = checks.run_check("facts/fact5")
        assert result.status == "fail", name
        assert result.observed["nondisjoint_intersections_are_hexagons"] is False, name


def test_points_counts_the_totally_isotropic_points(monkeypatch, geo):
    """A class of a cell point made non-isotropic leaves 24 points whose
    three classes all have Q = 0; a vertex point made totally isotropic
    gives 26."""
    assert checks.run_check("s7/points").status == "pass"
    cell_point = next(p for p, t in zip(geo.points, geo.tags) if t[0] == "cell")
    vertex_point = next(p for p, t in zip(geo.points, geo.tags) if t[0] == "vertex")
    for changed, count in (({min(cell_point): 1}, 24), (dict.fromkeys(vertex_point, 0), 26)):
        q = list(geo.q)
        for x, value in changed.items():
            q[x] = value
        with monkeypatch.context() as patch:
            patch.setattr(geo, "q", tuple(q))
            result = checks.run_check("s7/points")
        assert result.status == "fail"
        assert result.observed["remaining_75_isotropic_in_25_2spaces"] == count


def _run_on_a_corrupted_group(monkeypatch, check_id, corrupt):
    """check_id through `run_check` on a group built afresh, certified and then
    passed to corrupt; the cached group is cleared before and after."""
    real_init = symmetry.SymmetryGroup.__init__

    def corrupted_init(self, cell):
        real_init(self, cell)
        corrupt(self)

    monkeypatch.setattr(symmetry.SymmetryGroup, "__init__", corrupted_init)
    symmetry.generate_group.cache_clear()
    try:
        return checks.run_check(check_id)
    finally:
        symmetry.generate_group.cache_clear()


def test_commuting_fails_on_a_generator_that_swaps_two_vertices(monkeypatch):
    """A generator with two of its vertex images swapped is no isometry, and
    `action_mod2` cannot map every root by one integer matrix."""
    assert checks.run_check("s7/commuting").status == "pass"

    def corrupt(group):
        g, *rest = group.generators
        perm = list(g.perm)
        perm[0], perm[1] = perm[1], perm[0]
        group.generators = (symmetry.SymOp(tuple(perm), g.parity), *rest)

    result = _run_on_a_corrupted_group(monkeypatch, "s7/commuting", corrupt)
    assert result.status == "fail"
    assert result.observed["error"].startswith("ValueError: induced matrix does not map root")


def test_fact4_fails_on_a_vertex_stabilizer_missing_one_element(monkeypatch):
    assert checks.run_check("facts/fact4").status == "pass"

    def corrupt(group):
        whole = group.stabilizer_of_vertex
        group.stabilizer_of_vertex = lambda i: whole(i)[1:]

    result = _run_on_a_corrupted_group(monkeypatch, "facts/fact4", corrupt)
    assert result.status == "fail"
    assert result.observed["vertex_stabilizer"] == 119


def _fields_that_differ(result):
    """The fields of a failed check whose observed value differs from the expected one."""
    assert result.status == "fail"
    return {f for f, value in result.expected.items() if jsonable(result.observed.get(f)) != jsonable(value)}


def test_fact6_fails_on_a_corrupted_row_image_or_kernel(monkeypatch):
    """A reflection (element 1) sending the five rows to the rows, or a
    kernel on the partitions cut to one element."""
    assert checks.run_check("facts/fact6").status == "pass"

    def rows_fixed_by_a_reflection(group):
        images = list(group.row_images)
        images[1] = 0b11111
        group.row_images = tuple(images)

    def one_element_kernel(group):
        group.ten_kernel = group.ten_kernel[:1]

    for corrupt, fields in (
        (rows_fixed_by_a_reflection, {"rotations_preserve_pentads_odd_swap"}),
        (one_element_kernel, {"kernel_size", "kernel_is_plus_minus_identity", "image_order"}),
    ):
        with monkeypatch.context() as patch:
            result = _run_on_a_corrupted_group(patch, "facts/fact6", corrupt)
        assert _fields_that_differ(result) == fields, corrupt.__name__


def test_fact7_fails_on_an_odd_or_a_repeated_label(monkeypatch, cell):
    """Pair 1's label with the partners of its first two duads exchanged (an
    odd permutation, sharing three duads with another label), or the unit's
    pair given pair 1's label."""
    assert checks.run_check("facts/fact7").status == "pass"
    unit = cell.pair_of[cell.index[ICOSIAN_ONE]]
    (a, b), (c, d), *rest = cell.labels[1]
    odd, repeated = list(cell.labels), list(cell.labels)
    odd[1] = tuple(sorted([(a, d), (c, b), *rest]))
    repeated[unit] = cell.labels[1]
    for labels, fields in (
        (odd, {"all_even_permutations", "no_two_labels_share_three_duads"}),
        (repeated, {"unit_label", "distinct_labels", "no_two_labels_share_three_duads"}),
    ):
        with monkeypatch.context() as patch:
            patch.setattr(cell, "labels", tuple(labels))
            result = checks.run_check("facts/fact7")
        assert _fields_that_differ(result) == fields


def test_fact8_fails_on_a_cayley_table_with_two_entries_swapped(monkeypatch):
    """Two entries of row 1 swapped: each row still holds every icosian, but
    two columns do not."""
    assert checks.run_check("facts/fact8").status == "pass"
    table = [list(row) for row in checks.mult_table()]
    table[1][0], table[1][1] = table[1][1], table[1][0]
    monkeypatch.setattr(checks, "mult_table", lambda: tuple(map(tuple, table)))
    assert _fields_that_differ(checks.run_check("facts/fact8")) == {"cayley_table_is_latin_square"}


def test_array_p2_fails_on_a_moved_vertex_or_a_misplaced_entry(monkeypatch, cell):
    """Entry (0, 0) of the p = 2 array trading a vertex with entry (0, 1), so
    neither is a 24-cell; or entries (0, 0) and (1, 1) exchanged, so rows 0
    and 1 each hold two 24-cells that meet."""
    assert checks.run_check("s4/array-p2").status == "pass"
    p2 = cell.prime_array(2)
    moved = [list(row) for row in p2.entries]
    u, v = min(moved[0][0]), min(moved[0][1])
    moved[0][0], moved[0][1] = moved[0][0] - {u} | {v}, moved[0][1] - {v} | {u}
    exchanged = [list(row) for row in p2.entries]
    exchanged[0][0], exchanged[1][1] = exchanged[1][1], exchanged[0][0]
    for entries, fields in (
        (moved, {"entries_are_the_25_24cells"}),
        (exchanged, {"rows_are_partitions"}),
    ):
        with monkeypatch.context() as patch:
            patch.setattr(type(cell), "prime_array", lambda self, p, e=entries: p2._replace(entries=e))
            result = checks.run_check("s4/array-p2")
        assert _fields_that_differ(result) == fields


_HEXAGON_ENTRIES = {"array_10x10_entries_are_orthogonal_hexagon_pairs", "array_covers_all_100_pairs"}
_DECAGON_ENTRIES = {"array_6x6_entries_are_orthogonal_decagon_pairs", "orthogonal_pairs"}


@pytest.mark.parametrize(
    "check_id, family, count, fields",
    [
        ("s4/hexagons", "hexagon_list", "hexagons", _HEXAGON_ENTRIES),
        ("s4/decagons", "decagons", "decagons", _DECAGON_ENTRIES),
    ],
)
def test_planar_shape_checks_fail_on_a_swapped_or_dropped_shape(
    monkeypatch, cell, check_id, family, count, fields
):
    """The cached cell's first hexagon (or decagon) swapped out for a copy of
    the second leaves prime-array entries holding one shape or three;
    dropping it also moves the count.  The check runs first, so every table
    built from the family is cached before the family is patched."""
    assert checks.run_check(check_id).status == "pass"
    shapes = getattr(cell, family)
    for patched, moved in (((shapes[1], *shapes[1:]), fields), (shapes[1:], fields | {count})):
        with monkeypatch.context() as patch:
            patch.setattr(cell, family, patched)
            result = checks.run_check(check_id)
        assert _fields_that_differ(result) == moved, len(patched)


def _run_on_a_fresh_geometry(monkeypatch, check_id, corrupt):
    """check_id through `run_check` on an F4 geometry built afresh, past the
    cache, and passed to corrupt.  The cache is left alone: clearing it would
    part the session's `geo` fixture from what the checks read."""
    fresh = mod2.f4_geometry.__wrapped__()
    corrupt(fresh)
    monkeypatch.setattr(mod2, "f4_geometry", lambda: fresh)
    return checks.run_check(check_id)


def test_fact10_fails_on_a_vertex_point_retagged_as_a_cell_point(monkeypatch):
    assert checks.run_check("facts/fact10").status == "pass"

    def retag(geo):
        tags = list(geo.tags)
        k = next(k for k, (kind, _) in enumerate(tags) if kind == "vertex")
        tags[k] = ("cell", tags[k][1])
        geo.tags = tuple(tags)

    result = _run_on_a_fresh_geometry(monkeypatch, "facts/fact10", retag)
    assert _fields_that_differ(result) == {"vertex_points", "cell_points"}
    assert result.observed == {"points": 85, "vertex_points": 59, "cell_points": 26}


def test_pentads_fail_when_the_second_row_repeats_the_first(monkeypatch):
    """Two equal rows are not disjoint, so the completions raise and every
    field moves."""
    assert checks.run_check("s5/pentads").status == "pass"

    def repeat_row(geo):
        rows = geo.pentad_rows
        geo.pentad_rows = (rows[0], rows[0], *rows[2:])

    result = _run_on_a_fresh_geometry(monkeypatch, "s5/pentads", repeat_row)
    assert _fields_that_differ(result) == set(result.expected)
    assert result.observed == {"error": "ValueError: pentad completions need two disjoint spaces"}


def test_pentads_fail_when_a_common_space_is_missing(monkeypatch, geo):
    """The first 4-space disjoint from rows 0 and 1 that is not a pentad row
    dropped from the 270: the completions' maximal cliques lose it, so one
    star shrinks to 6 spaces and the duad graph breaks, and one 135-class is
    short of a space; nothing raises."""
    assert checks.run_check("s5/pentads").status == "pass"
    rows = set(geo.pentad_rows)
    missing = next(
        s for s in geo.isotropic4
        if s not in rows and not s & (geo.pentad_rows[0] | geo.pentad_rows[1])
    )

    def drop_space(fresh):
        fresh.isotropic4 = tuple(s for s in fresh.isotropic4 if s != missing)

    result = _run_on_a_fresh_geometry(monkeypatch, "s5/pentads", drop_space)
    assert _fields_that_differ(result) == {
        "common_disjoint",
        "completion_sizes",
        "duad_graph_on_8_letters",
        "two_135_classes_by_intersection_parity",
    }
    observed = result.observed
    assert (observed["common_disjoint"], observed["completion_sizes"]) == (27, [5, 8, 9])
    assert observed["duad_graph_on_8_letters"] is False
    assert observed["two_135_classes_by_intersection_parity"] is False


def test_labels120_reports_its_stored_parity(monkeypatch, cell):
    assert checks.run_check("s2/labels120").status == "pass"
    monkeypatch.setattr(cell.cell120, "labels_odd_permutations", False)
    result = checks.run_check("s2/labels120")
    assert result.status == "fail"
    assert result.observed["labels_odd_permutations"] is False


def test_phi_reports_its_stored_certificates(monkeypatch, geo):
    assert checks.run_check("s7/phi").status == "pass"
    phi = geo.phi
    for field, reported in (
        ("squares_to_phi_plus_one", "phi_squared_is_phi_plus_one"),
        ("cube_is_identity", "phibar_cubed_is_identity"),
    ):
        monkeypatch.setattr(geo, "phi", phi._replace(**{field: False}))
        result = checks.run_check("s7/phi")
        assert result.status == "fail"
        assert result.observed[reported] is False


_CORRUPT_PHI1_SHELL_MAP = """
import json
from h4geom import checks, golden

real_init = golden.ReductionMap.__init__


def corrupted_init(self, m, k=0):
    real_init(self, m, k)
    if self.k == 1:
        p, q, r, s = self.block
        object.__setattr__(self, "block", (p + r, q + s, r, s))


golden.ReductionMap.__init__ = corrupted_init
result = checks.run_check("s6/example3")
print(json.dumps([result.status, result.observed]))
"""


def test_example3_names_the_cause_of_a_corrupted_shell_image_under_python_O():
    """The shell split's partition checks raise, so -O cannot strip them."""
    out = subprocess.run(
        [sys.executable, "-O", "-c", _CORRUPT_PHI1_SHELL_MAP],
        capture_output=True,
        text=True,
        check=True,
    )
    status, observed = json.loads(out.stdout.splitlines()[-1])
    assert status == "fail"
    assert observed == {"error": "ValueError: shell class sizes [120, 120, 600, 720]"}


_DOUBLE_THE_600CELL = """
import json
from types import SimpleNamespace
from h4geom import checks, embed
from h4geom.icosian import scaled

doubled = tuple(scaled((2, 0), v) for v in embed.the_600cell().vertices)
embed.the_600cell = lambda: SimpleNamespace(vertices=doubled)
result = checks.run_check("s6/example2")
print(json.dumps([result.status, result.observed]))
"""


def test_example2_unit_field_is_enforced_by_golden_basis_under_python_O():
    """`golden_gram_det_is_unit` can only read True: with every vertex
    doubled the search still finds (0, 1, 2, 6), but the Gram matrix is 4
    times the true one, its regular representation has determinant
    N(4**4) = 4**8 = 65536, and `golden_basis` raises, so -O cannot strip it.
    The run is a fresh process, whose `golden_basis` and `lattice_L` caches
    start empty and end with it."""
    out = subprocess.run(
        [sys.executable, "-O", "-c", _DOUBLE_THE_600CELL],
        capture_output=True,
        text=True,
        check=True,
    )
    status, observed = json.loads(out.stdout.splitlines()[-1])
    assert status == "fail"
    assert observed == {"error": "ValueError: the golden Gram determinant has norm 65536, not +-1: not a unit"}


_CORRUPT_PHI_IMAGE_OF_ONE_ROOT = """
import json
from h4geom import checks, embed

e8 = embed.certify_e8(-1)
basis = set(e8.basis)
i = next(k for k, u in enumerate(e8.h_img) if u not in basis)
images = list(e8.phi_img)
images[i] = tuple(-x for x in images[i])  # still a lattice vector, and the same class mod 2
e8.phi_img = tuple(images)
result = checks.run_check("s7/phi")
print(json.dumps([i, result.status, result.observed]))
"""


def test_s7_phi_names_a_corrupted_phi_image_under_python_O():
    """The phi matrix is read off the basis roots; its check on the other
    roots raises, so -O cannot strip it."""
    out = subprocess.run(
        [sys.executable, "-O", "-c", _CORRUPT_PHI_IMAGE_OF_ONE_ROOT],
        capture_output=True,
        text=True,
        check=True,
    )
    i, status, observed = json.loads(out.stdout.splitlines()[-1])
    assert status == "fail"
    assert observed == {"error": f"ValueError: phi matrix does not map root {i} to its image"}


_DROP_ONE_NORM4_VECTOR = """
import json, sys
from h4geom import embed
from h4geom.cli import main

real_shape_shell = embed.shape_shell


def shape_shell(code, norm):
    listed = real_shape_shell(code, norm)
    if norm == 4:
        next(listed)
    return listed


embed.shape_shell = shape_shell
codes = [main(["verify", "--only", only, "--report", path])
         for only, path in zip(("facts/fact9", "s6/*"), sys.argv[1:])]
print(json.dumps(codes))
"""


def test_e8_shell_count_is_checked_under_python_O(tmp_path):
    """A norm-4 vector missing from the shape listing fails every check that
    builds E8, with the cause, even though -O strips asserts."""
    fact9, s6 = tmp_path / "fact9.json", tmp_path / "s6.json"
    out = subprocess.run(
        [sys.executable, "-O", "-c", _DROP_ONE_NORM4_VECTOR, str(fact9), str(s6)],
        capture_output=True,
        text=True,
        check=True,
    )
    assert json.loads(out.stdout.splitlines()[-1]) == [1, 1]
    report = json.loads(fact9.read_text()) + json.loads(s6.read_text())
    status = {d["check"]: (d["status"], d["observed"]) for d in report}
    error = {"error": "ValueError: E8 shell sizes 240, 2159 are not 240, 2160"}
    assert status == {
        "facts/fact9": ("fail", error),
        "s6/example1": ("fail", error),
        "s6/example2": ("pass", status["s6/example2"][1]),  # lattice_L has no norm-4 shell to lose
        "s6/example3": ("fail", error),
    }


_PICK_AN_INDEX_2_SUBLATTICE = """
import json, sys
from h4geom import embed
from h4geom.cli import main

# eight independent vertices whose images span a sublattice of index 2
embed.root_pick = lambda cell: (0, 34, 33, 41, 42, 38, 37, 40)
codes = [main(["verify", "--only", only, "--report", path])
         for only, path in zip(("facts/fact9", "s6/example1"), sys.argv[1:])]
print(json.dumps(codes))
"""


def test_root_pick_spanning_a_sublattice_fails_under_python_O(tmp_path):
    """A pick of independent vertices that spans a proper sublattice fails
    both E8 certificates by the basis Gram determinant, which -O keeps."""
    fact9, s6 = tmp_path / "fact9.json", tmp_path / "s6.json"
    out = subprocess.run(
        [sys.executable, "-O", "-c", _PICK_AN_INDEX_2_SUBLATTICE, str(fact9), str(s6)],
        capture_output=True,
        text=True,
        check=True,
    )
    assert json.loads(out.stdout.splitlines()[-1]) == [1, 1]
    report = json.loads(fact9.read_text()) + json.loads(s6.read_text())
    error = {"error": "ValueError: basis Gram determinant 4 != 1"}
    assert {d["check"]: (d["status"], d["observed"]) for d in report} == {
        "facts/fact9": ("fail", error),
        "s6/example1": ("fail", error),
    }


_SWAP_TWO_PLANES = """
import json
from h4geom import checks, mod2

geo = mod2.f4_geometry()
planes = list(geo.planes)
planes[0], planes[1] = planes[1], planes[0]
geo.planes = tuple(planes)
result = checks.run_check("s7/planes")
print(json.dumps([result.status, result.observed]))
"""


def test_s7_planes_fails_on_swapped_planes_under_python_O():
    """Each plane is compared with its incidence oracle by a check that
    raises, so -O cannot strip it."""
    out = subprocess.run(
        [sys.executable, "-O", "-c", _SWAP_TWO_PLANES],
        capture_output=True,
        text=True,
        check=True,
    )
    status, observed = json.loads(out.stdout.splitlines()[-1])
    assert status == "fail"
    assert observed["error"].startswith("ValueError: plane 0 ")


_DROP_ONE_EVEN_PERMUTATION = """
import json, sys
from h4geom import icosian
from h4geom.cli import main

icosian._EVEN_PERMS4 = icosian._EVEN_PERMS4[1:]
print(json.dumps(main(["verify", "--only", "facts/fact1", "--report", sys.argv[1]])))
"""


def test_vertex_count_is_checked_under_python_O(tmp_path):
    """Eleven even permutations give 112 vertices; the count raises, so -O
    cannot strip it, and facts/fact1 reports the cause."""
    report = tmp_path / "fact1.json"
    out = subprocess.run(
        [sys.executable, "-O", "-c", _DROP_ONE_EVEN_PERMUTATION, str(report)],
        capture_output=True,
        text=True,
        check=True,
    )
    assert json.loads(out.stdout.splitlines()[-1]) == 1
    (entry,) = json.loads(report.read_text())
    assert (entry["check"], entry["status"]) == ("facts/fact1", "fail")
    assert entry["observed"] == {"error": "ValueError: 112 vertices, not 120"}


def test_every_export_resolves_to_its_modules_attribute():
    """Each name of `h4geom.__all__` read through the lazy `_EXPORTS` map is
    the attribute of the module the map names."""
    import h4geom

    assert set(h4geom.__all__) == {*h4geom._EXPORTS, "__version__"}
    for name, module in h4geom._EXPORTS.items():
        assert getattr(h4geom, name) is getattr(importlib.import_module(f"h4geom.{module}"), name), name


def test_check_order_lists_every_check_once():
    assert len(checks.CHECK_ORDER) == len(set(checks.CHECK_ORDER)) == 26
    assert set(checks.CHECK_ORDER) == set(checks.CHECKS)


_DROP_ONE_EDGE = """
import json, sys
from h4geom import polytopes
from h4geom.cli import main

cell = polytopes.the_600cell()
adj = list(cell.adj)
j = (adj[0] & -adj[0]).bit_length() - 1  # the least neighbour of vertex 0
adj[0] ^= 1 << j
adj[j] ^= 1
cell.adj = tuple(adj)
print(json.dumps(main(["verify", "--only", "facts/fact1", "--report", sys.argv[1]])))
"""


def test_tetrahedral_cell_count_is_checked_under_python_O(tmp_path):
    """One edge dropped from the adjacency table loses the five cells on it;
    the cell count raises, so -O cannot strip it, and facts/fact1 reports
    the cause."""
    report = tmp_path / "fact1.json"
    out = subprocess.run(
        [sys.executable, "-O", "-c", _DROP_ONE_EDGE, str(report)],
        capture_output=True,
        text=True,
        check=True,
    )
    assert json.loads(out.stdout.splitlines()[-1]) == 1
    (entry,) = json.loads(report.read_text())
    assert (entry["check"], entry["status"]) == ("facts/fact1", "fail")
    assert entry["observed"] == {"error": "ValueError: 595 tetrahedral cells, not 600"}


_NO_GENERATING_PAIR = """
import json
from h4geom import icosian

icosian.GENERATORS = ((0, 0, 2, 0, 0, 0, 0, 0), (0, 0, 0, 0, 2, 0, 0, 0))  # i and j
from h4geom import checks

result = checks.run_check("facts/fact3")
print(json.dumps([result.status, result.observed]))
"""


def test_group_without_a_generating_pair_names_the_cause_under_python_O():
    """i and j generate only the quaternion group of order 8, so the Cayley
    table that the group is read off raises, and -O cannot strip it."""
    out = subprocess.run(
        [sys.executable, "-O", "-c", _NO_GENERATING_PAIR],
        capture_output=True,
        text=True,
        check=True,
    )
    status, observed = json.loads(out.stdout.splitlines()[-1])
    assert status == "fail"
    assert observed == {"error": "ValueError: the generators reach 8 of 120 rows"}


def test_traced_verify_counts_each_shell_split_call(tmp_path):
    """The benchmark's traced op wraps `golden.ReductionMap.split_vector` by
    name; the shell split calls it 2,221 times: one probe per source and
    scaling (3 x 7), the 2,160 images of the five sources whose probe hits,
    and 8 per class in the Gram identity (5 x 8).  A rename would read 0
    here, not show as failed traced ops.  It
    also counts `len(generate_group().ops)` as `symmetry.order`, which must
    stay the group's 14,400 elements."""
    repo = Path(__file__).resolve().parents[1]
    report = tmp_path / "r.json"
    out = subprocess.run(
        [sys.executable, "perfbench/stages.py", "0", "all", "--", "verify", "--report", str(report)],
        cwd=repo,
        env=dict(os.environ, PYTHONPATH=str(repo / "src")),
        capture_output=True,
        text=True,
    )
    assert out.returncode == 0, out.stderr
    counts = json.loads(out.stdout.splitlines()[-1])["counts"]["0"]
    assert counts["golden.split_vector_calls"] == 2221
    assert counts["symmetry.order"] == 14400


def test_verify_prints_only_the_parent_s_lines(tmp_path):
    """The forked worker writes nothing to stdout or stderr: a fresh verify
    prints 26 status lines and the summary, and a traced op adds exactly one
    JSON line at the end."""
    repo = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(repo / "src"))
    report = str(tmp_path / "r.json")
    runs = (
        [sys.executable, "-m", "h4geom.cli", "verify", "--report", report],
        [sys.executable, "perfbench/stages.py", "0", "all", "--", "verify", "--report", report],
    )
    for traced, argv in enumerate(runs):
        out = subprocess.run(argv, cwd=repo, env=env, capture_output=True, text=True)
        assert (out.returncode, out.stderr) == (0, ""), argv
        lines = out.stdout.splitlines()
        assert len(lines) == 27 + traced, argv
        assert sum(line.startswith("PASS  ") for line in lines) == 26
        assert lines[26] == "all 26 checks passed"
        if traced:
            assert json.loads(lines[27])["rc"] == 0


def test_traced_dump_wraps_the_cli_dumps(tmp_path):
    """The benchmark's traced op replaces `cli.dumps` by assignment; the CLI
    must look it up at call time, so a dump still opens its
    `serialize.dumps.<object>` span and counts its bytes."""
    repo = Path(__file__).resolve().parents[1]
    out = subprocess.run(
        [sys.executable, "perfbench/stages.py", "0", "dump:labels", "--",
         "dump", "labels", "--out", str(tmp_path / "labels.json")],
        cwd=repo,
        env=dict(os.environ, PYTHONPATH=str(repo / "src")),
        capture_output=True,
        text=True,
    )
    assert out.returncode == 0, out.stderr
    traced = json.loads(out.stdout.splitlines()[-1])
    assert "serialize.dumps.labels" in {span["name"] for span in traced["spans"]}
    assert traced["counts"]["0"]["serialize.bytes.labels"] > 0


_LOADED_MODULES = """
import sys

before = set(sys.modules)
from h4geom import cli

rc = cli.main(sys.argv[1:]) if sys.argv[1:] else None
after = set(sys.modules)
import json

print(json.dumps([rc, sorted(before), sorted(after)]))
"""

# No command may load these: `dataclasses` pulls in `inspect`, `ast`, `dis`
# and `tokenize`, `fractions` pulls in `decimal`, and no output is a `numbers`
# type other than int.
_UNWANTED_MODULES = {"dataclasses", "inspect", "fractions", "decimal", "typing", "numbers"}


def _loaded_after(*argv):
    """The exit code, the h4geom submodules and the unwanted modules a fresh
    `python -S` process has loaded after `import h4geom.cli` and, given argv,
    `cli.main(argv)`.  With site off no `.pth` file runs, so nothing loads an
    unwanted module before the import."""
    src = Path(__file__).resolve().parents[1] / "src"
    out = subprocess.run(
        [sys.executable, "-S", "-c", _LOADED_MODULES, *argv],
        env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True,
        text=True,
        check=True,
    )
    rc, before, after = json.loads(out.stdout.splitlines()[-1])
    assert _UNWANTED_MODULES.isdisjoint(before), before
    loaded = {m.removeprefix("h4geom.") for m in after if m.startswith("h4geom.")}
    return rc, loaded, _UNWANTED_MODULES.intersection(after)


def test_each_command_loads_only_its_own_modules(tmp_path):
    out = str(tmp_path / "dump.json")
    rc, loaded, unwanted = _loaded_after()
    assert rc is None and not unwanted, unwanted
    assert loaded == {"cli", "serialize"}, loaded
    rc, loaded, unwanted = _loaded_after("verify", "--report", out)
    assert rc == 0 and "checks" in loaded and not unwanted, unwanted
    for obj in ("vertices", "labels", "array"):
        rc, loaded, unwanted = _loaded_after("dump", obj, "--out", out)
        assert rc == 0 and "polytopes" in loaded and not unwanted, (obj, unwanted)
        assert loaded.isdisjoint({"checks", "embed", "mod2", "symmetry"}), (obj, loaded)
    rc, loaded, unwanted = _loaded_after("dump", "lattice", "--out", out)
    assert rc == 0 and "embed" in loaded and not unwanted, unwanted
    assert loaded.isdisjoint({"checks", "mod2", "symmetry"}), loaded
    for obj in ("lines", "planes"):
        rc, loaded, unwanted = _loaded_after("dump", obj, "--out", out)
        assert rc == 0 and "mod2" in loaded and not unwanted, (obj, unwanted)
        assert loaded.isdisjoint({"checks", "symmetry"}), (obj, loaded)


_DOUBLED_VERTEX = """
import json
from h4geom import checks
from h4geom.icosian import scaled
from h4geom.polytopes import the_600cell

before = checks.run_check("s6/example1")  # caches certify_e8(-1) and certify_e8(+1)
cell = the_600cell()
cell.vertices = cell.vertices[:100] + (scaled((2, 0), cell.vertices[100]),) + cell.vertices[101:]
after = checks.run_check("s6/example1")
print(json.dumps([before.status, before.observed, after.status, after.observed]))
"""


def test_s6_example1_checks_the_phi_norm_on_every_vertex():
    """Vertex 100 doubled after both E8 certificates are cached: the phi-norm
    field alone turns False.  The m = +-1 conjugate relation is linear, so it
    still holds on the doubled vertex."""
    out = subprocess.run(
        [sys.executable, "-c", _DOUBLED_VERTEX],
        capture_output=True,
        text=True,
        check=True,
    )
    before_status, before, after_status, after = json.loads(out.stdout.splitlines()[-1])
    field = "phi_h_scaled_norm_6_plus_2sqrt5_reduces_to_4"
    assert before_status == "pass" and before[field] is True
    assert after_status == "fail"
    assert {k for k in before if before[k] != after[k]} == {field}
    assert after[field] is False


def _perfbench_checker():
    """perfbench/checker.py, loaded by path and only read."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "checker.py"
    spec = importlib.util.spec_from_file_location("perfbench_checker", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_report_and_dumps_match_the_frozen_digests(tmp_path):
    """The full report (less elapsed_ms) and all six dumps, each from a fresh
    `python -m h4geom.cli` process, byte for byte against perfbench/digests.json,
    under two hash seeds: no set's iteration order may reach an output."""
    checker = _perfbench_checker()
    digests = checker.load_digests()
    assert set(digests["dumps"]) == set(_DUMPERS)
    repo = Path(__file__).resolve().parents[1]

    def cli(seed, *argv):
        env = dict(os.environ, PYTHONPATH=str(repo / "src"), PYTHONHASHSEED=seed)
        subprocess.run([sys.executable, "-m", "h4geom.cli", *argv], env=env, capture_output=True, check=True)

    for seed in ("0", "12345"):
        report = tmp_path / f"report-{seed}.json"
        cli(seed, "verify", "--report", str(report))
        assert checker.report_problems(report.read_text(), digests) == [], seed
        for obj in sorted(digests["dumps"]):
            out = tmp_path / f"{obj}-{seed}.json"
            cli(seed, "dump", obj, "--out", str(out))
            assert checker.dump_problems(obj, out.read_bytes(), digests) == [], (seed, obj)


def test_src_holds_no_assert():
    """Every certificate is an observed value or a raise, never an `assert`,
    which `python -O` strips."""
    paths = sorted((Path(__file__).resolve().parents[1] / "src" / "h4geom").glob("*.py"))
    assert len(paths) >= 10
    found = [
        f"{path.name}:{node.lineno}"
        for path in paths
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_src_imports_no_unused_name():
    """Every name a module of src/h4geom imports is read in it, so a routine
    deleted with its last caller leaves no import behind."""
    paths = sorted((Path(__file__).resolve().parents[1] / "src" / "h4geom").glob("*.py"))
    assert len(paths) >= 10
    unused = []
    for path in paths:
        tree = ast.parse(path.read_text())
        imported = {
            alias.asname or alias.name.partition(".")[0]: node.lineno
            for node in ast.walk(tree)
            if isinstance(node, ast.Import) or isinstance(node, ast.ImportFrom) and node.module != "__future__"
            for alias in node.names
        }
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.name}:{line} {name}" for name, line in imported.items() if name not in read]
    assert unused == []


def test_eliminate_is_integer_only_and_src_reads_no_golden_elimination():
    """`eliminate` takes integer rows only; src/h4geom names no
    `exact_quotient`, `Ring`, `GoldenInt`, `GOLDEN_ZERO` or `IcosianVec` and
    reads no `.c` (GoldenInt coordinates), `.flat` or `.flats` attribute, so
    no elimination over Z[phi] and no class of Z[phi] scalars or of golden
    4-vectors is left in it: `golden` defines only its map and the
    elimination record, its scalars are plain integer pairs, every vertex is
    a plain tuple of 8 ints, and `h4geom` exports no `GoldenInt` or
    `IcosianVec`.  Nor does it name `bron`, and its only functions that call
    themselves are the walk inside `polytopes.cliques` and
    `serialize.jsonable`, so `cliques` is its one clique search.  Nor does it
    name `_cells24_16cells`, `cell24_base_indices`, or the closures
    `mulclose_indices` and `orbits`, so `polytopes.closure` is its one
    closure and every 24-cell is a coset of 2T."""
    with pytest.raises(TypeError):
        golden.eliminate([[golden.PHI]])
    for name in ("GoldenInt", "IcosianVec"):
        with pytest.raises(AttributeError):
            getattr(h4geom, name)
    v = ICOSIAN_ONE
    pairs = (golden.PHI, golden.PHI_INV, golden.phi_pow(-3), golden.mul((1, 2), (3, 4)),
             icosian.flat_dot(v, v), icosian.paper_dot(v, v))
    for x in pairs:
        assert type(x) is tuple and len(x) == 2 and all(type(t) is int for t in x), x
    assert pairs[-2:] == ((4, 0), (2, 0))
    for f in (v, *icosian.generate_vertices()):
        assert type(f) is tuple and len(f) == 8 and all(type(t) is int for t in f), f
    tree = ast.parse(Path(golden.__file__).read_text())
    assert {node.name for node in ast.walk(tree) if isinstance(node, ast.ClassDef)} == {"ReductionMap", "Elimination"}
    paths = sorted((Path(__file__).resolve().parents[1] / "src" / "h4geom").glob("*.py"))
    assert len(paths) >= 10
    banned = {"exact_quotient", "Ring", "GoldenInt", "GOLDEN_ZERO", "IcosianVec", "bron", "_cells24_16cells",
              "cell24_base_indices", "mulclose_indices", "orbits"}
    found = [
        f"{path.name}:{node.lineno}"
        for path in paths
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Attribute) and node.attr in banned | {"c", "flat", "flats"}
        or {getattr(node, "id", None), getattr(node, "name", None)} & banned  # a name, def or import
    ]
    assert found == []

    def calls_itself(fn):
        """Whether fn calls its own name, bare or as a method of self."""
        return any(
            isinstance(n, ast.Call) and ast.unparse(n.func) in (fn.name, f"self.{fn.name}")
            for n in ast.walk(fn)
        )

    def recursive(node, qualname):
        """The dotted name of each function under node that calls itself."""
        for child in ast.iter_child_nodes(node):
            inner = qualname
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                inner = f"{qualname}.{child.name}"
                if isinstance(child, ast.FunctionDef) and calls_itself(child):
                    yield inner
            yield from recursive(child, inner)

    walks = {name for path in paths for name in recursive(ast.parse(path.read_text()), path.stem)}
    assert walks == {"polytopes.cliques.extend", "serialize.jsonable"}
