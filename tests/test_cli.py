import copy
import importlib.util
import json
import os
import subprocess
import sys

from pathlib import Path

import pytest

from h4geom import checks, embed, golden
from h4geom.cli import _DUMPERS, main
from h4geom.serialize import dumps, jsonable
from h4geom.golden import GoldenInt
from fractions import Fraction


def test_jsonable_encodings():
    assert jsonable(GoldenInt(3, -2)) == [3, -2]
    assert jsonable(Fraction(1, 2)) == "1/2"
    assert jsonable(Fraction(4, 2)) == 2
    assert jsonable({2: {1, 3}}) == {"2": [1, 3]}


def test_frozen_records_refuse_assignment(cell, gb, shell_classes, geo):
    records = {
        "Elimination": golden.eliminate([[2, 1], [1, 1]]),
        "GoldenBasis": gb,
        "ShellClass": shell_classes[0],
        "PhiMap": geo.phi,
        "PrimeArray": cell.prime_array(2),
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
        corrupted = copy.copy(lat_l)
        setattr(corrupted, field, False)
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

real_short_vectors = embed.short_vectors


def short_vectors(gram, bound):
    out = real_short_vectors(gram, bound)
    if 4 in out:
        out[4].pop()
    return out


embed.short_vectors = short_vectors
codes = [main(["verify", "--only", only, "--report", path])
         for only, path in zip(("facts/fact9", "s6/*"), sys.argv[1:])]
print(json.dumps(codes))
"""


def test_e8_shell_count_is_checked_under_python_O(tmp_path):
    """A norm-4 vector missing from the enumeration fails every check that
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
from h4geom import checks, symmetry

symmetry.mulclose_indices = lambda gens: tuple(gens)
result = checks.run_check("facts/fact3")
print(json.dumps([result.status, result.observed]))
"""


def test_group_without_a_generating_pair_names_the_cause_under_python_O():
    out = subprocess.run(
        [sys.executable, "-O", "-c", _NO_GENERATING_PAIR],
        capture_output=True,
        text=True,
        check=True,
    )
    status, observed = json.loads(out.stdout.splitlines()[-1])
    assert status == "fail"
    assert observed == {"error": "ValueError: no icosian generates 2I with g"}


def test_traced_verify_counts_each_shell_split_call(tmp_path):
    """The benchmark's traced op wraps `golden.ReductionMap.split_vector` by
    name; the shell split calls it once per source vector and scaling
    (1,440 x 7), so a rename would show here, not as failed traced ops.  It
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
    assert counts["golden.split_vector_calls"] >= 7 * 1440
    assert counts["symmetry.order"] == 14400


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
# and `tokenize`, and `fractions` pulls in `decimal`.
_UNWANTED_MODULES = {"dataclasses", "inspect", "fractions", "decimal", "typing"}


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
    assert loaded.isdisjoint({"checks", "embed", "mod2", "symmetry", "polytopes"}), loaded
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
from h4geom.golden import GoldenInt
from h4geom.polytopes import the_600cell

before = checks.run_check("s6/example1")  # caches certify_e8(-1) and certify_e8(+1)
cell = the_600cell()
cell.vertices = cell.vertices[:100] + (cell.vertices[100].scaled(GoldenInt(2)),) + cell.vertices[101:]
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
    `python -m h4geom.cli` process, byte for byte against perfbench/digests.json."""
    checker = _perfbench_checker()
    digests = checker.load_digests()
    assert set(digests["dumps"]) == set(_DUMPERS)
    repo = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(repo / "src"))

    def cli(*argv):
        subprocess.run([sys.executable, "-m", "h4geom.cli", *argv], env=env, capture_output=True, check=True)

    report = tmp_path / "report.json"
    cli("verify", "--report", str(report))
    assert checker.report_problems(report.read_text(), digests) == []
    for obj in sorted(digests["dumps"]):
        out = tmp_path / f"{obj}.json"
        cli("dump", obj, "--out", str(out))
        assert checker.dump_problems(obj, out.read_bytes(), digests) == []
