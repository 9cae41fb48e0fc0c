"""Acceptance criteria, one test per criterion, all exact.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion; every comparison is exact equality of integers or exact
structures (no tolerances anywhere).
"""

import subprocess
import sys
from collections import Counter

from h4geom.cli import _DUMPERS
from h4geom.icosian import ICOSIAN_ONE
from h4geom.polytopes import closure, label_str, perm_parity
from h4geom.serialize import dumps

from golden_oracle import fraction_short_vectors


def _ok(n: int, text: str) -> None:
    print(f"criterion {n:02d} PASS  {text}")


def test_criterion_01_skeleton_census(cell):
    assert cell.n == 120
    assert cell.skeleton_counts() == (720, 1200, 600)
    _ok(1, "120 vertices, 720 edges, 1200 triangles, 600 tetrahedral cells")


def test_criterion_02_inscribed_cells(cell):
    assert len(cell.cells24) == 25
    assert len(cell.cells16) == 75
    assert len(cell.cells8) == 75
    for small in cell.cells16:
        assert sum(1 for big in cell.cells24 if set(small) <= big) == 1
    for small in cell.cells8:
        assert sum(1 for big in cell.cells24 if small <= big) == 1
    _ok(2, "25 24-cells, 75 16-cells, 75 8-cells, each in a unique 24-cell")


def test_criterion_03_ten_partitions(cell):
    found = cell.find_all_partitions()
    assert len(found) == 10
    rows_cols = set(cell.partitions)
    assert set(found) == rows_cols
    _ok(3, "exhaustive search finds exactly the 10 row/column partitions")


def test_criterion_04_group_and_stabilizers(cell, group):
    assert len(group.ops) == 14400
    assert group.rotation_count == 7200
    v = cell.index[ICOSIAN_ONE]
    pid = cell.pair_of[v]
    stab_v = group.stabilizer_of_vertex(v)
    assert len(stab_v) == 120
    vperms = [group._pair_action(group.ops[k].perm) for k in stab_v]
    sig = {}
    for orb in closure(vperms, range(60)):
        cls = {cell.pair_class[pid][q] for q in orb}
        assert len(cls) == 1
        sig.setdefault(cls.pop(), []).append(len(orb))
    assert sig == {"2": [1], "0": [15], "1": [20], "phi": [12], "phi-inv": [12]}
    c0 = cell.array[0][0]
    stab_c = group.stabilizer_of_cell(c0)
    assert len(stab_c) == 576
    cperms = [group.cell_perms[k] for k in stab_c]
    assert sorted(len(o) for o in closure(cperms, range(25))) == [1, 8, 16]
    pperms = [group._pair_action(group.ops[k].perm) for k in stab_c]
    assert sorted(len(o) for o in closure(pperms, range(60))) == [12, 48]
    _ok(4, "|Aut| 14400, rotations 7200, stabilizers 120/576 with orbit signatures")


def test_criterion_05_partition_action_and_labels(cell, group):
    kernel = group.ten_kernel
    assert len(kernel) == 2
    perms = {group.ops[k].perm for k in kernel}
    assert perms == {tuple(range(120)), tuple(cell.neg)}
    assert len(group.ops) // len(kernel) == 7200
    rows = set(range(5))
    for k, op in enumerate(group.ops):
        img = {group.ten_perms[k][i] for i in rows}
        assert img == (rows if op.parity == 1 else set(range(5, 10)))
    one_pid = cell.pair_of[cell.index[ICOSIAN_ONE]]
    assert label_str(cell.labels[one_pid]) == "(16)(27)(38)(49)(5X)"
    assert len(set(cell.labels)) == 60
    assert all(perm_parity([d[1] for d in lab]) == 0 for lab in cell.labels)
    _ok(5, "kernel {±1}, image 7200 on pentads, unit label (16)(27)(38)(49)(5X), 60 even labels")


def test_criterion_06_hexagons_decagons_pentagons(cell):
    assert len(cell.hexagon_list) == 200
    assert len(cell.hexagon_orthogonal_pairs) == 100
    p3 = cell.prime_array(3)
    assert p3.size == 10
    assert len(cell.decagons) == 72
    p5 = cell.prime_array(5)
    assert p5.size == 6
    orth_dec = set()
    for i in range(6):
        for j in range(6):
            decs = [d for d in cell.decagons if d <= p5.entry_pairs(i, j)]
            assert len(decs) == 2
            orth_dec.add(frozenset(decs))
    assert len(orth_dec) == 36
    assert len(cell.decagon_of_edge) == 720
    all_duads = {(r, c) for r in range(1, 6) for c in range(6, 11)}
    for dec in cell.decagons:
        assert {d for p in dec for d in cell.labels[p]} == all_duads
    _ok(6, "200 hexagons/100 pairs, 72 decagons/36 pairs, edge cover, pentagon duad cover")


def test_criterion_07_e8_embeddings(e8, e8_plus):
    for lat in (e8, e8_plus):
        assert lat.det == 1
        assert all(lat.gram[i][i] % 2 == 0 for i in range(8))
        assert lat.shell_sizes == {2: 240, 4: 2160}
    for i in range(120):
        assert e8.bform_int(e8.h_img[i], e8.phi_img[i]) == 0
        assert e8_plus.bform_int(e8_plus.h_img[i], e8_plus.phi_img[i]) == 0
    _ok(7, "m=-1 and m=+1 both certify E8 (even, det 1, 240 roots), counterparts orthogonal")


def test_criterion_08_reduced_lattice(lat_l):
    assert lat_l.census == {4: 1, 2: 20, 1: 24, 0: 15}
    assert lat_l.det == 625
    assert all(lat_l.gram[i][i] % 2 == 0 for i in range(8))
    assert fraction_short_vectors(lat_l.gram, 2) == {}
    _ok(8, "lattice census ±4:1 ±2:20 ±1:24 0:15, d=625, even, rootless")


def test_criterion_09_norm4_decomposition(shell_classes, e8):
    assert len(e8.norm4_shell) == 2160
    assert sorted(len(c.vectors) for c in shell_classes) == [120, 120, 600, 600, 720]
    union = set()
    for c in shell_classes:
        assert not (union & c.vectors)
        union |= c.vectors
    assert union == e8.norm4_shell
    # spectra were certified exactly during construction; re-verify one class
    rect = next(c for c in shell_classes if c.source == "rectified")
    vecs = sorted(rect.vectors)
    spec = Counter()
    for i in range(0, len(vecs), 60):
        for j in range(len(vecs)):
            if i != j:
                spec[e8.bform_int(vecs[i], vecs[j])] += 1
    assert set(spec) <= {-4, -3, -2, -1, 0, 1, 2, 3, 4}
    _ok(9, "2160 norm-4 vectors partition into 120+120+600+600+720 embedded polytopes")


def test_criterion_10_f4_structure(geo):
    assert geo.phi.rows is not None  # integer matrix identity checked at build
    t = geo.phi.table
    assert tuple(t[t[t[x]]] for x in range(256)) == tuple(range(256))
    points, tags = geo.points, geo.tags
    assert len(points) == 85
    kinds = Counter(tag[0] for tag in tags)
    assert kinds == {"vertex": 60, "cell": 25}
    assert geo.line_census == {
        "partition": 10, "pentagon": 72, "cell16": 75, "triangle": 200,
    }
    assert geo.line_certificates() == {
        "partition": 10, "pentagon": 72, "cell16": 75, "triangle": 200,
    }
    assert len(geo.planes) == 85
    assert geo.plane_compositions() == {"vertex": 60, "cell": 25}
    assert geo.q_omega_checks() == {
        "values": True, "trace": True, "scaling": True, "biadditive": True,
    }
    _ok(10, "phi identities, 85 points 60+25, 357 lines 10+72+75+200, 85 planes, q_omega table")


def test_criterion_11_isotropic_4spaces(geo):
    assert len(geo.isotropic4) == 270
    assert geo.figure1_check()
    res = geo.pentad_completions(geo.pentad_rows[0], geo.pentad_rows[1])
    assert res["common_disjoint"] == 28
    assert res["completion_sizes"] == [5, 9]
    _ok(11, "270 singular 4-spaces, Figure-1 pentads, 28 common-disjoint, completions {5,9}")


def test_criterion_12_dump_determinism():
    for obj, dumper in _DUMPERS.items():
        assert dumps(dumper()) == dumps(dumper()), obj
    inproc = dumps(_DUMPERS["array"]())
    fresh = subprocess.run(
        [sys.executable, "-m", "h4geom.cli", "dump", "array"],
        capture_output=True,
        text=True,
        check=True,
    ).stdout
    assert fresh == inproc
    _ok(12, "all dump outputs byte-identical across runs and processes")
