from collections import Counter
from itertools import combinations
from types import SimpleNamespace

import pytest

from h4geom import checks, mod2
from h4geom.cli import main
from h4geom.mod2 import F4_MUL, F4_TRACE, OMEGA, OMEGA_BAR, biadditive
from h4geom.polytopes import bits, closure
from h4geom.symmetry import SymOp

from golden_oracle import (
    points_by_triples, q_by_double_loop, tags_by_16cell_lines, triangle_certified_by_shared_duads,
)


def bform(geo, x, y):
    """B(x, y) on classes: the parity of rowvec[x] & y."""
    return mod2._parity(geo.rowvec[x] & y)


def test_f4_arithmetic_tables():
    for a in range(4):
        assert F4_MUL[a][1] == a and F4_MUL[1][a] == a
        for b in range(4):
            assert F4_MUL[a][b] == F4_MUL[b][a]
    assert F4_MUL[OMEGA][OMEGA] == OMEGA_BAR
    assert F4_MUL[OMEGA][OMEGA_BAR] == 1
    assert F4_TRACE == (0, 0, 1, 1)


def test_quotient_census(geo):
    assert geo.census() == {"zero": 1, "isotropic": 135, "non_isotropic": 120}
    assert geo.q[0] == 0


def test_b_is_alternating_and_nondegenerate(geo):
    for x in range(256):
        assert bform(geo, x, x) == 0
    for x in range(1, 256):
        assert any(bform(geo, x, y) for y in range(1, 256))


def test_q_well_defined_on_classes(geo):
    # changing the lift by twice a lattice vector must not change Q
    e8 = geo.e8
    for x in (1, 37, 130, 255):
        lift = [0] * 8
        for i in range(8):
            if x >> i & 1:
                lift = [a + b for a, b in zip(lift, e8.basis[i])]
        q1 = (e8.bform_int(tuple(lift), tuple(lift)) // 2) & 1
        for shift in (e8.basis[0], e8.basis[5]):
            moved = tuple(a + 2 * b for a, b in zip(lift, shift))
            q2 = (e8.bform_int(moved, moved) // 2) & 1
            assert q2 == q1 == geo.q[x]
    # polarization: Q(x + y) = Q(x) + Q(y) + B(x, y)
    for x in range(0, 256, 5):
        for y in range(0, 256, 3):
            assert geo.q[x ^ y] == geo.q[x] ^ geo.q[y] ^ bform(geo, x, y)


def test_q_by_doubling_matches_the_double_loop_on_all_classes(geo):
    assert geo.q == tuple(q_by_double_loop(geo.e8.gram, x) for x in range(256))


def test_phi_map_properties(geo):
    phi = geo.phi
    t = phi.table
    assert tuple(t[t[t[x]]] for x in range(256)) == tuple(range(256))
    for x in range(1, 256):
        assert t[x] != x
    # self-adjoint for B (replaces the false "isometry" claim; see ledger)
    for x in range(0, 256, 3):
        for y in range(256):
            assert bform(geo, t[x], y) == bform(geo, x, t[y])


def test_perp_matches_bform_on_all_pairs(geo):
    for x in range(256):
        assert [geo.perp[x] >> y & 1 for y in range(256)] == [
            1 - bform(geo, x, y) for y in range(256)
        ]


def _self_adjoint_by_pairs(geo, t):
    """The 65,536-pair oracle for `F4Geometry.self_adjoint`."""
    return all(bform(geo, t[x], y) == bform(geo, x, t[y]) for x in range(256) for y in range(256))


def test_self_adjoint_matches_the_pair_oracle(geo):
    """On phibar, on linear tables with one matrix entry flipped, and on a
    table that is not linear."""
    t = geo.phi.table
    assert geo.self_adjoint(t) is _self_adjoint_by_pairs(geo, t) is True
    for i, j in ((0, 1), (3, 3), (7, 2)):
        rows = list(geo.phi.mod2_rows)
        rows[i] ^= 1 << j
        bad = mod2._table(rows)
        assert geo.self_adjoint(bad) is _self_adjoint_by_pairs(geo, bad) is False
    swapped = list(t)
    swapped[3], swapped[5] = swapped[5], swapped[3]
    assert geo.self_adjoint(swapped) is _self_adjoint_by_pairs(geo, swapped) is False


def test_phi_fails_on_a_table_that_is_not_self_adjoint(monkeypatch, geo):
    rows = list(geo.phi.mod2_rows)
    rows[0] ^= 1 << 1
    bad = mod2._table(rows)
    monkeypatch.setattr(geo, "phi", geo.phi._replace(table=bad))
    result = checks.run_check("s7/phi")
    assert result.status == "fail"
    assert result.observed["phibar_self_adjoint_for_B"] is False


def _biadditive_by_table(qw):
    """The oracle for `mod2.biadditive`: the whole 256 x 256 table of
    b(x, y) = qw[x ^ y] + qw[x] + qw[y], each entry compared with the fold of
    b over the bits of x."""
    b_omega = [[qw[x ^ y] ^ qw[x] ^ qw[y] for y in range(256)] for x in range(256)]
    for y in range(256):
        base = [b_omega[1 << i][y] for i in range(8)]
        for x in range(256):
            acc = 0
            for i in range(8):
                if x >> i & 1:
                    acc ^= base[i]
            if acc != b_omega[x][y]:
                return False
    return True


def test_biadditive_matches_the_table_oracle(monkeypatch, geo):
    """On q_omega; on q_omega rebuilt from a q table with one class's value
    flipped, for three classes; with a nonzero value at 0; and with a cubic
    added."""
    qw = [geo.q_omega(x) for x in range(256)]
    assert biadditive(qw) is _biadditive_by_table(qw) is True
    q = geo.q
    for x in (geo.class_of_h[0], geo.class_of_h[0] ^ geo.class_of_phi_h[0], 255):
        monkeypatch.setattr(geo, "q", q[:x] + (1 - q[x],) + q[x + 1:])
        bad = [geo.q_omega(y) for y in range(256)]
        assert biadditive(bad) is _biadditive_by_table(bad) is False
    assert biadditive([1] + qw[1:]) is _biadditive_by_table([1] + qw[1:]) is False
    # plus a cubic in the top three coordinates, which rows b(x, .) for x < 32 do not see
    cubic = [v ^ (x >> 5 == 7) for x, v in enumerate(qw)]
    assert biadditive(cubic) is _biadditive_by_table(cubic) is False


def test_roots_nonisotropic_and_sums_isotropic(geo):
    for i in range(120):
        c, d = geo.class_of_h[i], geo.class_of_phi_h[i]
        assert geo.q[c] == 1 and geo.q[d] == 1
        assert geo.q[c ^ d] == 0
        assert geo.phi.table[c] == d


def test_points_and_tags(geo):
    points, tags = geo.points, geo.tags
    assert len(points) == 85
    kinds = Counter(t[0] for t in tags)
    assert kinds == {"vertex": 60, "cell": 25}
    for k, p in enumerate(points):
        qs = sorted(geo.q[x] for x in p)
        assert qs == ([0, 1, 1] if tags[k][0] == "vertex" else [0, 0, 0])
    assert len({t[1] for t in tags if t[0] == "vertex"}) == 60
    assert len({t[1] for t in tags if t[0] == "cell"}) == 25


def test_tags_match_the_16cell_line_oracle(geo):
    """The meet of the planes against the old proposals from the lines that
    hold a 16-cell, on all 85 points."""
    assert geo.tags == tags_by_16cell_lines(geo)


def test_tags_and_the_planes_dump_leave_lines_unbuilt(geo, capsys):
    fresh = mod2.F4Geometry(geo.e8)
    assert len(fresh.tags) == 85 and "lines" not in vars(fresh)
    mod2.f4_geometry.cache_clear()
    try:
        assert main(["dump", "planes"]) == 0
        assert '"count": 85' in capsys.readouterr().out
        assert "lines" not in vars(mod2.f4_geometry())
    finally:
        mod2.f4_geometry.cache_clear()


def test_tags_raise_naming_the_24cell_when_two_pairs_trade_classes(monkeypatch, geo):
    """Pairs 0 and q trade their vertex and phi-image classes: the pair tags
    still pass, but the first 24-cell holding exactly one of the two loses its
    point, so the tag builder raises naming it and facts/fact10 fails."""
    cell = geo.cell
    q = next(q for q in range(60) if cell.cell_of_pair[q] != cell.cell_of_pair[0])
    first = min(set(cell.cell_of_pair[0]) ^ set(cell.cell_of_pair[q]))

    def corrupt(geo):
        for name in ("class_of_h", "class_of_phi_h"):
            classes = list(getattr(geo, name))
            for a, b in ((cell.pairs[0][0], cell.pairs[q][0]), (cell.pairs[0][1], cell.pairs[q][1])):
                classes[a], classes[b] = classes[b], classes[a]
            setattr(geo, name, tuple(classes))

    fresh = mod2.F4Geometry(geo.e8)
    corrupt(fresh)
    with pytest.raises(ValueError, match=f"^24-cell {first}: its 12 planes meet in "):
        fresh.tags
    differ, result = _run_on_a_corrupted_geometry(monkeypatch, "facts/fact10", corrupt)
    assert differ == {"points", "vertex_points", "cell_points"}
    assert result.observed["error"].startswith(f"ValueError: 24-cell {first}: ")


def test_tags_raise_on_a_cell_point_that_is_not_singular(geo):
    fresh = mod2.F4Geometry(geo.e8)
    pt = geo.point_of_cell[3]
    x = min(geo.points[pt])
    fresh.q = fresh.q[:x] + (1,) + fresh.q[x + 1:]
    with pytest.raises(ValueError, match=f"^24-cell 3: its point {pt} is not singular$"):
        fresh.tags


def test_tags_raise_when_a_24cell_meets_at_a_vertex_point(geo):
    """24-cell 0 replaced by 12 of the 15 pairs orthogonal to pair 0: their
    planes meet in pair 0's point, which the raise names."""
    cell = geo.cell
    fresh = mod2.F4Geometry(geo.e8)
    twelve = frozenset(list(bits(cell.pair_orth[0]))[:12])
    fresh.cell = SimpleNamespace(pairs=cell.pairs, neg=cell.neg, cells24=(twelve, *cell.cells24[1:]))
    pt = geo.point_of_pair[0]
    with pytest.raises(ValueError, match=f"^24-cell 0: its point {pt} is already tagged \\('vertex', 0\\)$"):
        fresh.tags


def test_points_are_phibar_closed(geo):
    t = geo.phi.table
    for p in geo.points:
        assert {t[x] for x in p} == set(p)


def test_points_match_the_triples_and_point_of_inverts_them(geo):
    """The 85 orbits of phibar against the old triples {x, t x, x ^ t x}, in
    order, and `point_of` on all 256 classes."""
    assert geo.points == points_by_triples(geo.phi.table)
    assert geo.point_of == tuple(
        next((k for k, p in enumerate(geo.points) if x in p), -1) for x in range(256)
    )


def test_points_raise_unless_85_orbits_of_3(geo):
    """phibar replaced by the identity: 255 orbits of one class each."""
    fresh = mod2.F4Geometry(geo.e8)
    fresh.phi = fresh.phi._replace(table=tuple(range(256)))
    with pytest.raises(ValueError, match="255 points of sizes \\[1\\], not 85 of 3 classes"):
        fresh.points


def test_triangle_branches_agree_on_every_line(geo):
    """The crossed-cells test of `line_certified` and the old shared-duads
    test, both applied as the triangle test to all 357 lines, hold on exactly
    the 200 triangles; a triangle with its two cell tags replaced by the
    crossed cells, the hexagon's own, fails both."""
    cell, held = geo.cell, Counter()
    for info in geo.line_info.values():
        as_triangle = info._replace(type="triangle")
        verdict = geo.line_certified(as_triangle)
        assert verdict == triangle_certified_by_shared_duads(cell, info.vertex_pairs, info.cells)
        held[info.type] += verdict
        if info.type == "triangle":
            moved = info._replace(cells=tuple(sorted(cell.crossed(info.cells))))
            assert moved.cells != info.cells
            assert not geo.line_certified(moved)
            assert not triangle_certified_by_shared_duads(cell, moved.vertex_pairs, moved.cells)
    assert held == Counter(triangle=200)


def test_line_census_and_certificates(geo):
    assert geo.line_census == {
        "partition": 10, "pentagon": 72, "cell16": 75, "triangle": 200,
    }
    assert geo.line_certificates() == {
        "partition": 10, "pentagon": 72, "cell16": 75, "triangle": 200,
    }


def test_every_line_has_five_points_and_is_phibar_closed(geo):
    t = geo.phi.table
    for line in geo.lines[::17]:
        assert len(line) == 5
        vecs = {x for p in line for x in geo.points[p]}
        assert {t[x] for x in vecs} == vecs


def _lines_from_every_pair(geo):
    """The span of each of the 3,570 pairs of points: the oracle for lines,
    which spans each line once."""
    seen = set()
    for a, b in combinations(range(85), 2):
        span = {x ^ y for x in geo.points[a] | {0} for y in geo.points[b] | {0}}
        seen.add(frozenset(geo.point_of[x] for x in span if x))
    return tuple(sorted(seen, key=lambda s: tuple(sorted(s))))


def test_lines_match_the_every_pair_oracle(geo):
    assert geo.lines == _lines_from_every_pair(geo)


def test_plane_compositions(geo):
    assert geo.plane_compositions() == {"vertex": 60, "cell": 25}


def test_q_omega(geo):
    checks = geo.q_omega_checks()
    assert checks == {
        "values": True, "trace": True, "scaling": True, "biadditive": True,
    }
    assert geo.q_omega(geo.class_of_h[0]) == OMEGA_BAR
    assert geo.q_omega(geo.class_of_phi_h[0]) == OMEGA


def _run_on_a_corrupted_geometry(monkeypatch, check_id, corrupt):
    """check_id through `run_check` on an F4 geometry built afresh and then
    passed to corrupt, the cached geometry cleared before and after; asserts
    that the check fails and returns the fields that differ (all of them when
    the check raised), and the result."""
    real_init = mod2.F4Geometry.__init__

    def corrupted_init(self, e8):
        real_init(self, e8)
        corrupt(self)

    mod2.f4_geometry.cache_clear()
    try:
        with monkeypatch.context() as patch:
            patch.setattr(mod2.F4Geometry, "__init__", corrupted_init)
            result = checks.run_check(check_id)
    finally:
        mod2.f4_geometry.cache_clear()
    assert result.status == "fail"
    expected = checks.CHECKS[check_id][0]
    return {field for field, value in expected.items() if result.observed.get(field) != value}, result


def _swap_tags(geo, a, b):
    tags = list(geo.tags)
    tags[a], tags[b] = tags[b], tags[a]
    geo.tags = tuple(tags)


def test_lines_fails_on_two_swapped_vertex_tags(monkeypatch):
    """Two vertex points' pair tags swapped: every line keeps its type, so
    the census holds, but lines through one of the two points no longer
    match the incidence oracle."""
    assert checks.run_check("s7/lines").status == "pass"

    def corrupt(geo):
        _swap_tags(geo, *[k for k, (kind, _) in enumerate(geo.tags) if kind == "vertex"][:2])

    differ, result = _run_on_a_corrupted_geometry(monkeypatch, "s7/lines", corrupt)
    assert differ == {"certified"}
    assert result.observed["certified"] == {"cell16": 65, "partition": 10, "pentagon": 60, "triangle": 182}


def test_lines_moves_only_cell16_on_a_16cell_given_the_wrong_24cell(monkeypatch, cell):
    """One 16-cell mapped to the next 24-cell in `cell16_ambient`: the tags
    do not read it, so they hold, and only the line through that 16-cell
    loses its certificate."""
    tags = mod2.f4_geometry().tags
    ambient = dict(cell.cell16_ambient)
    t = next(iter(ambient))
    ambient[t] = (ambient[t] + 1) % 25
    monkeypatch.setattr(cell, "cell16_ambient", ambient)
    differ, result = _run_on_a_corrupted_geometry(monkeypatch, "s7/lines", lambda geo: None)
    assert differ == {"certified"}
    assert result.observed["certified"] == {"cell16": 74, "partition": 10, "pentagon": 72, "triangle": 200}
    assert mod2.f4_geometry().tags == tags


def test_qomega_fails_on_a_flipped_q_value_or_a_swapped_cell_tag(monkeypatch):
    """Q flipped on one class of a vertex point breaks the values, the trace
    and biadditivity, while the scaling by phibar holds for any Q; a cell
    tag swapped with a vertex tag breaks the values alone."""
    assert checks.run_check("s7/qomega").status == "pass"

    def flip_q(geo):
        x = geo.class_of_h[0]
        geo.q = geo.q[:x] + (1 - geo.q[x],) + geo.q[x + 1:]

    def swap_cell_tag(geo):
        kinds = [kind for kind, _ in geo.tags]
        _swap_tags(geo, kinds.index("cell"), kinds.index("vertex"))

    for corrupt, want in ((flip_q, {"values", "trace", "biadditive"}), (swap_cell_tag, {"values"})):
        differ, _ = _run_on_a_corrupted_geometry(monkeypatch, "s7/qomega", corrupt)
        assert differ == want, corrupt.__name__


def test_symmetry_action_commutes_with_phibar(geo, group):
    for g in group.generators:
        assert geo.commutes_with_phi(g)


def _point_perms(geo, group):
    """Each generator's permutation of the 85 points, through its table on
    the 256 classes (`action_mod2`), which must carry points onto points."""
    perms = []
    for a in map(geo.action_mod2, group.generators):
        perm = tuple(geo.point_of[a[min(pt)]] for pt in geo.points)
        assert all(frozenset(a[x] for x in pt) == geo.points[k] for pt, k in zip(geo.points, perm))
        perms.append(perm)
    return perms


def test_point_orbits_are_the_vertex_and_cell_tags(geo, group):
    """The group the five generators induce on E8/2E8 splits the 85 points
    into orbits of 60 and 25: exactly the vertex-tagged and cell-tagged points."""
    orbits = closure(_point_perms(geo, group), range(85))
    assert sorted(map(len, orbits)) == [25, 60]
    by_kind = {kind: frozenset(k for k, t in enumerate(geo.tags) if t[0] == kind) for kind in ("vertex", "cell")}
    assert set(orbits) == set(by_kind.values())


def test_line_orbits_are_the_line_types(geo, group):
    """The same group splits the 357 lines into orbits of 200, 72, 75 and 10,
    each all of one `line_info` type."""
    index = {line: k for k, line in enumerate(geo.lines)}
    perms = [tuple(index[frozenset(perm[p] for p in line)] for line in geo.lines) for perm in _point_perms(geo, group)]
    orbits = closure(perms, range(len(geo.lines)))
    assert sorted(map(len, orbits)) == [10, 72, 75, 200]
    types = {}
    for orbit in orbits:
        kinds = {geo.line_info[geo.lines[k]].type for k in orbit}
        assert len(kinds) == 1
        types[len(orbit)] = kinds.pop()
    assert types == {200: "triangle", 72: "pentagon", 75: "cell16", 10: "partition"}


def test_plane_orbits_are_the_vertex_and_cell_tags(geo, group):
    """The same group splits the 85 planes into orbits of 60 and 25: the
    complements of the vertex-tagged and of the cell-tagged points."""
    index = {plane: k for k, plane in enumerate(geo.planes)}
    perms = [tuple(index[frozenset(perm[p] for p in plane)] for plane in geo.planes) for perm in _point_perms(geo, group)]
    orbits = closure(perms, range(85))
    assert sorted(map(len, orbits)) == [25, 60]
    by_kind = {kind: frozenset(k for k, t in enumerate(geo.tags) if t[0] == kind) for kind in ("vertex", "cell")}
    assert set(orbits) == set(by_kind.values())


def test_singular_4space_orbits_refine_the_two_parity_classes(geo, group):
    """The same group, acting on the 256 classes, splits the 270 totally
    singular 4-spaces into orbits of 10, 25, 60, 75 and 100.  The 10 are the
    pentad rows and columns; 10 + 25 + 100 is the intersection-parity class of
    pentad row 0 and 60 + 75 the other class."""
    index = {space: k for k, space in enumerate(geo.isotropic4)}
    perms = [
        tuple(index[frozenset(a[x] for x in space)] for space in geo.isotropic4)
        for a in map(geo.action_mod2, group.generators)
    ]
    orbits = {len(orbit): orbit for orbit in closure(perms, range(270))}
    assert sorted(orbits) == [10, 25, 60, 75, 100]
    assert {geo.isotropic4[k] for k in orbits[10]} == set(geo.pentad_rows + geo.pentad_cols)
    row0 = geo.pentad_rows[0]
    same = frozenset(k for k, u in enumerate(geo.isotropic4) if len(u & row0) in (0, 3, 15))
    assert same == orbits[10] | orbits[25] | orbits[100]
    assert frozenset(range(270)) - same == orbits[60] | orbits[75]


def _equivariance_misses(geo, group, tags):
    """The (generator, point) with tag(g.p) != g.tag(p), g acting on the 60
    pairs and the 25 24-cells through `symmetry`'s actions."""
    misses = []
    for m, (g, perm) in enumerate(zip(group.generators, _point_perms(geo, group))):
        pairs = group._pair_action(g.perm)
        acts = {"vertex": pairs, "cell": group._on_cells(pairs)}
        misses += [(m, k) for k, (kind, ref) in enumerate(tags) if tags[perm[k]] != (kind, acts[kind][ref])]
    return misses


def test_tags_are_equivariant_and_a_cell_tag_swap_breaks_it(geo, group):
    """For each generator g and point p, tag(g.p) = g.tag(p); with two cell
    tags swapped it fails."""
    assert _equivariance_misses(geo, group, geo.tags) == []
    tags = list(geo.tags)
    i, j = [k for k, (kind, _) in enumerate(tags) if kind == "cell"][:2]
    tags[i], tags[j] = tags[j], tags[i]
    assert _equivariance_misses(geo, group, tags) != []


def test_action_mod2_checks_every_root(geo, group):
    """Two roots' images swapped, both outside the basis and off the every-7th
    sample the check once used: the induced matrix is unchanged, and the check
    on the first of the two raises."""
    g = group.generators[0]
    basis, images = set(geo.e8.basis_vids), {g.perm[v] for v in geo.e8.basis_vids}
    i, j = [k for k in range(120) if k % 7 and k not in basis and k not in images][:2]
    perm = list(g.perm)
    perm[i], perm[j] = perm[j], perm[i]
    bad = SymOp(tuple(perm), g.parity)
    with pytest.raises(ValueError, match=f"induced matrix does not map root {i} to its image"):
        geo.action_mod2(bad)


def test_action_mod2_raises_on_a_matrix_that_does_not_preserve_the_gram_matrix(monkeypatch, geo, group):
    """(R G) R^T with R = 2 I is 4 G, not G."""
    double = tuple(tuple(2 * (i == j) for j in range(8)) for i in range(8))
    monkeypatch.setattr(geo, "_induced", lambda images, what: double)
    with pytest.raises(ValueError, match="action does not preserve the Gram matrix"):
        geo.action_mod2(group.generators[0])


def _fold_table(matrix):
    """The per-class fold that `_table(_bitrows(matrix))` replaced: for each
    of the 256 classes x, the xor of the rows of matrix mod 2 over the set
    bits of x."""
    rows = [sum((matrix[i][j] & 1) << j for j in range(8)) for i in range(8)]
    out = []
    for x in range(256):
        acc = 0
        for i in range(8):
            if x >> i & 1:
                acc ^= rows[i]
        out.append(acc)
    return tuple(out)


def test_table_matches_the_per_class_fold(geo, group):
    """On all 256 classes, for the Gram matrix, phi and one generator's action;
    and the class of each root, one row of its coordinates."""
    g = group.generators[0]
    action_rows = geo._induced([geo.root_coords[j] for j in g.perm], "induced")
    for matrix, table in ((geo.e8.gram, geo.rowvec), (geo.phi.rows, geo.phi.table),
                          (action_rows, geo.action_mod2(g))):
        assert mod2._table(mod2._bitrows(matrix)) == table == _fold_table(matrix)
    for coords, classes in ((geo.root_coords, geo.class_of_h), (geo.phi_coords, geo.class_of_phi_h)):
        assert classes == tuple(sum((c[i] & 1) << i for i in range(8)) for c in coords)


def test_line_members_match_the_tag_comprehensions(geo):
    """`line_info`, built once, against each line's members and type
    recomputed from the tags, on all 357 lines; its named fields are read
    directly, `line_census` reads it, and the census keeps its counts."""
    assert len(geo.lines) == 357 and list(geo.line_info) == list(geo.lines)
    types = {5: "pentagon", 4: "cell16", 3: "triangle", 0: "partition"}
    census = Counter()
    for line in geo.lines:
        vs = tuple(sorted(geo.tags[p][1] for p in line if geo.tags[p][0] == "vertex"))
        cs = tuple(sorted(geo.tags[p][1] for p in line if geo.tags[p][0] == "cell"))
        info = geo.line_info[line]
        assert info == (vs, cs, types[len(vs)])
        assert (info.vertex_pairs, info.cells, info.type) == (vs, cs, types[len(vs)])
        census[types[len(vs)]] += 1
    assert geo.line_census == census == {"partition": 10, "pentagon": 72, "cell16": 75, "triangle": 200}


def test_isotropic_4spaces_count(geo):
    spaces = geo.isotropic4
    assert len(spaces) == 270
    for s in spaces[::31]:
        assert len(s) == 15
        assert all(geo.q[x] == 0 for x in s)
        for a, b in combinations(sorted(s)[:5], 2):
            assert bform(geo, a, b) == 0


def _isotropic4_by_scan(geo):
    """Level-by-level growth that scans each partial space for perpendicularity:
    the oracle for the mask-based `isotropic4`."""
    iso = [x for x in range(1, 256) if geo.q[x] == 0]
    level = {frozenset((x,)) for x in iso}
    for _ in range(3):
        nxt = set()
        for space in level:
            for x in iso:
                if x in space:
                    continue
                if any(bform(geo, x, s) for s in space):
                    continue
                nxt.add(space | {x} | {x ^ s for s in space})
        level = nxt
    return tuple(sorted(level, key=lambda s: tuple(sorted(s))))


def test_isotropic4_matches_the_scanning_oracle(geo):
    assert geo.isotropic4 == _isotropic4_by_scan(geo)


def test_figure1(geo):
    assert geo.figure1_check()


def _partition_space_by_span(geo, part_idx):
    """The oracle `_partition_space` replaced: the vectors of the partition's
    five cell points, checked to be 15 and closed under addition."""
    space = frozenset().union(*(geo.points[geo.point_of_cell[c]] for c in geo.cell.partitions[part_idx]))
    span = {0}
    for v in space:
        span |= {v ^ s for s in span}
    assert len(space) == 15 and span - {0} == space
    return space


def test_partition_spaces_match_the_span_oracle(geo):
    spaces = geo.pentad_rows + geo.pentad_cols
    assert spaces == tuple(_partition_space_by_span(geo, k) for k in range(10))
    assert set(spaces) <= set(geo.isotropic4)


def test_partition_space_raises_when_a_cell_point_is_a_vertex_point(monkeypatch, geo):
    """One 24-cell of partition 0 sent to the point of pair 0: the five
    points no longer give a totally singular 4-space, and s5/spaces names
    the partition."""
    fresh = mod2.F4Geometry(geo.e8)
    c = min(geo.cell.partitions[0])
    fresh.point_of_cell = {**geo.point_of_cell, c: geo.point_of_pair[0]}
    message = "partition 0 does not give a totally singular 4-space"
    with pytest.raises(ValueError, match=message):
        fresh._partition_space(0)
    monkeypatch.setattr(mod2, "f4_geometry", lambda: fresh)
    result = checks.run_check("s5/spaces")
    assert result.status == "fail"
    assert result.observed == {"error": f"ValueError: {message}"}


def test_pentads(geo):
    res = geo.pentad_completions(geo.pentad_rows[0], geo.pentad_rows[1])
    assert res["common_disjoint"] == 28
    assert res["completion_sizes"] == [5, 9]
    assert res["duad_graph"]


def test_orbit_classes(geo):
    cls = geo.orbit_class_analysis(geo.pentad_completions(geo.pentad_rows[0], geo.pentad_rows[1]))
    assert all(cls.values()), cls


def test_orbit_classes_hold_for_every_star(geo):
    """The analysis completes the two pentad rows with the first of the eight
    stars; each of the eight gives the same result."""
    res = geo.pentad_completions(geo.pentad_rows[0], geo.pentad_rows[1])
    assert len(res["stars"]) == 8
    for star in res["stars"]:
        cls = geo.orbit_class_analysis({**res, "stars": [star]})
        assert all(cls.values()), cls


def test_two_classes_intersection_dims(geo):
    spaces = geo.isotropic4
    for u in spaces[::7]:
        for w in spaces[::11]:
            if u == w:
                continue
            assert len(u & w) in (0, 1, 3, 7)
