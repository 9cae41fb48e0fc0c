from collections import Counter
from itertools import combinations

import pytest

from h4geom import checks, mod2
from h4geom.mod2 import F4_MUL, F4_TRACE, OMEGA, OMEGA_BAR, biadditive
from h4geom.symmetry import SymOp


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
        assert geo.bform(x, x) == 0
    for x in range(1, 256):
        assert any(geo.bform(x, y) for y in range(1, 256))


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
            assert geo.q[x ^ y] == geo.q[x] ^ geo.q[y] ^ geo.bform(x, y)


def test_phi_map_properties(geo):
    phi = geo.phi
    t = phi.table
    assert tuple(t[t[t[x]]] for x in range(256)) == tuple(range(256))
    for x in range(1, 256):
        assert t[x] != x
    # self-adjoint for B (replaces the false "isometry" claim; see ledger)
    for x in range(0, 256, 3):
        for y in range(256):
            assert geo.bform(t[x], y) == geo.bform(x, t[y])


def test_perp_matches_bform_on_all_pairs(geo):
    for x in range(256):
        assert [geo.perp[x] >> y & 1 for y in range(256)] == [
            1 - geo.bform(x, y) for y in range(256)
        ]


def _self_adjoint_by_pairs(geo, t):
    """The 65,536-pair oracle for `F4Geometry.self_adjoint`."""
    return all(geo.bform(t[x], y) == geo.bform(x, t[y]) for x in range(256) for y in range(256))


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


def test_points_are_phibar_closed(geo):
    t = geo.phi.table
    for p in geo.points:
        assert {t[x] for x in p} == set(p)


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


def test_symmetry_action_commutes_with_phibar(geo, group):
    for g in group.generators:
        assert geo.commutes_with_phi(g)


def test_action_mod2_checks_every_root(geo, group):
    """Two roots' images swapped, both outside the basis and off the every-7th
    sample the check once used: the induced matrix is unchanged, and the check
    on the first of the two raises."""
    g = group.generators[0]
    basis, images = set(geo._basis_vids), {g.perm[v] for v in geo._basis_vids}
    i, j = [k for k in range(120) if k % 7 and k not in basis and k not in images][:2]
    perm = list(g.perm)
    perm[i], perm[j] = perm[j], perm[i]
    bad = SymOp(tuple(perm), g.parity)
    with pytest.raises(ValueError, match=f"induced matrix does not map root {i} to its image"):
        geo.action_mod2(bad)


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
    assert len(geo.lines) == 357
    for line in geo.lines:
        vs = sorted(geo.tags[p][1] for p in line if geo.tags[p][0] == "vertex")
        cs = sorted(geo.tags[p][1] for p in line if geo.tags[p][0] == "cell")
        assert geo.line_members(line) == (vs, cs)


def test_isotropic_4spaces_count(geo):
    spaces = geo.isotropic4
    assert len(spaces) == 270
    for s in spaces[::31]:
        assert len(s) == 15
        assert all(geo.q[x] == 0 for x in s)
        for a, b in combinations(sorted(s)[:5], 2):
            assert geo.bform(a, b) == 0


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
                if any(geo.bform(x, s) for s in space):
                    continue
                nxt.add(space | {x} | {x ^ s for s in space})
        level = nxt
    return tuple(sorted(level, key=lambda s: tuple(sorted(s))))


def test_isotropic4_matches_the_scanning_oracle(geo):
    assert geo.isotropic4 == _isotropic4_by_scan(geo)


def test_figure1(geo):
    assert geo.figure1_check()


def test_pentads(geo):
    res = geo.pentad_completions(geo.pentad_rows[0], geo.pentad_rows[1])
    assert res["common_disjoint"] == 28
    assert res["completion_sizes"] == [5, 9]
    assert res["duad_graph"]


def test_orbit_classes(geo):
    cls = geo.orbit_class_analysis()
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
