import copy
import random

import pytest

from h4geom.golden import GoldenRational
from h4geom.icosian import ICOSIAN_ONE
from h4geom.symmetry import (
    SymOp,
    identity_op,
    left_mul,
    negation_op,
    reflection,
    right_mul,
)


def test_reflection_basics(cell):
    v = cell.vertices[3]
    r = reflection(v)
    assert r.parity == -1
    assert r.apply_vec(v) == -v
    assert r.compose(r) == identity_op()


def test_reflection_matrix_is_exact(cell):
    v = cell.vertices[10]
    r = reflection(v)
    m = r.matrix()
    # preserves the inner product on a sample of basis pairs
    for i in range(4):
        for j in range(4):
            acc = GoldenRational(0)
            for k in range(4):
                acc = acc + m[k][i] * m[k][j]
            assert acc == GoldenRational(1 if i == j else 0)


def test_reflection_ten_perm_is_its_label(cell, group):
    for pid in (0, 17, 42):
        i, _ = cell.pairs[pid]
        r = reflection(cell.vertices[i])
        tp = group.ten_perm(r)
        expected = list(range(10))
        for row, col in cell.labels[pid]:
            a, b = row - 1, col - 6 + 5
            expected[a], expected[b] = b, a
        assert list(tp) == expected


def test_group_orders(cell, group):
    assert len(group.ops) == 14400
    assert group.rotation_count == 7200
    v = cell.index[ICOSIAN_ONE.flat]
    assert len(group.stabilizer_of_vertex(v)) == 120
    assert len(group.stabilizer_of_cell(cell.array[0][0])) == 576


def test_center_is_plus_minus_identity(group):
    centre = {group.ops[k] for k in group.center}
    assert centre == {identity_op(), negation_op()}


def test_left_right_mul_are_rotations_fixing_products(cell):
    g = cell.g
    lv, rv = left_mul(g), right_mul(g)
    assert lv.parity == 1 and rv.parity == 1
    sample = cell.vertices[::13]
    for u in sample:
        for w in sample:
            assert lv.apply_vec(u).dot(lv.apply_vec(w)) == u.dot(w)


def test_right_mul_action_follows_label(cell, group):
    """Right multiplication by v fixes the row symbols and sends column
    symbol 6 to j1, 7 to j2, ... read off v's label."""
    for i in (0, 25, 77):
        v = cell.vertices[i]
        lab = cell.labels[cell.pair_of[i]]
        tp = group.ten_perm(right_mul(v))
        assert all(tp[k] == k for k in range(5))
        for row, col in lab:
            assert tp[5 + row - 1] == 5 + col - 6
    for i in (4, 30):
        v = cell.vertices[i]
        lab = cell.labels[cell.pair_of[i]]
        by_col = sorted(lab, key=lambda d: d[1])
        tp = group.ten_perm(left_mul(v))
        assert all(tp[k] == k for k in range(5, 10))
        for row, col in by_col:
            assert tp[col - 6] == row - 1


def test_action_is_a_homomorphism(group):
    rng = random.Random(0)
    ops = group.ops
    for _ in range(25):
        a = ops[rng.randrange(len(ops))]
        b = ops[rng.randrange(len(ops))]
        ta, tb = group.ten_perm(a), group.ten_perm(b)
        tab = group.ten_perm(a.compose(b))
        assert tab == tuple(ta[tb[k]] for k in range(10))


def test_kernel_and_pentad_behaviour(group):
    assert len(group.ten_kernel) == 2
    rows = set(range(5))
    for k in range(0, len(group.ops), 37):
        op = group.ops[k]
        img = {group.ten_perms[k][i] for i in rows}
        assert img == (rows if op.parity == 1 else set(range(5, 10)))


def test_every_op_permutes_all_subpolytope_families(cell, group):
    cells24 = {frozenset(c) for c in cell.cells24}
    cells16 = {frozenset(c) for c in cell.cells16}
    hexagons = set(cell.hexagon_list)
    decagons = set(cell.decagons)
    for op in group.ops:
        pp = group.pair_perm(op)
        for fam, members in (
            (cells24, cell.cells24),
            (cells16, [frozenset(c) for c in cell.cells16]),
            (hexagons, cell.hexagon_list),
            (decagons, cell.decagons),
        ):
            for s in members:
                assert frozenset(pp[p] for p in s) in fam


def test_vertex_stabilizer_orbits(cell, group):
    v = cell.index[ICOSIAN_ONE.flat]
    pid = cell.pair_of[v]
    stab = group.stabilizer_of_vertex(v)
    assert len(stab) == 120
    perms = [group.pair_perm(group.ops[k]) for k in stab]
    orbits = group.orbits(perms, range(60))
    by_class = {}
    for orb in orbits:
        classes = {cell.pair_class[pid][q] for q in orb}
        assert len(classes) == 1
        by_class.setdefault(classes.pop(), []).append(len(orb))
    assert by_class == {"2": [1], "0": [15], "1": [20], "phi": [12], "phi-inv": [12]}


def test_minus_reflection_is_central_in_vertex_stabilizer(cell, group):
    v_idx = cell.index[ICOSIAN_ONE.flat]
    v = cell.vertices[v_idx]
    mr = negation_op().compose(reflection(v))
    assert mr.perm[v_idx] == v_idx
    assert mr.compose(mr) == identity_op()
    stab = [group.ops[k] for k in group.stabilizer_of_vertex(v_idx)]
    assert mr in stab
    for op in stab:
        assert op.compose(mr).perm == mr.compose(op).perm


def test_cell_stabilizer_orbits(cell, group):
    c0 = cell.array[0][0]
    stab = group.stabilizer_of_cell(c0)
    assert len(stab) == 576
    cperms = [group.cell_perms[k] for k in stab]
    assert sorted(len(o) for o in group.orbits(cperms, range(25))) == [1, 8, 16]
    pperms = [group.pair_perm(group.ops[k]) for k in stab]
    assert sorted(len(o) for o in group.orbits(pperms, range(60))) == [12, 48]
    # transitivity on the 16 non-disjoint 24-cells is the size-16 orbit
    nondisjoint = {
        b for b in range(25)
        if b != c0 and not (cell.disjointness_mask[c0] >> b & 1)
    }
    assert nondisjoint in [set(o) for o in group.orbits(cperms, range(25))]


def test_cell_perm_fast_path_matches_full_computation(group):
    for op in group.ops:
        assert group.cell_perm(op) == group.cell_perm_checked(op)


def test_identity_fixes_the_ten_partitions(group):
    assert group.ten_perm(identity_op()) == tuple(range(10))


def test_ten_perms_match_the_frozenset_images_on_all_elements(group):
    """The mask lookup against set images of each partition, on all 14,400 elements."""
    index = {p: k for k, p in enumerate(group.cell.partitions)}
    parts = group.cell.partitions
    assert len(group.ten_perms) == 14400
    for op, cp, tp in zip(group.ops, group.cell_perms, group.ten_perms):
        assert tp == tuple(index[frozenset(cp[c] for c in part)] for part in parts)
        assert group.ten_perm(op) == tp


def test_ten_perm_raises_on_an_image_that_is_not_a_partition(group):
    array = group.cell.array
    cp = list(range(25))
    cp[array[0][0]], cp[array[1][1]] = array[1][1], array[0][0]
    broken = copy.copy(group)
    broken.cell_perm = lambda op: tuple(cp)
    with pytest.raises(KeyError):
        broken.ten_perm(identity_op())


def _matrix_closure(generators):
    """The closure over exact matrices, keyed on SymOp.key: the oracle for
    the permutation closure."""
    els = {g.key(): g for g in generators}
    frontier = list(els.values())
    while frontier:
        new = []
        for x in frontier:
            for g in generators:
                y = g.compose(x)
                if y.key() not in els:
                    els[y.key()] = y
                    new.append(y)
                    assert len(els) <= 14400
        frontier = new
    return sorted(els.values(), key=SymOp.key)


def test_permutation_closure_matches_matrix_closure(group):
    """Same key, parity and vertex permutation for all 14,400 elements, in the same order."""
    oracle = _matrix_closure(group.generators)
    assert len(oracle) == 14400
    assert [(op.key(), op.parity, op.perm) for op in group.ops] == [
        (op.key(), op.parity, op.perm) for op in oracle
    ]


def test_cell_perms_raises_when_the_fast_path_disagrees(group):
    broken = copy.copy(group)
    broken.__dict__.pop("cell_perms", None)
    broken.cell_perm = lambda op: tuple(range(25))
    with pytest.raises(ValueError, match="fast path disagrees"):
        broken.cell_perms
