import copy
import json
import random
import subprocess
import sys
from functools import cache
from math import gcd
from operator import itemgetter

import pytest

from h4geom import checks, icosian, symmetry
from h4geom.icosian import (
    GENERATORS, ICOSIAN_ONE, flat_dot, generate_vertices, inverse_index, mult_table, neg, scaled,
)
from h4geom.polytopes import closure
from h4geom.symmetry import (
    SymmetryGroup,
    SymOp,
    _basis_indices,
    _op_from_perm,
    _set_action,
    left_mul,
    reflection,
    right_mul,
)

from golden_oracle import (
    BASIS, GoldenInt, GoldenRational, apply_matrix, matrix_left_mul, matrix_reflection, matrix_right_mul,
    op_from_matrix, parity_by_inversions,
)


def identity_op():
    return op_from_matrix([scaled((2, 0), e) for e in BASIS], 2)


def negation_op():
    return op_from_matrix([scaled((-2, 0), e) for e in BASIS], 2)


def pair_perm(group, op):
    """The permutation of the 60 pairs induced by op's vertex permutation."""
    return group._pair_action(op.perm)


@cache
def _read_key(perm):
    """(d, A, B) of the isometry permuting the vertices by perm: column c of
    A + B*phi is the image of 2e_c over d = 2, then reduced by the common gcd.
    The matrix oracle for the permutation group."""
    verts = generate_vertices()
    cols = [verts[perm[b]] for b in _basis_indices()]
    anum = tuple(col[2 * r] for r in range(4) for col in cols)
    bnum = tuple(col[2 * r + 1] for r in range(4) for col in cols)
    return _reduced(anum, bnum, 2)


def matrix(op):
    """The exact matrix of op, entries (A + B*phi)/d."""
    den, anum, bnum = _read_key(op.perm)
    return tuple(
        tuple(GoldenRational(GoldenInt(anum[4 * r + c], bnum[4 * r + c]), den) for c in range(4))
        for r in range(4)
    )


def apply_vec(op, v):
    den, anum, bnum = _read_key(op.perm)
    return apply_matrix(anum, bnum, den, v)


def ten_perm(group, op):
    """The permutation of the ten partitions (symbols 1..5, 6..X) induced by
    op; raises KeyError if an image is not a partition."""
    return _set_action(group.cell.partitions)(group._on_cells(pair_perm(group, op)))


def _reduced(anum, bnum, den):
    """The key (d, A, B) of (A + B*phi)/d with the common gcd divided out."""
    g = gcd(den, *anum, *bnum)
    return den // g, tuple(x // g for x in anum), tuple(x // g for x in bnum)


def compose(a, b):
    """a after b: the product of the vertex permutations, whose matrix must be
    the product of the exact matrices."""
    aden, aa, ab = _read_key(a.perm)
    bden, ba, bb = _read_key(b.perm)
    anum = [0] * 16
    bnum = [0] * 16
    for r in range(4):
        for c in range(4):
            sa = sb = 0
            for k in range(4):
                x, y = aa[4 * r + k], ab[4 * r + k]
                u, v = ba[4 * k + c], bb[4 * k + c]
                yv = y * v
                sa += x * u + yv
                sb += x * v + y * u + yv
            anum[4 * r + c] = sa
            bnum[4 * r + c] = sb
    op = SymOp(tuple(a.perm[i] for i in b.perm), a.parity * b.parity)
    assert _read_key(op.perm) == _reduced(anum, bnum, aden * bden)
    return op


def test_reflection_basics(cell):
    v = cell.vertices[3]
    r = reflection(v)
    assert r.parity == -1
    assert apply_vec(r, v) == neg(v)
    assert compose(r, r) == identity_op()


def test_reflection_matrix_is_exact(cell):
    v = cell.vertices[10]
    r = reflection(v)
    m = matrix(r)
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
        tp = ten_perm(group, r)
        expected = list(range(10))
        for row, col in cell.labels[pid]:
            a, b = row - 1, col - 6 + 5
            expected[a], expected[b] = b, a
        assert list(tp) == expected


def test_group_orders(cell, group):
    assert len(group.ops) == 14400
    assert group.rotation_count == 7200
    v = cell.index[ICOSIAN_ONE]
    assert len(group.stabilizer_of_vertex(v)) == 120
    assert len(group.stabilizer_of_cell(cell.array[0][0])) == 576


def test_center_is_plus_minus_identity(group):
    centre = {group.ops[k] for k in group.center}
    assert centre == {identity_op(), negation_op()}


def test_generators_are_the_multiplications_by_the_certified_pair(cell, group):
    """The search `_make_generators` replaced asked of its pair only that it
    generate 2I.  The pair a, b of `icosian.GENERATORS` does, by a closure of
    its own, and the five generators are x -> a*x, x -> b*x, x -> x*a,
    x -> x*b and x -> -conj(x), with the parities of their vertex permutations."""
    a, b = GENERATORS
    rows = [mult_table()[cell.index[g]] for g in (a, b)]
    assert closure(rows, [cell.index[ICOSIAN_ONE]]) == [frozenset(range(cell.n))]
    expected = (left_mul(a), left_mul(b), right_mul(a), right_mul(b), reflection(ICOSIAN_ONE))
    assert [(g.perm, g.parity) for g in group.generators] == [(g.perm, g.parity) for g in expected]
    assert [g.parity for g in expected] == [1, 1, 1, 1, -1]
    assert group.generators[4].perm == tuple(cell.neg[x] for x in inverse_index())


def test_constructors_match_the_matrix_oracle_on_every_vertex(cell):
    """left_mul, right_mul and reflection, read off the Cayley table, against
    the exact matrices applied to all 120 vertices: 360 permutations and parities."""
    pairs = ((left_mul, matrix_left_mul), (right_mul, matrix_right_mul), (reflection, matrix_reflection))
    for v in cell.vertices:
        for got, oracle in pairs:
            op, expected = got(v), oracle(v)
            assert (op.perm, op.parity) == (expected.perm, expected.parity), (got.__name__, v)


def test_op_from_perm_raises_unless_the_basis_images_have_gram_4I(cell):
    """Two basis vertices sent to one image meet in 4, not 0; 2e_1 sent to
    the vertex (1, 1, 1, 1) meets 2e_0 in 2."""
    b0, b1 = _basis_indices()[:2]
    perm = list(range(cell.n))
    perm[b1] = b0
    with pytest.raises(ValueError, match=r"^the images of 2e_0 and 2e_1 have inner product 4\+0φ, not 0$"):
        _op_from_perm(tuple(perm))
    perm = list(range(cell.n))
    perm[b1] = cell.index[(1, 0, 1, 0, 1, 0, 1, 0)]
    with pytest.raises(ValueError, match=r"^the images of 2e_0 and 2e_1 have inner product 2\+0φ, not 0$"):
        _op_from_perm(tuple(perm))


def test_vertex_permutation_parity_is_the_determinant_sign_on_all_elements(cell, group):
    """The parity `_op_from_perm` reads off the vertex permutation: every one
    of the 7,200 rotations permutes the 120 vertices evenly and every
    reflection oddly, by `perm_parity`'s cycle count and by the oracle's
    pairwise inversions alike; x -> -conj(x) fixes the 30 vertices of real
    part 0 and swaps 45 pairs."""
    ops = group.ops[:]
    assert len(ops) == 14400
    assert all(
        icosian.perm_parity(op.perm) == parity_by_inversions(op.perm) == (op.parity == -1) for op in ops
    )
    flip = group.generators[4].perm
    fixed = [i for i in range(cell.n) if flip[i] == i]
    assert len(fixed) == 30 and all(cell.vertices[i][:2] == (0, 0) for i in fixed)
    assert all(flip[flip[i]] == i for i in range(cell.n))
    gens = group.generators
    assert [g.parity for g in gens] == [1 - 2 * icosian.perm_parity(g.perm) for g in gens] == [1, 1, 1, 1, -1]


def test_left_right_mul_are_rotations_fixing_products(cell):
    g = cell.vertices[cell.gpow[1]]
    lv, rv = left_mul(g), right_mul(g)
    assert lv.parity == 1 and rv.parity == 1
    sample = cell.vertices[::13]
    for u in sample:
        for w in sample:
            assert flat_dot(apply_vec(lv, u), apply_vec(lv, w)) == flat_dot(u, w)


def test_right_mul_action_follows_label(cell, group):
    """Right multiplication by v fixes the row symbols and sends column
    symbol 6 to j1, 7 to j2, ... read off v's label."""
    for i in (0, 25, 77):
        v = cell.vertices[i]
        lab = cell.labels[cell.pair_of[i]]
        tp = ten_perm(group, right_mul(v))
        assert all(tp[k] == k for k in range(5))
        for row, col in lab:
            assert tp[5 + row - 1] == 5 + col - 6
    for i in (4, 30):
        v = cell.vertices[i]
        lab = cell.labels[cell.pair_of[i]]
        by_col = sorted(lab, key=lambda d: d[1])
        tp = ten_perm(group, left_mul(v))
        assert all(tp[k] == k for k in range(5, 10))
        for row, col in by_col:
            assert tp[col - 6] == row - 1


def test_action_is_a_homomorphism(group):
    rng = random.Random(0)
    ops = group.ops
    for _ in range(25):
        a = ops[rng.randrange(len(ops))]
        b = ops[rng.randrange(len(ops))]
        ta, tb = ten_perm(group, a), ten_perm(group, b)
        tab = ten_perm(group, compose(a, b))
        assert tab == tuple(ta[tb[k]] for k in range(10))


def test_kernel_and_pentad_behaviour(group):
    assert len(group.ten_kernel) == 2
    rows = set(range(5))
    for k in range(0, len(group.ops), 37):
        op = group.ops[k]
        img = {group.ten_perms[k][i] for i in rows}
        assert img == (rows if op.parity == 1 else set(range(5, 10)))


def _pentads_by_parity(group):
    """The per-element pentad loop: True when every rotation keeps the five rows
    and every reflection sends them to the five columns."""
    rows, cols = set(range(5)), set(range(5, 10))
    for k, op in enumerate(group.ops):
        tp = group.ten_perms[k]
        img = {tp[i] for i in rows}
        if op.parity == 1 and img != rows:
            return False
        if op.parity == -1 and img != cols:
            return False
    return True


def test_factor_table_queries_match_the_composed_permutations(group):
    """Stabilizers of all 25 24-cells, the kernel on the ten partitions and the
    row images, read off the factor tables, against the 14,400 composed
    permutations."""
    for c in range(25):
        assert group.stabilizer_of_cell(c) == tuple(
            k for k, cp in enumerate(group.cell_perms) if cp[c] == c
        )
    idt = tuple(range(10))
    assert group.ten_kernel == tuple(k for k, tp in enumerate(group.ten_perms) if tp == idt)
    assert group.row_images == tuple(sum(1 << tp[i] for i in range(5)) for tp in group.ten_perms)
    rows, cols = 0b11111, 0b11111 << 5
    verdict = all(img == (rows if op.parity == 1 else cols) for op, img in zip(group.ops, group.row_images))
    assert verdict is _pentads_by_parity(group) is True
    assert group.cell_perms_of(range(0, 14400, 7)) == group.cell_perms[::7]


def test_pair_perms_from_the_pair_tables_match_every_whole_permutation(group):
    """The pair permutations composed from the pair tables, against each of
    the 14,400 elements' whole vertex permutation projected onto the pairs."""
    pair_perms = group.pair_perms_of(range(14400))
    assert len(pair_perms) == 14400
    assert all(pp == pair_perm(group, op) for pp, op in zip(pair_perms, group.ops))


def test_a_corrupted_right_table_misleads_query_and_oracle_alike(group):
    """Two entries of one right cell table swapped: stabilizer_of_cell and the
    composed cell_perms both leave the truth, and in the same way."""
    left, right, conj = group._cell_tables
    r = group.cell.pairs[0][0]
    c, d = 0, next(x for x in range(1, 25) if right[r][x] != right[r][0])
    bad = list(right[r])
    bad[c], bad[d] = bad[d], bad[c]
    broken = copy.copy(group)
    broken.__dict__.pop("cell_perms", None)
    broken._cell_tables = (left, right[:r] + [tuple(bad)] + right[r + 1:], conj)
    for x in (c, d):
        truth = group.stabilizer_of_cell(x)
        query = broken.stabilizer_of_cell(x)
        assert query == tuple(k for k, cp in enumerate(broken.cell_perms) if cp[x] == x)
        assert query != truth


def test_every_op_permutes_all_subpolytope_families(cell, group):
    cells24 = {frozenset(c) for c in cell.cells24}
    cells16 = {frozenset(c) for c in cell.cells16}
    hexagons = set(cell.hexagon_list)
    decagons = set(cell.decagons)
    for op in group.ops:
        pp = pair_perm(group, op)
        for fam, members in (
            (cells24, cell.cells24),
            (cells16, [frozenset(c) for c in cell.cells16]),
            (hexagons, cell.hexagon_list),
            (decagons, cell.decagons),
        ):
            for s in members:
                assert frozenset(pp[p] for p in s) in fam


def test_vertex_stabilizer_orbits(cell, group):
    v = cell.index[ICOSIAN_ONE]
    pid = cell.pair_of[v]
    stab = group.stabilizer_of_vertex(v)
    assert len(stab) == 120
    perms = [pair_perm(group, group.ops[k]) for k in stab]
    orbits = closure(perms, range(60))
    by_class = {}
    for orb in orbits:
        classes = {cell.pair_class[pid][q] for q in orb}
        assert len(classes) == 1
        by_class.setdefault(classes.pop(), []).append(len(orb))
    assert by_class == {"2": [1], "0": [15], "1": [20], "phi": [12], "phi-inv": [12]}


def test_minus_reflection_is_central_in_vertex_stabilizer(cell, group):
    v_idx = cell.index[ICOSIAN_ONE]
    v = cell.vertices[v_idx]
    mr = compose(negation_op(), reflection(v))
    assert mr.perm[v_idx] == v_idx
    assert compose(mr, mr) == identity_op()
    stab = [group.ops[k] for k in group.stabilizer_of_vertex(v_idx)]
    assert mr in stab
    for op in stab:
        assert compose(op, mr).perm == compose(mr, op).perm


def test_cell_stabilizer_orbits(cell, group):
    c0 = cell.array[0][0]
    stab = group.stabilizer_of_cell(c0)
    assert len(stab) == 576
    cperms = [group.cell_perms[k] for k in stab]
    assert sorted(len(o) for o in closure(cperms, range(25))) == [1, 8, 16]
    pperms = [pair_perm(group, group.ops[k]) for k in stab]
    assert sorted(len(o) for o in closure(pperms, range(60))) == [12, 48]
    # transitivity on the 16 non-disjoint 24-cells is the size-16 orbit
    nondisjoint = {
        b for b in range(25)
        if b != c0 and not (cell.disjointness_mask[c0] >> b & 1)
    }
    assert nondisjoint in [set(o) for o in closure(cperms, range(25))]


def test_identity_fixes_the_ten_partitions(group):
    assert ten_perm(group, identity_op()) == tuple(range(10))


def test_ten_perms_match_the_frozenset_images_on_all_elements(group):
    """The mask lookup against set images of each partition, on all 14,400 elements."""
    index = {p: k for k, p in enumerate(group.cell.partitions)}
    parts = group.cell.partitions
    assert len(group.ten_perms) == 14400
    for op, cp, tp in zip(group.ops, group.cell_perms, group.ten_perms):
        assert tp == tuple(index[frozenset(cp[c] for c in part)] for part in parts)
        assert ten_perm(group, op) == tp


def test_ten_perm_raises_on_an_image_that_is_not_a_partition(group):
    array = group.cell.array
    cp = list(range(25))
    cp[array[0][0]], cp[array[1][1]] = array[1][1], array[0][0]
    broken = copy.copy(group)
    broken._on_cells = lambda pairs: tuple(cp)
    with pytest.raises(KeyError):
        ten_perm(broken, identity_op())


def _matrix_closure(generators):
    """The closure over exact matrices, keyed on _read_key: the oracle for
    the permutation closure."""
    els = {_read_key(g.perm): g for g in generators}
    frontier = list(els.values())
    while frontier:
        new = []
        for x in frontier:
            for g in generators:
                y = compose(g, x)
                key = _read_key(y.perm)
                if key not in els:
                    els[key] = y
                    new.append(y)
                    assert len(els) <= 14400
        frontier = new
    return sorted(els.values(), key=lambda op: _read_key(op.perm))


def test_permutation_closure_matches_matrix_closure(group):
    """Same key, parity and vertex permutation for all 14,400 elements, both sides sorted by key."""
    oracle = _matrix_closure(group.generators)
    assert len(oracle) == 14400
    assert sorted((_read_key(op.perm), op.parity, op.perm) for op in group.ops) == [
        (_read_key(op.perm), op.parity, op.perm) for op in oracle
    ]


def _breadth_first_closure(group):
    """The closure over (vertex permutation, parity) pairs from the five
    generators, each matrix read off the images of 2e_0..2e_3: the oracle for
    the listing from the Cayley table."""
    gens = [(g.perm, g.parity) for g in group.generators]
    els = dict(gens)
    frontier = list(els.items())
    while frontier:
        new = []
        for perm, parity in frontier:
            after = itemgetter(*perm)
            for gperm, gparity in gens:
                q = after(gperm)
                if q not in els:
                    els[q] = gparity * parity
                    new.append((q, els[q]))
                    assert len(els) <= 14400
        frontier = new
    cell = group.cell
    basis = [cell.index[tuple(2 if k == 2 * c else 0 for k in range(8))] for c in range(4)]
    ops = []
    for perm, parity in els.items():
        cols = [cell.vertices[perm[b]] for b in basis]
        anum = [col[2 * r] for r in range(4) for col in cols]
        bnum = [col[2 * r + 1] for r in range(4) for col in cols]
        ops.append((_reduced(anum, bnum, 2), parity, perm))
    return sorted(ops)


def test_listing_matches_the_breadth_first_closure(group):
    """Same key, parity and vertex permutation for all 14,400 elements, both sides sorted by key."""
    oracle = _breadth_first_closure(group)
    assert len(oracle) == 14400
    assert sorted((_read_key(op.perm), op.parity, op.perm) for op in group.ops) == oracle


def test_cell_and_ten_perms_match_set_images_on_all_elements(cell, group):
    """The composed left/right/conjugation tables against the images of each
    24-cell's 24 vertices and of each partition, on all 14,400 elements."""
    cell_verts = [frozenset(v for p in c for v in cell.pairs[p]) for c in cell.cells24]
    cell_index = {c: k for k, c in enumerate(cell_verts)}
    part_index = {p: k for k, p in enumerate(cell.partitions)}
    assert len(group.cell_perms) == len(group.ten_perms) == 14400
    images = [itemgetter(*c) for c in cell_verts]  # images[k](perm): where cell k's vertices go
    for op, cp, tp in zip(group.ops, group.cell_perms, group.ten_perms):
        assert cp == tuple(cell_index[frozenset(image(op.perm))] for image in images)
        assert tp == tuple(part_index[frozenset(cp[c] for c in part)] for part in cell.partitions)


def _eager_images(cell, group):
    """The four columns of every element's images of 2e_0..2e_3, read off the eager listing."""
    basis = [cell.index[tuple(2 if k == 2 * c else 0 for k in range(8))] for c in range(4)]
    return tuple(zip(*(itemgetter(*basis)(op.perm) for op in _eager_listing(group))))


def _factors(cell):
    """The l, r and e of every element in listing order, one block of the 120
    pairs (r, e) for each l, r the first icosian of each +-pair: the oracle
    for `SymmetryGroup.triple`."""
    block = [(r, e) for r, _ in cell.pairs for e in (0, 1)]
    return tuple(zip(*((l, r, e) for l in range(cell.n) for r, e in block)))


def test_triples_match_the_listing_order_on_all_elements(cell, group):
    assert [group.triple(k) for k in range(len(group.ops))] == list(zip(*_factors(cell)))


def _stored_lengths(value):
    """The length of value and of every tuple or list nested in it, for a tuple or list."""
    if isinstance(value, (tuple, list)):
        yield len(value)
        for item in value:
            yield from _stored_lengths(item)


def test_a_fresh_group_stores_no_listing(cell):
    """Right after construction no attribute holds a 14,400-entry sequence:
    each element's (l, r, e) is read off its index, and `ops` composes on
    read.  (`row_images` and `cell_perms` are cached later, on purpose.)"""
    fresh = SymmetryGroup(cell)
    assert max(n for value in vars(fresh).values() for n in _stored_lengths(value)) < 14400


def _per_element_images_of(group, tables, x):
    """The per-element loop that the row-at-a-time `_images_of` replaced."""
    left, right, conj = tables
    xs = (x, conj[x])
    return [left[l][right[r][xs[e]]] for l, r, e in zip(*_factors(group.cell))]


def _entry_by_entry_project(tables, act):
    """The projection that the generator walk replaced: act on every row."""
    left, right, conj = tables
    return [act(p) for p in left], [act(p) for p in right], act(conj)


def _dict_lookup_certify(group, images):
    """The certificate that the row-at-a-time `_certify` replaced: each
    generator's images of every element named by a dict lookup, and the named
    element's triple compared as (pair of l, l*r, e) with the triple formulas."""
    table, conj = mult_table(), itemgetter(*inverse_index())
    ls, rs, es = _factors(group.cell)
    index = {key: k for k, key in enumerate(zip(*images))}
    if len(index) != len(es):
        raise ValueError(f"only {len(index)} of the {len(es)} listed elements are distinct")
    products = tuple(table[l][r] for l, r in zip(ls, rs))
    classes = (itemgetter(*ls)(group.cell.pair_of), products, es)
    for m, g in enumerate(group.generators):
        k = index.get(tuple(g.perm[b] for b in _basis_indices()))
        if k is None or (op := group.ops[k]).perm != g.perm or op.parity != g.parity:
            raise ValueError(f"generator {m} is not in the listing")
        left = conj(table[ls[k]]) if es[k] else table[ls[k]]
        right = tuple(row[rs[k]] for row in table)
        expected = (
            itemgetter(*(rs if es[k] else ls))(itemgetter(*left)(group.cell.pair_of)),
            itemgetter(*itemgetter(*products)(left))(right),
            tuple(1 - e for e in es) if es[k] else es,
        )
        named = list(map(index.get, zip(*(itemgetter(*column)(g.perm) for column in images))))
        if None in named or expected != tuple(itemgetter(*named)(c) for c in classes):
            raise ValueError(f"the listing is not closed under generator {m}")


def test_walked_projections_match_the_entry_by_entry_oracle(group):
    """All 241 rows (120 left, 120 right and conj) of the pair, 24-cell and
    partition tables, each projected from the oracle's own parent tables."""
    pair = _entry_by_entry_project(group._vertex_tables, group._pair_action)
    cell = _entry_by_entry_project(pair, group._on_cells)
    ten = _entry_by_entry_project(cell, _set_action(group.cell.partitions))
    for oracle, got in ((pair, group._pair_tables), (cell, group._cell_tables), (ten, group._ten_tables)):
        assert len(oracle[0]) + len(oracle[1]) + 1 == 241
        assert oracle == got


def test_the_projections_and_the_cayley_table_share_one_walk(monkeypatch, cell):
    """A fresh group builds its pair, 24-cell and partition tables with six
    calls of `icosian.generator_walk`, and `mult_table` with one more."""
    calls = 0
    walk = icosian.generator_walk

    def counting(rows, product):
        nonlocal calls
        calls += 1
        return walk(rows, product)

    monkeypatch.setattr(symmetry, "generator_walk", counting)
    monkeypatch.setattr(icosian, "generator_walk", counting)
    fresh = SymmetryGroup(cell)
    fresh._ten_tables
    assert calls == 6
    assert mult_table.__wrapped__() == mult_table()
    assert calls == 7


@pytest.mark.parametrize("kind", ["_vertex_tables", "_pair_tables", "_cell_tables", "_ten_tables"])
def test_row_images_match_the_per_element_oracle_on_every_point(group, kind):
    tables = getattr(group, kind)
    for x in range(len(tables[2])):
        assert list(group._images_of(tables, x)) == _per_element_images_of(group, tables, x)


def _faulty_images(cell, group):
    """Three faults in the images of 2e_0..2e_3, each with the message it
    raises: two elements' images swapped; the images at block positions 2p
    and 2p + 1 exchanged in every row, so each generator's images sit at an
    element of the other parity; and row 0 given row -1's images."""
    images = _eager_images(cell, group)
    gens = {_eager_listing(group).index(g) for g in group.generators}
    i, j = [k for k in range(len(group.ops)) if k not in gens][:2]
    swapped = [list(column) for column in images]
    for column in swapped:
        column[i], column[j] = column[j], column[i]
    row = slice(cell.neg[0] * 120, cell.neg[0] * 120 + 120)
    return {
        "swapped images": (tuple(map(tuple, swapped)), "not closed under generator 0"),
        "exchanged e": (
            tuple(tuple(column[k ^ 1] for k in range(len(column))) for column in images),
            "generator 0 is not in the listing",
        ),
        "negated l": (
            tuple(column[row] + column[120:] for column in images),
            "only 14280 of the 14400 listed elements are distinct",
        ),
    }


@pytest.mark.parametrize("certify", ["rows", "dict lookup"])
def test_both_certificates_accept_the_listing_and_reject_three_faults(cell, group, certify):
    run = group._certify if certify == "rows" else lambda images: _dict_lookup_certify(group, images)
    run(_eager_images(cell, group))
    for images, message in _faulty_images(cell, group).values():
        with pytest.raises(ValueError, match=message):
            run(images)
    swap = list(range(120))
    swap[0], swap[1] = 1, 0  # not an isometry
    g = group.generators[0]
    broken = copy.copy(group)
    broken.generators = (SymOp(tuple(swap), g.parity),) + group.generators[1:]
    run = broken._certify if certify == "rows" else lambda images: _dict_lookup_certify(broken, images)
    with pytest.raises(ValueError, match="generator 0 is not in the listing"):
        run(_eager_images(cell, group))


@cache
def _eager_listing(group):
    """Every element's whole vertex permutation and parity, composed from the
    Cayley table in listing order (l, then r, then e): the oracle for the
    permutations that ops composes on read."""
    table, conj = mult_table(), itemgetter(*inverse_index())
    columns = tuple(zip(*table))  # columns[r][y] = index of y*r
    reps = tuple(r for r, _ in group.cell.pairs)
    ops = []
    for row in table:
        left = itemgetter(*row)
        for r in reps:
            rot = left(columns[r])
            ops += (SymOp(rot, 1), SymOp(conj(rot), -1))
    return tuple(ops)


def test_ops_match_the_eager_listing_on_all_elements(group):
    """Permutation and parity of ops[k] for all 14,400 k, read one by one and
    by iteration, against the eager listing."""
    eager = _eager_listing(group)
    assert len(group.ops) == len(eager) == 14400
    for k, op in enumerate(eager):
        got = group.ops[k]
        assert (got.perm, got.parity) == (op.perm, op.parity)
    assert [(op.perm, op.parity) for op in group.ops] == [(op.perm, op.parity) for op in eager]
    assert group.ops[-1].perm == eager[-1].perm
    with pytest.raises(IndexError):
        group.ops[14400]


@pytest.mark.parametrize(
    "s",
    [
        slice(0, 2), slice(None, None, -997), slice(-5, None),
        slice(10, 0, -3), slice(5, 5), slice(14390, 20000, 4),
    ],
)
def test_ops_slice_is_the_tuple_of_its_elements_composed_in_one_call(monkeypatch, group, s):
    ops = group.ops
    expected = tuple(ops[k] for k in range(len(ops))[s])
    calls = 0
    compose = group._compose

    def counting(tables, ks):
        nonlocal calls
        calls += 1
        return compose(tables, ks)

    monkeypatch.setattr(group, "_compose", counting)
    got = ops[s]
    assert calls == 1
    assert [(op.perm, op.parity) for op in got] == [(op.perm, op.parity) for op in expected]
    assert isinstance(got, tuple)


def test_vertex_stabilizers_match_the_eager_scan_on_all_vertices(group):
    eager = _eager_listing(group)
    for i in range(120):
        assert group.stabilizer_of_vertex(i) == tuple(k for k, op in enumerate(eager) if op.perm[i] == i)


def test_rotation_count_and_centre_match_the_eager_listing(group):
    eager = _eager_listing(group)
    assert group.rotation_count == sum(op.parity == 1 for op in eager)
    gens = [g.perm for g in group.generators]
    assert group.center == tuple(
        k for k, op in enumerate(eager)
        if all(op.perm[g[i]] == g[op.perm[i]] for g in gens for i in range(120))
    )


def _full_pass_center(group):
    """The centre that the survivor-only cuts replaced: one 14,400-element
    pass of `_images_of` per generator, each cut read at every element."""
    gens, tables = [g.perm for g in group.generators], group._vertex_tables
    at0 = group._images_of(tables, 0)
    ks = range(len(at0))
    for g in gens:
        at = group._images_of(tables, g[0])
        ks = [k for k in ks if at[k] == g[at0[k]]]
    survivors = zip(ks, group._compose(tables, ks))
    return tuple(k for k, p in survivors if all(p[g[i]] == g[p[i]] for g in gens for i in range(120)))


def test_center_matches_the_full_pass_oracle(group):
    """The group's own generators, and subsets of them whose centralizers are
    larger (the 120 right or left multiplications, and what commutes with
    conjugation), so the later cuts keep many survivors."""
    assert group.center == _full_pass_center(group) == (0, 14280)
    for gens in (group.generators[:2], group.generators[2:4], group.generators[4:]):
        fewer = copy.copy(group)
        fewer.__dict__.pop("center", None)
        fewer.generators = gens
        assert fewer.center == _full_pass_center(fewer)
        assert len(fewer.center) > 2


def test_verify_composes_few_whole_permutations(monkeypatch, cell):
    """All 26 checks on a freshly built group read at most seven elements'
    whole permutations: the two kernel elements and the five generators.
    facts/fact4 composes its stabilizers' pair permutations from the pair
    tables, not from the 14,400 or even the 696 stabilizer elements'."""
    reads = 0
    getitem = symmetry._Ops.__getitem__

    def counting(self, k):
        nonlocal reads
        reads += 1
        return getitem(self, k)

    monkeypatch.setattr(symmetry._Ops, "__getitem__", counting)
    fresh = SymmetryGroup(cell)
    monkeypatch.setattr(symmetry, "generate_group", lambda: fresh)
    results = [checks.run_check(c) for c in checks.CHECK_ORDER]
    assert len(results) == 26
    assert [r.check_id for r in results if r.status != "pass"] == []
    assert reads <= 7


_IDENTITY_CONJUGATION = """
import json
from h4geom import checks, symmetry

symmetry.inverse_index = lambda: tuple(range(120))
try:
    symmetry.generate_group()
    raised = None
except ValueError as exc:
    raised = str(exc)
result = checks.run_check("facts/fact3")
print(json.dumps([raised, result.status, result.observed]))
"""


def test_listing_with_reflections_repeating_rotations_fails_fact3_under_python_O():
    """With conjugation read as the identity every reflection repeats a
    rotation; the distinctness certificate raises, so -O cannot strip it."""
    out = subprocess.run(
        [sys.executable, "-O", "-c", _IDENTITY_CONJUGATION],
        capture_output=True,
        text=True,
        check=True,
    )
    raised, status, observed = json.loads(out.stdout.splitlines()[-1])
    message = "only 7200 of the 14400 listed elements are distinct"
    assert raised == message
    assert status == "fail"
    assert observed == {"error": f"ValueError: {message}"}
