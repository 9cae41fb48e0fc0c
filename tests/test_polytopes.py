import copy
import re
from collections import Counter
from functools import cache, reduce
from itertools import combinations, permutations
from operator import and_, mul

import pytest

from h4geom import checks, mod2, polytopes
from h4geom.icosian import (
    ICOSIAN_ONE,
    conj,
    element_order_index,
    flat_dot,
    icosian_mul,
    inverse_index,
    mult_table,
    paper_dot,
    quat_mul,
)
from h4geom.polytopes import (
    _PP_KEYS, Cell120, Cell600, _coset_grid, bits, cliques, closure, label_str, perm_parity,
)

from golden_oracle import (
    GoldenInt, bron_kerbosch, cell24_base_by_shape, cells16_by_nested_loop, cells16_by_orthogonal_cliques,
    cells24_by_16cell_extension, coords, decagons_by_power_walk, edges_by_double_loop, five_cliques_by_dfs,
    golden_eliminate, golden_sign, hexagons_by_intersections, mulclose_by_right_products, orbits_by_search,
    parity_by_inversions, tetrahedra_by_edge_pairs, triangles_by_common_neighbours,
)

PHI_KEY = (0, 1)


def paper_inner_product(cell, i, j):
    a, b = flat_dot(cell.vertices[i], cell.vertices[j])
    return (a // 2, b // 2)


def pentagon_of_decagon(cell, d):
    """The representative pentagon containing the least vertex of the decagon."""
    verts = sorted(v for p in d for v in cell.pairs[p])
    v0 = verts[0]
    pent = [v0]
    for p in sorted(d):
        if p == cell.pair_of[v0]:
            continue
        w, wneg = cell.pairs[p]
        pent.append(w if cell.pp[v0][w] in ("phi-inv", "-phi") else wneg)
    assert all(cell.pp[a][b] in ("phi-inv", "-phi") for a, b in combinations(pent, 2))
    return tuple(sorted(pent))


def rectified_shape_census(cell):
    """How many rectified vertices have each multiset of absolute coordinates."""
    census = Counter()
    for w in cell.rectified:
        census[tuple(sorted((c if golden_sign(c) >= 0 else -c).key() for c in coords(w)))] += 1
    return census


def test_inner_product_values_and_distribution(cell):
    i0 = cell.index[ICOSIAN_ONE]
    assert paper_inner_product(cell, i0, i0) == (2, 0)
    dist = Counter(cell.pp[i0][j] for j in range(cell.n) if j != i0)
    assert dist == {
        "phi": 12, "-phi": 12, "phi-inv": 12, "-phi-inv": 12,
        "1": 20, "-1": 20, "0": 30, "-2": 1,
    }
    a = cell.index[(2, 0, 0, 0, 0, 0, 0, 0)]
    b = cell.index[(0, 0, 2, 0, 0, 0, 0, 0)]
    assert paper_inner_product(cell, a, b) == (0, 0)


def test_pp_from_the_cayley_table_matches_flat_dot_on_every_ordered_pair(cell):
    """The oracle: each of the 14,400 ordered pairs named from its flat dot
    product, halved to paper scale."""
    oracle = tuple(
        tuple(_PP_KEYS[a // 2, b // 2] for a, b in (flat_dot(u, v) for v in cell.vertices))
        for u in cell.vertices
    )
    assert cell.pp == oracle


def test_every_distinct_product_is_in_the_allowed_set(cell):
    allowed = {"0", "1", "-1", "phi", "-phi", "phi-inv", "-phi-inv"}
    for i in range(cell.n):
        for j in range(i + 1, cell.n):
            v = cell.pp[i][j]
            assert v in allowed or (v == "-2" and cell.neg[i] == j)


def test_skeleton_counts(cell):
    assert cell.skeleton_counts() == (720, 1200, 600)


def test_cliques_on_hand_graphs():
    """The empty graph on 3 vertices, K4 and the 5-cycle; then every graph
    on 5 vertices against the subsets that are cliques, and its maximal
    cliques against Bron–Kerbosch."""
    assert list(cliques((0, 0, 0))) == [(0,), (1,), (2,)]
    k4 = tuple(0b1111 ^ 1 << a for a in range(4))
    assert list(cliques(k4)) == sorted(c for r in range(1, 5) for c in combinations(range(4), r))
    assert len(list(cliques(k4))) == 15
    c5 = tuple(1 << (a + 1) % 5 | 1 << (a - 1) % 5 for a in range(5))
    assert list(cliques(c5)) == [
        (0,), (0, 1), (0, 4), (1,), (1, 2), (2,), (2, 3), (3,), (3, 4), (4,)
    ]
    edges = list(combinations(range(5), 2))
    for chosen in range(1 << len(edges)):
        adj = [0] * 5
        for k, (a, b) in enumerate(edges):
            if chosen >> k & 1:
                adj[a] |= 1 << b
                adj[b] |= 1 << a
        found = list(cliques(adj))
        assert found == sorted(
            c for r in range(1, 6) for c in combinations(range(5), r)
            if all(adj[a] >> b & 1 for a, b in combinations(c, 2))
        )
        maximal = [sum(1 << u for u in c) for c in found if not reduce(and_, (adj[u] for u in c))]
        assert sorted(maximal) == sorted(bron_kerbosch(adj))


def test_clique_properties_match_the_hand_written_searches(cell, geo):
    """Each search that `cliques` replaced, over the whole graph: the
    600-cell's skeleton on `adj`, the 16-cells on `pair_orth` and the ten
    partitions on `disjointness_mask`; and on the 28 common 4-spaces of
    pentad rows 0 and 1, Bron–Kerbosch's maximal cliques against the
    cliques with no common neighbour, which `pentad_completions` reads."""
    assert cell.edges == edges_by_double_loop(cell.adj)
    assert cell.triangles == triangles_by_common_neighbours(cell.adj)
    assert cell.tetra_cells == tetrahedra_by_edge_pairs(cell.adj)
    assert cell.cells16 == cells16_by_nested_loop(cell.pair_orth)
    assert cell.find_all_partitions() == five_cliques_by_dfs(cell.disjointness_mask)
    m12 = mod2._mask(geo.pentad_rows[0]) | mod2._mask(geo.pentad_rows[1])
    masks = [m for m in geo.isotropic4_masks if not m & m12]
    adj = [mod2._mask(j for j, w in enumerate(masks) if not m & w) for m in masks]  # m & m != 0
    assert len(adj) == 28
    maximal = [mod2._mask(c) for c in cliques(adj) if not reduce(and_, (adj[u] for u in c))]
    assert sorted(maximal) == sorted(bron_kerbosch(adj))
    res = geo.pentad_completions(geo.pentad_rows[0], geo.pentad_rows[1])
    assert res["completion_sizes"] == sorted({c.bit_count() + 2 for c in maximal}) == [5, 9]
    spaces = [s for s in geo.isotropic4 if not mod2._mask(s) & m12]
    stars = sorted(({spaces[i] for i in bits(c)} for c in maximal if c.bit_count() == 7),
                   key=lambda star: sorted(tuple(sorted(u)) for u in star))
    assert res["stars"] == stars and len(stars) == 8


def test_16cells(cell):
    cs = cell.cells16
    assert len(cs) == 75
    assert all(len(c) == 4 for c in cs)
    orth_pairs = sum(m.bit_count() for m in cell.pair_orth) // 2
    assert orth_pairs == 450
    membership = Counter()
    for c in cs:
        for p, q in combinations(c, 2):
            membership[(p, q)] += 1
    assert len(membership) == 450 and set(membership.values()) == {1}


def test_24cells_and_8cells(cell):
    assert len(cell.cells24) == 25
    assert all(len(c) == 12 for c in cell.cells24)
    assert len(cell.cells8) == 75
    assert all(len(c) == 8 for c in cell.cells8)
    # each 16-cell and 8-cell lies in exactly one 24-cell
    for small in cell.cells16:
        assert sum(1 for big in cell.cells24 if set(small) <= big) == 1
    for small in cell.cells8:
        assert sum(1 for big in cell.cells24 if small <= big) == 1


def test_axis_16cell_extends_by_half_integer_vertices(cell):
    axis_pids = sorted(
        cell.pair_of[i]
        for i, v in enumerate(cell.vertices)
        if sorted((abs(c.a), abs(c.b)) for c in coords(v)) == [(0, 0), (0, 0), (0, 0), (2, 0)]
    )
    tetrad = tuple(sorted(set(axis_pids)))
    assert tetrad in cell.cells16
    big = cell.cells24[cell.cell16_ambient[tetrad]]
    added = big - set(tetrad)
    for p in added:
        v = cell.vertices[cell.pairs[p][0]]
        assert all((abs(c.a), abs(c.b)) == (1, 0) for c in coords(v))


def _tetrads_by_orthogonality(cell, big):
    """The split `tetrads24` replaced: the least unused pair of the 24-cell
    with the pairs of the 24-cell orthogonal to it, until none is left."""
    groups, unused = [], set(big)
    while unused:
        p = min(unused)
        tetrad = tuple(sorted([p] + [q for q in big if q != p and cell.pair_class[p][q] == "0"]))
        assert len(tetrad) == 4
        groups.append(tetrad)
        unused -= set(tetrad)
    return tuple(groups)


def test_tetrads_and_ambient_24cells_match_the_orthogonality_oracle(cell):
    """On all 25 24-cells: the 16-cells whose extension a 24-cell is are its
    three orthogonal tetrads, and the ambient map read off the split is
    `cell16_ambient`, with each of the 75 16-cells in one 24-cell."""
    split = tuple(_tetrads_by_orthogonality(cell, big) for big in cell.cells24)
    assert split == cell.tetrads24
    assert all(len(tetrads) == 3 for tetrads in split)
    ambient = {}
    for k, tetrads in enumerate(split):
        for tetrad in tetrads:
            assert tetrad not in ambient
            ambient[tetrad] = k
    assert ambient == cell.cell16_ambient
    assert set(ambient) == set(cell.cells16)


def test_cells24_raises_when_a_24cell_holds_a_16cell_twice(cell):
    """A 16-cell listed twice lies twice in its 24-cell, a coset of 2T, so
    the 16-cells inside that coset do not partition its pairs."""
    fresh = Cell600()
    fresh.cells16 = cell.cells16 + cell.cells16[:1]
    home = tuple(sorted(cell.cells24[cell.cell16_ambient[cell.cells16[0]]]))
    with pytest.raises(ValueError, match=re.escape(f"the 16-cells of 24-cell {home} do not partition its 12 pairs")):
        fresh.cells24


def test_sylow_subgroups_normalisers_and_the_base_24cell(cell):
    """`sylow` holds Q8 in 2T, C6 and C10 with normalisers of orders 24, 12
    and 20, each a subgroup, found as the old search found them; and 2T, which
    `array` reads, is the base 24-cell of shapes (±2,0,0,0) and (±1,±1,±1,±1)."""
    table, one = mult_table(), cell.index[ICOSIAN_ONE]
    orders = [element_order_index(i) for i in range(cell.n)]
    x = orders.index(4)
    y = next(i for i in range(cell.n) if orders[i] == 4 and len(mulclose_by_right_products((x, i))) == 8)
    old = {2: mulclose_by_right_products((x, y))}
    old |= {p: mulclose_by_right_products((orders.index(p), cell.neg[one])) for p in (3, 5)}
    assert {p: len(sub) for p, (sub, _) in cell.sylow.items()} == {2: 8, 3: 6, 5: 10}
    assert {p: len(nor) for p, (_, nor) in cell.sylow.items()} == {2: 24, 3: 12, 5: 20}
    for p, (sub, nor) in cell.sylow.items():
        assert sub == old[p] and sub < nor
        for group in (sub, nor):
            assert {table[a][b] for a in group for b in group} == group
    assert cell.sylow[2][1] == cell24_base_by_shape()


def test_closure_matches_both_old_routines_on_every_call_src_makes(monkeypatch):
    """Every call that `Cell600.sylow` and `facts/fact4` make to `closure`:
    each subgroup against the old closure under right products by its
    generators, and each of the three orbit sets of the stabilizers against
    the old orbit search."""
    calls = []

    def recording(maps, points):
        points = list(points)
        out = closure(maps, points)
        calls.append((maps, points, out))
        return out

    monkeypatch.setattr(polytopes, "closure", recording)
    monkeypatch.setattr(checks, "closure", recording)
    fresh = Cell600()
    fresh.sylow
    assert checks.run_check("facts/fact4").status == "pass"
    one = fresh.index[ICOSIAN_ONE]
    subgroups = [call for call in calls if len(call[0][0]) == fresh.n]
    orbits = [call for call in calls if len(call[0][0]) != fresh.n]
    assert len(subgroups) >= 3 and [len(points) for _, points, _ in orbits] == [60, 25, 60]
    for maps, points, out in subgroups:
        assert points == [one]
        gens = [m[one] for m in maps]  # the row of g sends 1 to g
        assert out == [mulclose_by_right_products(gens)]
    for maps, points, out in orbits:
        assert out == orbits_by_search(maps, range(len(points)))


def test_cosets_give_each_family_as_its_old_construction(cell):
    """On the whole of each family: the 16-cells (in the same order), the
    24-cells with their 16-cells and ambient map, the hexagons (the same keys
    in the same order), the decagons with their edges, and the 8-cells,
    against the searches the cosets replaced."""
    assert cell.cells16 == cells16_by_orthogonal_cliques(cell.pair_orth) == cells16_by_nested_loop(cell.pair_orth)
    extension = cells24_by_16cell_extension(cell)
    assert cell.cells24 == tuple(extension)
    assert cell.tetrads24 == tuple(extension.values())
    assert cell.cell16_ambient == {t: k for k, tetrads in enumerate(extension.values()) for t in tetrads}
    cells8 = {frozenset(a) | frozenset(b) for tetrads in extension.values() for a, b in combinations(tetrads, 2)}
    assert cell.cells8 == tuple(sorted(cells8, key=lambda s: tuple(sorted(s))))
    hexagons = hexagons_by_intersections(cell)
    assert list(cell.hexagons.items()) == list(hexagons.items())
    assert cell.hexagon_list == tuple(sorted(hexagons.values(), key=lambda s: tuple(sorted(s))))
    decagons = decagons_by_power_walk(cell)
    assert cell.decagons == decagons
    walked = {}
    for i, j in cell.edges:
        walked[i, j] = next(d for d in decagons if {cell.pair_of[i], cell.pair_of[j]} <= d)
    assert cell.decagon_of_edge == walked


def _replace_last_pair(cls):
    """The first member of a listing with its last pair swapped for the first
    pair outside it at unsigned product cls with its first pair."""

    def corrupt(c, listing):
        first = listing[0]
        q = next(q for q in range(60) if q not in first and c.pair_class[first[0]][q] == cls)
        return (tuple(sorted((*first[:-1], q))), *listing[1:])

    return corrupt


def _three_16cells_of_different_24cells(c, listing):
    """A 24-cell swapped for three disjoint 16-cells, not all of one 24-cell,
    that are the only 16-cells inside their 12 pairs."""
    for a, b, d in combinations(c.cells16, 3):
        union = set(a + b + d)
        if len(union) == 12 and not c.pairs_at(union, ("0", "1")):
            if sum(set(t) <= union for t in c.cells16) == 3:
                return (tuple(sorted(union)), *listing[1:])


def _non_hexagon_triple(c, listing):
    """A hexagon swapped for three pairs, one of each 16-cell of a 24-cell,
    that lie in that 24-cell alone."""
    for tetrads in c.tetrads24:
        for triple in zip(*tetrads):
            if len(set.intersection(*(set(c.cell_of_pair[p]) for p in triple))) == 1:
                return (tuple(sorted(triple)), *listing[1:])


def _drop_first(c, listing):
    return listing[1:]


# Each family: the p of its subgroup in `sylow`, 0 for the subgroup or 1 for
# its normaliser, and the first check to read it.
_FAMILIES = {
    "cells16": (2, 0, "facts/fact2"),
    "cells24": (2, 1, "facts/fact2"),
    "hexagons": (3, 0, "s4/hexagons"),
    "decagons": (5, 0, "s4/decagons"),
}


@pytest.mark.parametrize(
    "family, corrupt, message",
    [
        pytest.param("cells16", _replace_last_pair("1"), r"16-cell \(.*\) is not four mutually orthogonal pairs",
                     id="cells16-orthogonal"),
        pytest.param("cells16", _drop_first, r"74 16-cells, not 75", id="cells16-count"),
        pytest.param("cells24", _replace_last_pair("phi"),
                     r"the 16-cells of 24-cell \(.*\) do not partition its 12 pairs", id="cells24-partition"),
        pytest.param("cells24", _three_16cells_of_different_24cells,
                     r"two 16-cells of 24-cell \(.*\) hold pairs not at product \+-1", id="cells24-product"),
        pytest.param("cells24", _drop_first, r"24 24-cells, not 25", id="cells24-count"),
        pytest.param("hexagons", _replace_last_pair("0"), r"the pairs of hexagon \(.*\) are not at product 1",
                     id="hexagons-product"),
        pytest.param("hexagons", _non_hexagon_triple, r"hexagon \(.*\) lies in 1 24-cells, not 2",
                     id="hexagons-holders"),
        pytest.param("hexagons", _drop_first, r"199 hexagons, not 200 distinct", id="hexagons-count"),
        pytest.param("decagons", _replace_last_pair("0"),
                     r"the pairs of decagon \(.*\) are not at product phi or phi-inv", id="decagons-product"),
        pytest.param("decagons", _drop_first, r"71 decagons, not 72", id="decagons-count"),
    ],
)
def test_each_family_raises_on_corrupted_cosets_and_its_first_check_fails(monkeypatch, family, corrupt, message):
    """One family of a fresh cell built from corrupted cosets of its subgroup
    (the others left whole): reading it raises its geometric certificate's
    error, and the first check to read it is a `fail` entry naming it."""
    p, which, check_id = _FAMILIES[family]
    fresh = Cell600()
    real, target = fresh.cosets, fresh.sylow[p][which]
    fresh.cosets = lambda sub: corrupt(fresh, real(sub)) if sub == target else real(sub)
    with pytest.raises(ValueError, match=message) as raised:
        getattr(fresh, family)
    monkeypatch.setattr(checks, "the_600cell", lambda: fresh)
    result = checks.run_check(check_id)
    assert result.status == "fail"
    assert result.observed == {"error": f"ValueError: {raised.value}"}


def test_array_rows_and_columns_partition(cell):
    duads = {cell.duad_of_cell[cell.array[i][j]] for i in range(5) for j in range(5)}
    assert duads == {(r, c) for r in range(1, 6) for c in range(6, 11)}
    one_pid = cell.pair_of[cell.index[ICOSIAN_ONE]]
    for i in range(5):
        assert one_pid in cell.cells24[cell.array[i][i]]


def test_exactly_ten_partitions(cell):
    parts = cell.find_all_partitions()
    assert len(parts) == 10
    assert all(len(p) == 5 for p in parts)


def test_disjointness_graph_is_rook_complement(cell):
    for a in range(25):
        assert cell.disjointness_mask[a].bit_count() == 8
        ra, ca = cell.duad_of_cell[a]
        for b in range(25):
            if a == b:
                continue
            rb, cb = cell.duad_of_cell[b]
            disjoint = bool(cell.disjointness_mask[a] >> b & 1)
            assert disjoint == (ra == rb or ca == cb)


def test_labels(cell):
    one_pid = cell.pair_of[cell.index[ICOSIAN_ONE]]
    assert label_str(cell.labels[one_pid]) == "(16)(27)(38)(49)(5X)"
    assert len(set(cell.labels)) == 60
    for lab in cell.labels:
        assert perm_parity([d[1] for d in lab]) == 0
    for la, lb in combinations(cell.labels, 2):
        assert len(set(la) & set(lb)) <= 2
    # every pair lies in exactly five 24-cells
    assert all(len(cell.cell_of_pair[p]) == 5 for p in range(60))


def test_perm_parity_agrees_with_the_inversion_count_on_every_label(cell):
    """The column sequences that `facts/fact7` and `labels_odd_permutations`
    pass to `perm_parity`: the 60 labels of the 600-cell and the 600 of the
    120-cell, each against the oracle's pairwise inversions."""
    seqs = [[d[1] for d in lab] for lab in cell.labels]
    seqs += [[d[1] for d in sorted((home,) + nbrs)] for home, nbrs in cell.cell120.labels]
    assert len(seqs) == 660 and {len(s) for s in seqs} == {5}
    assert [perm_parity(s) for s in seqs] == [parity_by_inversions(s) for s in seqs]


def test_shared_duads_determine_inner_product_class(cell):
    for a, b in combinations(range(60), 2):
        shared = len(set(cell.labels[a]) & set(cell.labels[b]))
        cls = cell.pair_class[a][b]
        if shared == 1:
            assert cls == "0"
        elif shared == 2:
            assert cls == "1"
        else:
            assert shared == 0 and cls in ("phi", "phi-inv")


def test_hexagons(cell):
    hexes = cell.hexagon_list
    assert len(hexes) == 200
    assert all(len(h) == 3 for h in hexes)
    cells_16_27 = frozenset(
        k for k in range(25) if cell.duad_of_cell[k] in ((1, 6), (2, 7))
    )
    example = cell.hexagons[cells_16_27]
    labels = sorted(label_str(cell.labels[p]) for p in example)
    assert labels == [
        "(16)(27)(38)(49)(5X)",
        "(16)(27)(39)(4X)(58)",
        "(16)(27)(3X)(48)(59)",
    ]
    assert len(cell.hexagon_orthogonal_pairs) == 100


def test_decagons_and_pentagons(cell):
    decs = cell.decagons
    assert len(decs) == 72
    assert all(len(d) == 5 for d in decs)
    assert len(cell.decagon_of_edge) == 720
    pents = [pentagon_of_decagon(cell, d) for d in decs]
    assert len(pents) == 72
    assert all(len(p) == 5 for p in pents)
    all_duads = {(r, c) for r in range(1, 6) for c in range(6, 11)}
    for pent in pents:
        duads = {
            d for v in pent for d in cell.labels[cell.pair_of[v]]
        }
        assert duads == all_duads


def _decagon_scan(cell):
    """The scan of all 72 decagons per edge that `decagon_of_edge` replaced."""
    out = {}
    for i, j in cell.edges:
        holders = [d for d in cell.decagons if cell.pair_of[i] in d and cell.pair_of[j] in d]
        assert len(holders) == 1
        out[i, j] = holders[0]
    return out


def test_decagon_of_edge_matches_the_decagon_scan(cell):
    assert cell.decagon_of_edge == _decagon_scan(cell)
    assert len(cell.decagon_of_edge) == 720


def test_decagon_of_edge_rejects_a_decagon_listed_twice(cell):
    bad = copy.copy(cell)
    bad.__dict__.pop("decagon_of_edge", None)
    bad.decagons = cell.decagons + cell.decagons[:1]
    with pytest.raises(ValueError, match="lies on 2 decagons"):
        bad.decagon_of_edge


def test_prime_array_p2_reproduces_24cell_array(cell):
    pa = cell.prime_array(2)
    entries = {frozenset(pa.entry_pairs(i, j)) for i in range(5) for j in range(5)}
    assert entries == {frozenset(c) for c in cell.cells24}
    rows = {
        frozenset(p for j in range(5) for p in pa.entry_pairs(i, j)) for i in range(5)
    }
    cols = {
        frozenset(p for i in range(5) for p in pa.entry_pairs(i, j)) for j in range(5)
    }
    partition_pidsets = {
        frozenset(p for c in part for p in cell.cells24[c]) for part in cell.partitions
    }
    assert rows | cols <= partition_pidsets


def _nested_loop_prime_entries(cell, p):
    """The normalizer, coset and entry loops `prime_array` ran before its
    entries came from `_coset_grid`: the oracle for them."""
    table, inv, n = mult_table(), inverse_index(), cell.n
    orders = [element_order_index(i) for i in range(n)]
    if p == 2:
        x = next(i for i in range(n) if orders[i] == 4)
        y = next(i for i in range(n) if orders[i] == 4 and len(mulclose_by_right_products((x, i))) == 8)
        sylow = mulclose_by_right_products((x, y))
    else:
        x = next(i for i in range(n) if orders[i] == p)
        sylow = mulclose_by_right_products((x, cell.neg[cell.index[ICOSIAN_ONE]]))
    normalizer = frozenset(
        h for h in range(n) if frozenset(table[table[h][s]][inv[h]] for s in sylow) == sylow
    )
    reps, cosets = [], set()
    for h in range(n):
        cs = frozenset(table[h][s] for s in normalizer)
        if cs not in cosets:
            cosets.add(cs)
            reps.append(h)
    entries = []
    for gi in reps:
        row = []
        for gj in reps:
            row.append(frozenset(table[table[gi][s]][inv[gj]] for s in normalizer))
        entries.append(tuple(row))
    return tuple(entries)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_prime_array_entries_match_the_nested_loops(cell, p):
    assert cell.prime_array(p).entries == _nested_loop_prime_entries(cell, p)


def test_array_matches_the_per_cell_loop(cell):
    """Every entry of `array` against the per-cell loop it replaced."""
    table, inv = mult_table(), inverse_index()
    gi = cell.index[cell.g]
    gpow = [cell.index[ICOSIAN_ONE]]
    for _ in range(4):
        gpow.append(table[gpow[-1]][gi])
    base = sorted(cell24_base_by_shape())
    for i in range(5):
        for j in range(5):
            verts = frozenset(table[table[gpow[i]][a]][inv[gpow[j]]] for a in base)
            pids = cell.cells24[cell.array[i][j]]
            assert verts == {v for p in pids for v in cell.pairs[p]}


def test_coset_grid_raises_on_a_repeated_entry(cell):
    one = cell.index[ICOSIAN_ONE]
    with pytest.raises(ValueError, match="repeats an entry"):
        _coset_grid([one, one], [one])


def test_prime_array_p3_is_hexagon_pairs(cell):
    pa = cell.prime_array(3)
    assert pa.size == 10
    seen = set()
    for i in range(10):
        for j in range(10):
            pids = pa.entry_pairs(i, j)
            hexes = [h for h in cell.hexagon_list if h <= pids]
            assert len(hexes) == 2
            assert cell.pair_sets_orthogonal(*hexes)
            seen.add(frozenset(hexes))
    assert len(seen) == 100
    assert seen == set(cell.hexagon_orthogonal_pairs)


def test_prime_array_p5_is_decagon_pairs(cell):
    pa = cell.prime_array(5)
    assert pa.size == 6
    seen = set()
    for i in range(6):
        for j in range(6):
            pids = pa.entry_pairs(i, j)
            decs = [d for d in cell.decagons if d <= pids]
            assert len(decs) == 2
            assert all(
                cell.pair_class[a][b] == "0" for a in decs[0] for b in decs[1]
            )
            seen.add(frozenset(decs))
    assert len(seen) == 36


def test_120cell_structure(cell):
    d = cell.cell120
    assert d.n == 600
    assert len(d.cells) == 25
    assert sum(len(c) for c in d.cells) == 600
    base = {
        tuple(sorted((abs(c.a), abs(c.b)) for c in coords(d.vertices[k])))
        for k in d.cells[0]
    }
    assert base == {((0, 0), (0, 0), (2, 0), (2, 0))}
    labs = d.pair_labels()
    assert len(labs) == 300
    assert ((3, 8), ((1, 6), (2, 7), (4, 10), (5, 9))) in labs


def test_120cell_base_cell_is_the_two_sided_orbit_of_one_vertex(cell):
    """The construction `Cell120.cells` replaced: B * v1 * B, for B the
    600-cell's base 24-cell and v1 = (2, 2, 0, 0), is cell 0, g^0 * C * g^0."""
    d = cell.cell120
    base = [cell.vertices[i] for i in sorted(cell24_base_by_shape())]
    v1 = (2, 0, 2, 0, 0, 0, 0, 0)
    orbit = {icosian_mul(icosian_mul(a, v1), b) for a in base for b in base}
    assert len(orbit) == 24
    assert frozenset(map(d.index.__getitem__, orbit)) == d.cells[0]


def test_120cell_rows_and_columns_are_600cells(cell):
    d = cell.cell120
    spectrum_h = Counter()
    for i, j in combinations(range(cell.n), 2):
        spectrum_h[paper_inner_product(cell, i, j)] += 1
    col = d.col_vertices(0)
    assert len(col) == 120
    spec = Counter()
    for i, j in combinations(col, 2):
        spec[GoldenInt(*paper_dot(d.vertices[i], d.vertices[j])).halved().key()] += 1
    assert spec == spectrum_h


@cache
def _doubled_spectrum(cell):
    dots = (flat_dot(u, v) for u, v in combinations(cell.vertices, 2))
    return Counter((2 * a, 2 * b) for a, b in dots)


def _spectra_match(cell, verts):
    """The spectra oracle for `Cell120.is_600cell_image`: the natural inner
    products over the pairs of the 120-cell vertices `verts` are, as a
    multiset, twice those over the pairs of the 600-cell's vertices."""
    flats = [cell.cell120.vertices[i] for i in verts]
    return Counter(flat_dot(u, v) for u, v in combinations(flats, 2)) == _doubled_spectrum(cell)


@cache
def _frame(d):
    """A frame of the 600-cell for `_frame_search`: its first tetrahedral
    cell f0..f3, four independent vertices.  Returns twice its natural
    Gram (entries as (a, b) pairs for a + b*phi), and for every 600-cell
    vertex v the numerator n of its coordinates v B^-1 in the frame basis
    (B the frame as rows) over one integer N: v B^-1 = v adj(B) / det B =
    n / N with n = v adj(B) conj(det B) and N = det B conj(det B).  Last,
    the flats of the 120-cell's vertices times N."""
    parent = d.parent
    frame = [parent.vertices[i] for i in parent.tetra_cells[0]]
    gram2 = tuple(
        tuple(tuple(2 * x for x in flat_dot(f, g)) for g in frame) for f in frame
    )
    elim = golden_eliminate([coords(parent.vertices[i]) for i in parent.tetra_cells[0]])
    if elim.adj is None or not elim.det:
        raise ValueError("the first tetrahedral cell is not a frame")
    scale = elim.det.conj()
    cols = _right_mul_columns(
        [tuple(x for g in row for x in (g * scale).key()) for row in elim.adj]
    )
    numerators = tuple(tuple(sum(map(mul, v, col)) for col in cols) for v in parent.vertices)
    norm = elim.det.field_norm()
    scaled = tuple(tuple(norm * x for x in v) for v in d.vertices)
    return gram2, numerators, scaled


def _frame_search(d, verts):
    """The frame-search oracle for `Cell120.is_600cell_image`: whether the
    vertices `verts` of the 120-cell d are the image of the 600-cell's 120
    vertices under a linear map M that doubles every natural inner product.

    M is read off a frame f0..f3 of the 600-cell (`_frame`) and images
    w0..w3 in verts: w0 is the first vertex of verts, and w1..w3 are
    searched for so that the natural Gram of w0..w3 is twice that of
    f0..f3.  Since the frame spans, M then doubles every inner product.
    M sends v to (v B^-1) W = n W / N, W the images as rows; verts is
    accepted once n W is N times a member of verts for all 120 vertices
    (an exact division), and the next frame is tried at the first miss.
    M is injective, so 120 distinct vertices in verts are all of them.
    Unlike the quaternion certificate, it accepts two-sided images a*H*b.
    """
    flats = [d.vertices[i] for i in verts]
    if len(flats) != 120 or len(set(flats)) != 120:
        return False
    gram2, numerators, scaled_flats = _frame(d)
    scaled = {scaled_flats[i] for i in verts}

    def frames(chosen):
        k = len(chosen)
        if k == 4:
            yield chosen
            return
        for w in flats:
            if all(flat_dot(u, w) == gram2[i][k] for i, u in enumerate(chosen)) and (
                flat_dot(w, w) == gram2[k][k]
            ):
                yield from frames(chosen + [w])

    if flat_dot(flats[0], flats[0]) != gram2[0][0]:
        return False
    for w in frames([flats[0]]):
        cols = _right_mul_columns(w)
        if all(tuple(sum(map(mul, n, col)) for col in cols) in scaled for n in numerators):
            return True
    return False


def _right_mul_columns(rows):
    """Columns of the 8x8 integer matrix of x -> x R on flats, for the 4x4
    Z[phi] matrix R whose rows are given as flats: row 2i of the integer
    matrix is row i of R, and row 2i + 1 is phi times it."""
    out = []
    for f in rows:
        out.append(f)
        out.append(tuple(x for k in range(0, 8, 2) for x in (f[k + 1], f[k] + f[k + 1])))
    return tuple(zip(*out))


def test_similarity_certificate_matches_the_spectra_oracle(cell):
    """The quaternion certificate, the frame search and the spectra agree:
    True on all ten row and column sets; False on each with one vertex (the
    first or the last) swapped for the least 120-cell vertex outside it, and
    on the 120 transversals, the unions of one cell from each row and each
    column of the array."""
    d = cell.cell120
    for verts in [f(k) for k in range(5) for f in (d.row_vertices, d.col_vertices)]:
        assert d.is_600cell_image(verts) is _frame_search(d, verts) is True
        assert _spectra_match(cell, verts) is True
        outsider = min(set(range(d.n)) - set(verts))
        for at in (0, len(verts) - 1):
            swapped = list(verts)
            swapped[at] = outsider
            assert d.is_600cell_image(swapped) is _frame_search(d, swapped) is False
            assert _spectra_match(cell, swapped) is False
    for perm in permutations(range(5)):
        verts = sorted(set().union(*(d.cells[5 * i + j] for i, j in enumerate(perm))))
        assert len(verts) == 120
        assert d.is_600cell_image(verts) is _frame_search(d, verts) is False
        assert _spectra_match(cell, verts) is False


def _one_sided(d, verts, left):
    """Whether verts is q*H (left) or H*q, as whole sets, for the q =
    w0 * conj(f) / 4 (or conj(f) * w0 / 4) of `Cell120.is_600cell_image`."""
    w0, fc = d.vertices[verts[0]], conj(d.parent.vertices[0])
    p = quat_mul(w0, fc) if left else quat_mul(fc, w0)
    images = {quat_mul(p, v) if left else quat_mul(v, p) for v in d.parent.vertices}
    return images == {tuple(4 * x for x in d.vertices[i]) for i in verts}


def test_rows_are_left_and_columns_right_multiples_of_the_600cell(cell):
    """Each row is q*H and not H*q, and each column H*q and not q*H; since
    `is_600cell_image` accepts all ten, it reaches both of its forms."""
    d = cell.cell120
    for k in range(5):
        row, col = d.row_vertices(k), d.col_vertices(k)
        assert _one_sided(d, row, left=True) and not _one_sided(d, row, left=False)
        assert _one_sided(d, col, left=False) and not _one_sided(d, col, left=True)
        assert d.is_600cell_image(row) and d.is_600cell_image(col)


def _labels120_with_a_foreign_vertex(monkeypatch, name, k):
    """Run s2/labels120 with the last vertex of `Cell120.<name>(k)` swapped
    for the least 120-cell vertex outside it."""
    real = getattr(Cell120, name)

    def corrupted(self, i):
        verts = real(self, i)
        if i != k:
            return verts
        return verts[:-1] + (min(set(range(self.n)) - set(verts)),)

    monkeypatch.setattr(Cell120, name, corrupted)
    return checks.run_check("s2/labels120")


def test_labels120_fails_on_a_row_with_a_foreign_vertex(monkeypatch, cell):
    result = _labels120_with_a_foreign_vertex(monkeypatch, "row_vertices", 3)
    assert result.status == "fail"
    assert result.observed["rows_and_columns_are_600cells"] is False


def test_labels120_fails_on_a_column_with_a_foreign_vertex(monkeypatch, cell):
    """Columns are H*q, so this miss is met on the right-handed form."""
    result = _labels120_with_a_foreign_vertex(monkeypatch, "col_vertices", 2)
    assert result.status == "fail"
    assert result.observed["rows_and_columns_are_600cells"] is False


def test_labels120_fails_on_a_vertex_in_two_cells(monkeypatch, cell):
    """A vertex of cell 5 also put into cell 0, past the checks of the
    `Cell120.cells` builder: `mutually_disjoint` reads False."""
    assert checks.run_check("s2/labels120").status == "pass"  # builds every table it reads
    d = cell.cell120
    cells = list(d.cells)
    cells[0] = cells[0] | {min(cells[5])}
    monkeypatch.setitem(d.__dict__, "cells", tuple(cells))
    result = checks.run_check("s2/labels120")
    assert result.status == "fail"
    assert result.observed["mutually_disjoint"] is False


def test_rectified_600cell(cell):
    r = cell.rectified
    assert len(r) == 720
    for w in r[:50]:
        assert flat_dot(w, w) == (12, 16)  # 20 + 8*sqrt(5)
    census = rectified_shape_census(cell)
    expected_shapes = {
        ((0, 0), (0, 0), (0, 2), (2, 2)),  # (0, 0, 2phi, 2phi^2)
        ((1, 0), (1, 0), (1, 2), (1, 2)),  # (1, 1, phi^3, phi^3)
        ((0, 0), (0, 1), (1, 0), (1, 3)),  # (0, 1, phi, 1+3phi)
        ((0, 0), (1, 1), (1, 2), (2, 1)),  # (0, phi^2, phi^3, 2+phi)
        ((0, 1), (1, 0), (1, 1), (2, 2)),  # (1, phi, 2phi^2, phi^2)
        ((0, 1), (0, 2), (1, 1), (1, 2)),  # (phi, phi^2, 2phi, phi^3)
    }
    assert set(census) == expected_shapes
    assert sum(census.values()) == 720
