"""Incidence structure of the 600-cell and its relatives.

Everything is enumerated exactly at standard scale (vertex norm 4): edges,
faces, cells, the 75 inscribed 16-cells and 25 24-cells, the 5x5 array whose
rows and columns give the ten partitions into five disjoint 24-cells, the
duad labels these induce on vertex pairs, hexagons/decagons/pentagons and the
prime-indexed generalisations of the array, the labeled 120-cell, and the
rectified 600-cell.

Every vertex, of the 600-cell and of the 120-cell and rectified 600-cell
built from it, is a flat integer 8-tuple of `icosian`; each polytope keeps
its vertices sorted, and `Cell600.index` and `Cell120.index` map a vertex
back to its position.  Vertex pairs {v, -v} are referred to by integer pair
ids 0..59; a duad is a tuple (row, col) with row in 1..5 and col in 6..10
(10 is printed as X).

The vertices are the group 2I (the paper's Fact 8), and four families are
read off its subgroups (Conway & Smith, On Quaternions and Octonions, ch. 4):
each is the set of left cosets x*S, over every conjugate S, of Q8 (the 75
16-cells), 2T, the normaliser of Q8 (the 25 24-cells), C6 = <x, -1> for x of
order 3 (the 200 hexagons) or C10 = <x, -1> for x of order 5 (the 72
decagons), each as its pair ids (`Cell600.cosets`).  `Cell600.sylow` finds
these subgroups and their normalisers, which the prime arrays read, and
`closure` is the one closure of points under maps, for subgroups here and for
orbits in the checks.  Each family keeps a geometric raise: a 16-cell's
pairs are mutually orthogonal, a 24-cell's 16-cells partition its pairs at
product +-1, a hexagon lies in two 24-cells with its pairs at product +-1,
and a decagon's pairs meet at phi or phi^-1.

Graphs are held as one bitmask of neighbours per vertex, and `cliques` is
the one clique search: the edges, triangles and tetrahedral cells are the
cliques of 2, 3 and 4 vertices of the phi-adjacency graph `adj`, and the ten
partitions the 5-cliques of the 24-cells' `disjointness_mask`, the
certificate that no other partition exists.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Callable, Collection, Iterable, Iterator, Sequence
from functools import cache, cached_property
from itertools import chain, combinations
from operator import add, itemgetter

from .golden import PHI, phi_pow
from .icosian import (
    ICOSIAN_ONE,
    Flat,
    conj,
    element_order_index,
    find_order5,
    flat_dot,
    generate_vertices,
    icosian_mul,
    inverse_index,
    mult_table,
    neg,
    perm_parity,
    quat_mul,
    scaled,
    vertex_index,
)

Duad = tuple[int, int]

# Paper-scale inner product values between (possibly equal) vertices.
_PP_KEYS = {
    (2, 0): "2", (-2, 0): "-2",
    (1, 0): "1", (-1, 0): "-1",
    (0, 0): "0",
    (0, 1): "phi", (0, -1): "-phi",
    (-1, 1): "phi-inv", (1, -1): "-phi-inv",
}
# Unsigned class of a pair-level inner product.
_ABS_CLASS = {
    "2": "2", "-2": "2", "1": "1", "-1": "1", "0": "0",
    "phi": "phi", "-phi": "phi", "phi-inv": "phi-inv", "-phi-inv": "phi-inv",
}


def duad_str(d: Duad) -> str:
    r, c = d
    return f"({r}{'X' if c == 10 else c})"


def label_str(label: tuple[Duad, ...]) -> str:
    return "".join(duad_str(d) for d in label)


def _is_transversal(duads: Iterable[Duad]) -> bool:
    """Whether the duads use each row 1..5 and each column 6..10 once."""
    rows, cols = zip(*duads)
    return sorted(rows) == [1, 2, 3, 4, 5] and sorted(cols) == [6, 7, 8, 9, 10]


def _masks(n: int, related: Callable[[int, int], bool]) -> tuple[int, ...]:
    """Per a in range(n), the bitmask of the b with related(a, b)."""
    return tuple(sum(1 << b for b in range(n) if related(a, b)) for a in range(n))


def bits(mask: int) -> Iterator[int]:
    """The positions of the set bits of mask, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def cliques(masks: Sequence[int]) -> Iterator[tuple[int, ...]]:
    """Every clique of the graph in which vertex a is adjacent to the set bits
    of masks[a], once each, as its increasing vertex tuple, in lexicographic
    order: a pre-order depth-first walk that extends a clique only by common
    neighbours above its last vertex."""

    def extend(clique: tuple[int, ...], cand: int) -> Iterator[tuple[int, ...]]:
        yield clique
        for b in bits(cand):
            yield from extend(clique + (b,), cand & masks[b] >> (b + 1) << (b + 1))

    for a in range(len(masks)):
        yield from extend((a,), masks[a] >> (a + 1) << (a + 1))


def closure(maps: Sequence[Sequence[int]], points: Iterable[int]) -> list[frozenset[int]]:
    """The closure of each of points under maps (each a table, x -> m[x]),
    once each, in the order of the points: under permutations, their orbits.
    A subgroup of 2I is the closure of 1 under its generators' rows of the
    Cayley table."""
    out, seen = [], set()
    for p in points:
        if p not in seen:
            reached, frontier = {p}, [p]
            while frontier:
                x = frontier.pop()
                for m in maps:
                    if (y := m[x]) not in reached:
                        reached.add(y)
                        frontier.append(y)
            seen |= reached
            out.append(frozenset(reached))
    return out


def _coset_grid(reps: Sequence[int], base: Collection[int]) -> tuple[tuple[frozenset[int], ...], ...]:
    """The vertex sets g_i * base * g_j^-1 for g_i, g_j in reps, off the Cayley
    table; raises unless they are len(reps)**2 distinct sets."""
    table, inv = mult_table(), inverse_index()
    grid = tuple(
        tuple(frozenset(table[table[gi][s]][inv[gj]] for s in base) for gj in reps) for gi in reps
    )
    if len({e for row in grid for e in row}) != len(reps) ** 2:
        raise ValueError(f"the {len(reps)}x{len(reps)} grid g_i * B * g_j^-1 repeats an entry")
    return grid


class Cell600:
    """The 600-cell with all derived incidence tables, built lazily."""

    def __init__(self) -> None:
        self.vertices = generate_vertices()
        self.index = vertex_index()
        self.n = len(self.vertices)
        self.neg = tuple(self.index[neg(v)] for v in self.vertices)

    # ---------- inner products ----------

    @cached_property
    def pp(self) -> tuple[tuple[str, ...], ...]:
        """Paper inner product names for every ordered vertex pair, read off the
        Cayley table: <u, v> = Re(u * conj(v)), and the halved product of two
        vertices is the vertex whose real part (flat slots 0 and 1) is the
        paper-scale inner product."""
        names = tuple(_PP_KEYS[f[0], f[1]] for f in self.vertices)
        by_conj = itemgetter(*inverse_index())
        return tuple(tuple(map(names.__getitem__, by_conj(row))) for row in mult_table())

    # ---------- antipodal pairs ----------

    @cached_property
    def pairs(self) -> tuple[tuple[int, int], ...]:
        return tuple(sorted((i, self.neg[i]) for i in range(self.n) if i < self.neg[i]))

    @cached_property
    def pair_of(self) -> tuple[int, ...]:
        out = [0] * self.n
        for pid, (i, j) in enumerate(self.pairs):
            out[i] = out[j] = pid
        return tuple(out)

    @cached_property
    def pair_class(self) -> tuple[tuple[str, ...], ...]:
        """Unsigned inner-product class between pair representatives."""
        reps = [p[0] for p in self.pairs]
        return tuple(
            tuple(_ABS_CLASS[self.pp[a][b]] for b in reps) for a in reps
        )

    # ---------- skeleton ----------

    @cached_property
    def adj(self) -> tuple[int, ...]:
        """Bitmask of phi-neighbours (the 720 edges) per vertex."""
        return tuple(sum(1 << j for j, x in enumerate(row) if x == "phi") for row in self.pp)

    @cached_property
    def _adj_cliques(self) -> tuple[tuple[int, ...], ...]:
        """Every clique of `adj`, searched once for the edges, faces and cells."""
        return tuple(cliques(self.adj))

    @cached_property
    def edges(self) -> tuple[tuple[int, int], ...]:
        return tuple(c for c in self._adj_cliques if len(c) == 2)

    @cached_property
    def triangles(self) -> tuple[tuple[int, int, int], ...]:
        return tuple(c for c in self._adj_cliques if len(c) == 3)

    @cached_property
    def tetra_cells(self) -> tuple[tuple[int, int, int, int], ...]:
        cells = tuple(c for c in self._adj_cliques if len(c) == 4)
        if len(cells) != 600:
            raise ValueError(f"{len(cells)} tetrahedral cells, not 600")
        return cells

    def skeleton_counts(self) -> tuple[int, int, int]:
        return (len(self.edges), len(self.triangles), len(self.tetra_cells))

    # ---------- 16-cells, 24-cells, 8-cells ----------

    @cached_property
    def pair_orth(self) -> tuple[int, ...]:
        """Bitmask of the pairs orthogonal to each pair."""
        return _masks(60, lambda a, b: self.pair_class[a][b] == "0")

    def pairs_at(self, pids: Iterable[int], classes: Collection[str]) -> bool:
        """Whether every two of the pairs pids have their unsigned product in classes."""
        return all(self.pair_class[p][q] in classes for p, q in combinations(pids, 2))

    @cached_property
    def sylow(self) -> dict[int, tuple[frozenset[int], frozenset[int]]]:
        """For p = 2, 3 and 5, a subgroup of 2I and its normaliser, as vertex
        indices: Q8 = <x, y> in 2T, for x the first element of order 4 and y
        the first that makes 8; and C6 or C10 = <x, -1>, for x the first
        element of order p.  Raises unless their orders are 8 and 24, 6 and 12,
        10 and 20."""
        table, inv = mult_table(), inverse_index()
        one = self.index[ICOSIAN_ONE]
        orders = [element_order_index(i) for i in range(self.n)]

        def generated(*gens: int) -> frozenset[int]:
            return closure([table[g] for g in gens], [one])[0]

        x = orders.index(4)
        q8 = next(s for y in range(self.n) if orders[y] == 4 and len(s := generated(x, y)) == 8)
        out = {}
        for p, sub in ((2, q8), (3, generated(orders.index(3), self.neg[one])),
                       (5, generated(orders.index(5), self.neg[one]))):
            normaliser = frozenset(
                h for h in range(self.n) if frozenset(table[table[h][s]][inv[h]] for s in sub) == sub
            )
            if (len(sub), len(normaliser)) != {2: (8, 24), 3: (6, 12), 5: (10, 20)}[p]:
                raise ValueError(f"p = {p}: subgroup of order {len(sub)} with normaliser of order {len(normaliser)}")
            out[p] = (sub, normaliser)
        return out

    def cosets(self, subgroup: Collection[int]) -> tuple[tuple[int, ...], ...]:
        """The left cosets x*S of every conjugate S = h*subgroup*h^-1, each as
        its sorted pair ids, once each and sorted."""
        table, inv, pair_of = mult_table(), inverse_index(), self.pair_of
        out = set()
        for sub in {frozenset(table[table[h][s]][inv[h]] for s in subgroup) for h in range(self.n)}:
            left = set(range(self.n))
            while left:
                x = left.pop()
                coset = [table[x][s] for s in sub]
                left.difference_update(coset)
                out.add(tuple(sorted({pair_of[v] for v in coset})))
        return tuple(sorted(out))

    @cached_property
    def cells16(self) -> tuple[tuple[int, int, int, int], ...]:
        """The cosets of Q8: four mutually orthogonal pairs each."""
        cells = self.cosets(self.sylow[2][0])
        for cell in cells:
            if len(cell) != 4 or not self.pairs_at(cell, ("0",)):
                raise ValueError(f"16-cell {cell} is not four mutually orthogonal pairs")
        if len(cells) != 75:
            raise ValueError(f"{len(cells)} 16-cells, not 75")
        return cells

    @cached_property
    def tetrads24(self) -> tuple[tuple[tuple[int, ...], ...], ...]:
        """The 16-cells inside each 24-cell, a coset of 2T, in sorted order.
        Raises unless there are 25 and the 16-cells of each partition its 12
        pairs, with pairs of two of them at product +-1."""
        out = []
        for cell in self.cosets(self.sylow[2][1]):
            inside = tuple(t for t in self.cells16 if set(t).issubset(cell))
            if sorted(chain(*inside)) != list(cell):
                raise ValueError(f"the 16-cells of 24-cell {cell} do not partition its 12 pairs")
            if not all(self.pair_class[p][q] == "1" for s, t in combinations(inside, 2) for p in s for q in t):
                raise ValueError(f"two 16-cells of 24-cell {cell} hold pairs not at product +-1")
            out.append(inside)
        if len(out) != 25:
            raise ValueError(f"{len(out)} 24-cells, not 25")
        return tuple(out)

    @cached_property
    def cells24(self) -> tuple[frozenset[int], ...]:
        """The 25 24-cells, as sets of pair ids, sorted."""
        return tuple(frozenset(chain(*tetrads)) for tetrads in self.tetrads24)

    @cached_property
    def cell16_ambient(self) -> dict[tuple[int, ...], int]:
        """16-cell -> index of the unique 24-cell containing it."""
        return {t: idx for idx, tetrads in enumerate(self.tetrads24) for t in tetrads}

    @cached_property
    def cells8(self) -> tuple[frozenset[int], ...]:
        out = set()
        for tets in self.tetrads24:
            for t1, t2 in combinations(tets, 2):
                out.add(frozenset(t1) | frozenset(t2))
        cells = tuple(sorted(out, key=lambda s: tuple(sorted(s))))
        if len(cells) != 75:
            raise ValueError(f"{len(cells)} 8-cells, not 75")
        return cells

    @cached_property
    def cell_of_pair(self) -> tuple[tuple[int, ...], ...]:
        """The five 24-cells through each vertex pair."""
        lists: list[list[int]] = [[] for _ in range(60)]
        for idx, cell in enumerate(self.cells24):
            for p in cell:
                lists[p].append(idx)
        if any(len(l) != 5 for l in lists):
            raise ValueError("a vertex pair does not lie in exactly five 24-cells")
        return tuple(tuple(l) for l in lists)

    # ---------- the 5x5 array and the ten partitions ----------

    @cached_property
    def g(self) -> Flat:
        return find_order5()

    @cached_property
    def array(self) -> tuple[tuple[int, ...], ...]:
        """array[i][j] = index of the 24-cell g^i * B * g^-j, B = 2T, the normaliser of Q8."""
        table = mult_table()
        gi = self.index[self.g]
        gpow = [self.index[ICOSIAN_ONE]]
        for _ in range(4):
            gpow.append(table[gpow[-1]][gi])
        cellset_to_idx = {
            frozenset(self.pairs[p][0] for p in cell) | frozenset(self.pairs[p][1] for p in cell): k
            for k, cell in enumerate(self.cells24)
        }
        return tuple(
            tuple(map(cellset_to_idx.__getitem__, row))
            for row in _coset_grid(gpow, sorted(self.sylow[2][1]))
        )

    @cached_property
    def duad_of_cell(self) -> tuple[Duad, ...]:
        out: list[Duad | None] = [None] * 25
        for i in range(5):
            for j in range(5):
                out[self.array[i][j]] = (1 + i, 6 + j)
        return tuple(out)  # type: ignore[arg-type]

    @cached_property
    def partitions(self) -> tuple[frozenset[int], ...]:
        """Ten partitions of the vertex set into five disjoint 24-cells:
        the five rows then the five columns of the array."""
        rows = [frozenset(self.array[i][j] for j in range(5)) for i in range(5)]
        cols = [frozenset(self.array[i][j] for i in range(5)) for j in range(5)]
        for part in rows + cols:
            pids = [p for c in part for p in self.cells24[c]]
            if sorted(pids) != list(range(60)):
                raise ValueError("an array row or column does not partition the 60 pairs")
        return tuple(rows + cols)

    @cached_property
    def disjointness_mask(self) -> tuple[int, ...]:
        """Bitmask of the 24-cells disjoint from each 24-cell."""
        return _masks(25, lambda a, b: not self.cells24[a] & self.cells24[b])

    def find_all_partitions(self) -> tuple[frozenset[int], ...]:
        """The 5-cliques of the disjointness graph."""
        return tuple(frozenset(c) for c in cliques(self.disjointness_mask) if len(c) == 5)

    # ---------- labels ----------

    @cached_property
    def labels(self) -> tuple[tuple[Duad, ...], ...]:
        out = []
        for pid in range(60):
            duads = sorted(self.duad_of_cell[c] for c in self.cell_of_pair[pid])
            if not _is_transversal(duads):
                raise ValueError(f"pair {pid}: its duads do not use each row and column once")
            out.append(tuple(duads))
        if len(set(out)) != 60:
            raise ValueError(f"{len(set(out))} distinct labels, not 60")
        return tuple(out)

    @cached_property
    def pair_of_label(self) -> dict[tuple[Duad, ...], int]:
        return {lab: pid for pid, lab in enumerate(self.labels)}

    # ---------- hexagons, decagons, pentagons ----------

    @cached_property
    def hexagons(self) -> dict[frozenset[int], frozenset[int]]:
        """Map {cell_a, cell_b} -> the 3 vertex pairs in both (a hexagon): the
        cosets of C6, each with its pairs at product +-1 and in exactly two 24-cells."""
        out = {}
        for hexagon in self.cosets(self.sylow[3][0]):
            if not self.pairs_at(hexagon, ("1",)):
                raise ValueError(f"the pairs of hexagon {hexagon} are not at product 1")
            holders = tuple(sorted(set.intersection(*(set(self.cell_of_pair[p]) for p in hexagon))))
            if len(holders) != 2:
                raise ValueError(f"hexagon {hexagon} lies in {len(holders)} 24-cells, not 2")
            out[holders] = frozenset(hexagon)
        if len(out) != 200:
            raise ValueError(f"{len(out)} hexagons, not 200 distinct")
        return {frozenset(k): out[k] for k in sorted(out)}

    @cached_property
    def hexagon_list(self) -> tuple[frozenset[int], ...]:
        return tuple(sorted(self.hexagons.values(), key=lambda s: tuple(sorted(s))))

    def pair_sets_orthogonal(self, s1: frozenset[int], s2: frozenset[int]) -> bool:
        return all(self.pair_class[p][q] == "0" for p in s1 for q in s2)

    @cached_property
    def hexagon_orthogonal_pairs(self) -> tuple[frozenset[frozenset[int]], ...]:
        """Each hexagon from cells (i j), (i' j') pairs with the hexagon from
        the crossed cells (i j'), (i' j)."""
        pairs = set()
        for cellpair, hexagon in self.hexagons.items():
            a, b = sorted(cellpair)
            (ra, ca), (rb, cb) = self.duad_of_cell[a], self.duad_of_cell[b]
            crossed = frozenset(
                (c for c in range(25) if self.duad_of_cell[c] in ((ra, cb), (rb, ca)))
            )
            mate = self.hexagons[crossed]
            if not self.pair_sets_orthogonal(hexagon, mate):
                raise ValueError(f"the crossed hexagon of cells {a}, {b} is not orthogonal")
            pairs.add(frozenset((hexagon, mate)))
        if len(pairs) != 100:
            raise ValueError(f"{len(pairs)} orthogonal hexagon pairs, not 100")
        return tuple(sorted(pairs, key=lambda pr: sorted(tuple(sorted(s)) for s in pr)))

    @cached_property
    def decagons(self) -> tuple[frozenset[int], ...]:
        """The cosets of C10, with their pairs at product phi or phi^-1."""
        decagons = self.cosets(self.sylow[5][0])
        for d in decagons:
            if not self.pairs_at(d, ("phi", "phi-inv")):
                raise ValueError(f"the pairs of decagon {d} are not at product phi or phi-inv")
        if len(decagons) != 72:
            raise ValueError(f"{len(decagons)} decagons, not 72")
        return tuple(map(frozenset, decagons))

    @cached_property
    def decagon_of_edge(self) -> dict[tuple[int, int], frozenset[int]]:
        """Every edge lies on exactly one decagon: through[p] masks the decagons
        that hold pair p, and an edge's pairs share one bit of their masks."""
        through = [0] * 60
        for k, d in enumerate(self.decagons):
            for p in d:
                through[p] |= 1 << k
        out, held = {}, [0] * len(self.decagons)
        for i, j in self.edges:
            holders = through[self.pair_of[i]] & through[self.pair_of[j]]
            if holders.bit_count() != 1:
                raise ValueError(f"edge ({i}, {j}) lies on {holders.bit_count()} decagons, not 1")
            k = holders.bit_length() - 1
            held[k] += 1
            out[i, j] = self.decagons[k]
        if any(n != 10 for n in held):
            raise ValueError("a decagon does not hold 10 edges")
        return out

    # ---------- prime arrays ----------

    def prime_array(self, p: int) -> "PrimeArray":
        """The array g_i * N * g_j^-1 of the normaliser N of `sylow`'s p-subgroup,
        g_i the first element of each left coset of N."""
        if p not in (2, 3, 5):
            raise ValueError("p must be 2, 3 or 5")
        table = mult_table()
        normaliser = self.sylow[p][1]
        q1 = self.n // len(normaliser)  # q + 1 of the array
        first: dict[frozenset[int], int] = {}  # each left coset and its first element
        for h in range(self.n):
            first.setdefault(frozenset(table[h][s] for s in normaliser), h)
        reps = list(first.values())
        if len(reps) != q1:
            raise ValueError(f"p = {p}: {len(reps)} cosets, not {q1}")
        entries = _coset_grid(reps, normaliser)
        for k in range(q1):
            row_union = set().union(*(entries[k][j] for j in range(q1)))
            col_union = set().union(*(entries[i][k] for i in range(q1)))
            if len(row_union) != self.n or len(col_union) != self.n:
                raise ValueError(f"p = {p}: row or column {k} does not cover the vertices")
        return PrimeArray(p, q1, entries, self)

    # ---------- derived polytopes ----------

    @cached_property
    def cell120(self) -> "Cell120":
        return Cell120(self)

    @cached_property
    def rectified(self) -> tuple[Flat, ...]:
        """Vertices phi*(u+v) over the 720 edges (u, v); natural norm 12+16phi."""
        vs = self.vertices
        out = {scaled(PHI, tuple(map(add, vs[i], vs[j]))) for i, j in self.edges}
        verts = tuple(sorted(out))
        if len(verts) != 720:
            raise ValueError(f"{len(verts)} rectified vertices, not 720")
        return verts


class PrimeArray(namedtuple("PrimeArray", "p size entries cell")):
    """The (q + 1) x (q + 1) array of `Cell600.prime_array(p)`; each entry is
    a set of vertex indices of `cell`."""

    __slots__ = ()

    def entry_pairs(self, i: int, j: int) -> frozenset[int]:
        return frozenset(self.cell.pair_of[v] for v in self.entries[i][j])


class Cell120:
    """The dual polytope: 600 cell centers of the 600-cell, rescaled so the
    base 24-cell is (±2, ±2, 0, 0) with all permutations and signs."""

    def __init__(self, parent: Cell600) -> None:
        self.parent = parent
        scale = phi_pow(-2)  # 2 - phi
        centers = {}
        for tet in parent.tetra_cells:
            s = tuple(map(sum, zip(*(parent.vertices[t] for t in tet))))
            centers[scaled(scale, s)] = tet
        if len(centers) != 600:
            raise ValueError(f"{len(centers)} cell centres, not 600")
        self.vertices = tuple(sorted(centers))
        self.index = {v: i for i, v in enumerate(self.vertices)}
        self.tetra_of = tuple(centers[v] for v in self.vertices)
        self.n = 600

    @cached_property
    def cells(self) -> tuple[frozenset[int], ...]:
        """25 disjoint 24-cells g^i * C * g^-j covering the 600 vertices, C
        the vertices of shape (+-2, +-2, 0, 0)."""
        g = self.parent.g
        gpow = [ICOSIAN_ONE]
        for _ in range(4):
            gpow.append(icosian_mul(gpow[-1], g))
        ginvpow = [conj(x) for x in gpow]  # g^-j = conj(g)^j = conj(g^j)
        base = [
            v for v in self.vertices
            if not any(v[1::2]) and sorted(map(abs, v[::2])) == [0, 0, 2, 2]
        ]
        if len(base) != 24:
            raise ValueError(f"the base 24-cell of the 120-cell has {len(base)} vertices, not 24")
        cells = []
        for i in range(5):
            for j in range(5):
                cell = frozenset(
                    self.index[icosian_mul(icosian_mul(gpow[i], w), ginvpow[j])]
                    for w in base
                )
                if len(cell) != 24:
                    raise ValueError(f"120-cell 24-cell ({i}, {j}) has {len(cell)} vertices")
                cells.append(cell)
        covered = set().union(*cells)
        if len(covered) != 600:
            raise ValueError(f"the 25 24-cells cover {len(covered)} vertices, not 600")
        return tuple(cells)

    @cached_property
    def duad_of_cell(self) -> tuple[Duad, ...]:
        return tuple((1 + k // 5, 6 + k % 5) for k in range(25))

    @cached_property
    def home_cell(self) -> tuple[int, ...]:
        out = [-1] * self.n
        for k, cell in enumerate(self.cells):
            for v in cell:
                out[v] = k
        if any(k < 0 for k in out):
            raise ValueError("a 120-cell vertex lies in none of the 25 24-cells")
        return tuple(out)

    @cached_property
    def neighbors(self) -> tuple[tuple[int, ...], ...]:
        """Adjacency via the source tetra-cells: centers of cells sharing a
        triangular face are the dual polytope's edges (4 per vertex)."""
        tri_cells: dict[tuple[int, int, int], list[int]] = {}
        for idx, tet in enumerate(self.tetra_of):
            for tri in combinations(tet, 3):
                tri_cells.setdefault(tri, []).append(idx)
        adj: list[set[int]] = [set() for _ in range(self.n)]
        for tri, holders in tri_cells.items():
            if len(holders) != 2:
                raise ValueError(f"triangle {tri} lies in {len(holders)} tetrahedral cells, not 2")
            a, b = holders
            adj[a].add(b)
            adj[b].add(a)
        if any(len(s) != 4 for s in adj):
            raise ValueError("a 120-cell vertex does not have 4 neighbours")
        return tuple(tuple(sorted(s)) for s in adj)

    @cached_property
    def labels(self) -> tuple[tuple[Duad, tuple[Duad, ...]], ...]:
        """home duad + the four neighbour duads; the five use distinct rows
        and columns (the parity of their permutation is `labels_odd_permutations`)."""
        out = []
        for v in range(self.n):
            home = self.duad_of_cell[self.home_cell[v]]
            nbrs = tuple(sorted(self.duad_of_cell[self.home_cell[w]] for w in self.neighbors[v]))
            if not _is_transversal((home,) + nbrs):
                raise ValueError(f"120-cell vertex {v}: its duads do not use each row and column")
            out.append((home, nbrs))
        return tuple(out)

    @cached_property
    def labels_odd_permutations(self) -> bool:
        """Every label's five duads, sorted by row, list their columns as an odd permutation."""
        return all(
            perm_parity([d[1] for d in sorted((home,) + nbrs)]) == 1 for home, nbrs in self.labels
        )

    def pair_labels(self) -> set[tuple[Duad, tuple[Duad, ...]]]:
        labs = set(self.labels)
        if len(labs) != 300:
            raise ValueError(f"{len(labs)} distinct 120-cell labels, not 300")
        return labs

    def row_vertices(self, i: int) -> tuple[int, ...]:
        return tuple(sorted(set().union(*(self.cells[5 * i + j] for j in range(5)))))

    def col_vertices(self, j: int) -> tuple[int, ...]:
        return tuple(sorted(set().union(*(self.cells[5 * i + j] for i in range(5)))))

    def is_600cell_image(self, verts: Sequence[int]) -> bool:
        """Whether the vertices `verts` of this polytope are q*H or H*q, for H
        the 600-cell's 120 vertices and a quaternion q with |q|^2 = 2: left or
        right multiplication by q doubles every natural inner product.

        q is read off w0, the first vertex of verts, and f, vertex 0 of H:
        4q = w0 * conj(f) for q*H, or conj(f) * w0 for H*q, of natural norm
        32.  A form is accepted once 4q*v (or v*4q) is 4 times a member of
        verts for all 120 vertices v of H, and left at the first miss.
        x -> q*x is injective, so 120 distinct images in verts are all of
        them.  A set that is only a two-sided image a*H*b reads False.
        """
        times4 = {tuple(4 * x for x in self.vertices[i]) for i in verts}
        if len(verts) != 120 or len(times4) != 120:
            return False
        w0, fc = self.vertices[verts[0]], conj(self.parent.vertices[0])
        left, right = quat_mul(w0, fc), quat_mul(fc, w0)
        if flat_dot(left, left) != (32, 0):
            return False
        h = self.parent.vertices
        return all(quat_mul(left, v) in times4 for v in h) or all(
            quat_mul(v, right) in times4 for v in h
        )


@cache
def the_600cell() -> Cell600:
    return Cell600()

