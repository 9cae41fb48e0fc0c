"""Incidence structure of the 600-cell and its relatives.

Everything is enumerated exactly at standard scale (vertex norm 4): edges,
faces, cells, the 75 inscribed 16-cells and 25 24-cells, the 5x5 array whose
rows and columns give the ten partitions into five disjoint 24-cells, the
duad labels these induce on vertex pairs, hexagons/decagons/pentagons and the
prime-indexed generalisations of the array, the labeled 120-cell, and the
rectified 600-cell.

Vertex pairs {v, -v} are referred to by integer pair ids 0..59; a duad is a
tuple (row, col) with row in 1..5 and col in 6..10 (10 is printed as X).
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Callable, Collection, Iterable, Iterator, Sequence
from functools import cache, cached_property
from itertools import combinations
from operator import itemgetter

from .golden import GoldenInt, PHI_INV
from .icosian import (
    ICOSIAN_ONE,
    IcosianVec,
    cell24_base_indices,
    element_order_index,
    find_order5,
    generate_vertices,
    icosian_mul,
    inverse_index,
    mult_table,
    mulclose_indices,
    perm_parity,
    quat_mul,
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
        self.flats = tuple(v.flat for v in self.vertices)
        self.neg = tuple(self.index[(-v).flat] for v in self.vertices)

    # ---------- inner products ----------

    @cached_property
    def pp(self) -> tuple[tuple[str, ...], ...]:
        """Paper inner product names for every ordered vertex pair, read off the
        Cayley table: <u, v> = Re(u * conj(v)), and the halved product of two
        vertices is the vertex whose real part (flat slots 0 and 1) is the
        paper-scale inner product."""
        names = tuple(_PP_KEYS[f[0], f[1]] for f in self.flats)
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
    def edges(self) -> tuple[tuple[int, int], ...]:
        return tuple(
            (i, j)
            for i in range(self.n)
            for j in range(i + 1, self.n)
            if self.adj[i] >> j & 1
        )

    @cached_property
    def triangles(self) -> tuple[tuple[int, int, int], ...]:
        out = []
        for i, j in self.edges:
            common = self.adj[i] & self.adj[j]
            out.extend((i, j, k) for k in bits(common >> (j + 1) << (j + 1)))  # only k > j
        return tuple(out)

    @cached_property
    def tetra_cells(self) -> tuple[tuple[int, int, int, int], ...]:
        out = set()
        for i, j in self.edges:
            for k, l in combinations(bits(self.adj[i] & self.adj[j]), 2):
                if self.adj[k] >> l & 1:
                    out.add(tuple(sorted((i, j, k, l))))
        cells = tuple(sorted(out))
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

    @cached_property
    def cells16(self) -> tuple[tuple[int, int, int, int], ...]:
        out = []
        for a in range(60):
            for b in range(a + 1, 60):
                if not self.pair_orth[a] >> b & 1:
                    continue
                common = self.pair_orth[a] & self.pair_orth[b]
                members = [k for k in range(b + 1, 60) if common >> k & 1]
                for c, d in combinations(members, 2):
                    if self.pair_orth[c] >> d & 1:
                        out.append((a, b, c, d))
        cells = tuple(sorted(set(out)))
        if len(cells) != 75:
            raise ValueError(f"{len(cells)} 16-cells, not 75")
        return cells

    @cached_property
    def cells24(self) -> tuple[frozenset[int], ...]:
        """Each 16-cell extended by the 8 pairs at unsigned product 1 with
        all four of its members; the extension is unique, giving 25 cells."""
        seen = {}
        for cell in self.cells16:
            extra = [
                q for q in range(60)
                if q not in cell
                and all(self.pair_class[q][p] == "1" for p in cell)
            ]
            if len(extra) != 8:
                raise ValueError("16-cell completion is not 8 pairs")
            full = frozenset(cell) | frozenset(extra)
            seen.setdefault(full, []).append(cell)
        cells = tuple(sorted(seen, key=lambda s: tuple(sorted(s))))
        if len(cells) != 25:
            raise ValueError(f"{len(cells)} 24-cells, not 25")
        for cell, sixteens in seen.items():
            if len(sixteens) != 3:
                raise ValueError(f"a 24-cell holds {len(sixteens)} 16-cells, not 3")
        return cells

    @cached_property
    def cell16_ambient(self) -> dict[tuple[int, ...], int]:
        """16-cell -> index of the unique 24-cell containing it."""
        out = {}
        for idx, tetrads in enumerate(self.tetrads24):
            for tetrad in tetrads:
                if tetrad in out:
                    raise ValueError(f"16-cell {tetrad} lies in two 24-cells")
                out[tetrad] = idx
        if set(out) != set(self.cells16):
            raise ValueError("the tetrads of the 24-cells are not the 75 16-cells")
        return out

    @cached_property
    def tetrads24(self) -> tuple[tuple[tuple[int, ...], ...], ...]:
        """The three mutually orthogonal tetrads inside each 24-cell."""
        out = []
        for cell in self.cells24:
            cell = sorted(cell)
            groups = []
            unused = set(cell)
            while unused:
                p = min(unused)
                tetrad = [p] + [q for q in cell if q != p and self.pair_class[p][q] == "0"]
                if len(tetrad) != 4:
                    raise ValueError(f"a tetrad of {len(tetrad)} pairs, not 4")
                groups.append(tuple(sorted(tetrad)))
                unused -= set(tetrad)
            if len(groups) != 3:
                raise ValueError(f"a 24-cell splits into {len(groups)} tetrads, not 3")
            out.append(tuple(groups))
        return tuple(out)

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
    def g(self) -> IcosianVec:
        return find_order5()

    @cached_property
    def array(self) -> tuple[tuple[int, ...], ...]:
        """array[i][j] = index of the 24-cell g^i * B * g^-j, B the base cell."""
        table = mult_table()
        gi = self.index[self.g.flat]
        gpow = [self.index[ICOSIAN_ONE.flat]]
        for _ in range(4):
            gpow.append(table[gpow[-1]][gi])
        cellset_to_idx = {
            frozenset(self.pairs[p][0] for p in cell) | frozenset(self.pairs[p][1] for p in cell): k
            for k, cell in enumerate(self.cells24)
        }
        return tuple(
            tuple(map(cellset_to_idx.__getitem__, row))
            for row in _coset_grid(gpow, sorted(cell24_base_indices()))
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
        """Exhaustive 5-clique search over the disjointness graph."""
        cliques = []

        def extend(stack: list[int], cand: int) -> None:
            if len(stack) == 5:
                cliques.append(frozenset(stack))
                return
            for b in bits(cand):
                extend(stack + [b], cand & self.disjointness_mask[b] & ~((1 << (b + 1)) - 1))

        for a in range(25):
            extend([a], self.disjointness_mask[a] & ~((1 << (a + 1)) - 1))
        return tuple(sorted(cliques, key=lambda s: tuple(sorted(s))))

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
        """Map {cell_a, cell_b} -> the 3 vertex pairs in both (a hexagon)."""
        out = {}
        for a, b in combinations(range(25), 2):
            inter = self.cells24[a] & self.cells24[b]
            if not inter:
                continue
            if len(inter) != 3:
                raise ValueError(f"24-cells {a} and {b} share {len(inter)} pairs, not 0 or 3")
            ps = sorted(inter)
            for p, q in combinations(ps, 2):
                if self.pair_class[p][q] != "1":
                    raise ValueError(f"pairs {p} and {q} of a hexagon are not at product 1")
            out[frozenset((a, b))] = frozenset(inter)
        if len(out) != 200 or len(set(out.values())) != 200:
            raise ValueError(f"{len(out)} hexagons, not 200 distinct")
        return out

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
        table = mult_table()
        inv = inverse_index()
        seen = set()
        for i, j in self.edges:
            t = table[inv[i]][j]
            orbit = [i]
            w = i
            for _ in range(9):
                w = table[w][t]
                orbit.append(w)
            if len(set(orbit)) != 10:
                raise ValueError(f"edge ({i}, {j}) does not lie on a decagon")
            seen.add(frozenset(self.pair_of[w] for w in orbit))
        out = tuple(sorted(seen, key=lambda s: tuple(sorted(s))))
        if len(out) != 72:
            raise ValueError(f"{len(out)} decagons, not 72")
        for d in out:
            for p, q in combinations(sorted(d), 2):
                if self.pair_class[p][q] not in ("phi", "phi-inv"):
                    raise ValueError(f"decagon pairs {p} and {q} are not at product phi or phi-inv")
        return out

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
        if p not in (2, 3, 5):
            raise ValueError("p must be 2, 3 or 5")
        table = mult_table()
        inv = inverse_index()
        one = self.index[ICOSIAN_ONE.flat]
        neg_one = self.neg[one]
        orders = [element_order_index(i) for i in range(self.n)]
        if p == 2:
            x = next(i for i in range(self.n) if orders[i] == 4)
            y = next(
                i for i in range(self.n)
                if orders[i] == 4 and len(mulclose_indices((x, i))) == 8
            )
            sylow = mulclose_indices((x, y))
            expected_n = 24
        else:
            x = next(i for i in range(self.n) if orders[i] == p)
            sylow = mulclose_indices((x, neg_one))
            expected_n = {3: 12, 5: 20}[p]
        normalizer = frozenset(
            h for h in range(self.n)
            if frozenset(table[table[h][s]][inv[h]] for s in sylow) == sylow
        )
        if len(normalizer) != expected_n:
            raise ValueError(f"p = {p}: normalizer of order {len(normalizer)}, not {expected_n}")
        q1 = self.n // len(normalizer)  # q + 1 of the array
        first: dict[frozenset[int], int] = {}  # each left coset and its first element
        for h in range(self.n):
            first.setdefault(frozenset(table[h][s] for s in normalizer), h)
        reps = list(first.values())
        if len(reps) != q1:
            raise ValueError(f"p = {p}: {len(reps)} cosets, not {q1}")
        entries = _coset_grid(reps, normalizer)
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
    def rectified(self) -> tuple[IcosianVec, ...]:
        """Vertices phi*(u+v) over the 720 edges (u, v); natural norm 12+16phi."""
        out = set()
        for i, j in self.edges:
            w = (self.vertices[i] + self.vertices[j]).scaled(GoldenInt(0, 1))
            out.add(w)
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
        scale = PHI_INV * PHI_INV  # phi^-2 = 2 - phi
        centers = {}
        for tet in parent.tetra_cells:
            s = parent.vertices[tet[0]]
            for t in tet[1:]:
                s = s + parent.vertices[t]
            centers[s.scaled(scale)] = tet
        if len(centers) != 600:
            raise ValueError(f"{len(centers)} cell centres, not 600")
        self.vertices = tuple(sorted(centers))
        self.index = {v.flat: i for i, v in enumerate(self.vertices)}
        self.tetra_of = tuple(centers[v] for v in self.vertices)
        self.n = 600

    @cached_property
    def cells(self) -> tuple[frozenset[int], ...]:
        """25 disjoint 24-cells g^i * C * g^-j covering the 600 vertices."""
        parent = self.parent
        g = parent.g
        ginv = g.quat_conj()
        gpow = [ICOSIAN_ONE]
        ginvpow = [ICOSIAN_ONE]
        for _ in range(4):
            gpow.append(icosian_mul(gpow[-1], g))
            ginvpow.append(icosian_mul(ginvpow[-1], ginv))
        base24 = [parent.vertices[i] for i in sorted(cell24_base_indices())]
        v1 = self.vertices[self.index[_V1_FLAT]]
        c_set = set()
        for a in base24:
            av = icosian_mul(a, v1)
            for b in base24:
                c_set.add(icosian_mul(av, b))
        if len(c_set) != 24:
            raise ValueError(f"the base 24-cell of the 120-cell has {len(c_set)} vertices, not 24")
        cells = []
        for i in range(5):
            for j in range(5):
                cell = frozenset(
                    self.index[icosian_mul(icosian_mul(gpow[i], w), ginvpow[j]).flat]
                    for w in c_set
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
        times4 = {tuple(4 * x for x in self.vertices[i].flat) for i in verts}
        if len(verts) != 120 or len(times4) != 120:
            return False
        w0, fc = self.vertices[verts[0]], self.parent.vertices[0].quat_conj()
        left, right = quat_mul(w0, fc), quat_mul(fc, w0)
        if left.dot(left) != GoldenInt(32, 0):
            return False
        h = self.parent.vertices
        return all(quat_mul(left, v).flat in times4 for v in h) or all(
            quat_mul(v, right).flat in times4 for v in h
        )


_V1_FLAT = (2, 0, 2, 0, 0, 0, 0, 0)


@cache
def the_600cell() -> Cell600:
    return Cell600()

