"""The 8-space E8/2E8 over F2 and its induced 4-space over F4.

Classes of E8/2E8 are 8-bit masks of coordinates over the certified root
basis.  Q(x) is half the E8 norm of a lift mod 2, B its polarization.  The
multiplication-by-phi endomorphism descends to an order-3 automorphism that
makes the 255 nonzero classes into 85 projective points, labeled by the 60
vertex pairs and the 25 24-cells (a 24-cell's point is the meet of its 12 pair
points' planes); lines, planes, the F4-valued form, and the 270 totally
singular 4-spaces are classified against the polytope oracles.

Sets of classes are 256-bit masks.  Every linear map of the classes (B's
rows, phibar, a symmetry's action, and the map from a row of B to the mask
of the classes it pairs to 1, which gives perp[x]) is one table built from
its rows (`_table`), as is Q, by Q(y + e_i) = Q(y) + Q(e_i) + B(y, e_i); a
point's plane is one mask; the 4-spaces grow along their echelon bases, each
built once; phibar's B-self-adjointness and the biadditivity of the F4 form's
polarization are checked one 256-value row at a time; and the pentad
analyses intersect spaces as masks, reading the maximal cliques of the
completions' disjointness graph off `polytopes.cliques`: the cliques whose
members have no common neighbour.
"""

from __future__ import annotations

from collections import Counter, namedtuple
from collections.abc import Sequence
from functools import cache, cached_property, reduce
from itertools import combinations
from operator import and_, mul

from .embed import E8Lattice, IntVec, certify_e8
from .polytopes import bits, cliques, closure

# `SymOp` in annotations is `symmetry.SymOp`, left unimported so that the
# lines and planes dumps never load symmetry.

# F4 as {0, 1, w, w+1} encoded 0..3; addition is xor.
F4_MUL = (
    (0, 0, 0, 0),
    (0, 1, 2, 3),
    (0, 2, 3, 1),
    (0, 3, 1, 2),
)
F4_TRACE = (0, 0, 1, 1)
OMEGA, OMEGA_BAR = 2, 3


_FULL = (1 << 256) - 1  # every class, as a 256-bit mask


def _parity(x: int) -> int:
    return x.bit_count() & 1


def _mask(vectors) -> int:
    return sum(1 << x for x in vectors)


def _bitrows(matrix: Sequence[Sequence[int]]) -> tuple[int, ...]:
    """Each row of an integer matrix mod 2, as a bitmask (entry j is bit j)."""
    return tuple(sum((x & 1) << j for j, x in enumerate(row)) for row in matrix)


def _table(bitrows: Sequence[int]) -> tuple[int, ...]:
    """The linear map x -> xor of bitrows[i] over the set bits i of x, as a
    table over all 2**len(bitrows) classes, built by doubling."""
    out = [0]
    for r in bitrows:
        out += [y ^ r for y in out]
    return tuple(out)


@cache
def _has_bit() -> tuple[int, ...]:
    """has_bit[i]: the 256-bit mask of the classes with coordinate i set."""
    return tuple(_mask(y for y in range(256) if y >> i & 1) for i in range(8))


def biadditive(values: Sequence[int]) -> bool:
    """Whether b(x, y) = v[x ^ y] + v[x] + v[y] is additive in x for every y,
    for a table v of 256 F4 values (added by xor).

    Each row b(x, .) is held as two 256-bit masks, one per bit of an F4
    value; bit y of shifted[x] is bit x ^ y of the values, and shifted[x]
    is shifted[x ^ low] with its blocks of 2^i bits swapped, low = 2^i the
    lowest bit of x.  Additivity in x is b(0, .) = 0 and b(x, .) =
    b(x ^ low, .) + b(low, .) for every x, one mask comparison per row.
    """
    if values[0]:
        return False  # b(0, .) is values[0] everywhere
    has_bit = _has_bit()
    planes = tuple(_mask(y for y, v in enumerate(values) if v >> k & 1) for k in (0, 1))
    shifted, rows = [planes], [(0, 0)]
    for x in range(1, 256):
        low = x & -x
        keep = _FULL ^ has_bit[low.bit_length() - 1]  # the classes clear at that bit
        shifted.append(tuple((p & keep) << low | (p >> low) & keep for p in shifted[x ^ low]))
        row = tuple(
            p ^ plane ^ (_FULL if values[x] >> k & 1 else 0)
            for k, (p, plane) in enumerate(zip(shifted[x], planes))
        )
        if x != low:
            a, b = rows[x ^ low], rows[low]
            if row != (a[0] ^ b[0], a[1] ^ b[1]):
                return False
        rows.append(row)
    return True


# rows: the integer matrix on the lattice basis; mod2_rows: its row bitmasks;
# table: the induced map on the 256 classes; squares_to_phi_plus_one:
# rows**2 == rows + 1 in integers; cube_is_identity: table applied three
# times is the identity.
PhiMap = namedtuple("PhiMap", "rows mod2_rows table squares_to_phi_plus_one cube_is_identity")
# The sorted vertex-pair and 24-cell ids that tag a line's points, and its type.
LineInfo = namedtuple("LineInfo", "vertex_pairs cells type")


class F4Geometry:
    def __init__(self, e8: E8Lattice):
        self.e8 = e8
        self.cell = e8.cell

        self.rowvec = _table(_bitrows(e8.gram))
        # Q(y + e_i) = Q(y) + Q(e_i) + B(y, e_i), doubled as in `_table`
        q = [0]
        for i, row in enumerate(e8.gram):
            q += [v ^ (row[i] // 2 & 1) ^ (self.rowvec[y] >> i & 1) for y, v in enumerate(q)]
        self.q = tuple(q)

        # lattice coordinates of the 120 roots and of their phi images
        self.root_coords = tuple(e8.coords_of(u) for u in e8.h_img)
        self.phi_coords = tuple(e8.coords_of(u) for u in e8.phi_img)
        self.phi = self._build_phi()
        self.class_of_h = _bitrows(self.root_coords)
        self.class_of_phi_h = _bitrows(self.phi_coords)

    # ---------- forms ----------

    @cached_property
    def perp(self) -> tuple[int, ...]:
        """perp[x]: the 256-bit mask of the classes y with B(x, y) = 0.

        B(x, y) is the parity of r & y for r = rowvec[x], and the mask odd[r]
        of the y that make it odd is linear in r, the xor of has_bit[i] over
        the set bits i of r."""
        odd = _table(_has_bit())
        return tuple(_FULL ^ odd[r] for r in self.rowvec)

    def self_adjoint(self, t: tuple[int, ...]) -> bool:
        """Whether B(t x, y) = B(x, t y) for all classes x and y.

        y -> B(x, t y) is the parity of rowvec[x] & t[y].  For t linear, that
        is the parity of tT(rowvec[x]) & y, where bit i of tT(r) is the parity
        of r & t[1 << i]; so the 65,536 pairs agree iff t is linear and
        rowvec[t[x]] == tT(rowvec[x]) for all 256 x.  (Since B is
        nondegenerate, agreement on all pairs also forces t to be linear.)
        """
        images = [t[1 << i] for i in range(8)]
        if tuple(t) != _table(images):  # t is not linear
            return False

        def transpose(r: int) -> int:
            return sum(_parity(r & images[i]) << i for i in range(8))

        rowvec = self.rowvec
        return all(rowvec[t[x]] == transpose(rowvec[x]) for x in range(256))

    def _induced(self, images: Sequence[IntVec], what: str) -> tuple[IntVec, ...]:
        """The integer matrix whose rows are the images of the basis roots,
        from the lattice coordinates of the images of all 120 roots; raises
        unless it maps every root to its image."""
        rows = tuple(images[vid] for vid in self.e8.basis_vids)
        cols = tuple(zip(*rows))
        for i, x in enumerate(self.root_coords):
            if tuple(sum(map(mul, x, col)) for col in cols) != images[i]:
                raise ValueError(f"{what} matrix does not map root {i} to its image")
        return rows

    def _build_phi(self) -> PhiMap:
        rows = self._induced(self.phi_coords, "phi")
        sq = tuple(
            tuple(sum(rows[i][k] * rows[k][j] for k in range(8)) for j in range(8))
            for i in range(8)
        )
        expect = tuple(
            tuple(rows[i][j] + (1 if i == j else 0) for j in range(8)) for i in range(8)
        )
        mod2_rows = _bitrows(rows)
        table = _table(mod2_rows)
        cube = tuple(table[table[table[x]]] for x in range(256))
        return PhiMap(rows, mod2_rows, table, sq == expect, cube == tuple(range(256)))

    # ---------- census ----------

    def census(self) -> dict[str, int]:
        iso = sum(1 for x in range(1, 256) if self.q[x] == 0)
        return {"zero": 1, "isotropic": iso, "non_isotropic": 255 - iso}

    # ---------- points ----------

    @cached_property
    def points(self) -> tuple[frozenset[int], ...]:
        """The 85 orbits of phibar on the nonzero classes, {x, t x, x ^ t x},
        in the order of their least classes; raises unless each has 3."""
        pts = tuple(closure([self.phi.table], range(1, 256)))
        if len(pts) != 85 or any(len(p) != 3 for p in pts):
            raise ValueError(f"{len(pts)} points of sizes {sorted(set(map(len, pts)))}, not 85 of 3 classes")
        return pts

    @cached_property
    def point_of(self) -> tuple[int, ...]:
        out = [-1] * 256
        for k, p in enumerate(self.points):
            for x in p:
                out[x] = k
        return tuple(out)

    @cached_property
    def tags(self) -> tuple[tuple[str, int], ...]:
        """85 tags: ('vertex', pair_id) or ('cell', cell24_index); a 24-cell's
        point is the meet of its 12 pair points' planes, singular and untagged."""
        cell = self.cell
        tags: dict[int, tuple[str, int]] = {}
        pair_points = []
        for pid, (i, _) in enumerate(cell.pairs):
            c = self.class_of_h[i]
            if self.class_of_h[cell.neg[i]] != c:
                raise ValueError(f"pair {pid}: a vertex and its negative differ mod 2")
            pt = self.point_of[c]
            if pt in tags:
                raise ValueError(f"pair {pid} shares point {pt} with another pair")
            if self.class_of_phi_h[i] not in self.points[pt]:
                raise ValueError(f"pair {pid}: the phi image leaves its point")
            tags[pt] = ("vertex", pid)
            pair_points.append(pt)
        for k, pids in enumerate(cell.cells24):
            meet = reduce(and_, (self.plane_classes[pair_points[p]] for p in pids))
            pt = self.point_of[meet.bit_length() - 1]
            if meet != _mask(self.points[pt]):
                raise ValueError(f"24-cell {k}: its 12 planes meet in {meet.bit_count()} classes, not one point")
            if pt in tags:
                raise ValueError(f"24-cell {k}: its point {pt} is already tagged {tags[pt]}")
            if any(self.q[x] for x in self.points[pt]):
                raise ValueError(f"24-cell {k}: its point {pt} is not singular")
            tags[pt] = ("cell", k)
        return tuple(tags[k] for k in range(85))

    @cached_property
    def point_of_pair(self) -> dict[int, int]:
        return {tag[1]: k for k, tag in enumerate(self.tags) if tag[0] == "vertex"}

    @cached_property
    def point_of_cell(self) -> dict[int, int]:
        return {tag[1]: k for k, tag in enumerate(self.tags) if tag[0] == "cell"}

    # ---------- lines and planes ----------

    @cached_property
    def lines(self) -> tuple[frozenset[int], ...]:
        """All 357 projective lines, as frozensets of 5 point indices.

        Each line is spanned once, by its first pair of points: covered[a] is
        the mask of points already on a line with a, and a pair it holds is
        skipped.  A new line may cover no pair twice, since two points lie on
        one line only."""
        seen = []
        covered = [0] * 85
        for a, b in combinations(range(85), 2):
            if covered[a] >> b & 1:
                continue
            pa = self.points[a] | {0}
            pb = self.points[b] | {0}
            span = {x ^ y for x in pa for y in pb}
            pts = frozenset(self.point_of[x] for x in span if x)
            if len(span) != 16 or len(pts) != 5:
                raise ValueError(f"points {a} and {b} do not span a line of 5 points")
            mask = sum(1 << p for p in pts)
            if any(covered[p] & mask for p in pts):
                raise ValueError(f"the line of points {a} and {b} meets another line in two points")
            for p in pts:
                covered[p] |= mask & ~(1 << p)
            seen.append(pts)
        out = tuple(sorted(seen, key=lambda s: tuple(sorted(s))))
        if len(out) != 357:
            raise ValueError(f"{len(out)} lines, not 357")
        return out

    @cached_property
    def line_info(self) -> dict[frozenset[int], LineInfo]:
        """Each line's sorted vertex-pair and 24-cell ids, which tag its points, and its type."""
        types = {5: "pentagon", 4: "cell16", 3: "triangle", 0: "partition"}
        out = {}
        for line in self.lines:
            tags = [self.tags[p] for p in line]
            vs = tuple(sorted(ref for kind, ref in tags if kind == "vertex"))
            cs = tuple(sorted(ref for kind, ref in tags if kind == "cell"))
            out[line] = LineInfo(vs, cs, types[len(vs)])
        return out

    @cached_property
    def line_census(self) -> dict[str, int]:
        return dict(Counter(info.type for info in self.line_info.values()))

    def line_certified(self, info: LineInfo) -> bool:
        """Whether a line's point tags match the H4-side incidence oracle: a
        partition line's cells are a row or column of the array, a pentagon's
        pairs a decagon, a cell16 line's pairs a 16-cell with its 24-cell, and
        a triangle's pairs the hexagon of the two cells crossed from its own."""
        vs, cs, kind = info
        cell = self.cell
        if kind == "partition":
            return frozenset(cs) in cell.partitions
        if kind == "pentagon":
            return frozenset(vs) in cell.decagons
        if kind == "cell16":
            return vs in cell.cell16_ambient and cs == (cell.cell16_ambient[vs],)
        return len(cs) == 2 and cell.hexagons.get(cell.crossed(cs)) == frozenset(vs)

    def line_certificates(self) -> dict[str, int]:
        """Count lines whose point tags match the H4-side incidence oracle."""
        ok = dict.fromkeys(("partition", "pentagon", "cell16", "triangle"), 0)
        for info in self.line_info.values():
            ok[info.type] += self.line_certified(info)
        # all lines are totally singular exactly for the partition type
        for line, (_, _, kind) in self.line_info.items():
            singular = all(self.q[x] == 0 for p in line for x in self.points[p])
            if singular != (kind == "partition"):
                raise ValueError(
                    f"line {sorted(line)}: totally singular is {singular}, but its type is {kind}"
                )
        return ok

    @cached_property
    def plane_classes(self) -> tuple[int, ...]:
        """Each point's plane, its B-orthogonal complement, as the 256-bit mask
        perp[a] & perp[b] & ~1 for two classes a, b of the point."""
        return tuple(self.perp[a] & self.perp[b] & ~1 for a, b, _ in map(sorted, self.points))

    @cached_property
    def planes(self) -> tuple[frozenset[int], ...]:
        """85 planes: B-orthogonal complements of the 85 points."""
        out = []
        for p, perp in zip(self.points, self.plane_classes):
            pts = frozenset(self.point_of[y] for y in bits(perp))
            if perp.bit_count() != 63 or len(pts) != 21:
                raise ValueError(f"the complement of point {sorted(p)} is not a plane of 21 points")
            out.append(pts)
        if len(set(out)) != 85:
            raise ValueError("the 85 planes are not distinct")
        return tuple(out)

    def plane_compositions(self) -> dict[str, int]:
        """Verify each plane's 21 points against the incidence oracle."""
        cell = self.cell
        counts = {"vertex": 0, "cell": 0}
        for k, plane in enumerate(self.planes):
            kind, ref = self.tags[k]
            if kind == "vertex":
                expect = {self.point_of_pair[ref]}
                expect |= {self.point_of_pair[q] for q in bits(cell.pair_orth[ref])}
                expect |= {self.point_of_cell[c] for c in cell.cell_of_pair[ref]}
            else:
                expect = {self.point_of_cell[ref]}
                expect |= {self.point_of_cell[c] for c in bits(cell.disjointness_mask[ref])}
                expect |= {self.point_of_pair[q] for q in cell.cells24[ref]}
            if plane != frozenset(expect):
                raise ValueError(f"plane {k} ({kind} {ref}) differs from its incidence oracle")
            counts[kind] += 1
        return counts

    # ---------- the F4-valued form ----------

    def q_omega(self, x: int) -> int:
        t = self.phi.table
        val = self.q[x]
        val ^= F4_MUL[OMEGA][self.q[t[x]]]
        val ^= F4_MUL[OMEGA_BAR][self.q[x ^ t[x]]]
        return val

    def q_omega_checks(self) -> dict[str, bool]:
        t = self.phi.table
        h_classes = set(self.class_of_h)
        phi_classes = set(self.class_of_phi_h)
        vertex_iso = {c ^ t[c] for c in h_classes}
        cell_vectors = {
            x for k, p in enumerate(self.points) if self.tags[k][0] == "cell" for x in p
        }
        qw = [self.q_omega(x) for x in range(256)]
        ok_values = (
            all(qw[x] == 0 for x in cell_vectors)
            and all(qw[x] == 1 for x in vertex_iso)
            and all(qw[x] == OMEGA_BAR for x in h_classes)
            and all(qw[x] == OMEGA for x in phi_classes)
        )
        ok_trace = all(F4_TRACE[qw[x]] == self.q[x] for x in range(1, 256))
        ok_scaling = all(qw[t[x]] == F4_MUL[OMEGA_BAR][qw[x]] for x in range(1, 256))
        return {
            "values": ok_values,
            "trace": ok_trace,
            "scaling": ok_scaling,
            "biadditive": biadditive(qw),
        }

    # ---------- symmetry action ----------

    def action_mod2(self, op: SymOp) -> tuple[int, ...]:
        """Table of the induced map on the 256 classes; checks exactness."""
        rows = self._induced([self.root_coords[j] for j in op.perm], "induced")
        gram = self.e8.gram
        rg = [[sum(map(mul, row, col)) for col in zip(*gram)] for row in rows]  # R G
        if tuple(tuple(sum(map(mul, a, b)) for b in rows) for a in rg) != gram:  # (R G) R^T
            raise ValueError("action does not preserve the Gram matrix")
        return _table(_bitrows(rows))

    def commutes_with_phi(self, op: SymOp) -> bool:
        a = self.action_mod2(op)
        t = self.phi.table
        return all(a[t[x]] == t[a[x]] for x in range(256))

    # ---------- totally singular 4-spaces ----------

    @cached_property
    def isotropic4(self) -> tuple[frozenset[int], ...]:
        """All totally singular 4-spaces, as frozensets of 15 nonzero vectors.

        Each space is grown once, along its echelon basis: x extends a
        partial space only if its top bit lies above every element of the
        space and it is clear at the top bits of the earlier basis vectors,
        which makes x the least element of its coset.  Classes are bits of a
        256-bit mask; each partial space carries the mask of its admissible
        next basis vectors (singular, perpendicular to the space, above its
        top bit and clear at its basis' top bits), so adding x with top bit i
        intersects that mask with perp[x] and with keep[i].  That is 135 +
        1,575 + 2,025 + 270 growth steps.
        """
        has_bit, perp = _has_bit(), self.perp
        # keep[i]: the classes clear at bit i and at least 2^(i+1)
        keep = [(_FULL ^ has_bit[i]) >> (2 << i) << (2 << i) for i in range(8)]
        iso = _mask(x for x in range(1, 256) if self.q[x] == 0)
        level = [((0,), iso)]
        for _ in range(4):
            nxt = []
            for span, cand in level:
                for x in bits(cand):
                    grown = span + tuple(s ^ x for s in span)
                    nxt.append((grown, cand & perp[x] & keep[x.bit_length() - 1]))
            level = nxt
        out = tuple(
            sorted((frozenset(span[1:]) for span, _ in level), key=lambda s: tuple(sorted(s)))
        )
        if len(out) != 270:
            raise ValueError(f"{len(out)} totally singular 4-spaces, not 270")
        return out

    @cached_property
    def isotropic4_masks(self) -> tuple[int, ...]:
        """The spaces of `isotropic4`, in its order, as 256-bit masks."""
        return tuple(map(_mask, self.isotropic4))

    @cached_property
    def pentad_rows(self) -> tuple[frozenset[int], ...]:
        return tuple(self._partition_space(k) for k in range(5))

    @cached_property
    def pentad_cols(self) -> tuple[frozenset[int], ...]:
        return tuple(self._partition_space(k) for k in range(5, 10))

    def _partition_space(self, part_idx: int) -> frozenset[int]:
        """The vectors of the points of the five 24-cells of a partition;
        raises unless they are one of the 270 totally singular 4-spaces, which
        makes them 15 vectors closed under addition."""
        mask = 0
        for c in self.cell.partitions[part_idx]:
            mask |= _mask(self.points[self.point_of_cell[c]])
        if mask not in self.isotropic4_masks:
            raise ValueError(f"partition {part_idx} does not give a totally singular 4-space")
        return frozenset(bits(mask))

    def figure1_check(self) -> bool:
        for i in range(5):
            for j in range(5):
                cell_idx = self.cell.array[i][j]
                expected = self.points[self.point_of_cell[cell_idx]]
                if self.pentad_rows[i] & self.pentad_cols[j] != expected:
                    return False
        rows_all = set().union(*self.pentad_rows)
        cols_all = set().union(*self.pentad_cols)
        return rows_all == cols_all and len(rows_all) == 75

    # ---------- disjoint-pair completions ----------

    def pentad_completions(self, v1: frozenset[int], v2: frozenset[int]) -> dict:
        if v1 & v2:
            raise ValueError("pentad completions need two disjoint spaces")
        m12 = _mask(v1) | _mask(v2)
        common_at = [k for k, m in enumerate(self.isotropic4_masks) if not m & m12]
        common = [self.isotropic4[k] for k in common_at]
        masks = [self.isotropic4_masks[k] for k in common_at]
        n = len(common)
        # adj[i]: bit j set when common spaces i and j are disjoint
        adj = [
            _mask(j for j in range(n) if j != i and not masks[i] & masks[j]) for i in range(n)
        ]
        # maximal cliques, as masks over common: the cliques no common space extends
        maximal = [_mask(c) for c in cliques(adj) if not reduce(and_, (adj[u] for u in c))]
        sizes = sorted({c.bit_count() + 2 for c in maximal})
        stars = [c for c in maximal if c.bit_count() == 7]
        duad_graph_ok = False
        if len(stars) == 8:
            star_of = [_mask(k for k, c in enumerate(stars) if c >> i & 1) for i in range(n)]
            duad_graph_ok = (
                all(sp.bit_count() == 2 for sp in star_of)
                and len(set(star_of)) == 28
                and all(
                    bool(star_of[i] & star_of[j]) == bool(adj[i] >> j & 1)
                    for i, j in combinations(range(n), 2)
                )
                and all((s1 & s2).bit_count() == 1 for s1, s2 in combinations(stars, 2))
            )
        return {
            "common_disjoint": n,
            "completion_sizes": sizes,
            "duad_graph": duad_graph_ok,
            "stars": sorted(
                ({common[i] for i in bits(c)} for c in stars),
                key=lambda star: sorted(tuple(sorted(u)) for u in star),
            ),
        }

    def orbit_class_analysis(self, completions: dict) -> dict:
        """Local (intersection-parity) version of the two 135-orbit structure.

        `completions` is pentad_completions(pentad_rows[0], pentad_rows[1])."""
        spaces = self.isotropic4_masks
        v1 = _mask(self.pentad_rows[0])
        class_a = [u for u in spaces if (u & v1).bit_count() in (0, 3, 15)]
        class_b = [u for u in spaces if (u & v1).bit_count() in (1, 7)]
        ok_sizes = len(class_a) == 135 and len(class_b) == 135
        ok_within = all(
            (u & w).bit_count() in (0, 3) for u, w in combinations(class_a, 2)
        ) and all((u & w).bit_count() in (0, 3) for u, w in combinations(class_b, 2))
        ok_across = all((u & w).bit_count() in (1, 7) for u in class_a for w in class_b)

        star = next(iter(completions["stars"]))
        nine = [_mask(self.pentad_rows[0]), _mask(self.pentad_rows[1])] + [
            _mask(u) for u in sorted(star, key=lambda s: tuple(sorted(s)))
        ]
        covered = 0
        for u in nine:
            covered |= u
        ok_nine = covered.bit_count() == 135 and all(
            not (a & b) for a, b in combinations(nine, 2)
        )
        others = [u for u in class_a if u not in nine] if ok_sizes else []
        ok_allocation = all(
            sorted((u & v).bit_count() for v in nine) == [0, 0, 0, 0, 3, 3, 3, 3, 3]
            for u in others
        )
        # within the same 135-class: spaces of the other class meet every
        # 4-space in an odd-dimensional (hence nonzero) subspace
        tetrad = nine[:4]
        meet_all = [
            u for u in class_a if u not in tetrad and all(u & v for v in tetrad)
        ]
        ok_tetrad = len(meet_all) == 5 and all(
            not (a & b) for a, b in combinations(meet_all, 2)
        )
        return {
            "classes": ok_sizes,
            "within_parity": ok_within,
            "across_parity": ok_across,
            "nine_disjoint_cover": ok_nine,
            "allocation_5_of_9": ok_allocation,
            "tetrad_completion": ok_tetrad,
        }


@cache
def f4_geometry() -> F4Geometry:
    return F4Geometry(certify_e8(-1))

