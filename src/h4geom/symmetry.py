"""The full symmetry group of the 600-cell as vertex permutations with exact matrices.

The group acts faithfully on the 120 vertices, so it is closed as a group of
vertex permutations, each carried with its parity (+1 rotation, -1
otherwise), starting from the left/right icosian multiplications and one
reflection; this yields all 14,400 elements.  Each element's exact matrix is
then read off the images of the four vertices 2e_0..2e_3: a 4x4 matrix over
Q(phi) stored as an integer matrix pair (A, B) with common denominator d,
meaning (A + B*phi)/d.
"""

from __future__ import annotations

from functools import cache, cached_property
from math import gcd
from operator import itemgetter

from .golden import GoldenInt, GoldenRational, eliminate
from .icosian import ICOSIAN_ONE, IcosianVec, generate_vertices, mulclose_indices, quat_mul, vertex_index
from .polytopes import Cell600, the_600cell

Mat16 = tuple[int, ...]


class SymOp:
    """An exact isometry of the 600-cell."""

    __slots__ = ("anum", "bnum", "den", "parity", "perm")

    def __init__(self, anum: Mat16, bnum: Mat16, den: int, parity: int, perm: tuple[int, ...]):
        self.anum = anum
        self.bnum = bnum
        self.den = den
        self.parity = parity
        self.perm = perm

    def key(self) -> tuple:
        return (self.den, self.anum, self.bnum)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, SymOp) and self.key() == other.key()

    def __hash__(self) -> int:
        return hash(self.key())

    def __repr__(self) -> str:
        return f"SymOp(den={self.den}, parity={self.parity:+d})"

    def matrix(self) -> tuple[tuple[GoldenRational, ...], ...]:
        return tuple(
            tuple(
                GoldenRational(GoldenInt(self.anum[4 * r + c], self.bnum[4 * r + c]), self.den)
                for c in range(4)
            )
            for r in range(4)
        )

    def compose(self, other: SymOp) -> SymOp:
        """self after other."""
        a1, b1, a2, b2 = self.anum, self.bnum, other.anum, other.bnum
        anum = [0] * 16
        bnum = [0] * 16
        for r in range(4):
            for c in range(4):
                sa = sb = 0
                for k in range(4):
                    x, y = a1[4 * r + k], b1[4 * r + k]
                    u, v = a2[4 * k + c], b2[4 * k + c]
                    yv = y * v
                    sa += x * u + yv
                    sb += x * v + y * u + yv
                anum[4 * r + c] = sa
                bnum[4 * r + c] = sb
        den = self.den * other.den
        return _normalized(
            anum, bnum, den, self.parity * other.parity,
            tuple(self.perm[i] for i in other.perm),
        )

    def apply_vec(self, v: IcosianVec) -> IcosianVec:
        flat = v.flat
        out = []
        for r in range(4):
            sa = sb = 0
            for c in range(4):
                x, y = self.anum[4 * r + c], self.bnum[4 * r + c]
                u, w = flat[2 * c], flat[2 * c + 1]
                yw = y * w
                sa += x * u + yw
                sb += x * w + y * u + yw
            if sa % self.den or sb % self.den:
                raise ValueError("image is not integral in Z[phi]")
            out.append(GoldenInt(sa // self.den, sb // self.den))
        return IcosianVec(*out)


def _normalized(anum: list[int], bnum: list[int], den: int, parity: int, perm: tuple[int, ...]) -> SymOp:
    g = den
    for x in anum:
        g = gcd(g, x)
        if g == 1:
            break
    if g > 1:
        for x in bnum:
            g = gcd(g, x)
            if g == 1:
                break
    if g > 1:
        anum = [x // g for x in anum]
        bnum = [x // g for x in bnum]
        den //= g
    return SymOp(tuple(anum), tuple(bnum), den, parity, perm)


def _op_from_matrix(cols: list[IcosianVec], den: int) -> SymOp:
    anum = [0] * 16
    bnum = [0] * 16
    for c, col in enumerate(cols):
        for r in range(4):
            anum[4 * r + c] = col.c[r].a
            bnum[4 * r + c] = col.c[r].b
    probe = SymOp(tuple(anum), tuple(bnum), den, 0, ())
    verts = generate_vertices()
    idx = vertex_index()
    perm = tuple(idx[probe.apply_vec(v).flat] for v in verts)
    op = _normalized(list(probe.anum), list(probe.bnum), den, 0, perm)
    # det((A + B*phi)/d) = +-1 exactly when det(A + B*phi) = +-d**4
    det = eliminate(
        [[GoldenInt(op.anum[4 * r + c], op.bnum[4 * r + c]) for c in range(4)] for r in range(4)]
    ).det
    unit = op.den**4
    if det not in (unit, -unit):
        raise ValueError(f"determinant {GoldenRational(det, unit)} is not a sign")
    return SymOp(op.anum, op.bnum, op.den, 1 if det == unit else -1, perm)


_BASIS = tuple(
    IcosianVec(*(GoldenInt(1 if k == r else 0) for r in range(4))) for k in range(4)
)


def left_mul(v: IcosianVec) -> SymOp:
    """x -> v*x/2, a rotation."""
    return _op_from_matrix([quat_mul(v, e) for e in _BASIS], 2)


def right_mul(v: IcosianVec) -> SymOp:
    """x -> x*v/2, a rotation."""
    return _op_from_matrix([quat_mul(e, v) for e in _BASIS], 2)


def reflection(v: IcosianVec) -> SymOp:
    """x -> x - 2 (x.v)/(v.v) v; negates v, fixes its orthoplane, parity odd."""
    cols = []
    for e in _BASIS:
        coef = e.dot(v)  # (e.v); subtract coef * v / 2 since v.v = 4
        col = e.scaled(GoldenInt(2)) - v.scaled(coef)
        cols.append(col)
    return _op_from_matrix(cols, 2)


def identity_op() -> SymOp:
    return _op_from_matrix([e.scaled(GoldenInt(2)) for e in _BASIS], 2)


def negation_op() -> SymOp:
    return _op_from_matrix([e.scaled(GoldenInt(-2)) for e in _BASIS], 2)


class SymmetryGroup:
    def __init__(self, cell: Cell600) -> None:
        self.cell = cell
        self.generators = self._make_generators()
        self.ops = self._close()
        self.by_key = {op.key(): k for k, op in enumerate(self.ops)}

    def _make_generators(self) -> tuple[SymOp, ...]:
        cell = self.cell
        verts = cell.vertices
        a_idx = cell.index[cell.g.flat]
        b_idx = next(
            i for i in range(cell.n)
            if len(mulclose_indices((a_idx, i))) == 120
        )
        a, b = verts[a_idx], verts[b_idx]
        return (
            left_mul(a), left_mul(b), right_mul(a), right_mul(b),
            reflection(ICOSIAN_ONE),
        )

    def _close(self) -> tuple[SymOp, ...]:
        """Breadth-first closure over (perm, parity); each perm is g after x."""
        gens = [(g.perm, g.parity) for g in self.generators]
        els: dict[tuple[int, ...], int] = dict(gens)
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
                        if len(els) > 14400:
                            raise RuntimeError("closure exceeded 14400; arithmetic bug")
            frontier = new
        flats = [v.flat for v in self.cell.vertices]
        bidx = [self.cell.index[e.scaled(GoldenInt(2)).flat] for e in _BASIS]
        ops = []
        for perm, parity in els.items():
            # column c is the image of 2e_c, halved: (A + B*phi)/2 before reduction
            cols = [flats[perm[b]] for b in bidx]
            anum = [col[2 * r] for r in range(4) for col in cols]
            bnum = [col[2 * r + 1] for r in range(4) for col in cols]
            ops.append(_normalized(anum, bnum, 2, parity, perm))
        return tuple(sorted(ops, key=SymOp.key))

    @cached_property
    def rotation_count(self) -> int:
        return sum(1 for op in self.ops if op.parity == 1)

    # ---------- induced permutations ----------

    def pair_perm(self, op: SymOp) -> tuple[int, ...]:
        cell = self.cell
        return tuple(cell.pair_of[op.perm[cell.pairs[p][0]]] for p in range(60))

    @cached_property
    def _cell_key(self) -> dict[tuple[int, int], int]:
        """An orthogonal pid pair inside a 24-cell determines it uniquely."""
        out: dict[tuple[int, int], int] = {}
        cell = self.cell
        for idx, tetrads in enumerate(cell.tetrads24):
            for tetrad in tetrads:
                for i in range(4):
                    for j in range(4):
                        if i != j:
                            out[(tetrad[i], tetrad[j])] = idx
        return out

    @cached_property
    def _cell_reps(self) -> tuple[tuple[int, int], ...]:
        """Per 24-cell, a vertex of each of the first two pairs of its first tetrad."""
        pairs = self.cell.pairs
        return tuple((pairs[t[0]][0], pairs[t[1]][0]) for t, _, _ in self.cell.tetrads24)

    def cell_perm(self, op: SymOp) -> tuple[int, ...]:
        perm, pair_of, key = op.perm, self.cell.pair_of, self._cell_key
        return tuple(key[(pair_of[perm[a]], pair_of[perm[b]])] for a, b in self._cell_reps)

    def cell_perm_checked(self, op: SymOp) -> tuple[int, ...]:
        """Full set-image computation; raises if an image is not a 24-cell."""
        pp = self.pair_perm(op)
        cell = self.cell
        lookup = {c: k for k, c in enumerate(cell.cells24)}
        return tuple(lookup[frozenset(pp[p] for p in cell.cells24[idx])] for idx in range(25))

    @cached_property
    def cell_perms(self) -> tuple[tuple[int, ...], ...]:
        out = []
        for k, op in enumerate(self.ops):
            if k % 289 == 0 or op in self.generators:
                cp = self.cell_perm_checked(op)
                if cp != self.cell_perm(op):
                    raise ValueError(f"cell_perm fast path disagrees with the full one at op {k}")
            else:
                cp = self.cell_perm(op)
            out.append(cp)
        return tuple(out)

    @cached_property
    def _partition_cells(self) -> tuple[tuple[int, ...], ...]:
        return tuple(tuple(part) for part in self.cell.partitions)

    @cached_property
    def _partition_index(self) -> dict[int, int]:
        """Each partition's index, keyed by its 25-bit mask of 24-cells."""
        return {sum(1 << c for c in part): k for k, part in enumerate(self._partition_cells)}

    def _ten_perm_of(self, cp: tuple[int, ...]) -> tuple[int, ...]:
        """The permutation of the ten partitions induced by a permutation of
        the 25 cells; raises KeyError if an image is not a partition."""
        index = self._partition_index
        return tuple(
            index[(1 << cp[a]) | (1 << cp[b]) | (1 << cp[c]) | (1 << cp[d]) | (1 << cp[e])]
            for a, b, c, d, e in self._partition_cells
        )

    def ten_perm(self, op: SymOp) -> tuple[int, ...]:
        """Induced permutation of the ten partitions (symbols 1..5, 6..X)."""
        return self._ten_perm_of(self.cell_perm(op))

    @cached_property
    def ten_perms(self) -> tuple[tuple[int, ...], ...]:
        return tuple(map(self._ten_perm_of, self.cell_perms))

    @cached_property
    def ten_kernel(self) -> tuple[int, ...]:
        idt = tuple(range(10))
        return tuple(k for k, tp in enumerate(self.ten_perms) if tp == idt)

    # ---------- stabilizers ----------

    def stabilizer_of_vertex(self, i: int) -> tuple[int, ...]:
        return tuple(k for k, op in enumerate(self.ops) if op.perm[i] == i)

    def stabilizer_of_cell(self, c: int) -> tuple[int, ...]:
        return tuple(k for k, cp in enumerate(self.cell_perms) if cp[c] == c)

    def orbits(self, perms: list[tuple[int, ...]], points: range) -> list[set[int]]:
        seen: set[int] = set()
        out = []
        for p in points:
            if p in seen:
                continue
            orbit = {p}
            frontier = [p]
            while frontier:
                x = frontier.pop()
                for perm in perms:
                    y = perm[x]
                    if y not in orbit:
                        orbit.add(y)
                        frontier.append(y)
            seen |= orbit
            out.append(orbit)
        return out

    @cached_property
    def center(self) -> tuple[int, ...]:
        out = []
        for k, op in enumerate(self.ops):
            ok = True
            for g in self.generators:
                pa, pb = op.perm, g.perm
                for i in range(120):
                    if pa[pb[i]] != pb[pa[i]]:
                        ok = False
                        break
                if not ok:
                    break
            if ok:
                out.append(k)
        return tuple(out)


@cache
def generate_group() -> SymmetryGroup:
    return SymmetryGroup(the_600cell())

