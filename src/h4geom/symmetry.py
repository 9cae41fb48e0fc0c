"""The full symmetry group of the 600-cell as vertex permutations with exact matrices.

Every rotation is x -> l*x*r and every reflection x -> l*conj(x)*r for icosians
l, r, and (l, r), (-l, -r) give the same map (Conway & Smith, On Quaternions and
Octonions, ch. 4): the group is 2I x 2I / {+-(1, 1)} extended by conjugation,
listed straight from the Cayley table as 14,400 vertex permutations with their
parity (+1 rotation, -1 reflection) and certified against five generators.
Each element's exact matrix is read off the images of the vertices 2e_0..2e_3:
an integer matrix pair (A, B) with common denominator d, meaning (A + B*phi)/d.
Its actions on the 25 24-cells and the ten partitions are composed from those
of x -> l*x, x -> x*r and x -> conj(x).
"""

from __future__ import annotations

from functools import cache, cached_property
from itertools import compress
from math import gcd
from operator import eq, itemgetter

from .golden import GoldenInt, GoldenRational, eliminate
from .icosian import (
    ICOSIAN_ONE, IcosianVec, generate_vertices, inverse_index, mult_table, mulclose_indices, quat_mul,
    vertex_index,
)
from .polytopes import Cell600, the_600cell

class SymOp:
    """An exact isometry of the 600-cell."""

    __slots__ = ("anum", "bnum", "den", "parity", "perm")

    def __init__(self, anum: tuple[int, ...], bnum: tuple[int, ...], den: int, parity: int,
                 perm: tuple[int, ...]):
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


def _set_images(perm: tuple[int, ...], sets: tuple[frozenset[int], ...]) -> tuple[int, ...]:
    """The index in sets of each set's image under perm; KeyError if an image is not in sets."""
    index = {s: k for k, s in enumerate(sets)}
    return tuple(index[frozenset([perm[x] for x in s])] for s in sets)


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
        self.ops, self._factors = self._list()

    def _make_generators(self) -> tuple[SymOp, ...]:
        cell = self.cell
        verts = cell.vertices
        a_idx = cell.index[cell.g.flat]
        b_idx = next((i for i in range(cell.n) if len(mulclose_indices((a_idx, i))) == 120), None)
        if b_idx is None:
            raise ValueError("no icosian generates 2I with g")
        a, b = verts[a_idx], verts[b_idx]
        return (left_mul(a), left_mul(b), right_mul(a), right_mul(b), reflection(ICOSIAN_ONE))

    def _list(self) -> tuple[tuple[SymOp, ...], tuple[bytes, bytes, bytes]]:
        """Every element as a triple (l, r, e): x -> l*x*r, or x -> l*conj(x)*r
        when e = 1, products read off the Cayley table; r runs over one icosian
        of each +-pair, since (l, r) and (-l, -r) give the same map.  Returns
        the ops in SymOp.key order and, aligned with them, their l, r and e."""
        table, conj = mult_table(), itemgetter(*inverse_index())
        columns = tuple(zip(*table))  # columns[r][y] = index of y*r
        # Column c of (A + B*phi)/2, before reduction, is the image of 2e_c: entry
        # (r, c) of A is entry 8c + 2r of the four images' flats laid end to end.
        at_basis = itemgetter(*(self.cell.index[e.scaled(GoldenInt(2)).flat] for e in _BASIS))
        a_of = itemgetter(*(8 * c + 2 * r for r in range(4) for c in range(4)))
        b_of = itemgetter(*(8 * c + 2 * r + 1 for r in range(4) for c in range(4)))
        flats = self.cell.flats
        # SymOp.key order as one integer: den above the 32 entries of A then B,
        # row by row, each a base-8 digit (entry + 2; entries lie in -2..2)
        d0, d1, d2, d3 = (
            [sum(((f[2 * r] + 2) << 48 | f[2 * r + 1] + 2) << 3 * (15 - 4 * r - c) for r in range(4))
             for f in flats]
            for c in range(4)
        )
        listed = []
        for l, row in enumerate(table):
            left = itemgetter(*row)
            for r, _ in self.cell.pairs:
                rot = left(columns[r])
                for e, perm, parity in ((0, rot, 1), (1, conj(rot), -1)):
                    i0, i1, i2, i3 = at_basis(perm)
                    cols = flats[i0] + flats[i1] + flats[i2] + flats[i3]
                    op = _normalized(a_of(cols), b_of(cols), 2, parity, perm)
                    key = (op.den << 96) + d0[i0] + d1[i1] + d2[i2] + d3[i3]
                    listed.append((key, op, l, r, e))
        listed.sort(key=itemgetter(0))
        ops, ls, rs, es = list(zip(*listed))[1:]
        del listed
        self._certify(ops, ls, rs, es, at_basis)
        return ops, (bytes(ls), bytes(rs), bytes(es))

    def _certify(self, ops, ls, rs, es, at_basis) -> None:
        """Raises unless the listed elements are distinct, contain the five
        generators and are closed under them.  An isometry is fixed by its images
        of 2e_0..2e_3, so distinct images mean distinct permutations.  Closure is
        checked on the triples: a rotation g = (gl, gr, 0) sends (l, r, e) to
        (gl*l, r*gr, e), and a reflection g = (gl, gr, 1) to (gl*conj(r),
        conj(l)*gr, 1 - e).  That must be the triple of the listed element with
        g's images of element k's images of 2e_0..2e_3, compared as
        (pair of l, l*r, e), which fixes a triple up to its (-l, -r) twin."""
        table, conj = mult_table(), itemgetter(*inverse_index())
        index = {at_basis(op.perm): k for k, op in enumerate(ops)}
        if len(index) != len(ops):
            raise ValueError(f"only {len(index)} of the {len(ops)} listed elements are distinct")
        basis_images = tuple(zip(*index))
        products = tuple(table[l][r] for l, r in zip(ls, rs))
        classes = (itemgetter(*ls)(self.cell.pair_of), products, es)
        for m, g in enumerate(self.generators):
            k = index.get(at_basis(g.perm))
            if k is None or ops[k].perm != g.perm or ops[k].parity != g.parity:
                raise ValueError(f"generator {m} is not in the listing")
            # gl*l*r*gr for a rotation, gl*conj(l*r)*gr for a reflection
            left = conj(table[ls[k]]) if es[k] else table[ls[k]]
            right = tuple(row[rs[k]] for row in table)
            expected = (
                itemgetter(*(rs if es[k] else ls))(itemgetter(*left)(self.cell.pair_of)),
                itemgetter(*itemgetter(*products)(left))(right),
                tuple(1 - e for e in es) if es[k] else es,
            )
            named = list(map(index.get, zip(*(itemgetter(*column)(g.perm) for column in basis_images))))
            if None in named or expected != tuple(itemgetter(*named)(c) for c in classes):
                raise ValueError(f"the listing is not closed under generator {m}")

    @cached_property
    def rotation_count(self) -> int:
        return sum(1 for op in self.ops if op.parity == 1)

    # ---------- induced permutations ----------

    def _pair_action(self, perm: tuple[int, ...]) -> tuple[int, ...]:
        pair_of = self.cell.pair_of
        return tuple(pair_of[perm[a]] for a, _ in self.cell.pairs)

    def pair_perm(self, op: SymOp) -> tuple[int, ...]:
        return self._pair_action(op.perm)

    def _cell_action(self, perm: tuple[int, ...]) -> tuple[int, ...]:
        """The permutation of the 25 24-cells induced by a vertex permutation;
        raises KeyError if an image is not a 24-cell."""
        return _set_images(self._pair_action(perm), self.cell.cells24)

    def cell_perm(self, op: SymOp) -> tuple[int, ...]:
        return self._cell_action(op.perm)

    def ten_perm(self, op: SymOp) -> tuple[int, ...]:
        """The permutation of the ten partitions (symbols 1..5, 6..X) induced
        by op; raises KeyError if an image is not a partition."""
        return _set_images(self.cell_perm(op), self.cell.partitions)

    @cached_property
    def _cell_tables(self) -> tuple[list, list, tuple[int, ...]]:
        """Cell permutations of x -> l*x and x -> x*r for each icosian, and of x -> conj(x)."""
        table, act = mult_table(), self._cell_action
        return [act(row) for row in table], [act(col) for col in zip(*table)], act(inverse_index())

    def _compose(self, left: list, right: list, conj: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
        """Each element's action as left[l] o right[r], then o conj for a
        reflection, since an action is a homomorphism."""
        after_right, after_conj = [itemgetter(*p) for p in right], itemgetter(*conj)
        return tuple(
            after_conj(after_right[r](left[l])) if e else after_right[r](left[l])
            for l, r, e in zip(*self._factors)
        )

    @cached_property
    def cell_perms(self) -> tuple[tuple[int, ...], ...]:
        return self._compose(*self._cell_tables)

    @cached_property
    def ten_perms(self) -> tuple[tuple[int, ...], ...]:
        left, right, conj = self._cell_tables
        parts = self.cell.partitions
        return self._compose([_set_images(p, parts) for p in left], [_set_images(p, parts) for p in right],
                             _set_images(conj, parts))

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
        """Elements commuting with every generator, after a first cut to the
        elements x with x(g(0)) = g(x(0)) for the first generator g."""
        gens = [g.perm for g in self.generators]
        perms = [op.perm for op in self.ops]
        g = gens[0]
        first = map(eq, map(itemgetter(g[0]), perms), itemgetter(*map(itemgetter(0), perms))(g))
        return tuple(k for k in compress(range(len(perms)), first)
                     if all(perms[k][g[i]] == g[perms[k][i]] for g in gens for i in range(120)))


@cache
def generate_group() -> SymmetryGroup:
    return SymmetryGroup(the_600cell())

