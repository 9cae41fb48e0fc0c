"""The full symmetry group of the 600-cell as vertex permutations.

Every rotation is x -> l*x*r and every reflection x -> l*conj(x)*r for icosians
l, r, and (l, r), (-l, -r) give the same map (Conway & Smith, On Quaternions and
Octonions, ch. 4): the group is 2I x 2I / {+-(1, 1)} extended by conjugation,
listed straight from the Cayley table as 14,400 vertex permutations with their
parity (+1 rotation, -1 reflection) and their triples (l, r, e), in listing
order, and certified against five generators.  An isometry is fixed by its
images of the vertices 2e_0..2e_3, so no element carries a matrix: only the
five generators are built from exact matrices (A + B*phi)/d.  The actions on
the 25 24-cells and the ten partitions are composed from those of x -> l*x,
x -> x*r and x -> conj(x); stabilizers, the kernel on the partitions and the
images of the five rows are read off those 120-entry tables without composing
every element's permutation.
"""

from __future__ import annotations

from functools import cache, cached_property
from operator import itemgetter
from typing import Callable

from .golden import GoldenInt, eliminate
from .icosian import (
    ICOSIAN_ONE, Flat, IcosianVec, generate_vertices, inverse_index, mult_table, mulclose_indices,
    quat_mul, vertex_index,
)
from .polytopes import Cell600, the_600cell

_BASIS = tuple(IcosianVec(int(j == 2 * k) for j in range(8)) for k in range(4))


@cache
def _basis_images() -> itemgetter:
    """A vertex permutation's images of the vertices 2e_0..2e_3."""
    idx = vertex_index()
    return itemgetter(*(idx[e.scaled(GoldenInt(2)).flat] for e in _BASIS))


def _apply(anum: tuple[int, ...], bnum: tuple[int, ...], den: int, flat: Flat) -> Flat:
    """(A + B*phi)/d times a flat vector; raises unless the image lies in Z[phi]^4."""
    out = []
    for r in range(4):
        sa = sb = 0
        for c in range(4):
            x, y = anum[4 * r + c], bnum[4 * r + c]
            u, w = flat[2 * c], flat[2 * c + 1]
            yw = y * w
            sa += x * u + yw
            sb += x * w + y * u + yw
        if sa % den or sb % den:
            raise ValueError("image is not integral in Z[phi]")
        out += (sa // den, sb // den)
    return tuple(out)


class SymOp:
    """An exact isometry of the 600-cell: a vertex permutation, which fixes
    the isometry, and its parity (+1 rotation, -1 reflection)."""

    __slots__ = ("parity", "perm")

    def __init__(self, perm: tuple[int, ...], parity: int):
        self.perm = perm
        self.parity = parity

    def __eq__(self, other: object) -> bool:
        return isinstance(other, SymOp) and self.perm == other.perm

    def __hash__(self) -> int:
        return hash(self.perm)

    def __repr__(self) -> str:
        return f"SymOp(parity={self.parity:+d})"


def _op_from_matrix(cols: list[IcosianVec], den: int) -> SymOp:
    anum = tuple(col.flat[2 * r] for r in range(4) for col in cols)
    bnum = tuple(col.flat[2 * r + 1] for r in range(4) for col in cols)
    idx = vertex_index()
    perm = tuple(idx[_apply(anum, bnum, den, v.flat)] for v in generate_vertices())
    # det((A + B*phi)/d) = +-1 exactly when det(A + B*phi) = +-d**4
    det = eliminate(
        [[GoldenInt(anum[4 * r + c], bnum[4 * r + c]) for c in range(4)] for r in range(4)]
    ).det
    unit = den**4
    if det not in (unit, -unit):
        raise ValueError(f"determinant ({det})/{unit} is not a sign")
    return SymOp(perm, 1 if det == unit else -1)


_Action = Callable[[tuple[int, ...]], tuple[int, ...]]


def _set_action(sets: tuple[frozenset[int], ...]) -> _Action:
    """The map of a permutation to the index in sets of each set's image,
    with sets indexed once; it raises KeyError if an image is not in sets."""
    index = {s: k for k, s in enumerate(sets)}
    return lambda perm: tuple(index[frozenset([perm[x] for x in s])] for s in sets)


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

    def _list(self) -> tuple[tuple[SymOp, ...], tuple[tuple[int, ...], ...]]:
        """Every element as a triple (l, r, e): x -> l*x*r, or x -> l*conj(x)*r
        when e = 1, products read off the Cayley table; r runs over one icosian
        of each +-pair, since (l, r) and (-l, -r) give the same map.  Returns
        the ops in listing order (l, then r, then e) and their l, r and e."""
        table, conj = mult_table(), itemgetter(*inverse_index())
        columns = tuple(zip(*table))  # columns[r][y] = index of y*r
        reps = tuple(r for r, _ in self.cell.pairs)
        ops = []
        for row in table:
            left = itemgetter(*row)
            for r in reps:
                rot = left(columns[r])
                ops += (SymOp(rot, 1), SymOp(conj(rot), -1))
        ops = tuple(ops)
        ls = tuple(l for l in range(len(table)) for _ in range(2 * len(reps)))
        rs = tuple(r for r in reps for _ in range(2)) * len(table)
        es = (0, 1) * (len(table) * len(reps))
        self._certify(ops, ls, rs, es, _basis_images())
        return ops, (ls, rs, es)

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

    @cached_property
    def _on_cells(self) -> _Action:
        """A permutation of the 60 pairs to the one it induces on the 25 24-cells."""
        return _set_action(self.cell.cells24)

    def _cell_action(self, perm: tuple[int, ...]) -> tuple[int, ...]:
        """The permutation of the 25 24-cells induced by a vertex permutation;
        raises KeyError if an image is not a 24-cell."""
        return self._on_cells(self._pair_action(perm))

    @cached_property
    def _cell_tables(self) -> tuple[list, list, tuple[int, ...]]:
        """Cell permutations of x -> l*x and x -> x*r for each icosian, and of x -> conj(x)."""
        table, act = mult_table(), self._cell_action
        return [act(row) for row in table], [act(col) for col in zip(*table)], act(inverse_index())

    @cached_property
    def _ten_tables(self) -> tuple[list, list, tuple[int, ...]]:
        """The cell tables projected onto the ten partitions."""
        left, right, conj = self._cell_tables
        act = _set_action(self.cell.partitions)
        return [act(p) for p in left], [act(p) for p in right], act(conj)

    def _compose(self, tables: tuple[list, list, tuple[int, ...]], ks) -> tuple[tuple[int, ...], ...]:
        """The action of each element k in ks as left[l] o right[r], then o conj
        for a reflection, since an action is a homomorphism."""
        left, right, conj = tables
        after_right, after_conj = [itemgetter(*p) for p in right], itemgetter(*conj)
        ls, rs, es = self._factors
        return tuple(
            after_conj(after_right[rs[k]](left[ls[k]])) if es[k] else after_right[rs[k]](left[ls[k]])
            for k in ks
        )

    def _images_of(self, tables: tuple[list, list, tuple[int, ...]], x: int) -> list[int]:
        """Each element's image of the point x, composed as in _compose:
        left[l][right[r][x]], with conj[x] in place of x when e = 1."""
        left, right, conj = tables
        xs = (x, conj[x])
        return [left[l][right[r][xs[e]]] for l, r, e in zip(*self._factors)]

    @cached_property
    def cell_perms(self) -> tuple[tuple[int, ...], ...]:
        return self._compose(self._cell_tables, range(len(self.ops)))

    @cached_property
    def ten_perms(self) -> tuple[tuple[int, ...], ...]:
        return self._compose(self._ten_tables, range(len(self.ops)))

    def cell_perms_of(self, ks) -> tuple[tuple[int, ...], ...]:
        """The 24-cell permutations of the elements ks alone."""
        return self._compose(self._cell_tables, ks)

    @cached_property
    def ten_kernel(self) -> tuple[int, ...]:
        """Elements fixing all ten partitions: those fixing partition 0, then
        each of them checked on its whole permutation."""
        tables, idt = self._ten_tables, tuple(range(10))
        fixing = [k for k, y in enumerate(self._images_of(tables, 0)) if y == 0]
        return tuple(k for k, tp in zip(fixing, self._compose(tables, fixing)) if tp == idt)

    @cached_property
    def row_images(self) -> tuple[int, ...]:
        """Each element's image of the five rows (partitions 0..4) as a 10-bit
        mask, composed as in _compose: right[r] of the rows (of their conj images
        when e = 1) as a mask, then left[l] of that mask, once per l and mask."""
        left, right, conj = self._ten_tables
        starts = (range(5), [conj[i] for i in range(5)])
        inner = [[sum(1 << perm[i] for i in s) for s in starts] for perm in right]
        images: dict[tuple[int, int], int] = {}
        out = []
        for l, r, e in zip(*self._factors):
            m = inner[r][e]
            y = images.get((l, m))
            if y is None:
                y = images[l, m] = sum(1 << left[l][i] for i in range(10) if m >> i & 1)
            out.append(y)
        return tuple(out)

    # ---------- stabilizers ----------

    def stabilizer_of_vertex(self, i: int) -> tuple[int, ...]:
        return tuple(k for k, op in enumerate(self.ops) if op.perm[i] == i)

    def stabilizer_of_cell(self, c: int) -> tuple[int, ...]:
        return tuple(k for k, y in enumerate(self._images_of(self._cell_tables, c)) if y == c)

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
        elements x with x(g(0)) = g(x(0)) for each generator g."""
        gens = [g.perm for g in self.generators]
        perms = [op.perm for op in self.ops]
        ks = range(len(perms))
        for g in gens:
            ks = [k for k in ks if perms[k][g[0]] == g[perms[k][0]]]
        return tuple(k for k in ks if all(perms[k][g[i]] == g[perms[k][i]] for g in gens for i in range(120)))


@cache
def generate_group() -> SymmetryGroup:
    return SymmetryGroup(the_600cell())

