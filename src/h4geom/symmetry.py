"""The full symmetry group of the 600-cell as vertex permutations.

Every rotation is x -> l*x*r and every reflection x -> l*conj(x)*r for icosians
l, r, and (l, r), (-l, -r) give the same map (Conway & Smith, On Quaternions and
Octonions, ch. 4): the group is 2I x 2I / {+-(1, 1)} extended by conjugation,
held as its 14,400 triples (l, r, e) in listing order and certified against
five generators.  An isometry is fixed by its images of the vertices
2e_0..2e_3, so no element carries a matrix: only the five generators are built
from exact matrices (A + B*phi)/d.  The actions on the vertices, the 60 pairs,
the 25 24-cells and the ten partitions are composed from those of x -> l*x,
x -> x*r and x -> conj(x), read off the Cayley table; stabilizers, the centre,
the kernel on the partitions and the images of the five rows are read off those
tables, and an element's vertex permutation and parity (+1 rotation, -1
reflection) are composed only when ops[k] is read.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from functools import cache, cached_property
from operator import itemgetter

from .golden import GoldenInt, eliminate
from .icosian import (
    ICOSIAN_ONE, Flat, IcosianVec, generate_vertices, inverse_index, mult_table, mulclose_indices,
    quat_mul, vertex_index,
)
from .polytopes import Cell600, the_600cell

_BASIS = tuple(IcosianVec(int(j == 2 * k) for j in range(8)) for k in range(4))


@cache
def _basis_indices() -> tuple[int, ...]:
    """The vertex indices of 2e_0..2e_3, whose images fix an isometry."""
    idx = vertex_index()
    return tuple(idx[e.scaled(GoldenInt(2)).flat] for e in _BASIS)


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


def _project(tables: tuple, act: _Action) -> tuple[list, list, tuple[int, ...]]:
    """A (left, right, conj) table triple acted on by act, entry by entry."""
    left, right, conj = tables
    return [act(p) for p in left], [act(p) for p in right], act(conj)


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


class _Ops(Sequence):
    """The group's elements in listing order, each SymOp composed on read."""

    def __init__(self, group: SymmetryGroup) -> None:
        self._group = group

    def __len__(self) -> int:
        return len(self._group.factors[2])

    def __getitem__(self, k: int | slice) -> SymOp | tuple[SymOp, ...]:
        """ops[k], or the tuple of a slice's elements composed in one call."""
        ks = range(len(self))[k]  # negative k counts from the end; IndexError past it
        one = not isinstance(k, slice)
        ks = (ks,) if one else ks
        group = self._group
        perms = group._compose(group._vertex_tables, ks)
        ops = tuple(SymOp(perm, 1 - 2 * group.factors[2][j]) for perm, j in zip(perms, ks))
        return ops[0] if one else ops


class SymmetryGroup:
    def __init__(self, cell: Cell600) -> None:
        self.cell = cell
        self.generators = self._make_generators()
        self.factors = self._list()
        self.ops = _Ops(self)
        images = tuple(self._images_of(self._vertex_tables, b) for b in _basis_indices())
        self._certify(images, *self.factors)

    def _make_generators(self) -> tuple[SymOp, ...]:
        cell = self.cell
        verts = cell.vertices
        a_idx = cell.index[cell.g.flat]
        b_idx = next((i for i in range(cell.n) if len(mulclose_indices((a_idx, i))) == 120), None)
        if b_idx is None:
            raise ValueError("no icosian generates 2I with g")
        a, b = verts[a_idx], verts[b_idx]
        return (left_mul(a), left_mul(b), right_mul(a), right_mul(b), reflection(ICOSIAN_ONE))

    def _list(self) -> tuple[tuple[int, ...], ...]:
        """Every element as a triple (l, r, e): x -> l*x*r, or x -> l*conj(x)*r
        when e = 1; r runs over one icosian of each +-pair, since (l, r) and
        (-l, -r) give the same map.  Returns the l, r and e of each element in
        listing order (l, then r, then e)."""
        n, reps = self.cell.n, tuple(r for r, _ in self.cell.pairs)
        ls = tuple(l for l in range(n) for _ in range(2 * len(reps)))
        rs = tuple(r for r in reps for _ in range(2)) * n
        es = (0, 1) * (n * len(reps))
        return ls, rs, es

    def _certify(self, images, ls, rs, es) -> None:
        """Raises unless the listed elements are distinct, contain the five
        generators and are closed under them.  images holds the four columns of
        each element's images of 2e_0..2e_3, which fix an isometry, so distinct
        images mean distinct elements.  Closure is checked on the triples: a
        rotation g = (gl, gr, 0) sends (l, r, e) to (gl*l, r*gr, e), and a
        reflection g = (gl, gr, 1) to (gl*conj(r), conj(l)*gr, 1 - e).  That must
        be the triple of the listed element with g's images of element k's images
        of 2e_0..2e_3, compared as (pair of l, l*r, e), which fixes a triple up to
        its (-l, -r) twin."""
        table, conj = mult_table(), itemgetter(*inverse_index())
        index = {key: k for k, key in enumerate(zip(*images))}
        if len(index) != len(es):
            raise ValueError(f"only {len(index)} of the {len(es)} listed elements are distinct")
        products = tuple(table[l][r] for l, r in zip(ls, rs))
        classes = (itemgetter(*ls)(self.cell.pair_of), products, es)
        for m, g in enumerate(self.generators):
            k = index.get(tuple(g.perm[b] for b in _basis_indices()))
            if k is None or (op := self.ops[k]).perm != g.perm or op.parity != g.parity:
                raise ValueError(f"generator {m} is not in the listing")
            # gl*l*r*gr for a rotation, gl*conj(l*r)*gr for a reflection
            left = conj(table[ls[k]]) if es[k] else table[ls[k]]
            right = tuple(row[rs[k]] for row in table)
            expected = (
                itemgetter(*(rs if es[k] else ls))(itemgetter(*left)(self.cell.pair_of)),
                itemgetter(*itemgetter(*products)(left))(right),
                tuple(1 - e for e in es) if es[k] else es,
            )
            named = list(map(index.get, zip(*(itemgetter(*column)(g.perm) for column in images))))
            if None in named or expected != tuple(itemgetter(*named)(c) for c in classes):
                raise ValueError(f"the listing is not closed under generator {m}")

    @cached_property
    def rotation_count(self) -> int:
        return self.factors[2].count(0)

    # ---------- induced permutations ----------

    def _pair_action(self, perm: tuple[int, ...]) -> tuple[int, ...]:
        pair_of = self.cell.pair_of
        return tuple(pair_of[perm[a]] for a, _ in self.cell.pairs)

    def pair_perm(self, op: SymOp) -> tuple[int, ...]:
        return self._pair_action(op.perm)

    @cached_property
    def _on_cells(self) -> _Action:
        """A permutation of the 60 pairs to the one it induces on the 25
        24-cells; raises KeyError if an image is not a 24-cell."""
        return _set_action(self.cell.cells24)

    @cached_property
    def _vertex_tables(self) -> tuple[tuple, tuple, tuple[int, ...]]:
        """Vertex permutations of x -> l*x and x -> x*r for each icosian, and of x -> conj(x)."""
        table = mult_table()
        return table, tuple(zip(*table)), inverse_index()

    @cached_property
    def _pair_tables(self) -> tuple[list, list, tuple[int, ...]]:
        """The vertex tables projected onto the 60 pairs."""
        return _project(self._vertex_tables, self._pair_action)

    @cached_property
    def _cell_tables(self) -> tuple[list, list, tuple[int, ...]]:
        """The pair tables projected onto the 25 24-cells."""
        return _project(self._pair_tables, self._on_cells)

    @cached_property
    def _ten_tables(self) -> tuple[list, list, tuple[int, ...]]:
        """The cell tables projected onto the ten partitions."""
        return _project(self._cell_tables, _set_action(self.cell.partitions))

    def _compose(self, tables: tuple[list, list, tuple[int, ...]], ks) -> tuple[tuple[int, ...], ...]:
        """The action of each element k in ks as left[l] o right[r], then o conj
        for a reflection, since an action is a homomorphism."""
        left, right, conj = tables
        ls, rs, es = self.factors
        after_right = {r: itemgetter(*right[r]) for r in {rs[k] for k in ks}}
        after_conj = itemgetter(*conj)
        return tuple(
            after_conj(after_right[rs[k]](left[ls[k]])) if es[k] else after_right[rs[k]](left[ls[k]])
            for k in ks
        )

    def _images_of(self, tables: tuple[list, list, tuple[int, ...]], x: int) -> list[int]:
        """Each element's image of the point x, composed as in _compose:
        left[l][right[r][x]], with conj[x] in place of x when e = 1."""
        left, right, conj = tables
        xs = (x, conj[x])
        return [left[l][right[r][xs[e]]] for l, r, e in zip(*self.factors)]

    @cached_property
    def cell_perms(self) -> tuple[tuple[int, ...], ...]:
        return self._compose(self._cell_tables, range(len(self.ops)))

    @cached_property
    def ten_perms(self) -> tuple[tuple[int, ...], ...]:
        return self._compose(self._ten_tables, range(len(self.ops)))

    def pair_perms_of(self, ks) -> tuple[tuple[int, ...], ...]:
        """The pair permutations of the elements ks alone."""
        return self._compose(self._pair_tables, ks)

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
        for l, r, e in zip(*self.factors):
            m = inner[r][e]
            y = images.get((l, m))
            if y is None:
                y = images[l, m] = sum(1 << left[l][i] for i in range(10) if m >> i & 1)
            out.append(y)
        return tuple(out)

    # ---------- stabilizers ----------

    def stabilizer_of_vertex(self, i: int) -> tuple[int, ...]:
        return tuple(k for k, y in enumerate(self._images_of(self._vertex_tables, i)) if y == i)

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
        gens, tables = [g.perm for g in self.generators], self._vertex_tables
        at0 = self._images_of(tables, 0)
        ks = range(len(at0))
        for g in gens:
            at = self._images_of(tables, g[0])
            ks = [k for k in ks if at[k] == g[at0[k]]]
        survivors = zip(ks, self._compose(tables, ks))
        return tuple(k for k, p in survivors if all(p[g[i]] == g[p[i]] for g in gens for i in range(120)))


@cache
def generate_group() -> SymmetryGroup:
    return SymmetryGroup(the_600cell())

