"""The full symmetry group of the 600-cell as vertex permutations.

Every rotation is x -> l*x*r and every reflection x -> l*conj(x)*r for icosians
l, r, and (l, r), (-l, -r) give the same map (Conway & Smith, On Quaternions and
Octonions, ch. 4): the group is 2I x 2I / {+-(1, 1)} extended by conjugation.
Element k is the triple (l, r, e) read off its index, l, j = divmod(k, 120),
r the first icosian of +-pair j // 2 and e = j % 2, and the listing is
certified against five generators.  An isometry is fixed by its images of the
vertices 2e_0..2e_3, so no element carries a matrix: the five generators'
permutations are read off the Cayley table, each certified by the Gram matrix
4*I of its images of 2e_0..2e_3, with the parity of its vertex permutation
as its parity.  The actions on the vertices, the 60 pairs, the 25 24-cells
and the ten partitions are composed from those of x -> l*x, x -> x*r and
x -> conj(x), read off the Cayley table; stabilizers, the centre, the kernel
on the partitions and the images of the five rows are read off those tables,
and an element's vertex permutation and parity (+1 rotation, -1 reflection)
are composed only when ops[k] is read.
"""

from __future__ import annotations

from array import array
from collections.abc import Callable, Sequence
from functools import cache, cached_property
from itertools import chain, combinations_with_replacement
from operator import itemgetter

from .icosian import (
    GENERATORS, ICOSIAN_ONE, Flat, flat_dot, generate_vertices, generator_walk, inverse_index,
    mult_table, neg, perm_parity, vertex_index,
)
from .polytopes import Cell600, the_600cell


@cache
def _basis_indices() -> tuple[int, ...]:
    """The vertex indices of 2e_0..2e_3, whose images fix an isometry."""
    idx = vertex_index()
    return tuple(idx[tuple(2 * (j == 2 * k) for j in range(8))] for k in range(4))


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


def _op_from_perm(perm: tuple[int, ...]) -> SymOp:
    """The isometry that permutes the vertices by perm, with its certificate:
    its images of 2e_0..2e_3 at standard scale must have the natural Gram
    matrix 4*I, so the map they fix is orthogonal.  Its parity is that of
    perm: the rotations form (2I x 2I)/{+-1}, a perfect group since 2I is
    (Conway & Smith, ch. 4), so each permutes the vertices evenly, and
    x -> -conj(x) fixes the 30 vertices of real part 0 and swaps 45 pairs."""
    verts = generate_vertices()
    images = [verts[perm[b]] for b in _basis_indices()]
    for i, j in combinations_with_replacement(range(4), 2):
        a, b = flat_dot(images[i], images[j])
        if (a, b) != (4 * (i == j), 0):
            raise ValueError(
                f"the images of 2e_{i} and 2e_{j} have inner product {a}{b:+}φ, not {4 * (i == j)}"
            )
    return SymOp(perm, 1 - 2 * perm_parity(perm))


_Action = Callable[[tuple[int, ...]], tuple[int, ...]]


def _project(tables: tuple, act: _Action) -> tuple[list, list, tuple[int, ...]]:
    """A (left, right, conj) table triple acted on by act, a homomorphism: act
    reads only the rows of the two generators and conj, and the other rows are
    composed along the generator walk, left[x*g] = left[x] o left[g] and
    right[g*x] = right[x] o right[g]."""
    left, right, conj = tables
    table, gens = mult_table(), [vertex_index()[g] for g in GENERATORS]
    lefts = generator_walk({g: act(left[g]) for g in gens}, lambda x, g: table[x][g])
    rights = generator_walk({g: act(right[g]) for g in gens}, lambda x, g: table[g][x])
    return list(lefts), list(rights), act(conj)


def _set_action(sets: tuple[frozenset[int], ...]) -> _Action:
    """The map of a permutation to the index in sets of each set's image,
    with sets indexed once; it raises KeyError if an image is not in sets."""
    index = {s: k for k, s in enumerate(sets)}
    return lambda perm: tuple(index[frozenset([perm[x] for x in s])] for s in sets)


def left_mul(v: Flat) -> SymOp:
    """x -> v*x/2, a rotation: the Cayley table's row of v."""
    return _op_from_perm(mult_table()[vertex_index()[v]])


def right_mul(v: Flat) -> SymOp:
    """x -> x*v/2, a rotation: the Cayley table's column of v."""
    i = vertex_index()[v]
    return _op_from_perm(tuple(row[i] for row in mult_table()))


def reflection(v: Flat) -> SymOp:
    """x -> x - 2 (x.v)/(v.v) v = (-v)*conj(x)*v/4; negates v, fixes its
    orthoplane, parity odd."""
    table, idx = mult_table(), vertex_index()
    i, m = idx[v], idx[neg(v)]
    return _op_from_perm(tuple(table[table[m][y]][i] for y in inverse_index()))


class _Ops(Sequence):
    """The group's elements in listing order, each SymOp composed on read."""

    def __init__(self, group: SymmetryGroup) -> None:
        self._group = group

    def __len__(self) -> int:
        return self._group.cell.n * 2 * len(self._group.cell.pairs)

    def __getitem__(self, k: int | slice) -> SymOp | tuple[SymOp, ...]:
        """ops[k], or the tuple of a slice's elements composed in one call."""
        ks = range(len(self))[k]  # negative k counts from the end; IndexError past it
        one = not isinstance(k, slice)
        ks = (ks,) if one else ks
        group = self._group
        perms = group._compose(group._vertex_tables, ks)
        ops = tuple(SymOp(perm, 1 - 2 * group.triple(j)[2]) for perm, j in zip(perms, ks))
        return ops[0] if one else ops


class SymmetryGroup:
    def __init__(self, cell: Cell600) -> None:
        self.cell = cell
        self.generators = self._make_generators()
        self.ops = _Ops(self)
        images = tuple(self._images_of(self._vertex_tables, b) for b in _basis_indices())
        self._certify(images)

    def _make_generators(self) -> tuple[SymOp, ...]:
        """x -> a*x, x -> b*x, x -> x*a, x -> x*b and x -> -conj(x) (the
        reflection that negates the real axis), for the generators a, b of 2I
        that `mult_table` certifies."""
        a, b = GENERATORS
        return (left_mul(a), left_mul(b), right_mul(a), right_mul(b), reflection(ICOSIAN_ONE))

    def triple(self, k: int) -> tuple[int, int, int]:
        """Element k = 120 l + j as (l, r, e): x -> l*x*r, or x -> l*conj(x)*r
        when e = 1, with r = pairs[j // 2][0] and e = j % 2; r is the first of
        its +-pair since (l, r) and (-l, -r) give the same map."""
        pairs = self.cell.pairs
        l, j = divmod(k, 2 * len(pairs))
        return l, pairs[j >> 1][0], j & 1

    def _certify(self, images) -> None:
        """Raises unless the listed elements are distinct, contain the five
        generators and are closed under them.  images holds the four columns of
        each element's images of 2e_0..2e_3, which fix an isometry; they are
        packed into one 4-byte key per element (indices below 256), on which g
        acts by translating bytes.  A rotation g = (gl, gr, 0) sends (l, r, e)
        to (gl*l, r*gr, e), and a reflection g = (gl, gr, 1) to
        (gl*conj(r), conj(l)*gr, 1 - e): that triple (L, R, e'), or its
        (-L, -R) twin, is listed in row L or -L at block position
        2 * pair_of[R] + e', one row l at a time, and its element must have g's
        images of element k's images."""
        cell, table, inv = self.cell, mult_table(), inverse_index()
        reps, neg, pair_of = [r for r, _ in cell.pairs], cell.neg, cell.pair_of
        width, size = 2 * len(reps), len(self.ops)
        packed = bytearray(4 * size)
        for c, column in enumerate(images):
            packed[c::4] = bytes(column)
        keys = tuple(memoryview(packed).cast("I"))
        blocks = [keys[x * width:x * width + width] for x in range(cell.n)]  # the keys of row x
        index = dict(zip(keys, range(size)))
        if len(index) != size:
            raise ValueError(f"only {len(index)} of the {size} listed elements are distinct")
        flip = [int(reps[p] != y) for y, p in enumerate(pair_of)]  # 1 when y is -(listed r of its pair)
        for m, g in enumerate(self.generators):
            k = index.get(memoryview(bytes(g.perm[b] for b in _basis_indices())).cast("I")[0])
            if k is None or (op := self.ops[k]).perm != g.perm or op.parity != g.parity:
                raise ValueError(f"generator {m} is not in the listing")
            gl, gr, ge = self.triple(k)
            if ge:  # row l: R = conj(l)*gr is fixed, and L = gl*conj(r) runs with r
                heads = [(table[gl][inv[r]], 1 - e) for r in reps for e in (0, 1)]
                starts = [x * width + e for x, e in heads], [neg[x] * width + e for x, e in heads]
                ys = (table[x][gr] for x in inv)
                rows = (itemgetter(*[s + 2 * pair_of[y] for s in starts[flip[y]]])(keys) for y in ys)
            else:  # row l: L = gl*l is fixed, and R = r*gr runs with r
                tails = [table[r][gr] for r in reps]
                pick = itemgetter(*(flip[y] * width + 2 * pair_of[y] + e for y in tails for e in (0, 1)))
                rows = (pick(blocks[x] + blocks[neg[x]]) for x in table[gl])
            named = array("I", chain.from_iterable(rows))  # the keys at the named positions
            if named.tobytes() != packed.translate(bytes(g.perm).ljust(256, b"\0")):
                raise ValueError(f"the listing is not closed under generator {m}")

    @cached_property
    def rotation_count(self) -> int:
        return self.cell.n * sum(1 - self.triple(j)[2] for j in range(2 * len(self.cell.pairs)))

    # ---------- induced permutations ----------

    def _pair_action(self, perm: tuple[int, ...]) -> tuple[int, ...]:
        pair_of = self.cell.pair_of
        return tuple(pair_of[perm[a]] for a, _ in self.cell.pairs)

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
        triples = list(map(self.triple, ks))
        after_right = {r: itemgetter(*right[r]) for _, r, _ in triples}
        after_conj = itemgetter(*conj)
        return tuple(
            after_conj(after_right[r](left[l])) if e else after_right[r](left[l]) for l, r, e in triples
        )

    def _images_of(self, tables: tuple[list, list, tuple[int, ...]], x: int) -> tuple[int, ...]:
        """Each element's image of the point x, composed as in _compose, one row
        l at a time: left[l] of the block's inner images right[r][x], with
        conj[x] in place of x when e = 1."""
        left, right, conj = tables
        xs = (x, conj[x])
        inner = itemgetter(*[right[r][xs[e]] for r, _ in self.cell.pairs for e in (0, 1)])
        return tuple(chain.from_iterable(map(inner, left)))

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
        mask, composed as in _compose, one row l at a time: right[r] of the rows
        (of their conj images when e = 1) as a mask for each pair (r, e) of the
        block, then left[l] of each distinct mask."""
        left, right, conj = self._ten_tables
        starts = (range(5), [conj[i] for i in range(5)])
        inner = [sum(1 << right[r][i] for i in starts[e]) for r, _ in self.cell.pairs for e in (0, 1)]
        masks, pick = set(inner), itemgetter(*inner)
        return tuple(chain.from_iterable(
            pick({m: sum(1 << perm[i] for i in range(10) if m >> i & 1) for m in masks}) for perm in left
        ))

    # ---------- stabilizers ----------

    def stabilizer_of_vertex(self, i: int) -> tuple[int, ...]:
        return tuple(k for k, y in enumerate(self._images_of(self._vertex_tables, i)) if y == i)

    def stabilizer_of_cell(self, c: int) -> tuple[int, ...]:
        return tuple(k for k, y in enumerate(self._images_of(self._cell_tables, c)) if y == c)

    @cached_property
    def center(self) -> tuple[int, ...]:
        """Elements commuting with every generator, after a first cut to the
        elements x with x(g(0)) = g(x(0)) for each generator g.  The first
        generator's cut reads whole rows; each later one reads only the
        survivors' images left[l][right[r][y]], y = g(0) or conj(g(0))."""
        gens, tables = [g.perm for g in self.generators], self._vertex_tables
        left, right, conj = tables
        at0 = self._images_of(tables, 0)
        first, *rest = gens
        at = self._images_of(tables, first[0])
        ks = [k for k, (y, x) in enumerate(zip(at, at0)) if y == first[x]]
        for g in rest:
            ys = (g[0], conj[g[0]])
            survivors = zip(ks, map(self.triple, ks))
            ks = [k for k, (l, r, e) in survivors if left[l][right[r][ys[e]]] == g[at0[k]]]
        survivors = zip(ks, self._compose(tables, ks))
        return tuple(k for k, p in survivors if all(p[g[i]] == g[p[i]] for g in gens for i in range(120)))


@cache
def generate_group() -> SymmetryGroup:
    return SymmetryGroup(the_600cell())

