"""The 120 unit icosians as a quaternion group over Z[phi].

A golden 4-vector is held as its flat integer 8-tuple (a0, b0, ..., a3, b3),
coordinate r being a_r + b_r*phi.  Vertices are kept at "standard scale"
(twice the unit-quaternion scale), so every coordinate is an integer pair and
the natural norm of a vertex is 4.  The group product rescales by 1/2 so the
120-element set is closed under it.
"""

from __future__ import annotations

from collections.abc import Iterable
from functools import cache
from itertools import permutations, product as iproduct
from operator import add, itemgetter, neg, sub

from .golden import GoldenInt

Flat = tuple[int, ...]  # (a0, b0, a1, b1, a2, b2, a3, b3)


class IcosianVec:
    """Golden 4-vector; coordinates are quaternion scalars for (1, i, j, k)."""

    __slots__ = ("flat",)

    def __init__(self, flat: Flat):
        self.flat = tuple(flat)

    @property
    def c(self) -> tuple[GoldenInt, ...]:
        """The four coordinates as GoldenInts, built on each read: for elimination
        over Z[phi], so read it once per vector, outside any loop."""
        f = self.flat
        return (GoldenInt(f[0], f[1]), GoldenInt(f[2], f[3]), GoldenInt(f[4], f[5]), GoldenInt(f[6], f[7]))

    def __repr__(self) -> str:
        return f"IcosianVec({self.flat})"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, IcosianVec) and self.flat == other.flat

    def __hash__(self) -> int:
        return hash(self.flat)

    def __lt__(self, other: IcosianVec) -> bool:
        return self.flat < other.flat

    def __neg__(self) -> IcosianVec:
        return IcosianVec(map(neg, self.flat))

    def __add__(self, other: IcosianVec) -> IcosianVec:
        return IcosianVec(map(add, self.flat, other.flat))

    def __sub__(self, other: IcosianVec) -> IcosianVec:
        return IcosianVec(map(sub, self.flat, other.flat))

    def scaled(self, s: GoldenInt) -> IcosianVec:
        """s times each coordinate: (p + q*phi)(a + b*phi) = (pa + qb) + (pb + qa + qb)*phi."""
        p, q = s.a, s.b
        f = self.flat
        out = []
        for k in (0, 2, 4, 6):
            a, b = f[k], f[k + 1]
            out += (p * a + q * b, p * b + q * a + q * b)
        return IcosianVec(out)

    def dot(self, other: IcosianVec) -> GoldenInt:
        """Natural inner product (norm 4 on vertices at standard scale)."""
        return GoldenInt(*flat_dot(self.flat, other.flat))

    def paper_dot(self, other: IcosianVec) -> GoldenInt:
        """Natural inner product divided by 2 (value 2 on a vertex with itself)."""
        return self.dot(other).halved()

    def quat_conj(self) -> IcosianVec:
        a0, b0, a1, b1, a2, b2, a3, b3 = self.flat
        return IcosianVec((a0, b0, -a1, -b1, -a2, -b2, -a3, -b3))


def flat_dot(u: Flat, v: Flat) -> tuple[int, int]:
    """Natural inner product on flat coordinate tuples, as an (a, b) pair."""
    a = b = 0
    for k in (0, 2, 4, 6):
        ua, ub, va, vb = u[k], u[k + 1], v[k], v[k + 1]
        a += ua * va + ub * vb
        b += ua * vb + ub * va + ub * vb
    return (a, b)


def _flat_quat_mul(u: Flat, v: Flat) -> Flat:
    """Quaternion product on flat tuples: 16 golden products
    (a + b*phi)(c + d*phi) = (ac + bd) + (ad + bc + bd)*phi, written out."""
    a0, b0, a1, b1, a2, b2, a3, b3 = u
    c0, d0, c1, d1, c2, d2, c3, d3 = v
    return (
        a0 * c0 + b0 * d0 - a1 * c1 - b1 * d1 - a2 * c2 - b2 * d2 - a3 * c3 - b3 * d3,
        a0 * d0 + b0 * c0 + b0 * d0 - a1 * d1 - b1 * c1 - b1 * d1
        - a2 * d2 - b2 * c2 - b2 * d2 - a3 * d3 - b3 * c3 - b3 * d3,
        a0 * c1 + b0 * d1 + a1 * c0 + b1 * d0 + a2 * c3 + b2 * d3 - a3 * c2 - b3 * d2,
        a0 * d1 + b0 * c1 + b0 * d1 + a1 * d0 + b1 * c0 + b1 * d0
        + a2 * d3 + b2 * c3 + b2 * d3 - a3 * d2 - b3 * c2 - b3 * d2,
        a0 * c2 + b0 * d2 - a1 * c3 - b1 * d3 + a2 * c0 + b2 * d0 + a3 * c1 + b3 * d1,
        a0 * d2 + b0 * c2 + b0 * d2 - a1 * d3 - b1 * c3 - b1 * d3
        + a2 * d0 + b2 * c0 + b2 * d0 + a3 * d1 + b3 * c1 + b3 * d1,
        a0 * c3 + b0 * d3 + a1 * c2 + b1 * d2 - a2 * c1 - b2 * d1 + a3 * c0 + b3 * d0,
        a0 * d3 + b0 * c3 + b0 * d3 + a1 * d2 + b1 * c2 + b1 * d2
        - a2 * d1 - b2 * c1 - b2 * d1 + a3 * d0 + b3 * c0 + b3 * d0,
    )


def _halved(raw: Flat) -> Flat:
    """raw / 2; raises unless every coordinate is even."""
    r0, r1, r2, r3, r4, r5, r6, r7 = raw
    if (r0 | r1 | r2 | r3 | r4 | r5 | r6 | r7) & 1:
        raise ValueError("product is not at standard scale; inputs were not both icosians")
    return (r0 >> 1, r1 >> 1, r2 >> 1, r3 >> 1, r4 >> 1, r5 >> 1, r6 >> 1, r7 >> 1)


def quat_mul(u: IcosianVec, v: IcosianVec) -> IcosianVec:
    """Plain quaternion product (no rescale)."""
    return IcosianVec(_flat_quat_mul(u.flat, v.flat))


def icosian_mul(u: IcosianVec, v: IcosianVec) -> IcosianVec:
    """Group product at standard scale: quaternion product halved.

    Exact only when every coordinate of the raw product is divisible by 2,
    which holds whenever both factors are norm-4 icosians.
    """
    return IcosianVec(_halved(_flat_quat_mul(u.flat, v.flat)))


ICOSIAN_ONE = IcosianVec((2, 0, 0, 0, 0, 0, 0, 0))


def perm_parity(seq) -> int:
    """0 for even, 1 for odd."""
    inv = sum(a > b for i, a in enumerate(seq) for b in seq[i + 1:])
    return inv % 2


_EVEN_PERMS4 = tuple(p for p in permutations(range(4)) if perm_parity(p) == 0)


@cache
def generate_vertices() -> tuple[IcosianVec, ...]:
    """All 120 vertices, sorted by their flat coordinate key.

    Shapes at standard scale: 8 of (±2,0,0,0) under all coordinate
    permutations, 16 of (±1,±1,±1,±1), and 96 of (0,±1,±phi,±1/phi) under
    even permutations.
    """
    verts: set[IcosianVec] = set()
    for pos in range(4):
        for s in (2, -2):
            f = [0] * 8
            f[2 * pos] = s
            verts.add(IcosianVec(f))
    for signs in iproduct((1, -1), repeat=4):
        verts.add(IcosianVec(x for s in signs for x in (s, 0)))
    base = ((0, 0), (1, 0), (0, 1), (-1, 1))  # 0, 1, phi, 1/phi as (a, b)
    for perm in _EVEN_PERMS4:
        placed = [base[perm.index(i)] for i in range(4)]
        nz = [i for i in range(4) if placed[i] != (0, 0)]
        for signs in iproduct((1, -1), repeat=3):
            c = list(placed)
            for i, s in zip(nz, signs):
                c[i] = (s * c[i][0], s * c[i][1])
            verts.add(IcosianVec(x for pair in c for x in pair))
    out = tuple(sorted(verts))
    if len(out) != 120:
        raise ValueError(f"{len(out)} vertices, not 120")
    return out


@cache
def vertex_index() -> dict[Flat, int]:
    return {v.flat: i for i, v in enumerate(generate_vertices())}


# (1 + i + j + k)/2 and (phi + i/phi + k)/2, which generate 2I, at standard scale
_GENERATORS = ((1, 0, 1, 0, 1, 0, 1, 0), (0, 1, -1, 1, 0, 0, 1, 0))


@cache
def mult_table() -> tuple[tuple[int, ...], ...]:
    """Cayley table on vertex indices: table[i][j] = index of v_i * v_j.  The
    rows of the two generators are quaternion products; every other row comes
    from a walk over the generators, row[x*g][b] = row[x][row[g][b]], since
    (x*g)*b = x*(g*b).  Raises unless the walk reaches all 120 rows."""
    idx = vertex_index()
    flats = [v.flat for v in generate_vertices()]
    rows = {idx[g]: tuple(idx[_halved(_flat_quat_mul(g, v))] for v in flats) for g in _GENERATORS}
    gens, frontier = tuple(rows), list(rows)
    while frontier:
        x = frontier.pop()
        for g in gens:
            if (y := rows[x][g]) not in rows:
                rows[y] = itemgetter(*rows[g])(rows[x])
                frontier.append(y)
    if len(rows) != len(flats):
        raise ValueError(f"the generators reach {len(rows)} of {len(flats)} rows")
    return tuple(rows[i] for i in range(len(flats)))


@cache
def _one_index() -> int:
    return vertex_index()[ICOSIAN_ONE.flat]


@cache
def inverse_index() -> tuple[int, ...]:
    verts = generate_vertices()
    idx = vertex_index()
    return tuple(idx[v.quat_conj().flat] for v in verts)


def element_order(v: IcosianVec) -> int:
    i = vertex_index()[v.flat]
    return element_order_index(i)


def element_order_index(i: int) -> int:
    table = mult_table()
    one = _one_index()
    k, acc = 1, i
    while acc != one:
        acc = table[acc][i]
        k += 1
        if k > 20:
            raise RuntimeError("order computation ran away; table is corrupt")
    return k


@cache
def find_order5() -> IcosianVec:
    """The least order-5 vertex under the flat coordinate ordering."""
    for i, v in enumerate(generate_vertices()):
        if element_order_index(i) == 5:
            return v
    raise RuntimeError("no order-5 icosian found")


@cache
def cell24_base_indices() -> frozenset[int]:
    """Indices of the 24 vertices of shapes (±2,0,0,0) and (±1,±1,±1,±1)."""
    out = []
    for i, v in enumerate(generate_vertices()):
        if not any(v.flat[1::2]):
            out.append(i)
    if len(out) != 24:
        raise ValueError(f"{len(out)} base 24-cell vertices, not 24")
    return frozenset(out)


def mulclose_indices(gens: Iterable[int]) -> frozenset[int]:
    """Subgroup of the 120-group generated by the given vertex indices."""
    table = mult_table()
    gens = list(gens)
    els = set(gens)
    frontier = list(els)
    while frontier:
        new = []
        for x in frontier:
            for g in gens:
                y = table[x][g]
                if y not in els:
                    els.add(y)
                    new.append(y)
        frontier = new
    return frozenset(els)
