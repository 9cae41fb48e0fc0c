"""The 120 unit icosians as a quaternion group over Z[phi].

A golden 4-vector, a vertex among them, is its flat integer 8-tuple
(a0, b0, ..., a3, b3), coordinate r being a_r + b_r*phi; there is no vector
class.  Vertices are kept at "standard scale" (twice the unit-quaternion
scale), so every coordinate is an integer pair and the natural norm of a
vertex is 4.  Scalars are the (a, b) pairs of `golden`: `flat_dot` and
`paper_dot` return one and `scaled` takes one; `neg` and `conj` negate a
vector and conjugate a quaternion.  The group product `icosian_mul` is the
quaternion product `quat_mul` rescaled by 1/2, so the 120-element set is
closed under it.
"""

from __future__ import annotations

from collections.abc import Callable
from functools import cache
from itertools import permutations, product as iproduct
from operator import itemgetter

from .golden import Pair

Flat = tuple[int, ...]  # (a0, b0, a1, b1, a2, b2, a3, b3)


def neg(u: Flat) -> Flat:
    """-u."""
    return tuple(-x for x in u)


def conj(u: Flat) -> Flat:
    """Quaternion conjugate: the real part kept, the i, j, k parts negated."""
    a0, b0, a1, b1, a2, b2, a3, b3 = u
    return (a0, b0, -a1, -b1, -a2, -b2, -a3, -b3)


def scaled(s: Pair, u: Flat) -> Flat:
    """s times each coordinate: (p + q*phi)(a + b*phi) = (pa + qb) + (pb + qa + qb)*phi."""
    p, q = s
    out = []
    for k in (0, 2, 4, 6):
        a, b = u[k], u[k + 1]
        out += (p * a + q * b, p * b + q * a + q * b)
    return tuple(out)


def paper_dot(u: Flat, v: Flat) -> Pair:
    """Natural inner product divided by 2 (value 2 on a vertex with itself)."""
    a, b = flat_dot(u, v)
    if a % 2 or b % 2:
        raise ValueError(f"{(a, b)} is not divisible by 2")
    return (a // 2, b // 2)


def flat_dot(u: Flat, v: Flat) -> Pair:
    """Natural inner product on flat coordinate tuples, as an (a, b) pair."""
    a = b = 0
    for k in (0, 2, 4, 6):
        ua, ub, va, vb = u[k], u[k + 1], v[k], v[k + 1]
        a += ua * va + ub * vb
        b += ua * vb + ub * va + ub * vb
    return (a, b)


def quat_mul(u: Flat, v: Flat) -> Flat:
    """Plain quaternion product (no rescale): 16 golden products
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


def icosian_mul(u: Flat, v: Flat) -> Flat:
    """Group product at standard scale: quaternion product halved.

    Exact only when every coordinate of the raw product is divisible by 2,
    which holds whenever both factors are norm-4 icosians.
    """
    return _halved(quat_mul(u, v))


ICOSIAN_ONE = (2, 0, 0, 0, 0, 0, 0, 0)


def perm_parity(seq) -> int:
    """0 for even, 1 for odd: the parity of len(seq) minus the number of
    cycles.  The values, any distinct ones, are ranked through sorted(seq)."""
    rank = {v: i for i, v in enumerate(sorted(seq))}
    seen, cycles = set(), 0
    for start in seq:
        if start not in seen:
            cycles += 1
            i = start
            while i not in seen:
                seen.add(i)
                i = seq[rank[i]]
    return (len(seq) - cycles) % 2


_EVEN_PERMS4 = tuple(p for p in permutations(range(4)) if perm_parity(p) == 0)


@cache
def generate_vertices() -> tuple[Flat, ...]:
    """All 120 vertices, sorted by their flat coordinate key.

    Shapes at standard scale: 8 of (±2,0,0,0) under all coordinate
    permutations, 16 of (±1,±1,±1,±1), and 96 of (0,±1,±phi,±1/phi) under
    even permutations.
    """
    verts: set[Flat] = set()
    for pos in range(4):
        for s in (2, -2):
            f = [0] * 8
            f[2 * pos] = s
            verts.add(tuple(f))
    for signs in iproduct((1, -1), repeat=4):
        verts.add(tuple(x for s in signs for x in (s, 0)))
    base = ((0, 0), (1, 0), (0, 1), (-1, 1))  # 0, 1, phi, 1/phi as (a, b)
    for perm in _EVEN_PERMS4:
        placed = [base[perm.index(i)] for i in range(4)]
        nz = [i for i in range(4) if placed[i] != (0, 0)]
        for signs in iproduct((1, -1), repeat=3):
            c = list(placed)
            for i, s in zip(nz, signs):
                c[i] = (s * c[i][0], s * c[i][1])
            verts.add(tuple(x for pair in c for x in pair))
    out = tuple(sorted(verts))
    if len(out) != 120:
        raise ValueError(f"{len(out)} vertices, not 120")
    return out


@cache
def vertex_index() -> dict[Flat, int]:
    return {v: i for i, v in enumerate(generate_vertices())}


# (1 + i + j + k)/2 and (phi + i/phi + k)/2 at standard scale: `mult_table`
# certifies that they generate 2I, and `symmetry` builds its generators on them
GENERATORS = ((1, 0, 1, 0, 1, 0, 1, 0), (0, 1, -1, 1, 0, 0, 1, 0))


def generator_walk(rows: dict[int, tuple], product: Callable[[int, int], int]) -> tuple[tuple[int, ...], ...]:
    """Completes rows, given at the generators' indices, to all 120 icosians: from
    each row x reached and each generator g, rows[product(x, g)] = rows[x] o rows[g].
    Raises unless the walk reaches all 120 rows; returns them in index order."""
    n = len(generate_vertices())
    gens, frontier = tuple(rows), list(rows)
    while frontier:
        x = frontier.pop()
        for g in gens:
            if (y := product(x, g)) not in rows:
                rows[y] = itemgetter(*rows[g])(rows[x])
                frontier.append(y)
    if len(rows) != n:
        raise ValueError(f"the generators reach {len(rows)} of {n} rows")
    return tuple(rows[i] for i in range(n))


@cache
def mult_table() -> tuple[tuple[int, ...], ...]:
    """Cayley table on vertex indices: table[i][j] = index of v_i * v_j.  The
    rows of the two generators are quaternion products; every other row comes
    from the generator walk, row[x*g][b] = row[x][row[g][b]], since
    (x*g)*b = x*(g*b).  Raises unless the walk reaches all 120 rows."""
    idx = vertex_index()
    rows = {idx[g]: tuple(idx[icosian_mul(g, v)] for v in generate_vertices()) for g in GENERATORS}
    return generator_walk(rows, lambda x, g: rows[x][g])


@cache
def _one_index() -> int:
    return vertex_index()[ICOSIAN_ONE]


@cache
def inverse_index() -> tuple[int, ...]:
    idx = vertex_index()
    return tuple(idx[conj(v)] for v in generate_vertices())


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
def find_order5() -> Flat:
    """The least order-5 vertex under the flat coordinate ordering."""
    for i, v in enumerate(generate_vertices()):
        if element_order_index(i) == 5:
            return v
    raise RuntimeError("no order-5 icosian found")
