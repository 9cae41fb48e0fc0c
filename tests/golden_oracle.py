"""The reference implementations the integer code of `h4geom` is tested
against.

`GoldenInt` is a + b*phi as a class with operators, `conj`, `field_norm`,
`unit_inverse`, `halved` and `key`: the second form of a Z[phi] scalar that
`h4geom` dropped when every golden scalar there became an integer pair
(a, b).  It lives here as the reference for `h4geom.golden.mul`, `phi_pow`,
`ReductionMap.reduce` and `h4geom.icosian.scaled`, and everything below is built
on it.  `parity_by_inversions` is the pairwise inversion count that
`h4geom.icosian.perm_parity` replaced with a cycle count.

`GoldenRational` is Q(phi) as num/den with num in Z[phi].  `FractionMap`
sends sqrt(n) to any rational m with m**2 < n on the sqrt5-form x + y*sqrt5
of each coordinate, with a golden prefactor `scale` and a form `multiplier`:
the Fraction reduction layer that `h4geom.golden.ReductionMap` replaced.
`GoldenVec` holds four GoldenInt coordinates and does all its arithmetic,
the quaternion product included, in GoldenInt, as the functions of
`h4geom.icosian` do on flat integer 8-tuples; `oracle_vertices` builds the
120 icosians with it.  `fraction_short_vectors` lists the short vectors of an
integer Gram matrix by a Fraction branch and bound, for the shape listings
of `h4geom.embed`, and `sorted_root_basis` is the sorted-image search, with
its swap loop, that `h4geom.embed.root_pick` replaced.  `op_from_matrix`
applies an exact matrix (A + B*phi)/d to all 120 vertices, and
`matrix_left_mul`, `matrix_right_mul` and `matrix_reflection` build the
symmetries that `h4geom.symmetry` reads off the Cayley table from their
matrices.  `golden_eliminate` is the Bareiss elimination over Z[phi], with
its `exact_quotient`, that `h4geom.golden.eliminate` dropped when all exact
linear algebra moved to Z; `coords` reads a flat vector's four GoldenInt
coordinates, and `golden_sign`, `is_unit` and `element_order` are helpers
only the tests read.  The clique searches at the end are the hand-written
ones that `h4geom.polytopes.cliques` replaced: the edge double loop, the
triangle and tetrahedron loops over edges and their common neighbours, the
nested 16-cell loop, the depth-first 5-clique search and Bron–Kerbosch with
pivoting (Bron & Kerbosch, CACM 1973) for maximal cliques.  After them come
the constructions that `h4geom.polytopes.Cell600.cosets` and `closure`
replaced: the subgroup closure under right products by its generators and
the orbit search of the symmetry group, the base 24-cell by its coordinate
shapes, the 16-cells as the 4-cliques of `pair_orth`, the 24-cells by
extending each 16-cell, the hexagons by intersecting every two 24-cells and
the decagons by a power walk from each edge.  Last come the constructions
that `Cell600.orders`, `Cell600.gpow`, `closure` and the two-sided map
`polytopes._two_sided` replaced: the search for the least element of order 5,
the 120-cell's 24-cells by quaternion products on coordinates, the
first-element loop over the left cosets of a normaliser, the F4 points as
the triples {x, t x, x ^ t x}, and the triangle lines certified through the
two duads their three pairs share.  Then the F4 constructions that the
doubling of Q and the meet of planes replaced: Q of each class by the double
loop over its lift's Gram entries, and the 24-cell tags read off the lines
that hold one of its 16-cells.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, permutations, product as iproduct
from math import gcd, isqrt
from operator import sub
from typing import Iterable, Sequence, Union

from h4geom.embed import _half_dot
from h4geom.golden import Elimination, eliminate
from h4geom.icosian import (
    ICOSIAN_ONE, Flat, conj, element_order_index, flat_dot, generate_vertices, icosian_mul, inverse_index,
    mult_table, quat_mul, scaled, vertex_index,
)
from h4geom.polytopes import Cell600, bits, cliques
from h4geom.symmetry import SymOp


# ---------- Z[phi] as a class ----------

class GoldenInt:
    """a + b*phi with integer a, b."""

    __slots__ = ("a", "b")

    def __init__(self, a: int, b: int = 0) -> None:
        self.a = a
        self.b = b

    def __repr__(self) -> str:
        return f"GoldenInt({self.a}, {self.b})"

    def __str__(self) -> str:
        return f"{self.a}{self.b:+}φ"

    def key(self) -> tuple[int, int]:
        return (self.a, self.b)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, int):
            return self.a == other and self.b == 0
        if isinstance(other, GoldenInt):
            return self.a == other.a and self.b == other.b
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.a, self.b))

    def __bool__(self) -> bool:
        return bool(self.a or self.b)

    def __neg__(self) -> GoldenInt:
        return GoldenInt(-self.a, -self.b)

    def __add__(self, other: int | GoldenInt) -> GoldenInt:
        if isinstance(other, int):
            return GoldenInt(self.a + other, self.b)
        if isinstance(other, GoldenInt):
            return GoldenInt(self.a + other.a, self.b + other.b)
        return NotImplemented

    __radd__ = __add__

    def __sub__(self, other: int | GoldenInt) -> GoldenInt:
        return self + (-other)

    def __rsub__(self, other: int | GoldenInt) -> GoldenInt:
        return (-self) + other

    def __mul__(self, other: int | GoldenInt) -> GoldenInt:
        if isinstance(other, int):
            return GoldenInt(self.a * other, self.b * other)
        if isinstance(other, GoldenInt):
            # (a1 + b1 phi)(a2 + b2 phi) with phi^2 = phi + 1
            return GoldenInt(
                self.a * other.a + self.b * other.b,
                self.a * other.b + self.b * other.a + self.b * other.b,
            )
        return NotImplemented

    __rmul__ = __mul__

    def __pow__(self, k: int) -> GoldenInt:
        if k < 0:
            return self.unit_inverse() ** (-k)
        out = GoldenInt(1, 0)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def conj(self) -> GoldenInt:
        """Galois conjugate: phi -> 1 - phi (sqrt5 -> -sqrt5)."""
        return GoldenInt(self.a + self.b, -self.b)

    def field_norm(self) -> int:
        """x * conj(x) = a**2 + a*b - b**2; a rational integer."""
        return self.a * self.a + self.a * self.b - self.b * self.b

    def unit_inverse(self) -> GoldenInt:
        n = self.field_norm()
        if abs(n) != 1:
            raise ValueError(f"{self!r} is not a unit of Z[phi]")
        c = self.conj()
        return c if n == 1 else -c

    def halved(self) -> GoldenInt:
        if self.a % 2 or self.b % 2:
            raise ValueError(f"{self!r} is not divisible by 2")
        return GoldenInt(self.a // 2, self.b // 2)


GOLDEN_ZERO = GoldenInt(0, 0)


# ---------- scalar helpers and elimination over Z[phi] ----------

Ring = Union[int, GoldenInt]


def coords(f: Flat) -> tuple[GoldenInt, ...]:
    """The four coordinates of a flat golden vector as GoldenInts."""
    return tuple(GoldenInt(f[k], f[k + 1]) for k in (0, 2, 4, 6))


def golden_sign(x: GoldenInt) -> int:
    """Exact sign of the real number a + b*phi."""
    p, q = 2 * x.a + x.b, x.b  # value is (p + q*sqrt5)/2
    if p == 0 and q == 0:
        return 0
    if p >= 0 and q >= 0:
        return 1
    if p <= 0 and q <= 0:
        return -1
    if p > 0:  # q < 0: sign of p - |q|*sqrt5
        return 1 if p * p > 5 * q * q else -1
    return 1 if 5 * q * q > p * p else -1


def is_unit(x: GoldenInt) -> bool:
    return abs(x.field_norm()) == 1


def parity_by_inversions(seq) -> int:
    """0 for even, 1 for odd, by counting the pairs out of order."""
    return sum(a > b for i, a in enumerate(seq) for b in seq[i + 1:]) % 2


def element_order(v: Flat) -> int:
    return element_order_index(vertex_index()[v])


def exact_quotient(x: Ring, d: Ring) -> Ring | None:
    """x / d if d divides x in Z (both int) or in Z[phi], else None.

    In Z[phi], x / d = x * conj(d) / N(d) with the integer norm N(d) = d * conj(d).
    """
    if isinstance(d, int):
        if isinstance(x, int):
            q, r = divmod(x, d)
            return None if r else q
        d = GoldenInt(d)
    n = d.field_norm()
    y = d.conj() * x
    if y.a % n or y.b % n:
        return None
    return GoldenInt(y.a // n, y.b // n)


def golden_eliminate(rows: Sequence[Sequence[Ring]]) -> Elimination:
    """Fraction-free Gauss-Jordan elimination (Bareiss) of [A | I] over Z or
    Z[phi], each division an `exact_quotient`: the step of
    `h4geom.golden.eliminate`, with the same pivots, determinant and adjugate."""
    n = len(rows)
    m = len(rows[0]) if n else 0
    aug = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(rows)]
    pivots, prev, sign = [], 1, 1
    for c in range(m):
        rank = len(pivots)
        piv = next((i for i in range(rank, n) if aug[i][c]), None)
        if piv is None:
            continue
        if piv != rank:
            aug[rank], aug[piv] = aug[piv], aug[rank]
            sign = -sign
        prow = aug[rank]
        p = prow[c]
        for i in range(n):
            if i == rank:
                continue
            f = aug[i][c]
            new = []
            for x, y in zip(aug[i], prow):
                q = exact_quotient(p * x - f * y, prev)
                if q is None:
                    raise ValueError(f"inexact division by the pivot {prev} in elimination")
                new.append(q)
            aug[i] = new
        prev = p
        pivots.append(c)
    if n != m:
        return Elimination(tuple(pivots), None, None)
    if len(pivots) < n:
        return Elimination(tuple(pivots), 0, None)
    adj = tuple(tuple(x if sign == 1 else -x for x in row[m:]) for row in aug)
    return Elimination(tuple(pivots), sign * prev, adj)


class GoldenRational:
    """num/den with num in Z[phi] and den a positive integer, kept reduced."""

    __slots__ = ("num", "den")

    def __init__(self, num: int | GoldenInt, den: int = 1) -> None:
        if isinstance(num, int):
            num = GoldenInt(num, 0)
        if den == 0:
            raise ZeroDivisionError("zero denominator")
        if den < 0:
            num, den = -num, -den
        g = gcd(gcd(abs(num.a), abs(num.b)), den)
        if g > 1:
            num = GoldenInt(num.a // g, num.b // g)
            den //= g
        self.num = num
        self.den = den

    @classmethod
    def from_fraction(cls, f: Fraction | int) -> GoldenRational:
        f = Fraction(f)
        return cls(GoldenInt(f.numerator, 0), f.denominator)

    def __repr__(self) -> str:
        return f"GoldenRational({self.num!r}, {self.den})"

    def __eq__(self, other: object) -> bool:
        other = _lift_rational(other)
        if other is NotImplemented:
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self) -> int:
        return hash((self.num.a, self.num.b, self.den))

    def __bool__(self) -> bool:
        return bool(self.num)

    def __neg__(self) -> GoldenRational:
        return GoldenRational(-self.num, self.den)

    def __add__(self, other) -> GoldenRational:
        other = _lift_rational(other)
        if other is NotImplemented:
            return NotImplemented
        return GoldenRational(
            self.num * other.den + other.num * self.den, self.den * other.den
        )

    __radd__ = __add__

    def __sub__(self, other) -> GoldenRational:
        other = _lift_rational(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> GoldenRational:
        return (-self) + other

    def __mul__(self, other) -> GoldenRational:
        other = _lift_rational(other)
        if other is NotImplemented:
            return NotImplemented
        return GoldenRational(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def inverse(self) -> GoldenRational:
        n = self.num.field_norm()
        if n == 0:
            raise ZeroDivisionError("inverse of zero")
        return GoldenRational(self.num.conj() * self.den * (1 if n > 0 else -1), abs(n))

    def __truediv__(self, other) -> GoldenRational:
        other = _lift_rational(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other) -> GoldenRational:
        return self.inverse() * other


def _lift_rational(x) -> GoldenRational:
    if isinstance(x, GoldenRational):
        return x
    if isinstance(x, (int, Fraction)):
        return GoldenRational.from_fraction(x)
    if isinstance(x, GoldenInt):
        return GoldenRational(x, 1)
    return NotImplemented


GoldenScalar = Union[GoldenInt, GoldenRational]

Sqrt5Pair = tuple[Fraction, Fraction]


def sqrt5_form(x: GoldenScalar) -> Sqrt5Pair:
    """(u, v) with x = u + v*sqrt5 exactly: a + b*phi = (2a + b)/2 + (b/2)*sqrt5."""
    num, den = (x, 1) if isinstance(x, GoldenInt) else (x.num, x.den)
    return (Fraction(2 * num.a + num.b, 2 * den), Fraction(num.b, 2 * den))


def _as_sqrt5_pair(x) -> Sqrt5Pair:
    """x as (u, v) for u + v*sqrt5.  A tuple must already be that pair, of
    Fractions, so that a golden (a, b) pair of `h4geom` is not read as one."""
    if isinstance(x, (GoldenInt, GoldenRational)):
        return sqrt5_form(x)
    a, b = x
    if not (isinstance(a, Fraction) and isinstance(b, Fraction)):
        raise TypeError(f"{x!r} is not a sqrt5-form pair of Fractions; wrap a golden pair in GoldenInt")
    return (a, b)


def _rational_sqrt(f: Fraction) -> Fraction | None:
    """Exact square root of a nonnegative rational, or None."""
    p, q = f.numerator, f.denominator
    rp, rq = isqrt(p), isqrt(q)
    if rp * rp == p and rq * rq == q:
        return Fraction(rp, rq)
    return None


@dataclass(frozen=True)
class FractionMap:
    """Linear map of Q(sqrt n) to Q sending sqrt(n) to m, legal iff m**2 < n.

    `scale` is a golden prefactor applied to vectors before they are split and
    `multiplier` rescales the reduced quadratic form.  Both default to 1.
    """

    n: Fraction
    m: Fraction
    scale: GoldenRational | None = None
    multiplier: Fraction = Fraction(1)

    def __post_init__(self) -> None:
        object.__setattr__(self, "n", Fraction(self.n))
        object.__setattr__(self, "m", Fraction(self.m))
        object.__setattr__(self, "multiplier", Fraction(self.multiplier))
        if self.scale is None:
            object.__setattr__(self, "scale", GoldenRational(1))
        if self.n <= 0:
            raise ValueError("n must be a positive rational")
        if self.multiplier <= 0:
            raise ValueError("form multiplier must be positive")
        if self.m * self.m >= self.n:
            # The reduced form of x**2 on (x, y) = (-m, 1) would be n - m**2 <= 0,
            # so the reduction cannot stay positive definite.
            raise ValueError(f"|m| < sqrt(n) required, got m={self.m}, n={self.n}")

    @property
    def weight(self) -> Fraction:
        return self.n - self.m * self.m

    @property
    def weight_root(self) -> Fraction | None:
        return _rational_sqrt(self.weight)

    def slot_weights(self) -> tuple[Fraction, Fraction]:
        """Diagonal form weights of one split coordinate pair (before multiplier)."""
        if self.weight_root is not None:
            return (Fraction(1), Fraction(1))
        return (Fraction(1), self.weight)

    def split_pair(self, x: Fraction, y: Fraction) -> tuple[Fraction, Fraction]:
        s = self.weight_root
        return (x + self.m * y, s * y if s is not None else y)

    def split_vector(self, coords: Sequence[GoldenScalar]) -> tuple[Fraction, ...]:
        out: list[Fraction] = []
        for c in coords:
            out.extend(self.split_pair(*sqrt5_form(self.scale * c)))
        return tuple(out)

    def form_weights(self, ncoords: int = 4) -> tuple[Fraction, ...]:
        w1, w2 = self.slot_weights()
        return (w1, w2) * ncoords

    def reduced_dot(self, u: Sequence[Fraction], v: Sequence[Fraction]) -> Fraction:
        acc = Fraction(0)
        for uk, vk, wk in zip(u, v, self.form_weights(len(u) // 2)):
            acc += wk * uk * vk
        return self.multiplier * acc

    def reduced_norm(self, u: Sequence[Fraction]) -> Fraction:
        return self.reduced_dot(u, u)


def reduce_scalar(value, rmap: FractionMap) -> Fraction:
    """Send x + y*sqrt(n) to x + y*m.  `value` is a sqrt5-form pair or golden."""
    x, y = _as_sqrt5_pair(value)
    return x + y * rmap.m


def split_coordinate(value, rmap: FractionMap) -> tuple[Fraction, Fraction]:
    """Split x + y*sqrt(n) into the two reduced coordinates of the map.

    When n - m**2 is a rational square its root is folded into the second
    slot and the form is diagonal (1, 1); otherwise the second slot carries
    symbolic weight n - m**2 (see `slot_weights`).
    """
    x, y = _as_sqrt5_pair(value)
    return rmap.split_pair(x, y)


# ---------- golden 4-vectors as four GoldenInts ----------


class GoldenVec:
    """Golden 4-vector with GoldenInt coordinates for the quaternion units (1, i, j, k)."""

    __slots__ = ("c",)

    def __init__(self, c0: GoldenInt, c1: GoldenInt, c2: GoldenInt, c3: GoldenInt):
        self.c = (c0, c1, c2, c3)

    @classmethod
    def of(cls, v: Flat) -> GoldenVec:
        """The oracle copy of a flat golden vector, read off its integers."""
        return cls(*coords(v))

    @property
    def flat(self) -> tuple[int, ...]:
        return tuple(x for g in self.c for x in (g.a, g.b))

    def __eq__(self, other: object) -> bool:
        return isinstance(other, GoldenVec) and self.c == other.c

    def __hash__(self) -> int:
        return hash(self.flat)

    def __lt__(self, other: GoldenVec) -> bool:
        return self.flat < other.flat

    def __neg__(self) -> GoldenVec:
        return GoldenVec(*(-x for x in self.c))

    def __add__(self, other: GoldenVec) -> GoldenVec:
        return GoldenVec(*(x + y for x, y in zip(self.c, other.c)))

    def __sub__(self, other: GoldenVec) -> GoldenVec:
        return GoldenVec(*(x - y for x, y in zip(self.c, other.c)))

    def scaled(self, s: GoldenInt) -> GoldenVec:
        return GoldenVec(*(s * x for x in self.c))

    def dot(self, other: GoldenVec) -> GoldenInt:
        acc = GOLDEN_ZERO
        for x, y in zip(self.c, other.c):
            acc = acc + x * y
        return acc

    def quat_conj(self) -> GoldenVec:
        c = self.c
        return GoldenVec(c[0], -c[1], -c[2], -c[3])

    def quat_mul(self, other: GoldenVec) -> GoldenVec:
        """The Hamilton product (no rescale)."""
        a0, a1, a2, a3 = self.c
        b0, b1, b2, b3 = other.c
        return GoldenVec(
            a0 * b0 - a1 * b1 - a2 * b2 - a3 * b3,
            a0 * b1 + a1 * b0 + a2 * b3 - a3 * b2,
            a0 * b2 - a1 * b3 + a2 * b0 + a3 * b1,
            a0 * b3 + a1 * b2 - a2 * b1 + a3 * b0,
        )

    def icosian_mul(self, other: GoldenVec) -> GoldenVec:
        """The product at standard scale: the Hamilton product halved."""
        return GoldenVec(*(x.halved() for x in self.quat_mul(other).c))


def oracle_vertices() -> tuple[GoldenVec, ...]:
    """The 120 icosians at standard scale, sorted by their flat coordinates:
    (+-2,0,0,0) under all coordinate permutations, (+-1,+-1,+-1,+-1), and
    (0,+-1,+-phi,+-1/phi) under even permutations."""
    two, one = GoldenInt(2), GoldenInt(1)
    verts: set[GoldenVec] = set()
    for pos in range(4):
        for s in (1, -1):
            c = [GOLDEN_ZERO] * 4
            c[pos] = two * s
            verts.add(GoldenVec(*c))
    for signs in iproduct((1, -1), repeat=4):
        verts.add(GoldenVec(*(one * s for s in signs)))
    base = (GOLDEN_ZERO, one, GoldenInt(0, 1), GoldenInt(-1, 1))  # 0, 1, phi, 1/phi
    even = [p for p in permutations(range(4)) if parity_by_inversions(p) == 0]
    for perm in even:
        placed = [base[perm.index(i)] for i in range(4)]
        nz = [i for i in range(4) if placed[i]]
        for signs in iproduct((1, -1), repeat=3):
            c = list(placed)
            for i, s in zip(nz, signs):
                c[i] = c[i] * s
            verts.add(GoldenVec(*c))
    return tuple(sorted(verts))


def fraction_short_vectors(gram, bound):
    """Every nonzero x with x G x^T <= bound, by a Fraction branch and bound
    (Fincke-Pohst) over the LDL^T form of G, grouped by norm, each list
    sorted: the short-vector oracle for the shape listings."""
    n = len(gram)
    g = [[Fraction(gram[i][j]) for j in range(n)] for i in range(n)]
    low = [[Fraction(0)] * n for _ in range(n)]
    diag = [Fraction(0)] * n
    for i in range(n):
        d = g[i][i] - sum(low[i][k] * low[i][k] * diag[k] for k in range(i))
        if d <= 0:
            raise ValueError("form is not positive definite")
        diag[i] = d
        low[i][i] = Fraction(1)
        for j in range(i + 1, n):
            low[j][i] = (g[j][i] - sum(low[j][k] * low[i][k] * diag[k] for k in range(i))) / d

    out = {}
    x = [0] * n

    def recurse(i, remaining):
        if i < 0:
            if any(x):
                norm = bound - remaining
                assert norm.denominator == 1
                out.setdefault(int(norm), []).append(tuple(x))
            return
        c = sum(low[j][i] * x[j] for j in range(i + 1, n))
        q = remaining / diag[i]
        cn, cd = c.numerator, c.denominator
        rhs = q * cd * cd
        s = isqrt(rhs.numerator // rhs.denominator)
        for k in range(-(-(-s - cn) // cd), (s - cn) // cd + 1):
            step = diag[i] * (k + c) * (k + c)
            if step <= remaining:
                x[i] = k
                recurse(i - 1, remaining - step)
        x[i] = 0

    recurse(n - 1, Fraction(bound))
    for v in out.values():
        v.sort()
    return out


def sorted_root_basis(h_img):
    """The root-basis search that `h4geom.embed.root_pick` replaced: the
    pivot columns of the transpose of the sorted images, then, while the
    Gram determinant exceeds 1, swap in a root with a fractional coordinate
    of magnitude < 1 over the chosen ones (each swap strictly reduces it)."""
    ordered = sorted(h_img)
    chosen = [ordered[c] for c in eliminate(list(zip(*ordered))).pivots]
    if len(chosen) != 8:
        raise ValueError(f"embedded roots span rank {len(chosen)}, not 8")

    def gram_det(basis):
        return eliminate([[_half_dot(a, b) for b in basis] for a in basis]).det

    det = abs(gram_det(chosen))
    while det > 1:
        # u * adj B = det B * (u's coordinates over B), so a coordinate q is
        # fractional with 0 < |q| < 1 when its numerator n has 0 < |n| < |det B|
        inv = eliminate(chosen)
        swaps = (
            chosen[:j] + [u] + chosen[j + 1:]
            for u in ordered
            for j, n in enumerate(inv.numerators(u))
            if n and abs(n) < abs(inv.det)
        )
        dets = ((c, abs(gram_det(c))) for c in swaps)
        found = next(((c, d) for c, d in dets if 0 < d < det), None)
        if found is None:
            raise RuntimeError("could not refine root basis to determinant 1")
        chosen, det = found
    return tuple(chosen)


# ---------- the exact-matrix symmetry constructors ----------

BASIS = tuple(tuple(int(j == 2 * k) for j in range(8)) for k in range(4))


def apply_matrix(anum: tuple[int, ...], bnum: tuple[int, ...], den: int, flat: Flat) -> Flat:
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


def op_from_matrix(cols: list[Flat], den: int) -> SymOp:
    """The isometry with matrix (A + B*phi)/d, columns cols over d, applied to
    all 120 vertices; raises unless its determinant is a sign."""
    anum = tuple(col[2 * r] for r in range(4) for col in cols)
    bnum = tuple(col[2 * r + 1] for r in range(4) for col in cols)
    idx = vertex_index()
    perm = tuple(idx[apply_matrix(anum, bnum, den, v)] for v in generate_vertices())
    # det((A + B*phi)/d) = +-1 exactly when det(A + B*phi) = +-d**4
    det = golden_eliminate(
        [[GoldenInt(anum[4 * r + c], bnum[4 * r + c]) for c in range(4)] for r in range(4)]
    ).det
    unit = den**4
    if det not in (unit, -unit):
        raise ValueError(f"determinant ({det})/{unit} is not a sign")
    return SymOp(perm, 1 if det == unit else -1)


def matrix_left_mul(v: Flat) -> SymOp:
    """x -> v*x/2 from the quaternion products v*e."""
    return op_from_matrix([quat_mul(v, e) for e in BASIS], 2)


def matrix_right_mul(v: Flat) -> SymOp:
    """x -> x*v/2 from the quaternion products e*v."""
    return op_from_matrix([quat_mul(e, v) for e in BASIS], 2)


def matrix_reflection(v: Flat) -> SymOp:
    """x -> x - 2 (x.v)/(v.v) v, column by column: 2e - (e.v) v, since v.v = 4."""
    return op_from_matrix(
        [tuple(map(sub, scaled((2, 0), e), scaled(flat_dot(e, v), v))) for e in BASIS], 2
    )


# ---------- the hand-written clique searches ----------

def edges_by_double_loop(adj: Sequence[int]) -> tuple[tuple[int, int], ...]:
    """The pairs i < j with j in adj[i]."""
    n = len(adj)
    return tuple((i, j) for i in range(n) for j in range(i + 1, n) if adj[i] >> j & 1)


def triangles_by_common_neighbours(adj: Sequence[int]) -> tuple[tuple[int, int, int], ...]:
    """Each edge (i, j) with each common neighbour k > j."""
    out = []
    for i, j in edges_by_double_loop(adj):
        common = adj[i] & adj[j]
        out.extend((i, j, k) for k in bits(common >> (j + 1) << (j + 1)))  # only k > j
    return tuple(out)


def tetrahedra_by_edge_pairs(adj: Sequence[int]) -> tuple[tuple[int, int, int, int], ...]:
    """Each edge with each adjacent pair of its common neighbours, sorted and
    deduplicated through a set."""
    out = set()
    for i, j in edges_by_double_loop(adj):
        for k, l in combinations(bits(adj[i] & adj[j]), 2):
            if adj[k] >> l & 1:
                out.add(tuple(sorted((i, j, k, l))))
    return tuple(sorted(out))


def cells16_by_nested_loop(pair_orth: Sequence[int]) -> tuple[tuple[int, int, int, int], ...]:
    """Each orthogonal pair a < b with each orthogonal pair c < d of their
    common orthogonal pairs above b."""
    n = len(pair_orth)
    out = []
    for a in range(n):
        for b in range(a + 1, n):
            if not pair_orth[a] >> b & 1:
                continue
            common = pair_orth[a] & pair_orth[b]
            members = [k for k in range(b + 1, n) if common >> k & 1]
            for c, d in combinations(members, 2):
                if pair_orth[c] >> d & 1:
                    out.append((a, b, c, d))
    return tuple(sorted(set(out)))


def five_cliques_by_dfs(masks: Sequence[int]) -> tuple[frozenset[int], ...]:
    """The 5-cliques, grown depth first by neighbours above the last vertex."""
    found = []

    def extend(stack: list[int], cand: int) -> None:
        if len(stack) == 5:
            found.append(frozenset(stack))
            return
        for b in bits(cand):
            extend(stack + [b], cand & masks[b] & ~((1 << (b + 1)) - 1))

    for a in range(len(masks)):
        extend([a], masks[a] & ~((1 << (a + 1)) - 1))
    return tuple(sorted(found, key=lambda s: tuple(sorted(s))))


def bron_kerbosch(adj: Sequence[int]) -> list[int]:
    """The maximal cliques, as bit masks, by Bron–Kerbosch with pivoting."""
    found: list[int] = []

    def bron(r: int, p: int, x: int) -> None:
        if not p and not x:
            found.append(r)
            return
        pivot = max(bits(p | x), key=lambda u: (adj[u] & p).bit_count())
        for u in bits(p & ~adj[pivot]):
            bron(r | 1 << u, p & adj[u], x & adj[u])
            p &= ~(1 << u)
            x |= 1 << u

    bron(0, (1 << len(adj)) - 1, 0)
    return found


# ---------- the closures and the subgroup families before the cosets ----------

def mulclose_by_right_products(gens: Iterable[int]) -> frozenset[int]:
    """Subgroup of the 120-group generated by the given vertex indices: the
    generators closed under right products by them, breadth first."""
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


def orbits_by_search(perms: Sequence[Sequence[int]], points: range) -> list[set[int]]:
    """The orbit of each point not yet reached, searched depth first."""
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


def cell24_base_by_shape() -> frozenset[int]:
    """Indices of the 24 vertices of shapes (±2,0,0,0) and (±1,±1,±1,±1)."""
    return frozenset(i for i, v in enumerate(generate_vertices()) if not any(v[1::2]))


def cells16_by_orthogonal_cliques(pair_orth: Sequence[int]) -> tuple[tuple[int, int, int, int], ...]:
    """The 4-cliques of `pair_orth`: four mutually orthogonal pairs."""
    return tuple(c for c in cliques(pair_orth) if len(c) == 4)


def cells24_by_16cell_extension(cell: Cell600) -> dict[frozenset[int], tuple[tuple[int, ...], ...]]:
    """Each 24-cell, in sorted order, mapped to the 16-cells whose extension
    it is: a 16-cell extended by the 8 pairs at unsigned product 1 with all
    four of its members."""
    seen: dict[frozenset[int], list[tuple[int, ...]]] = {}
    for small in cell.cells16:
        extra = [
            q for q in range(60)
            if q not in small and all(cell.pair_class[q][p] == "1" for p in small)
        ]
        assert len(extra) == 8
        seen.setdefault(frozenset(small) | frozenset(extra), []).append(small)
    return {full: tuple(seen[full]) for full in sorted(seen, key=lambda s: tuple(sorted(s)))}


def hexagons_by_intersections(cell: Cell600) -> dict[frozenset[int], frozenset[int]]:
    """Every two 24-cells that meet, mapped to the 3 pairs they share."""
    out = {}
    for a, b in combinations(range(25), 2):
        inter = cell.cells24[a] & cell.cells24[b]
        if inter:
            assert len(inter) == 3
            assert all(cell.pair_class[p][q] == "1" for p, q in combinations(inter, 2))
            out[frozenset((a, b))] = frozenset(inter)
    return out


def decagons_by_power_walk(cell: Cell600) -> tuple[frozenset[int], ...]:
    """From each edge (i, j), the walk i, i*t, i*t^2, ... for t = i^-1 * j,
    ten steps round a decagon, as its pair ids."""
    table, inv = mult_table(), inverse_index()
    seen = set()
    for i, j in cell.edges:
        t = table[inv[i]][j]
        orbit = [i]
        w = i
        for _ in range(9):
            w = table[w][t]
            orbit.append(w)
        assert len(set(orbit)) == 10
        seen.add(frozenset(cell.pair_of[w] for w in orbit))
    return tuple(sorted(seen, key=lambda s: tuple(sorted(s))))


# ---------- the constructions before the two-sided map ----------

def find_order5() -> Flat:
    """The least order-5 vertex under the flat coordinate ordering."""
    for i, v in enumerate(generate_vertices()):
        if element_order_index(i) == 5:
            return v
    raise RuntimeError("no order-5 icosian found")


def cell120_cells_by_quaternion_products(d) -> tuple[frozenset[int], ...]:
    """The 25 24-cells of the 120-cell d, g^i * C * g^-j, by quaternion
    products on the coordinates of C's 24 vertices, for g = `find_order5()`."""
    index = {v: k for k, v in enumerate(d.vertices)}
    gpow = [ICOSIAN_ONE]
    for _ in range(4):
        gpow.append(icosian_mul(gpow[-1], find_order5()))
    ginvpow = [conj(x) for x in gpow]  # g^-j = conj(g)^j = conj(g^j)
    base = [v for v in d.vertices if not any(v[1::2]) and sorted(map(abs, v[::2])) == [0, 0, 2, 2]]
    assert len(base) == 24
    return tuple(
        frozenset(index[icosian_mul(icosian_mul(gpow[i], w), ginvpow[j])] for w in base)
        for i in range(5) for j in range(5)
    )


def coset_reps_by_first_element(normaliser: Iterable[int]) -> list[int]:
    """The first vertex index h, in index order, of each left coset h*N."""
    table = mult_table()
    first: dict[frozenset[int], int] = {}
    for h in range(len(table)):
        first.setdefault(frozenset(table[h][s] for s in normaliser), h)
    return list(first.values())


def points_by_triples(t: Sequence[int]) -> tuple[frozenset[int], ...]:
    """The sets {x, t x, x ^ t x} over the 255 nonzero classes, sorted."""
    seen = {frozenset((x, t[x], x ^ t[x])) for x in range(1, 256)}
    return tuple(sorted(seen, key=lambda s: tuple(sorted(s))))


def triangle_certified_by_shared_duads(cell: Cell600, vs: Sequence[int], cs: Sequence[int]) -> bool:
    """Whether three pairs vs share exactly two duads, the cells cs carry the
    crossed duads, and vs is the hexagon of the two cells of the shared duads."""
    if len(vs) != 3:
        return False
    shared = set(cell.labels[vs[0]]) & set(cell.labels[vs[1]]) & set(cell.labels[vs[2]])
    if len(shared) != 2:
        return False
    (ra, ca), (rb, cb) = sorted(shared)
    if {cell.duad_of_cell[c] for c in cs} != {(ra, cb), (rb, ca)}:
        return False
    hex_cells = frozenset(k for k in range(25) if cell.duad_of_cell[k] in shared)
    return cell.hexagons[hex_cells] == frozenset(vs)


# ---------- the F4 constructions before the doubling of Q and the meet of planes ----------

def q_by_double_loop(gram: Sequence[Sequence[int]], x: int) -> int:
    """Q of the class x: half the sum of gram[i][j] over its set bits i and j, mod 2."""
    ones = list(bits(x))
    return sum(gram[i][j] for i in ones for j in ones) // 2 & 1


def tags_by_16cell_lines(geo) -> tuple[tuple[str, int], ...]:
    """The 85 point tags: each pair on the point of its vertex's class, and
    each 24-cell on the fifth point of a line whose other four points are the
    pairs of one of its 16-cells; raises unless 25 points get one 24-cell each."""
    ambient = geo.cell.cell16_ambient
    tags = {geo.point_of[geo.class_of_h[i]]: ("vertex", pid) for pid, (i, _) in enumerate(geo.cell.pairs)}
    proposals: dict[int, set[int]] = {}
    for line in geo.lines:
        key = tuple(sorted(tags[p][1] for p in line if p in tags))
        rest = [p for p in line if p not in tags]
        if key in ambient and len(rest) == 1:
            proposals.setdefault(rest[0], set()).add(ambient[key])
    if len(proposals) != 25 or any(len(cells) != 1 for cells in proposals.values()):
        raise ValueError("ambiguous 24-cell tag")
    tags.update((pt, ("cell", c)) for pt, (c,) in proposals.items())
    return tuple(tags[k] for k in range(85))
