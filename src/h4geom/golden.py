"""Exact arithmetic in Z[phi], the integer norm-reduction map of Z[phi]**4,
and the package's one exact elimination routine.

phi = (1 + sqrt5)/2 satisfies phi**2 = phi + 1.  Elements are stored in the
(1, phi) integer basis, which keeps every polytope coordinate in this package
an integer pair.  `ReductionMap` sends sqrt5 to m in {-1, 0, 1} as integer
arithmetic on those pairs (Conway & Sloane, Sphere Packings, Lattices and
Groups, ch. 8: m = +-1 gives E8, m = 0 the lattice of determinant 5**4).
Ranks, determinants and inverses over Z and Z[phi] all come from
`eliminate`.  No floating point is used anywhere.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Sequence
from operator import mul


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

    def is_unit(self) -> bool:
        return abs(self.field_norm()) == 1

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
PHI = GoldenInt(0, 1)
PHI_INV = GoldenInt(-1, 1)


def phi_pow(k: int) -> GoldenInt:
    """phi**k for any integer k (phi is a unit, so this stays in Z[phi])."""
    return PHI**k if k >= 0 else PHI_INV ** (-k)


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


class ReductionMap:
    """The integer map of Z[phi]**4 to Z**8 that splits phi**k * x coordinate
    by coordinate under sqrt5 -> m, for m in {-1, 0, 1}.

    Write a + b*phi = (p + q*sqrt5)/2 with p = 2a + b and q = b.  For m = +-1
    the slot pair is ((p + m*q)/2, q): sqrt(5 - m**2) = 2 is folded into the
    second slot, and the reduced form is half the dot product of the slots.
    For m = 0, 5 - 0**2 is not a square, so the slots are doubled to (p, q) and
    the form is (sum of even-slot products + 5 * sum of odd-slot products) / 4.
    `block` holds the slot pairs of phi**k and phi**(k+1), the images of the
    flat coordinates a and b.  Two maps are equal when their (m, k) are.
    """

    __slots__ = ("m", "k", "block")

    def __init__(self, m: int, k: int = 0) -> None:
        if m not in (-1, 0, 1):
            raise ValueError(f"m must be -1, 0 or 1, got {m}")
        self.m = m
        self.k = k
        self.block = self._slots(phi_pow(k)) + self._slots(phi_pow(k + 1))

    def __repr__(self) -> str:
        return f"ReductionMap(m={self.m}, k={self.k})"

    def __eq__(self, other: object) -> bool:
        if isinstance(other, ReductionMap):
            return (self.m, self.k) == (other.m, other.k)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.m, self.k))

    def _slots(self, x: GoldenInt) -> tuple[int, int]:
        p, q = 2 * x.a + x.b, x.b
        return (p, q) if self.m == 0 else ((p + self.m * q) // 2, q)

    def reduce(self, x: GoldenInt) -> int:
        """Twice x with sqrt5 -> m: (p + q*sqrt5)/2 goes to p + m*q."""
        return 2 * x.a + (1 + self.m) * x.b

    def split_vector(self, flat: Sequence[int]) -> tuple[int, ...]:
        """The slots of a flat vector (a0, b0, ..., a3, b3): a*(p, q) + b*(r, s)
        per coordinate, where block = (p, q, r, s)."""
        p, q, r, s = self.block
        a0, b0, a1, b1, a2, b2, a3, b3 = flat
        return (
            a0 * p + b0 * r, a0 * q + b0 * s,
            a1 * p + b1 * r, a1 * q + b1 * s,
            a2 * p + b2 * r, a2 * q + b2 * s,
            a3 * p + b3 * r, a3 * q + b3 * s,
        )


# ---------- exact elimination over Z and Z[phi] ----------

Ring = int | GoldenInt


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


class Elimination(namedtuple("Elimination", "pivots det adj")):
    """pivots: the columns independent of the columns before them.
    det: det A for square A (0 if singular); None otherwise.
    adj: adj A = det A * A^-1, for invertible A; None otherwise."""

    __slots__ = ()

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def numerators(self, row: Sequence[Ring]) -> tuple[Ring, ...]:
        """row * adj A: det A times the coordinates of row over the rows of A."""
        return tuple(sum(map(mul, row, col)) for col in zip(*self.adj))


def eliminate(rows: Sequence[Sequence[Ring]]) -> Elimination:
    """Fraction-free Gauss-Jordan elimination (Bareiss) of [A | I].

    Entries are int (over Z) or GoldenInt (over Z[phi]).  Each pivot step
    replaces every other row by (p * row - f * pivot_row) / p_prev, where p is
    the new pivot, f the row's entry in the pivot column and p_prev the
    previous pivot; every entry stays a minor of [A | I], so the division is
    exact, and a remainder raises.  For invertible A the left block ends as
    p * I and the right block as p * A^-1, where p = +-det A by the parity of
    the row swaps.
    """
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
