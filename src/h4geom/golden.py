"""Exact arithmetic in Z[phi], the integer norm-reduction map of Z[phi]**4,
and the package's one exact elimination routine.

phi = (1 + sqrt5)/2 satisfies phi**2 = phi + 1.  A scalar a + b*phi is held
as the integer pair (a, b) in the basis (1, phi), its only form in this
package: a plain tuple, so (0, 0) is truthy and never equals the int 0.
`mul` multiplies two pairs, and every polytope coordinate is such a pair.
`ReductionMap` sends sqrt5 to m in {-1, 0, 1} as integer arithmetic on
those pairs (Conway & Sloane, Sphere Packings, Lattices and Groups, ch. 8:
m = +-1 gives E8, m = 0 the lattice of determinant 5**4).
Ranks, determinants and inverses all come from `eliminate`, over Z only: a
question over Z[phi] is asked over Z through the basis (1, phi), where
multiplication by a + b*phi is the integer matrix [[a, b], [b, a + b]] of
determinant a**2 + a*b - b**2, the field norm.  No floating point is used
anywhere.
"""

from __future__ import annotations

import operator
from collections import namedtuple
from collections.abc import Sequence

Pair = tuple[int, int]  # (a, b) for a + b*phi

PHI: Pair = (0, 1)
PHI_INV: Pair = (-1, 1)  # phi - 1


def mul(x: Pair, y: Pair) -> Pair:
    """(a + b*phi)(c + d*phi) = (ac + bd) + (ad + bc + bd)*phi, as pairs."""
    a, b = x
    c, d = y
    return (a * c + b * d, a * d + b * c + b * d)


def phi_pow(k: int) -> Pair:
    """phi**k for any integer k (phi is a unit, so this stays in Z[phi])."""
    step = PHI if k >= 0 else PHI_INV
    out = (1, 0)
    for _ in range(abs(k)):
        out = mul(out, step)
    return out


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

    def _slots(self, x: Pair) -> Pair:
        a, b = x
        p, q = 2 * a + b, b
        return (p, q) if self.m == 0 else ((p + self.m * q) // 2, q)

    def reduce(self, x: Pair) -> int:
        """Twice x with sqrt5 -> m: (p + q*sqrt5)/2 goes to p + m*q."""
        a, b = x
        return 2 * a + (1 + self.m) * b

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


# ---------- exact elimination over Z ----------

class Elimination(namedtuple("Elimination", "pivots det adj")):
    """pivots: the columns independent of the columns before them.
    det: det A for square A (0 if singular); None otherwise.
    adj: adj A = det A * A^-1, for invertible A; None otherwise."""

    __slots__ = ()

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def numerators(self, row: Sequence[int]) -> tuple[int, ...]:
        """row * adj A: det A times the coordinates of row over the rows of A."""
        return tuple(sum(map(operator.mul, row, col)) for col in zip(*self.adj))


def eliminate(rows: Sequence[Sequence[int]]) -> Elimination:
    """Fraction-free Gauss-Jordan elimination (Bareiss) of [A | I] over Z.

    Entries must be integers (`operator.index`), so a golden pair raises
    TypeError: a Z[phi] matrix is eliminated as its integer image in the
    basis (1, phi).  Each pivot step replaces every other row by
    (p * row - f * pivot_row) / p_prev, where p is the new pivot, f the row's
    entry in the pivot column and p_prev the previous pivot; every entry stays
    a minor of [A | I], so the division is exact, and a remainder raises.
    For invertible A the left block ends as p * I and the right block as
    p * A^-1, where p = +-det A by the parity of the row swaps.
    """
    n = len(rows)
    m = len(rows[0]) if n else 0
    aug = [[*map(operator.index, row), *(int(i == j) for j in range(n))] for i, row in enumerate(rows)]
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
                q, r = divmod(p * x - f * y, prev)
                if r:
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
