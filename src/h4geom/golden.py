"""Exact arithmetic in Z[phi] and Q(sqrt5), rational norm-reduction maps, and
the package's one exact elimination routine.

phi = (1 + sqrt5)/2 satisfies phi**2 = phi + 1.  Elements are stored in the
(1, phi) integer basis, which keeps every polytope coordinate in this package
an integer pair; the sqrt5-form x + y*sqrt5 is derived only inside the
reduction maps.  Ranks, determinants and inverses over Z and Z[phi] all come
from `eliminate`.  No floating point is used anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt
from typing import Optional, Sequence, Union


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

    def sqrt5_form(self) -> tuple[Fraction, Fraction]:
        """(x, y) with a + b*phi = x + y*sqrt5 exactly."""
        return (Fraction(2 * self.a + self.b, 2), Fraction(self.b, 2))

    def halved(self) -> GoldenInt:
        if self.a % 2 or self.b % 2:
            raise ValueError(f"{self!r} is not divisible by 2")
        return GoldenInt(self.a // 2, self.b // 2)


GOLDEN_ZERO = GoldenInt(0, 0)
GOLDEN_ONE = GoldenInt(1, 0)
GOLDEN_TWO = GoldenInt(2, 0)
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

    def __str__(self) -> str:
        return f"({self.num})/{self.den}" if self.den != 1 else str(self.num)

    def key(self) -> tuple[int, int, int]:
        return (self.num.a, self.num.b, self.den)

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

    def conj(self) -> GoldenRational:
        return GoldenRational(self.num.conj(), self.den)

    def sqrt5_form(self) -> tuple[Fraction, Fraction]:
        x, y = self.num.sqrt5_form()
        return (x / self.den, y / self.den)


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


def _as_sqrt5_pair(x) -> Sqrt5Pair:
    if isinstance(x, (GoldenInt, GoldenRational)):
        return x.sqrt5_form()
    a, b = x
    return (Fraction(a), Fraction(b))


def _rational_sqrt(f: Fraction) -> Fraction | None:
    """Exact square root of a nonnegative rational, or None."""
    p, q = f.numerator, f.denominator
    rp, rq = isqrt(p), isqrt(q)
    if rp * rp == p and rq * rq == q:
        return Fraction(rp, rq)
    return None


@dataclass(frozen=True)
class ReductionMap:
    """Linear map of Q(sqrt n) to Q sending sqrt(n) to m, legal iff m**2 < n.

    `scale` is a golden prefactor applied to vectors before they are split and
    `multiplier` rescales the reduced quadratic form.  Both default to 1;
    integrality of an embedded lattice is certified per embedding, never
    assumed from a convention.
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
            sc = self.scale * c if isinstance(c, GoldenRational) else self.scale * GoldenRational(c)
            out.extend(self.split_pair(*sc.sqrt5_form()))
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


def reduce_scalar(value, rmap: ReductionMap) -> Fraction:
    """Send x + y*sqrt(n) to x + y*m.  `value` is a sqrt5-form pair or golden."""
    x, y = _as_sqrt5_pair(value)
    return x + y * rmap.m


def split_coordinate(value, rmap: ReductionMap) -> tuple[Fraction, Fraction]:
    """Split x + y*sqrt(n) into the two reduced coordinates of the map.

    When n - m**2 is a rational square its root is folded into the second
    slot and the form is diagonal (1, 1); otherwise the second slot carries
    symbolic weight n - m**2 (see `slot_weights`).
    """
    x, y = _as_sqrt5_pair(value)
    return rmap.split_pair(x, y)


# ---------- exact elimination over Z and Z[phi] ----------

Ring = Union[int, GoldenInt]


def exact_quotient(x: Ring, d: Ring) -> Optional[Ring]:
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


@dataclass(frozen=True)
class Elimination:
    rank: int
    det: Optional[Ring]  # det A for square A (0 if singular); None otherwise
    adj: Optional[tuple[tuple[Ring, ...], ...]]  # adj A = det A * A^-1, for invertible A


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
    rank, prev, sign = 0, 1, 1
    for c in range(m):
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
        rank += 1
    if n != m:
        return Elimination(rank, None, None)
    if rank < n:
        return Elimination(rank, 0, None)
    adj = tuple(tuple(x if sign == 1 else -x for x in row[m:]) for row in aug)
    return Elimination(rank, sign * prev, adj)
