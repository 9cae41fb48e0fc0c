"""The Fraction reduction layer that `h4geom.golden.ReductionMap` replaced:
the oracle the integer map is tested against.

`GoldenRational` is Q(phi) as num/den with num in Z[phi].  `FractionMap`
sends sqrt(n) to any rational m with m**2 < n on the sqrt5-form x + y*sqrt5
of each coordinate, with a golden prefactor `scale` and a form `multiplier`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt
from typing import Sequence, Union

from h4geom.golden import GoldenInt


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
    if isinstance(x, (GoldenInt, GoldenRational)):
        return sqrt5_form(x)
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
