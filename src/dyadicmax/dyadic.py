"""Exact dyadic-rational arithmetic.

All measures in this package are dyadic rationals m * 2^e with an
arbitrary-precision mantissa; nothing is ever rounded.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import total_ordering


@total_ordering
@dataclass(frozen=True)
class DyadicRational:
    """Exact value mantissa * 2^exponent, canonical (mantissa odd or zero)."""

    mantissa: int
    exponent: int

    def __post_init__(self):
        m = self.mantissa
        if m == 0:
            object.__setattr__(self, "exponent", 0)
        else:
            tz = (m & -m).bit_length() - 1  # trailing zero bits of m
            object.__setattr__(self, "mantissa", m >> tz)
            object.__setattr__(self, "exponent", self.exponent + tz)

    @classmethod
    def pow2(cls, k: int) -> "DyadicRational":
        return cls(1, k)

    def as_fraction(self) -> Fraction:
        if self.exponent >= 0:
            return Fraction(self.mantissa * (1 << self.exponent))
        return Fraction(self.mantissa, 1 << -self.exponent)

    def scale2(self, k: int) -> "DyadicRational":
        """Multiply by 2^k (exact)."""
        return DyadicRational(self.mantissa, self.exponent + k)

    def _aligned(self, other: "DyadicRational") -> tuple[int, int]:
        e = min(self.exponent, other.exponent)
        return (
            self.mantissa << (self.exponent - e),
            other.mantissa << (other.exponent - e),
        )

    def __add__(self, other: "DyadicRational") -> "DyadicRational":
        a, b = self._aligned(other)
        return DyadicRational(a + b, min(self.exponent, other.exponent))

    def __mul__(self, other: "DyadicRational") -> "DyadicRational":
        return DyadicRational(
            self.mantissa * other.mantissa, self.exponent + other.exponent
        )

    def __lt__(self, other: "DyadicRational") -> bool:
        a, b = self._aligned(other)
        return a < b

    def __str__(self) -> str:
        return f"{self.mantissa}*2^{self.exponent}"
