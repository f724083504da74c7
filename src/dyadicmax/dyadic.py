"""Exact dyadic-rational arithmetic.

All measures in this package are dyadic rationals m * 2^e with an
arbitrary-precision mantissa; nothing is ever rounded.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction


@dataclass(frozen=True)
class DyadicRational:
    """Exact value mantissa * 2^exponent, canonical (mantissa odd or zero)."""

    mantissa: int
    exponent: int

    def __post_init__(self):
        if self.mantissa == 0:
            if self.exponent != 0:
                object.__setattr__(self, "exponent", 0)
        else:
            m, e = self.mantissa, self.exponent
            while m % 2 == 0:
                m //= 2
                e += 1
            object.__setattr__(self, "mantissa", m)
            object.__setattr__(self, "exponent", e)

    @classmethod
    def from_int(cls, n: int) -> "DyadicRational":
        return cls(n, 0)

    @classmethod
    def pow2(cls, k: int) -> "DyadicRational":
        return cls(1, k)

    def as_fraction(self) -> Fraction:
        if self.exponent >= 0:
            return Fraction(self.mantissa * (1 << self.exponent))
        return Fraction(self.mantissa, 1 << -self.exponent)

    def scale2(self, k: int) -> "DyadicRational":
        """Multiply by 2^k (exact)."""
        if self.mantissa == 0:
            return self
        return DyadicRational(self.mantissa, self.exponent + k)

    def __add__(self, other: "DyadicRational") -> "DyadicRational":
        e = min(self.exponent, other.exponent)
        m = (self.mantissa << (self.exponent - e)) + (
            other.mantissa << (other.exponent - e)
        )
        return DyadicRational(m, e)

    def __neg__(self) -> "DyadicRational":
        return DyadicRational(-self.mantissa, self.exponent)

    def __sub__(self, other: "DyadicRational") -> "DyadicRational":
        return self + (-other)

    def __mul__(self, other: "DyadicRational") -> "DyadicRational":
        return DyadicRational(
            self.mantissa * other.mantissa, self.exponent + other.exponent
        )

    def _aligned(self, other: "DyadicRational") -> tuple[int, int]:
        e = min(self.exponent, other.exponent)
        return (
            self.mantissa << (self.exponent - e),
            other.mantissa << (other.exponent - e),
        )

    def __lt__(self, other: "DyadicRational") -> bool:
        a, b = self._aligned(other)
        return a < b

    def __le__(self, other: "DyadicRational") -> bool:
        a, b = self._aligned(other)
        return a <= b

    def __gt__(self, other: "DyadicRational") -> bool:
        return other < self

    def __ge__(self, other: "DyadicRational") -> bool:
        return other <= self

    def __str__(self) -> str:
        return f"{self.mantissa}*2^{self.exponent}"
