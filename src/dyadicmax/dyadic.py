"""Exact dyadic-rational arithmetic and one-dimensional dyadic set algebra.

All measures in this package are dyadic rationals m * 2^e with an
arbitrary-precision mantissa; nothing is ever rounded.  One-dimensional
sets are finite unions of aligned cells of size 2^r inside a bounding
interval [0, 2^L], stored as a Python-int bitset (bit i = cell
[i*2^r, (i+1)*2^r]).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import GridMismatchError, ParameterError


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

    @property
    def sign(self) -> int:
        return (self.mantissa > 0) - (self.mantissa < 0)

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


@dataclass(frozen=True)
class DyadicSet1D:
    """Union of aligned cells of size 2^resolution inside [0, 2^extent].

    ``bits`` is the cell bitset: bit i set means cell
    [i*2^resolution, (i+1)*2^resolution] belongs to the set.
    """

    resolution: int
    extent: int
    bits: int

    def __post_init__(self):
        if self.resolution > self.extent:
            raise ParameterError(
                f"resolution {self.resolution} coarser than extent {self.extent}"
            )
        if self.bits < 0 or self.bits >> self.ncells:
            raise ParameterError("bitset does not fit the bounding interval")

    @property
    def ncells(self) -> int:
        return 1 << (self.extent - self.resolution)

    @property
    def popcount(self) -> int:
        return self.bits.bit_count()

    def measure(self) -> DyadicRational:
        return DyadicRational(self.popcount, self.resolution)

    def cells(self) -> list[int]:
        return [i for i in range(self.ncells) if (self.bits >> i) & 1]

    def refine(self, resolution: int) -> "DyadicSet1D":
        """Re-express on a finer grid; measure is preserved exactly."""
        if resolution > self.resolution:
            raise ParameterError("refine target must be finer or equal")
        if resolution == self.resolution:
            return self
        f = 1 << (self.resolution - resolution)
        block = (1 << f) - 1
        bits = 0
        b = self.bits
        while b:
            i = (b & -b).bit_length() - 1
            bits |= block << (i * f)
            b &= b - 1
        return DyadicSet1D(resolution, self.extent, bits)


def _check_same_grid(x: DyadicSet1D, y: DyadicSet1D) -> None:
    if (x.resolution, x.extent) != (y.resolution, y.extent):
        raise GridMismatchError(
            f"grid mismatch: ({x.resolution},{x.extent}) vs "
            f"({y.resolution},{y.extent}); refine explicitly first"
        )


def set_intersect(x: DyadicSet1D, y: DyadicSet1D) -> DyadicSet1D:
    _check_same_grid(x, y)
    return DyadicSet1D(x.resolution, x.extent, x.bits & y.bits)


def set_union(x: DyadicSet1D, y: DyadicSet1D) -> DyadicSet1D:
    _check_same_grid(x, y)
    return DyadicSet1D(x.resolution, x.extent, x.bits | y.bits)


def set_diff(x: DyadicSet1D, y: DyadicSet1D) -> DyadicSet1D:
    _check_same_grid(x, y)
    return DyadicSet1D(x.resolution, x.extent, x.bits & ~y.bits)


def is_subset(x: DyadicSet1D, y: DyadicSet1D) -> bool:
    _check_same_grid(x, y)
    return x.bits & ~y.bits == 0


def translate(x: DyadicSet1D, k: int) -> tuple[DyadicSet1D, bool]:
    """Shift by k cells; returns (shifted set, whether bits were truncated)."""
    if k >= 0:
        bits = x.bits << k
    else:
        bits = x.bits >> -k
    mask = (1 << x.ncells) - 1
    kept = bits & mask
    truncated = kept.bit_count() != x.popcount
    return DyadicSet1D(x.resolution, x.extent, kept), truncated


def interval_set(a: int, r: int, L: int) -> DyadicSet1D:
    """The anchored interval [0, 2^a] rasterized at resolution r in [0, 2^L]."""
    if r > a:
        raise ParameterError(f"resolution {r} coarser than interval scale {a}")
    if a > L:
        raise ParameterError(f"interval scale {a} exceeds extent {L}")
    n = 1 << (a - r)
    return DyadicSet1D(r, L, (1 << n) - 1)


def oscillation_set(a: int, r: int, L: int) -> DyadicSet1D:
    """The 2^(a+1)-periodic oscillation at scale a, restricted to [0, 2^L].

    Each period keeps the block [0, 2^a] and drops [2^a, 2^(a+1)], so the
    density is exactly one half whenever at least one full period fits.
    """
    if r > a:
        raise ParameterError(f"resolution {r} coarser than oscillation scale {a}")
    if a + 1 > L:
        raise ParameterError(f"extent {L} holds no full period of scale {a}")
    kept = 1 << (a - r)
    period = kept * 2
    block = (1 << kept) - 1
    nperiods = 1 << (L - (a + 1))
    bits = 0
    for j in range(nperiods):
        bits |= block << (j * period)
    return DyadicSet1D(r, L, bits)
