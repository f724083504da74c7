"""Crystals: Cantor-like sets built from a finite set of scales.

A one-dimensional crystal over scales a_1 < ... < a_m is the anchored
interval [0, 2^(a_m)] intersected with the oscillations at every finer
scale a_1, ..., a_(m-1); the oscillation at scale a keeps the lower half
[0, 2^a) of every period of length 2^(a+1).  Each oscillation halves the
measure exactly, so the crystal has measure 2^(a_m - (m-1)).  A crystal
is kept symbolic; ``Crystal1D.cells`` materializes it as one boolean axis
at a grid resolution by applying that rule directly.  An n-dimensional
crystal is a Cartesian product of one-dimensional ones, rasterized in
the evaluator.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

import numpy as np

from .dyadic import DyadicRational
from .errors import ParameterError


@dataclass(frozen=True)
class ScaleSet:
    """Strictly increasing, non-empty tuple of integer scales."""

    scales: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "scales", tuple(self.scales))
        if not self.scales:
            raise ParameterError("scale set must be non-empty")
        if any(a >= b for a, b in zip(self.scales, self.scales[1:])):
            raise ParameterError(f"scales must be strictly increasing: {self.scales}")

    def __len__(self) -> int:
        return len(self.scales)

    def __iter__(self):
        return iter(self.scales)

    @property
    def min(self) -> int:
        return self.scales[0]

    @property
    def max(self) -> int:
        return self.scales[-1]

    def to_text(self) -> str:
        return ",".join(str(a) for a in self.scales)

    @classmethod
    def from_text(cls, text: str) -> "ScaleSet":
        try:
            scales = tuple(int(t) for t in text.split(","))
        except ValueError as exc:
            raise ParameterError(f"malformed scale list: {text!r}") from exc
        return cls(scales)


def suffix(A: ScaleSet, i: int) -> ScaleSet:
    """The tail {a_i < ... < a_m} of A, with 1-based index i."""
    if not 1 <= i <= len(A):
        raise ParameterError(f"suffix index {i} out of range 1..{len(A)}")
    return ScaleSet(A.scales[i - 1 :])


@dataclass(frozen=True)
class Crystal1D:
    scales: ScaleSet

    def measure(self) -> DyadicRational:
        """The halving law: 2^(max - (m-1))."""
        return DyadicRational.pow2(self.scales.max - (len(self.scales) - 1))

    def cells(self, resolution: int, ncells: int) -> np.ndarray:
        """Boolean axis of ``ncells`` cells of size 2^resolution from 0:
        the interval [0, 2^max), then the upper half of every 2^(a+1)
        period dropped for each finer scale a."""
        A, r = self.scales, resolution
        if r > A.min:
            raise ParameterError(
                f"grid resolution {r} coarser than crystal scale {A.min}"
            )
        if ncells < 1 << (A.max - r):
            raise ParameterError(
                f"{ncells} cells of size 2^{r} do not reach crystal extent 2^{A.max}"
            )
        cells = np.zeros(ncells, dtype=bool)
        head = cells[: 1 << (A.max - r)]  # a view: writes land in cells
        head[:] = True
        for a in A.scales[:-1]:
            head.reshape(-1, 2, 1 << (a - r))[:, 1] = False
        return cells


def build_crystal(A: ScaleSet) -> Crystal1D:
    """The crystal over A, kept symbolic: nothing is materialized."""
    return Crystal1D(A)


@dataclass(frozen=True)
class Shape:
    """A dyadic rectangle up to translation: per-axis side exponents."""

    exponents: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "exponents", tuple(self.exponents))

    def __len__(self) -> int:
        return len(self.exponents)

    def __iter__(self):
        return iter(self.exponents)

    @property
    def volume_exponent(self) -> int:
        return sum(self.exponents)

    def volume(self) -> DyadicRational:
        return DyadicRational.pow2(self.volume_exponent)

    def dilate(self, t: int) -> "Shape":
        return Shape(tuple(a + t for a in self.exponents))


@dataclass(frozen=True)
class CrystalND:
    """Symbolic Cartesian product of one-dimensional crystals."""

    factors: tuple[Crystal1D, ...]

    def __post_init__(self):
        object.__setattr__(self, "factors", tuple(self.factors))
        if not self.factors:
            raise ParameterError("need at least one factor")

    @property
    def dimension(self) -> int:
        return len(self.factors)


def product_crystal(*scale_sets: ScaleSet) -> CrystalND:
    return CrystalND(tuple(build_crystal(A) for A in scale_sets))


def crystal_measure(Y: CrystalND) -> DyadicRational:
    """Product of the exact factor measures 2^(a_max - (m-1))."""
    return reduce(
        lambda acc, c: acc * c.measure(), Y.factors, DyadicRational.from_int(1)
    )


def primitive_rectangle(Y: CrystalND) -> Shape:
    """Largest anchored dyadic rectangle contained in the crystal.

    For a product of crystals this is the componentwise minimum scale:
    [0, 2^(min A_j)] is the longest anchored run of each factor, since the
    finest oscillation removes [2^(a_1), 2^(a_1 + 1)].
    """
    return Shape(tuple(c.scales.min for c in Y.factors))
