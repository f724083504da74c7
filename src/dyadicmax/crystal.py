"""Crystals: Cantor-like sets built from a finite set of scales.

A one-dimensional crystal over scales a_1 < ... < a_m is the anchored
interval [0, 2^(a_m)] intersected with the oscillations at every finer
scale a_1, ..., a_(m-1); the oscillation at scale a keeps the lower half
[0, 2^a) of every period of length 2^(a+1).  Each oscillation halves the
measure exactly, so the crystal has measure 2^(a_m - (m-1)).  A crystal
is kept symbolic; ``Crystal1D.cells`` materializes it as one boolean axis
at a grid resolution by applying that rule directly.  Each axis is built
once per crystal and grid axis: the crystal keeps it, read-only, in a
memo that lives as long as the crystal and takes no part in equality or
hashing, and the halving law is checked against the axis's cell count
once, when it is built.  An n-dimensional crystal is a Cartesian product
of one-dimensional ones, rasterized in the evaluator from these axes, so
products that share a factor object share its axis.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import index

import numpy as np

from .dyadic import DyadicRational
from .errors import ConstructionError, ParameterError


@dataclass(frozen=True)
class ScaleSet:
    """Strictly increasing, non-empty tuple of integer scales."""

    scales: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "scales", tuple(map(index, self.scales)))
        if not self.scales:
            raise ParameterError("scale set must be non-empty")
        if any(a >= b for a, b in zip(self.scales, self.scales[1:])):
            raise ParameterError(f"scales must be strictly increasing: {self.scales}")

    def __len__(self) -> int:
        return len(self.scales)

    @property
    def min(self) -> int:
        return self.scales[0]

    @property
    def max(self) -> int:
        return self.scales[-1]


@dataclass(frozen=True)
class Crystal1D:
    scales: ScaleSet
    # the axes built so far, by (resolution, ncells)
    _axes: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def measure_exponent(self) -> int:
        """The halving law: the measure is 2^(max - (m-1))."""
        return self.scales.max - (len(self.scales) - 1)

    def measure(self) -> DyadicRational:
        return DyadicRational.pow2(self.measure_exponent)

    def cells(self, resolution: int, ncells: int) -> np.ndarray:
        """Read-only boolean axis of ``ncells`` cells of size 2^resolution
        from 0, built on the first call for these arguments and kept;
        `ConstructionError` if its cell count breaks the halving law."""
        key = (resolution, ncells)
        axis = self._axes.get(key)
        if axis is None:
            axis = self._axis(resolution, ncells)
            # 2^(max - (m-1)) / 2^resolution cells; max - (m-1) >= min >= resolution
            if np.count_nonzero(axis) != 1 << (self.measure_exponent - resolution):
                raise ConstructionError(
                    "rasterized measure differs from the crystal measure"
                )
            axis.flags.writeable = False
            self._axes[key] = axis
        return axis

    def _axis(self, resolution: int, ncells: int) -> np.ndarray:
        """The axis of `cells`, built: the interval [0, 2^max), then the
        upper half of every 2^(a+1) period dropped for each finer scale a."""
        *finer, top = scales = self.scales.scales
        r = resolution
        if r > scales[0]:
            raise ParameterError(
                f"grid resolution {r} coarser than crystal scale {scales[0]}"
            )
        if ncells < 1 << (top - r):
            raise ParameterError(
                f"{ncells} cells of size 2^{r} do not reach crystal extent 2^{top}"
            )
        cells = np.zeros(ncells, dtype=bool)
        head = cells[: 1 << (top - r)]  # a view: writes land in cells
        head[:] = True
        for a in finer:
            head.reshape(-1, 2, 1 << (a - r))[:, 1] = False
        return cells


@dataclass(frozen=True)
class Shape:
    """A dyadic rectangle up to translation: per-axis side exponents."""

    exponents: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "exponents", tuple(map(index, self.exponents)))
        if not self.exponents:
            raise ParameterError("a shape needs at least one axis")

    def __len__(self) -> int:
        return len(self.exponents)

    @property
    def volume_exponent(self) -> int:
        return sum(self.exponents)

    def volume(self) -> DyadicRational:
        return DyadicRational.pow2(self.volume_exponent)


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
    """The product of the crystals over the scale sets, one per axis."""
    return CrystalND(tuple(Crystal1D(A) for A in scale_sets))


def crystal_measure(Y: CrystalND) -> DyadicRational:
    """Product of the exact factor measures 2^(a_max - (m-1)): the power
    of two whose exponent is the sum of theirs."""
    return DyadicRational.pow2(sum(c.measure_exponent for c in Y.factors))


def primitive_rectangle(Y: CrystalND) -> Shape:
    """Largest anchored dyadic rectangle contained in the crystal.

    For a product of crystals this is the componentwise minimum scale:
    [0, 2^(min A_j)] is the longest anchored run of each factor, since the
    finest oscillation removes [2^(a_1), 2^(a_1 + 1)].
    """
    return Shape(tuple(c.scales.min for c in Y.factors))
