"""Exact grid evaluation of rectangle averages and maximal fields.

Crystals are rasterized onto an n-dimensional cell grid; rectangle
averages are computed through integer prefix sums, and the maximal field
is a running maximum over shapes and cell-aligned translate positions,
implemented as separable sliding-window maxima.  Every value is an
integer numerator over a power-of-two denominator, so all comparisons
and measures are exact.

Only cell-aligned translates are enumerated, so every superlevel measure
reported here is a certified lower bound for the true maximal operator.
Rectangles overhanging the bounding box average against emptiness
outside (exterior counts as zero), which keeps the lower-bound direction
intact.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field
from fractions import Fraction
from functools import reduce

import numpy as np
from scipy.ndimage import maximum_filter1d

from .crystal import CrystalND, Shape, crystal_measure
from .dyadic import DyadicRational
from .errors import BudgetExceededError, ConstructionError, ParameterError

DEFAULT_CELL_BUDGET = 1 << 30


@dataclass(frozen=True)
class GridSpec:
    """Per-axis resolution and extent exponents of a rasterization grid."""

    resolution: tuple[int, ...]
    extent: tuple[int, ...]
    budget: int = DEFAULT_CELL_BUDGET

    def __post_init__(self):
        object.__setattr__(self, "resolution", tuple(self.resolution))
        object.__setattr__(self, "extent", tuple(self.extent))
        if len(self.resolution) != len(self.extent):
            raise ParameterError("resolution/extent dimension mismatch")
        if any(r > L for r, L in zip(self.resolution, self.extent)):
            raise ParameterError("resolution coarser than extent")
        if self.ncells > self.budget:
            raise BudgetExceededError(self.ncells, self.budget)

    @property
    def dimension(self) -> int:
        return len(self.resolution)

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(1 << (L - r) for r, L in zip(self.resolution, self.extent))

    @property
    def ncells(self) -> int:
        return math.prod(self.shape)

    @property
    def cell_volume_exponent(self) -> int:
        return sum(self.resolution)

    def compatible_shape(self, shape: Shape) -> bool:
        """Shape is evaluable: at least cell-sized and fits in the extent."""
        return len(shape) == self.dimension and all(
            r <= a <= L
            for a, r, L in zip(shape.exponents, self.resolution, self.extent)
        )


@dataclass(frozen=True)
class BitMask:
    grid: GridSpec
    values: np.ndarray  # bool, shape = grid.shape

    def measure(self) -> DyadicRational:
        return DyadicRational(int(self.values.sum()), self.grid.cell_volume_exponent)


@dataclass(frozen=True)
class AverageField:
    """Per-cell exact values num * 2^(-denom_exp); origin gives the cell
    coordinate of index 0 along each axis (negative for anchor fields of
    overhanging placements)."""

    grid: GridSpec
    num: np.ndarray  # int64
    denom_exp: int
    origin: tuple[int, ...] = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        if self.origin is None:
            object.__setattr__(self, "origin", (0,) * self.grid.dimension)
        object.__setattr__(self, "origin", tuple(self.origin))

    def value_at(self, idx: tuple[int, ...]) -> Fraction:
        return Fraction(int(self.num[idx]), 1 << self.denom_exp)


def rasterize(E: CrystalND, grid: GridSpec) -> BitMask:
    """Product-crystal bit mask; popcount times cell volume equals the
    symbolic crystal measure exactly."""
    if E.dimension != grid.dimension:
        raise ParameterError("crystal/grid dimension mismatch")
    axes = [
        c.cells(r, n) for c, r, n in zip(E.factors, grid.resolution, grid.shape)
    ]
    values = reduce(lambda acc, a: acc[..., None] & a, axes[1:], axes[0])
    mask = BitMask(grid, values)
    if mask.measure() != crystal_measure(E):
        raise ConstructionError("rasterized measure differs from the crystal measure")
    return mask


def prefix_sums(mask: BitMask) -> np.ndarray:
    """Zero-padded prefix table: entry i holds the count of set cells in
    the half-open box [0, i)."""
    P = mask.values.astype(np.int64)
    for ax in range(P.ndim):
        P = np.cumsum(P, axis=ax)
    return np.pad(P, [(1, 0)] * P.ndim)


def box_sum(P: np.ndarray, lo: tuple[int, ...], hi: tuple[int, ...]) -> int:
    """Count of set cells in the half-open cell box [lo, hi): one prefix
    difference per axis, since box counts are separable."""
    S = P
    for l, h in zip(lo, hi):
        S = S[h] - S[l]
    return int(S)


def _window_counts(P: np.ndarray, window: tuple[int, ...]) -> np.ndarray:
    """Counts over all cell-aligned window placements overlapping the box,
    anchors p_j in [-(w_j - 1), N_j - 1]; out-of-box cells count as zero.
    Each axis in turn is replaced by its prefix difference over the
    window, clipped to the box."""
    S = P
    for ax, w in enumerate(window):
        N = P.shape[ax] - 1  # grid cell count along the axis
        p = np.arange(-(w - 1), N)
        S = np.take(S, np.clip(p + w, 0, N), axis=ax) - np.take(
            S, np.clip(p, 0, N), axis=ax
        )
    return S


def _sliding_max_forward(a: np.ndarray, w: int, axis: int) -> np.ndarray:
    """out[x] = max(a[x : x+w]) along the axis; length shrinks by w - 1."""
    if w == 1:
        return a
    f = maximum_filter1d(a, size=w, axis=axis, mode="nearest")
    n_out = a.shape[axis] - w + 1
    sl = [slice(None)] * a.ndim
    sl[axis] = slice(w // 2, w // 2 + n_out)
    return f[tuple(sl)]


def _shape_window(grid: GridSpec, shape: Shape) -> tuple[int, ...]:
    if not grid.compatible_shape(shape):
        raise ParameterError(
            f"shape {shape.exponents} incompatible with grid "
            f"res={grid.resolution} extent={grid.extent}"
        )
    return tuple(1 << (a - r) for a, r in zip(shape.exponents, grid.resolution))


def shape_average_field(mask: BitMask, shape: Shape) -> AverageField:
    """Exact averages |E ∩ (R + p)| / |R| over all aligned placements p."""
    window = _shape_window(mask.grid, shape)
    P = prefix_sums(mask)
    S = _window_counts(P, window)
    d = shape.volume_exponent - mask.grid.cell_volume_exponent
    return AverageField(
        mask.grid, S, d, origin=tuple(-(w - 1) for w in window)
    )


def maximal_field(mask: BitMask, shapes) -> AverageField:
    """Per cell, the maximum rectangle average over all shapes and all
    aligned placements containing the cell."""
    shapes = list(shapes)
    if not shapes:
        raise ParameterError("need at least one shape")
    grid = mask.grid
    windows = [_shape_window(grid, s) for s in shapes]
    D = max(s.volume_exponent - grid.cell_volume_exponent for s in shapes)
    if D > 62:
        raise ParameterError(f"common denominator exponent {D} overflows int64")
    P = prefix_sums(mask)
    out = np.zeros(grid.shape, dtype=np.int64)
    for shape, window in zip(shapes, windows):
        S = _window_counts(P, window)
        d = shape.volume_exponent - grid.cell_volume_exponent
        S <<= D - d
        for ax, w in enumerate(window):
            S = _sliding_max_forward(S, w, ax)
        np.maximum(out, S, out=out)
    return AverageField(grid, out, D)


def _count_threshold(fieldobj: AverageField, threshold: DyadicRational) -> int:
    """Smallest integer c with c * 2^(-denom_exp) >= threshold."""
    return math.ceil(threshold.as_fraction() * (1 << fieldobj.denom_exp))


def superlevel_mask(fieldobj: AverageField, threshold: DyadicRational) -> np.ndarray:
    c = _count_threshold(fieldobj, threshold)
    if c > np.iinfo(np.int64).max:
        return np.zeros_like(fieldobj.num, dtype=bool)
    return fieldobj.num >= c


def superlevel_measure(
    fieldobj: AverageField, threshold: DyadicRational
) -> DyadicRational:
    """Measure of {field >= threshold} (closed comparison)."""
    count = int(superlevel_mask(fieldobj, threshold).sum())
    return DyadicRational(count, fieldobj.grid.cell_volume_exponent)


@dataclass(frozen=True)
class AnchoredUnion:
    union: DyadicRational
    differences: tuple[DyadicRational, ...]  # |R_i \ union of the others|


def union_measure(shapes) -> DyadicRational:
    """Exact measure of the union of anchored boxes [0, 2^e_1] x ... .

    Each axis is compressed to its distinct exponents e_(0) < e_(1) < ...;
    compressed cell k spans [2^e_(k-1), 2^e_(k)] (with 2^e_(-1) = 0) and
    has an integer width in units of 2^e_(0).  A box covers the leading
    cells up to its own exponent on every axis, and the covered widths
    are multiplied and summed in Python ints."""
    shapes = list(shapes)
    if not shapes:
        return DyadicRational(0, 0)
    if len({len(s) for s in shapes}) != 1:
        raise ParameterError("shapes must share a dimension")
    ranks, widths, unit = [], [], 0
    for col in zip(*(s.exponents for s in shapes)):
        exps = sorted(set(col))
        edges = [0] + [1 << (e - exps[0]) for e in exps]
        widths.append(
            np.array([b - a for a, b in zip(edges, edges[1:])], dtype=object)
        )
        ranks.append([exps.index(e) for e in col])
        unit += exps[0]
    covered = np.zeros(tuple(len(w) for w in widths), dtype=bool)
    for r in zip(*ranks):
        covered[tuple(slice(0, k + 1) for k in r)] = True
    total = covered.astype(object)
    for w in reversed(widths):
        total = total @ w  # contracts the last remaining axis
    return DyadicRational(int(total), unit)


def anchored_union_measure(shapes) -> AnchoredUnion:
    """Union measure plus each |R_i \\ union of the other boxes|."""
    shapes = list(shapes)
    union = union_measure(shapes)
    diffs = []
    for i, s in enumerate(shapes):
        others = [
            Shape(tuple(min(a, b) for a, b in zip(s.exponents, t.exponents)))
            for k, t in enumerate(shapes)
            if k != i
        ]
        covered = union_measure(others)
        diffs.append(s.volume() - covered)
    return AnchoredUnion(union, tuple(diffs))


# --- binary field dump (debugging aid) -------------------------------------
#
# layout: magic b"DMXF", version u16, kind u8 (0 = mask, 1 = average),
# ndim u8, then per axis (resolution i32, extent i32), then for averages
# denom_exp i32 and per-axis origin i32, then the payload (packed bits
# little-endian for masks, little-endian i64 in C order for averages).

_MAGIC = b"DMXF"
_VERSION = 1


def save_field(path, obj: BitMask | AverageField) -> None:
    kind = 0 if isinstance(obj, BitMask) else 1
    g = obj.grid
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<HBB", _VERSION, kind, g.dimension))
        for r, L in zip(g.resolution, g.extent):
            fh.write(struct.pack("<ii", r, L))
        if kind == 0:
            fh.write(np.packbits(obj.values.ravel(), bitorder="little").tobytes())
        else:
            fh.write(struct.pack("<i", obj.denom_exp))
            fh.write(struct.pack(f"<{g.dimension}i", *obj.origin))
            fh.write(obj.num.astype("<i8").tobytes())


def _read_exact(fh, n: int, path) -> bytes:
    data = fh.read(n)
    if len(data) != n:
        raise ParameterError(f"{path}: truncated field dump")
    return data


def load_field(path) -> BitMask | AverageField:
    with open(path, "rb") as fh:
        if fh.read(4) != _MAGIC:
            raise ParameterError(f"{path}: not a field dump")
        version, kind, ndim = struct.unpack("<HBB", _read_exact(fh, 4, path))
        if version != _VERSION:
            raise ParameterError(f"{path}: unsupported version {version}")
        if kind not in (0, 1):
            raise ParameterError(f"{path}: unknown field kind {kind}")
        res, ext = [], []
        for _ in range(ndim):
            r, L = struct.unpack("<ii", _read_exact(fh, 8, path))
            res.append(r)
            ext.append(L)
        grid = GridSpec(tuple(res), tuple(ext))
        if kind == 0:
            shape, nbytes = grid.shape, (grid.ncells + 7) // 8
        else:
            (denom_exp,) = struct.unpack("<i", _read_exact(fh, 4, path))
            origin = struct.unpack(f"<{ndim}i", _read_exact(fh, 4 * ndim, path))
            if any(o > 0 for o in origin):
                raise ParameterError(f"{path}: positive origin {origin}")
            # anchor fields extend the grid by w-1 = -origin cells per axis
            shape = tuple(N - o for N, o in zip(grid.shape, origin))
            nbytes = 8 * math.prod(shape)
        payload = fh.read()
    if len(payload) != nbytes:
        raise ParameterError(
            f"{path}: payload has {len(payload)} bytes, the grid needs {nbytes}"
        )
    if kind == 0:
        bits = np.unpackbits(np.frombuffer(payload, dtype=np.uint8), bitorder="little")
        return BitMask(grid, bits[: grid.ncells].astype(bool).reshape(shape))
    num = np.frombuffer(payload, dtype="<i8").astype(np.int64)
    return AverageField(grid, num.reshape(shape), denom_exp, origin)
