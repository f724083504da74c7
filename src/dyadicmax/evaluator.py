"""Exact grid evaluation of rectangle maximal fields.

Crystals are rasterized onto an n-dimensional cell grid; window counts
come from integer prefix sums.  A shape's field is the maximum over its
cell-aligned in-box placements (`maximal_field` says why overhanging
ones can be skipped), taken one axis at a time by doubling passes over
the dyadic windows, and the maximal field is the maximum of its shape
fields.  A shape's field is zero outside its reach, the cells of the
placements that meet the mask's support box, so it is computed only
there and maxed into a zero-initialized field; only a shape whose
reach is the whole grid can become the field itself.  Every value is
an integer numerator over a power-of-two denominator, so all
comparisons and measures are exact.  The kernel works in, and returns
its field in, the smallest unsigned integer type that holds the common
numerator 2^D.

A mask is the outer AND of its factors, bool arrays whose shapes
concatenate to the grid's: one array for an arbitrary set, or, as
`rasterize` builds it, one 1D axis per grid axis for a product crystal.
Measure, support box, set-cell index, the cells at an index (`at`) and
the prefix tables (one per factor, in the kernel's type) are each one
formula over the factors, and so is a shape's field on its reach: the
outer product of its factors' fields.  With 1D factors, the field is
the only grid-sized array the kernel builds; a mask's values are built
only when they are read.  Masks and fields compare by identity.

A field that is an outer product of lower-dimensional fields, such as
the unit cube's family field (the n-fold product of one 1D field), is
never built: `product_superlevel_measure` counts its superlevel set over
the value classes of the factors.

Only cell-aligned translates are enumerated and cells outside the
bounding box count as zero, so every superlevel measure reported here
is a certified lower bound for the true maximal operator.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from functools import cached_property, reduce
from operator import index

import numpy as np

from .crystal import CrystalND, Shape, crystal_measure
from .dyadic import DyadicRational
from .errors import BudgetExceededError, ConstructionError, ParameterError

DEFAULT_CELL_BUDGET = 1 << 30


def check_budget(cells_exponent: int, budget: int) -> int:
    """Refuse 2^cells_exponent cells over the budget, and return the
    budget as a Python int; callers pass the exponent before they build
    anything of the grid's size."""
    try:
        # read as every integer of a run is, but a bool is not a count
        limit = None if isinstance(budget, (bool, np.bool_)) else index(budget)
    except TypeError:
        limit = None
    if limit is None or limit <= 0:
        raise ParameterError(f"cell budget must be a positive integer, got {budget!r}")
    # 2^k > budget exactly when k reaches the budget's bit length; the
    # cell count 2^k itself may be too long to build or print
    if cells_exponent >= limit.bit_length():
        raise BudgetExceededError(cells_exponent, limit)
    return limit


@dataclass(frozen=True)
class GridSpec:
    """Per-axis resolution and extent exponents of a rasterization grid."""

    resolution: tuple[int, ...]
    extent: tuple[int, ...]
    budget: int = DEFAULT_CELL_BUDGET

    def __post_init__(self):
        object.__setattr__(self, "resolution", tuple(map(index, self.resolution)))
        object.__setattr__(self, "extent", tuple(map(index, self.extent)))
        if len(self.resolution) != len(self.extent):
            raise ParameterError("resolution/extent dimension mismatch")
        if not self.resolution:
            raise ParameterError("a grid needs at least one axis")
        if any(r > L for r, L in zip(self.resolution, self.extent)):
            raise ParameterError("resolution coarser than extent")
        budget = check_budget(self.cells_exponent, self.budget)
        object.__setattr__(self, "budget", budget)

    @property
    def dimension(self) -> int:
        return len(self.resolution)

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(1 << (L - r) for r, L in zip(self.resolution, self.extent))

    @property
    def cells_exponent(self) -> int:
        return sum(L - r for r, L in zip(self.resolution, self.extent))

    @property
    def ncells(self) -> int:
        return 1 << self.cells_exponent

    @property
    def cell_volume_exponent(self) -> int:
        return sum(self.resolution)

    def compatible_shape(self, shape: Shape) -> bool:
        """Shape is evaluable: at least cell-sized and fits in the extent."""
        return len(shape) == self.dimension and all(
            r <= a <= L
            for a, r, L in zip(shape.exponents, self.resolution, self.extent)
        )


@dataclass(frozen=True, eq=False)
class BitMask:
    grid: GridSpec
    # bool arrays of at least one axis whose shapes concatenate to
    # grid.shape: (values,) or one 1D axis per grid axis
    factors: tuple[np.ndarray, ...]

    def __post_init__(self):
        fs = self.factors
        ok = isinstance(fs, tuple) and fs and all(
            isinstance(f, np.ndarray) and f.dtype == bool and f.ndim for f in fs
        )
        if not ok or sum((f.shape for f in fs), ()) != self.grid.shape:
            raise ParameterError(
                "mask factors must be a nonempty tuple of bool ndarrays whose "
                f"shapes concatenate to {self.grid.shape}"
            )

    @cached_property
    def values(self) -> np.ndarray:
        """The outer AND of the factors, built on first read, as a read-only
        view; of several factors it is a copy, which later writes miss."""
        v = reduce(np.logical_and.outer, self.factors).view()
        v.flags.writeable = False
        return v

    def measure(self) -> DyadicRational:
        # the set cells of a product set: the product of its factor counts
        count = math.prod(int(np.count_nonzero(f)) for f in self.factors)
        return DyadicRational(count, self.grid.cell_volume_exponent)

    def at(self, idx):
        """values[idx] for a tuple of one index per grid axis, read factor
        by factor, so a rasterized mask builds no values."""
        out, ax = np.True_, 0
        for f in self.factors:
            out = out & f[idx[ax:ax + f.ndim]]
            ax += f.ndim
        return out

    def cell_index(self):
        """An index selecting the set cells, for arr[idx] and arr[idx] = ...:
        each factor's set-cell coordinates laid along its own result axis
        (np.ix_'s open mesh for per-axis factors, so no grid-sized
        temporary), so arr[idx] follows the cells' C order."""
        F = len(self.factors)
        return tuple(c.reshape((1,) * j + (-1,) + (1,) * (F - 1 - j))
                     for j, f in enumerate(self.factors) for c in f.nonzero())


@dataclass(frozen=True, eq=False)
class AverageField:
    """Per-cell exact averages num * 2^(-denom_exp) on the grid, so
    0 <= num <= 2^denom_exp, stored in min_scalar_type(2^denom_exp)."""

    grid: GridSpec
    num: np.ndarray  # unsigned: uint8 up to denom_exp 7, uint16 up to 15
    denom_exp: int


def rasterize(E: CrystalND, grid: GridSpec) -> BitMask:
    """Product-crystal bit mask; popcount times cell volume equals the
    symbolic crystal measure exactly."""
    if E.dimension != grid.dimension:
        raise ParameterError("crystal/grid dimension mismatch")
    axes = tuple(
        c.cells(r, n) for c, r, n in zip(E.factors, grid.resolution, grid.shape)
    )
    for a in axes:  # so the factors cannot go stale
        a.flags.writeable = False
    mask = BitMask(grid, axes)
    if mask.measure() != crystal_measure(E):
        raise ConstructionError("rasterized measure differs from the crystal measure")
    return mask


def prefix_sums(mask: BitMask, dtype=np.int64) -> list[np.ndarray]:
    """One zero-padded prefix table per factor, in dtype: entry i of a
    factor's table holds the count of its set cells in the half-open box
    [0, i), modulo 2^bits for a dtype too narrow to hold it.

    The box [0, i) of a product set meets it in the product of its
    factors' parts, so the mask's table is the outer product of these;
    it is never built."""
    return [_cumulative(f, dtype) for f in mask.factors]


def _cumulative(values: np.ndarray, dtype) -> np.ndarray:
    """The zero-padded prefix table of a bool array, one pass per axis."""
    P = np.zeros(tuple(n + 1 for n in values.shape), dtype=dtype)
    inner = P[(slice(1, None),) * values.ndim]
    inner[...] = values  # casting once is faster than a casting cumsum
    for ax in range(values.ndim):
        np.cumsum(inner, axis=ax, dtype=dtype, out=inner)
    return P


def _placement_counts(P: np.ndarray, window: tuple[int, ...]) -> np.ndarray:
    """Counts of the window placed at every in-box anchor
    p_j in [0, N_j - w_j] of the grid whose prefix table is P: one slice
    difference P[w:] - P[:N-w+1] per axis."""
    S = P
    for ax, w in enumerate(window):
        hi = [slice(None)] * S.ndim
        lo = hi.copy()
        hi[ax], lo[ax] = slice(w, None), slice(None, -w)
        S = S[tuple(hi)] - S[tuple(lo)]
    return S


def _shape_window(grid: GridSpec, shape: Shape) -> tuple[int, ...]:
    if not grid.compatible_shape(shape):
        raise ParameterError(
            f"shape {shape.exponents} incompatible with grid "
            f"res={grid.resolution} extent={grid.extent}"
        )
    return tuple(1 << (a - r) for a, r in zip(shape.exponents, grid.resolution))


def _support_box(mask: BitMask) -> list[tuple[int, int]] | None:
    """Per axis, the first and last index of a set cell, from one `any`
    reduction per axis of each factor; None for an empty mask."""
    box = []
    for f in mask.factors:
        for ax in range(f.ndim):
            hits = f.any(axis=tuple(a for a in range(f.ndim) if a != ax)).nonzero()[0]
            if not hits.size:
                return None
            box.append((int(hits[0]), int(hits[-1])))
    return box


def _window_maxima(S: np.ndarray, window: tuple[int, ...]) -> np.ndarray:
    """Per cell of the reach, the maximum of the anchor counts S whose
    windows hold it: log2(w) doubling passes per axis (`maximal_field`
    says why they are exact)."""
    for ax, w in enumerate(window):
        lead = (slice(None),) * ax
        k = 1
        while k < w:
            L = S.shape[ax]
            U = np.empty(S.shape[:ax] + (L + k,) + S.shape[ax + 1:], S.dtype)
            U[lead + (slice(None, k),)] = S[lead + (slice(None, k),)]
            np.maximum(S[lead + (slice(k, None),)], S[lead + (slice(None, L - k),)],
                       out=U[lead + (slice(k, L),)])
            U[lead + (slice(L, None),)] = S[lead + (slice(L - k, None),)]
            S, k = U, 2 * k
    return S


def maximal_field(mask: BitMask, shapes) -> AverageField:
    """Per cell, the maximum rectangle average over all shapes and all
    aligned placements containing the cell.

    Only in-box anchors p_j in [0, N_j - w_j] are scanned (w_j <= N_j by
    compatible_shape).  The box part of an overhanging placement lies in
    the in-box placement at the clamped anchor clip(p, 0, N - w), which
    still contains the cell, so the maximum is unchanged.

    Of those, only the anchors whose window meets the mask's support box
    [lo, hi] are scanned: per axis, [a0, a1] = [max(0, lo - w + 1),
    min(hi, N - w)], a nonempty range since lo <= hi <= N - 1.  This is
    exact.  Counts are >= 0, and every anchor outside the crop counts 0,
    since on some axis its window ends before lo or starts after hi.
    Each cell of the shape's reach, the product of [a0, a1 + w), lies in
    the window of a cropped anchor, so its maximum is taken over every
    anchor that can count; a cell outside the reach sees only zero-count
    placements.  So each shape's field is computed on its reach and
    maxed into a zero-filled field, unless the reach is the whole grid
    and no field exists yet: then the shape's array is the running
    maximum, and a mask whose support fills the grid pays no zero-fill.
    An empty mask's field is all zero.

    The kernel works per factor of the mask.  The cropped anchors form a
    product of per-axis ranges, and the count at anchor p is the product
    of its factors' counts, prod_f count_f(p_f) >= 0; so the maximum over
    the placements containing a cell is the product of the per-factor
    maxima, and a shape's field on its reach is the outer product of its
    factors' fields, each taken on the factor's own axes from the
    factor's own prefix table.  A mask of one factor runs the same code:
    its one field is the shape's field.

    Per axis, log2(w) doubling passes turn the M = a1 - a0 + 1 anchor
    counts into the M + w - 1 cell maxima of the reach (w is a power of
    two).  Before the pass with window k the axis has length
    L = M + k - 1 and S[x] is the maximum over the anchors in
    [x - k + 1, x] ∩ [0, M - 1]; the pass sets U[x] = max(S[x - k], S[x])
    over the indices inside [0, L), for x in [0, L + k), which is the same
    statement for 2k.

    With D the largest shape volume exponent in cells, every value the
    kernel holds is at most 2^D: a factor's window count is at most its
    window's cells, so their product is at most the shape's 2^(D_s)
    cells, and shifting it by D - D_s to the common denominator keeps it
    at most 2^D because an average is at most 1.  So the kernel runs in,
    and returns its field in, dt = min_scalar_type(2^D).  The factors'
    prefix tables are built in dt and may wrap, but the window counts
    stay exact: inclusion-exclusion is an integer identity, so it holds
    modulo 2^bits(dt), and the true count lies in [0, 2^D], inside
    [0, 2^bits(dt))."""
    shapes = list(shapes)
    if not shapes:
        raise ParameterError("need at least one shape")
    grid = mask.grid
    windows = [_shape_window(grid, s) for s in shapes]
    D = max(s.volume_exponent - grid.cell_volume_exponent for s in shapes)
    dt = np.min_scalar_type(1 << D)
    box = _support_box(mask)
    if box is None:
        return AverageField(grid, np.zeros(grid.shape, dt), D)
    tables = prefix_sums(mask, dt)
    axes = []  # the grid axes of each factor
    for f in mask.factors:
        start = axes[-1].stop if axes else 0
        axes.append(slice(start, start + f.ndim))
    dims = grid.shape  # a property that builds a tuple
    out = None
    for shape, window in zip(shapes, windows):
        # per axis the reach [a0, a1 + w) of the anchors [a0, a1] whose
        # windows meet the support box; their counts need P[a0 : a1 + w + 1]
        reach = tuple(
            slice(max(0, lo - w + 1), min(hi, N - w) + w)
            for (lo, hi), w, N in zip(box, window, dims)
        )
        crop = tuple(slice(r.start, r.stop + 1) for r in reach)
        S = reduce(np.multiply.outer, [
            _window_maxima(_placement_counts(P[crop[ax]], window[ax]), window[ax])
            for P, ax in zip(tables, axes)
        ])
        S <<= D - (shape.volume_exponent - grid.cell_volume_exponent)
        if out is None:
            if S.shape == dims:
                out = S
                continue
            out = np.zeros(dims, dt)
        part = out[reach]
        np.maximum(part, S, out=part)
    return AverageField(grid, out, D)


def _count_threshold(denom_exp: int, threshold: DyadicRational) -> int:
    """Smallest integer c with c * 2^(-denom_exp) >= threshold."""
    return math.ceil(threshold.as_fraction() * (1 << denom_exp))


def superlevel_mask(fieldobj: AverageField, threshold: DyadicRational) -> np.ndarray:
    # exact for a Python int of any size: a count above every average selects none
    return fieldobj.num >= _count_threshold(fieldobj.denom_exp, threshold)


def product_superlevel_measure(fields, threshold: DyadicRational) -> DyadicRational:
    """Measure of {f_1 x ... x f_k >= threshold} for the field whose value
    at a cell (x_1, ..., x_k) is the product of the values f_j(x_j), on
    the product of the fields' grids.

    Each field is compressed to its distinct values and their cell
    multiplicities, then folded in one at a time into a table from each
    product of values to its cells, in Python ints; a cube's values are
    powers of two, so its table keeps at most n m + 1 products."""
    fields = list(fields)
    table = Counter({1: 1})
    for f in fields:
        vals, mult = np.unique(f.num, return_counts=True)
        step = Counter()
        for v, w in zip(vals.tolist(), mult.tolist()):
            for p, k in table.items():
                step[p * v] += k * w
        table = step
    c = _count_threshold(sum(f.denom_exp for f in fields), threshold)
    count = sum(k for p, k in table.items() if p >= c)
    return DyadicRational(count, sum(f.grid.cell_volume_exponent for f in fields))


@dataclass(frozen=True)
class AnchoredUnion:
    union: DyadicRational
    differences: tuple[DyadicRational, ...]  # |R_i \ union of the others|


def anchored_union_measure(shapes) -> AnchoredUnion:
    """Exact measure of the union of anchored boxes [0, 2^e_1] x ...,
    plus each |R_i \\ union of the other boxes|.

    Each axis is compressed to its distinct exponents e_(0) < e_(1) < ...;
    compressed cell k spans [2^e_(k-1), 2^e_(k)] (with 2^e_(-1) = 0) and
    has an integer width in units of 2^e_(0).  A box covers the leading
    cells up to its own exponent on every axis.  One grid counts the
    boxes covering each cell: the union is the volume of the cells
    counted at least once, and the part of box i outside the others is
    the volume of its cells counted exactly once.  Volumes are products
    of the widths in Python ints."""
    shapes = list(shapes)
    if not shapes:
        return AnchoredUnion(DyadicRational(0, 0), ())
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
    volume = reduce(np.multiply.outer, widths)
    count = np.zeros(volume.shape, dtype=np.intp)
    boxes = [tuple(slice(0, k + 1) for k in r) for r in zip(*ranks)]
    for box in boxes:
        count[box] += 1
    union = int(volume[count > 0].sum())
    private = (int(volume[box][count[box] == 1].sum()) for box in boxes)
    return AnchoredUnion(
        DyadicRational(union, unit),
        tuple(DyadicRational(p, unit) for p in private),
    )
