"""Exact grid evaluation of rectangle maximal fields.

Crystals are rasterized onto an n-dimensional cell grid; window counts
come from integer prefix sums.  A shape's field is the maximum over its
cell-aligned in-box placements (`maximal_field` says why overhanging
ones can be skipped), taken one axis at a time by doubling passes over
the dyadic windows, and the maximal field is the maximum of its shape
fields.  A shape's field is zero outside its reach, the cells of the
placements that meet the mask's support box, so it is computed only
there.  Every value is an integer numerator over a power-of-two
denominator, so all comparisons and measures are exact.  The kernel
works in, and returns its field in, the smallest unsigned integer type
that holds the common numerator 2^D.

A mask is the outer AND of its factors, bool arrays whose shapes
concatenate to the grid's: one array for an arbitrary set, or, as
`rasterize` builds it, one read-only 1D axis per grid axis for a
product crystal.  Each axis comes from the crystal's memo
(`Crystal1D.cells`), built and checked against the halving law once
per crystal, so `rasterize` checks no measure of its own, and crystals
that share a factor object share its axis.  Measure, support box and
the prefix tables (one per factor, in the kernel's type) are each one
formula over the factors, worked once per distinct factor object, and
so is a shape's field: the outer product of its factors' fields.
A field (`AverageField`) is held the same way, as the maximum over
terms of the outer product of each term's factors, in one layout: per
factor, a stack of its distinct arrays, and a table naming each term's
row in each stack.  Within one `maximal_field` call each factor field
is built once per factor object, window, reach and shift by one
routine (`_factor_field`: one slice difference of the factor's prefix
table per axis, then the doubling passes), as a row of that factor
object's one read-only stack, zero outside the reach; a mask's axes
that share a factor object share its stack.  Every mask
gets one term per shape, so with 1D factors the kernel builds no
grid-sized array.  An empty mask takes the general path, with the one
cell at the origin as its support box.  A field's `num` and a mask's
`values` are built on each read, so neither goes stale.  Masks and
fields compare by identity.

A field's superlevel measures (`superlevel_measure`) are counted over
its value classes (`value_classes`): on each factor axis, the cells
that every row of the axis's stack holds alike, with the axes but the
last folded into one, merging equal columns at every step, so a
maximum of outer products is one value per pair of classes and the
folded classes are distinct.  `dyadicmax.verify` measures the cube's
field and the family field this way, one field at a time.

Only cell-aligned translates are enumerated and cells outside the
bounding box count as zero, so every superlevel measure reported here
is a certified lower bound for the true maximal operator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, reduce
from operator import index

import numpy as np

from .crystal import CrystalND, Shape
from .dyadic import DyadicRational
from .errors import BudgetExceededError, ParameterError

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

    @cached_property
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

    @property
    def values(self) -> np.ndarray:
        """The outer AND of the factors, built on each read, as a read-only
        view: of one factor, a view of it."""
        v = reduce(np.logical_and.outer, self.factors).view()
        v.flags.writeable = False
        return v

    def measure(self) -> DyadicRational:
        # the set cells of a product set: the product of its factor counts
        count = math.prod(int(np.count_nonzero(f)) for f in self.factors)
        return DyadicRational(count, self.grid.cell_volume_exponent)


@dataclass(frozen=True, eq=False)
class AverageField:
    """Per-cell exact averages num * 2^(-denom_exp) on the grid, so
    0 <= num <= 2^denom_exp.

    The field is the maximum over its terms of the outer product of each
    term's factors.  The distinct arrays of factor j are the rows of the
    stack rows[j], k_j x the factor's shape, and the factor shapes
    concatenate to grid.shape; term t takes row index[t, j] of each
    stack, so a factor array that several terms share is held once.
    denom_exp is an integer >= 0, rows are bool or unsigned and no
    wider than min_scalar_type(2^denom_exp), and index is a nonempty
    T x len(rows) integer table of row numbers, or `ParameterError` is
    raised.  `maximal_field` gives one term per shape, its factors laid
    out like the mask's, and one read-only stack per factor object."""

    grid: GridSpec
    rows: tuple[np.ndarray, ...]
    index: np.ndarray
    denom_exp: int

    def __post_init__(self):
        try:
            D = index(self.denom_exp)
        except TypeError:
            D = -1
        # every bool or unsigned dtype is at least a byte wide, so a
        # denom_exp below 0 is refused with every row, before any shift
        wide = np.min_scalar_type(1 << D).itemsize if D >= 0 else 0
        if not (
            isinstance(self.rows, tuple) and self.rows and all(
                isinstance(r, np.ndarray) and r.ndim > 1 and r.dtype.kind in "bu"
                and r.dtype.itemsize <= wide for r in self.rows
            )
            and sum((r.shape[1:] for r in self.rows), ()) == self.grid.shape
            and isinstance(self.index, np.ndarray) and self.index.dtype.kind in "iu"
            and self.index.ndim == 2 and self.index.shape[1] == len(self.rows) and len(self.index)
            and all(0 <= k < len(r) for t in self.index.tolist() for r, k in zip(self.rows, t))
        ):
            raise ParameterError(
                "field rows must be bool or unsigned stacks no wider than 2^denom_exp, an integer "
                f">= 0, whose rows' shapes concatenate to {self.grid.shape}, and index a table "
                "of their row numbers"
            )
        object.__setattr__(self, "denom_exp", D)

    @property
    def terms(self) -> tuple[tuple[np.ndarray, ...], ...]:
        """Each term's factors, views of its stacks' rows, built on each
        read."""
        return tuple(tuple(r[k] for r, k in zip(self.rows, t)) for t in self.index.tolist())

    @property
    def num(self) -> np.ndarray:
        """The dense field, a fresh array built on each read: the maximum
        of the terms' outer products, started at False, which keeps their
        type and, as every numerator is >= 0, their values."""
        return reduce(np.maximum, (reduce(np.multiply.outer, t) for t in self.terms), False)


def rasterize(E: CrystalND, grid: GridSpec) -> BitMask:
    """Product-crystal bit mask over each factor's read-only axis
    (`Crystal1D.cells`, built once per crystal and checked against the
    halving law then), so popcount times cell volume equals the symbolic
    crystal measure exactly."""
    if E.dimension != grid.dimension:
        raise ParameterError("crystal/grid dimension mismatch")
    return BitMask(grid, tuple(
        c.cells(r, n) for c, r, n in zip(E.factors, grid.resolution, grid.shape)
    ))


def prefix_sums(mask: BitMask, dtype=np.int64) -> list[np.ndarray]:
    """One zero-padded, read-only prefix table per factor, in dtype: entry
    i of a factor's table holds the count of its set cells in the
    half-open box [0, i), modulo 2^bits for a dtype too narrow to hold
    it.  A factor object on several axes has one table, built once.

    The box [0, i) of a product set meets it in the product of its
    factors' parts, so the mask's table is the outer product of these;
    it is never built."""
    return _per_object(mask.factors, lambda f: _cumulative(f, dtype))


def _per_object(factors, build) -> list:
    """build(f) for each factor, called once per distinct object."""
    built = {}
    for f in factors:
        if id(f) not in built:
            built[id(f)] = build(f)
    return [built[id(f)] for f in factors]


def _cumulative(values: np.ndarray, dtype) -> np.ndarray:
    """The zero-padded, read-only prefix table of a bool array, one pass
    per axis."""
    P = np.zeros(tuple(n + 1 for n in values.shape), dtype=dtype)
    inner = P[(slice(1, None),) * values.ndim]
    inner[...] = values  # casting once is faster than a casting cumsum
    for ax in range(values.ndim):
        inner.cumsum(axis=ax, dtype=dtype, out=inner)
    P.flags.writeable = False
    return P


def _shape_window(grid: GridSpec, shape: Shape) -> tuple[int, ...]:
    if not grid.compatible_shape(shape):
        raise ParameterError(
            f"shape {shape.exponents} incompatible with grid "
            f"res={grid.resolution} extent={grid.extent}"
        )
    return tuple(1 << (a - r) for a, r in zip(shape.exponents, grid.resolution))


def _support_box(mask: BitMask) -> list[tuple[int, int]]:
    """Per axis, the first and last index of a set cell, from one `any`
    reduction per axis of each distinct factor object; for an empty
    mask, which counts zero everywhere, the one cell at the origin."""
    def bounds(f):
        out = []
        for ax in range(f.ndim):
            hits = f.any(axis=tuple(a for a in range(f.ndim) if a != ax)).nonzero()[0]
            if not hits.size:
                return None
            out.append((int(hits[0]), int(hits[-1])))
        return out

    per_factor = _per_object(mask.factors, bounds)
    if None in per_factor:
        return [(0, 0)] * mask.grid.dimension
    return [b for fb in per_factor for b in fb]


def _factor_field(P: np.ndarray, window: tuple[int, ...]) -> np.ndarray:
    """Per cell of the reach, the maximum count of the window over the
    anchors whose windows hold it, from the prefix table P cropped to
    the counts those anchors need: one slice difference P[w:] - P[:-w]
    per axis gives the anchor counts, then log2(w) doubling passes per
    axis their maxima (`maximal_field` says why both are exact)."""
    S = P
    for ax, w in enumerate(window):
        lead = (slice(None),) * ax
        S = S[lead + (slice(w, None),)] - S[lead + (slice(None, -w),)]
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
    placements.  So each shape's field is computed on its reach only.
    An empty mask counts zero at every anchor, so any box is exact for
    it: it takes the one cell at the origin, and its field is zero.

    The kernel works per factor of the mask.  The cropped anchors form a
    product of per-axis ranges, and the count at anchor p is the product
    of its factors' counts, prod_f count_f(p_f) >= 0; so the maximum over
    the placements containing a cell is the product of the per-factor
    maxima, and a shape's field on its reach is the outer product of its
    factors' fields, each taken on the factor's own axes from the
    factor's own prefix table.  Each shape is one term of the returned
    field, in order: its row of the index table names its factors'
    fields, each zero outside the reach.  A factor field depends only on
    the factor, its window, its reach and, for the first factor, the
    shift below, so it is built once per key in a call, by
    `_factor_field` from the factor's prefix table, as one row of the
    factor object's stack.  Each stack is zero-filled once and is
    read-only: the n - 1 identical X axes of E share one, and a side
    that several shapes share is one row of it.

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
    at most 2^D because an average is at most 1.  The shift is folded
    into the first factor, whose count is at most 2^(e_1) cells with
    e_1 <= D_s, so the shifted factor stays at most 2^D too, and so
    does every product of term factors.  So the kernel runs in,
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
    # per factor object, its fields by window, ends and shift: each one's
    # row number in the factor's stack, the prefix entries its counts
    # need and its reach
    fields, layout, start = {}, [], 0
    for f, P in zip(mask.factors, prefix_sums(mask, dt)):
        layout.append((fields.setdefault(id(f), {}), P, slice(start, start + f.ndim)))
        start += f.ndim
    table = []
    for shape, window in zip(shapes, windows):
        # per axis the reach [a0, a1 + w) of the anchors [a0, a1] whose
        # windows meet the support box; their counts need P[a0 : a1 + w + 1]
        ends = tuple(
            (max(0, lo - w + 1), min(hi, N - w) + w)
            for (lo, hi), w, N in zip(box, window, grid.shape)
        )
        reach = tuple(slice(a, b) for a, b in ends)
        crop = tuple(slice(a, b + 1) for a, b in ends)
        shift = D - (shape.volume_exponent - grid.cell_volume_exponent)
        row = []
        for built, P, ax in layout:
            key = (window[ax], ends[ax], shift)
            if key not in built:
                built[key] = (len(built), P[crop[ax]], reach[ax])
            row.append(built[key][0])
            shift = 0  # folded into the first factor only
        table.append(row)

    def stack(f):  # a factor object's fields, each zero outside its reach
        rows = np.zeros((len(fields[id(f)]), *f.shape), dt)
        for (w, _, shift), (k, P, reach) in fields[id(f)].items():
            rows[k][reach] = _factor_field(P, w)
            if shift:
                rows[k] <<= shift  # zeros stay zero
        rows.flags.writeable = False  # terms share its rows
        return rows

    return AverageField(grid, tuple(_per_object(mask.factors, stack)), np.array(table), D)


def _count_threshold(denom_exp: int, threshold: DyadicRational) -> int:
    """Smallest integer c with c * 2^(-denom_exp) >= threshold, that is
    the ceiling of mantissa * 2^(exponent + denom_exp)."""
    e = threshold.exponent + denom_exp
    return threshold.mantissa << e if e >= 0 else -(-threshold.mantissa >> -e)


def superlevel_mask(fieldobj: AverageField, threshold: DyadicRational) -> np.ndarray:
    # exact for a Python int of any size: a count above every average selects none
    return fieldobj.num >= _count_threshold(fieldobj.denom_exp, threshold)


def superlevel_measure(field: AverageField, *thresholds: DyadicRational) -> tuple:
    """The exact measure of {field >= t}, one DyadicRational per
    threshold t, counted over the field's value classes: on the grid of
    class pairs the field is a maximum of outer products of class rows,
    and each selected pair weighs the product of its classes' counts."""
    (rows, counts), (last, last_counts) = value_classes(field)
    values = reduce(np.maximum, map(np.multiply.outer, rows, last))
    cuts = (_count_threshold(field.denom_exp, t) for t in thresholds)
    unit = field.grid.cell_volume_exponent
    return tuple(DyadicRational(int(counts @ (values >= c) @ last_counts), unit) for c in cuts)


def value_classes(field: AverageField):
    """A field counted over classes of cells:
    ((rows, counts), (last_rows, last_counts)).

    On each factor axis, the cells at which every row of the axis's stack
    holds the same value form a class (one `np.lexsort` per distinct
    stack), so every term holds them alike; the index table expands the
    class rows to one row per term.  The axes but the last fold into one:
    every step, the first included, multiplies the rows out over pairs
    of classes, merges equal columns and sums their cell counts, int64
    below 2^63 cells and Python ints above, so the folded classes are
    distinct even where the index table leaves stack rows unused (the
    last axis's classes are its stack's, which such rows may split).
    rows holds a row per term in min_scalar_type(2^denom_exp), so the
    field's value on the class pair (a, b) is the maximum over its terms
    of rows[t, a] * last_rows[t, b], on counts[a] * last_counts[b] cells.  Products wrap modulo 2^bits,
    which leaves exact every full product, at most 2^denom_exp."""
    dt = np.min_scalar_type(1 << field.denom_exp)
    classes = _per_object(field.rows, lambda r: _distinct_columns(r.reshape(len(r), -1)))
    axes = [(r.astype(dt, copy=False)[col], size) for (r, size), col in zip(classes, field.index.T)]
    cells = np.int64 if field.grid.cells_exponent < 63 else object
    rows, counts = np.ones((len(field.index), 1), dt), np.ones(1, cells)
    for step, size in axes[:-1]:
        # the product goes straight in, so only its sorted copy outlives the sort
        rows, counts = _distinct_columns(
            (rows[:, :, None] * step[:, None, :]).reshape(len(rows), -1),
            np.multiply.outer(counts, size.astype(cells)).ravel(),
        )
    return (rows, counts), axes[-1]


def _distinct_columns(block, weights=None):
    """The distinct columns of a row block, the block's rows at them, and
    the summed weights (by default, the number) of each distinct column's
    copies.  The sorted copy replaces the block, so an unsorted block
    the caller does not hold is freed before the runs are found."""
    order = np.lexsort(block)
    block = block.take(order, axis=1)
    edges = np.zeros(order.size + 1, bool)  # where a run of equal columns starts or ends
    edges[0] = edges[-1] = True
    edges[1:-1] = np.logical_or.reduce(block[:, 1:] != block[:, :-1])
    bounds = np.flatnonzero(edges)
    first = bounds[:-1]
    rows = block.take(first, axis=1)
    if weights is None:
        return rows, bounds[1:] - first
    return rows, np.add.reduceat(weights[order], first)


@dataclass(frozen=True, eq=False)
class AnchoredUnion:
    union: DyadicRational
    # the compressed grid (`anchored_union_measure`): each cell's volume
    # in units of 2^unit, the number of boxes covering it, the boxes, unit
    cells: tuple = field(repr=False)

    @cached_property
    def differences(self) -> tuple[DyadicRational, ...]:
        """Each |R_i \\ union of the others|, read from the compressed grid
        when first asked for: the volume of box i's cells that no other
        box covers.  A caller that reads only the union builds none."""
        volume, count, boxes, unit = self.cells
        return tuple(DyadicRational(int(volume[b][count[b] == 1].sum()), unit) for b in boxes)


def anchored_union_measure(shapes) -> AnchoredUnion:
    """Exact measure of the union of anchored boxes [0, 2^e_1] x ...,
    plus each |R_i \\ union of the other boxes| once it is read
    (`AnchoredUnion.differences`).

    Each axis is compressed to its distinct exponents e_(0) < e_(1) < ...;
    compressed cell k spans [2^e_(k-1), 2^e_(k)] (with 2^e_(-1) = 0) and
    has an integer width in units of 2^e_(0).  A box covers the leading
    cells up to its own exponent on every axis.  One grid counts the
    boxes covering each cell: the union is the volume of the cells
    counted at least once, and the part of box i outside the others is
    the volume of its cells counted exactly once.  Volumes are products
    of the widths in Python ints.  No shapes give the empty grid of one
    cell, which no box covers."""
    shapes = list(shapes)
    if len({len(s) for s in shapes}) > 1:
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
    volume = reduce(np.multiply.outer, widths, np.ones((), object))
    count = np.zeros(volume.shape, dtype=np.intp)
    boxes = tuple(tuple(slice(0, k + 1) for k in r) for r in zip(*ranks))
    for box in boxes:
        count[box] += 1
    union = DyadicRational(int(volume[count > 0].sum()), unit)
    return AnchoredUnion(union, (volume, count, boxes, unit))
