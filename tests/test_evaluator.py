import dataclasses
import math
import tracemalloc
from fractions import Fraction
from functools import reduce
from itertools import product as iproduct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from bruteforce import naive_anchored_union, naive_box_sum, naive_maximal
from dyadicmax.crystal import (
    Crystal1D,
    ScaleSet,
    Shape,
    crystal_measure,
    product_crystal,
)
from dyadicmax.dyadic import DyadicRational
from dyadicmax.errors import BudgetExceededError, ConstructionError, ParameterError
from dyadicmax.evaluator import (
    AverageField,
    BitMask,
    GridSpec,
    _support_box,
    anchored_union_measure,
    maximal_field,
    prefix_sums,
    product_superlevel_measure,
    rasterize,
    superlevel_mask,
)
from dyadicmax.verify import build_instance

rng = np.random.default_rng(20260824)


def random_mask(shape, res=None):
    grid = GridSpec(res or (0,) * len(shape), tuple(
        r + n.bit_length() - 1 for r, n in zip(res or (0,) * len(shape), shape)
    ))
    assert grid.shape == tuple(shape)
    return BitMask(grid, (rng.random(shape) < 0.4,))


def _fixed_case(shape, rects):
    """A random mask at resolution 0 from its own generator, so building
    the case does not draw from the shared one."""
    grid = GridSpec((0,) * len(shape), tuple(n.bit_length() - 1 for n in shape))
    values = np.random.default_rng(sum(shape)).random(shape) < 0.4
    return BitMask(grid, (values,)), rects


def _cells_case(shape, cells, rects):
    """A mask at resolution 0 whose set cells are exactly `cells`."""
    grid = GridSpec((0,) * len(shape), tuple(n.bit_length() - 1 for n in shape))
    values = np.zeros(shape, dtype=bool)
    for c in cells:
        values[c] = True
    return BitMask(grid, (values,)), rects


@st.composite
def brute_force_cases(draw):
    """A grid of at most 64 cells in n = 1..4 dimensions at mixed
    resolutions; a random, empty, full, single-corner-cell or box mask
    (random cells inside a random sub-box, one of them always set, down
    to a single interior cell); and one to three shapes whose windows
    run from one cell (w_j = 1) to the whole axis (w_j = N_j, one in-box
    anchor)."""
    n = draw(st.integers(1, 4))
    ks, spare = [], 6
    for _ in range(n):
        ks.append(draw(st.integers(0, spare)))
        spare -= ks[-1]
    res = tuple(draw(st.integers(-2, 2)) for _ in range(n))
    grid = GridSpec(res, tuple(r + k for r, k in zip(res, ks)))
    kind = draw(st.sampled_from(["random", "empty", "full", "corner", "box"]))
    if kind == "random":
        bits = draw(st.lists(st.booleans(), min_size=grid.ncells, max_size=grid.ncells))
        values = np.array(bits, dtype=bool).reshape(grid.shape)
    else:
        values = np.full(grid.shape, kind == "full")
    if kind == "corner":
        values[tuple(draw(st.sampled_from((0, N - 1))) for N in grid.shape)] = True
    if kind == "box":
        lo = [draw(st.integers(0, N - 1)) for N in grid.shape]
        hi = [draw(st.integers(a, N - 1)) for a, N in zip(lo, grid.shape)]
        box = tuple(slice(a, b + 1) for a, b in zip(lo, hi))
        size = values[box].size
        bits = draw(st.lists(st.booleans(), min_size=size, max_size=size))
        values[box] = np.array(bits, dtype=bool).reshape(values[box].shape)
        values[tuple(draw(st.integers(a, b)) for a, b in zip(lo, hi))] = True
    exponent = [
        st.one_of(st.sampled_from((r, r + k)), st.integers(r, r + k))
        for r, k in zip(res, ks)
    ]
    rects = draw(st.lists(st.tuples(*exponent), min_size=1, max_size=3))
    return BitMask(grid, (values,)), rects


@st.composite
def product_field_cases(draw):
    """1D masks on n = 1..3 axes of at most 4096 cells in all, at mixed
    resolutions, and one to three shape exponents per axis."""
    n = draw(st.integers(1, 3))
    masks, exps, spare = [], [], 12
    for _ in range(n):
        k = draw(st.integers(0, spare))
        spare -= k
        r = draw(st.integers(-2, 2))
        bits = draw(st.lists(st.booleans(), min_size=1 << k, max_size=1 << k))
        masks.append(BitMask(GridSpec((r,), (r + k,)), (np.array(bits, dtype=bool),)))
        exps.append(draw(st.lists(st.integers(r, r + k), min_size=1, max_size=3)))
    return masks, exps


@st.composite
def product_crystal_cases(draw):
    """A product of n = 1..4 crystals, each over a scale set of step 1..3,
    on a grid of at most 4096 cells whose resolution is at or below the
    smallest scale and whose extent is past the largest, so every axis
    ends in zero cells; and one to three compatible shapes."""
    n = draw(st.integers(1, 4))
    sets, res, ext, spare = [], [], [], 12
    for j in range(n):
        room = spare - (n - 1 - j)  # one tail cell for every later axis
        d = draw(st.integers(1, 3))
        m = draw(st.integers(1, 1 + (room - 1) // d))
        below = draw(st.integers(0, room - 1 - (m - 1) * d))
        tail = draw(st.integers(1, room - below - (m - 1) * d))
        lo = draw(st.integers(-3, 3))
        sets.append(ScaleSet(range(lo, lo + m * d, d)))
        res.append(lo - below)
        ext.append(sets[-1].max + tail)
        spare -= below + (m - 1) * d + tail
    grid = GridSpec(res, ext)
    exponent = [st.integers(r, L) for r, L in zip(res, ext)]
    rects = draw(st.lists(st.tuples(*exponent), min_size=1, max_size=3))
    return product_crystal(*sets), grid, rects


class TestGridSpec:
    def test_cells_and_volume(self):
        g = GridSpec((0, -1), (2, 1))
        assert g.shape == (4, 4)
        assert g.ncells == 16
        assert g.cell_volume_exponent == -1

    def test_budget(self):
        with pytest.raises(BudgetExceededError) as ei:
            GridSpec((0,), (40,), budget=1 << 20)
        assert ei.value.cells_exponent == 40
        assert "2^40 cells" in str(ei.value)
        # refused exactly when 2^k > budget
        GridSpec((0,), (20,), budget=1 << 20)
        GridSpec((0,), (21,), budget=1 << 21)
        for budget in (1 << 20, (1 << 21) - 1):
            with pytest.raises(BudgetExceededError):
                GridSpec((0,), (21,), budget=budget)

    def test_validation(self):
        with pytest.raises(ParameterError):
            GridSpec((1,), (0,))

    def test_dimension_zero_refused(self):
        # a 0-d grid has one cell but no axis to slide a window along
        with pytest.raises(ParameterError, match="at least one axis"):
            GridSpec((), ())

    @pytest.mark.parametrize("budget", [
        0, -1, -5, 4.0, 2.5, "8", None, True, False,
        *(pytest.param(b, id=f"np.{type(b).__name__}({b})") for b in (
            np.int64(0), np.int8(-3), np.uint8(0), np.bool_(True), np.bool_(False),
            np.float64(4.0), np.array([8]),
        )),
    ])
    def test_budget_must_be_a_positive_integer(self, budget):
        # a negative budget must not act as its absolute value, nor True as 1
        with pytest.raises(ParameterError, match="positive integer"):
            GridSpec((0, 0), (1, 1), budget=budget)

    @pytest.mark.parametrize("kind", [np.int64, np.int32, np.uint16, np.uint64])
    def test_numpy_integer_budget(self, kind):
        # read with operator.index: refused exactly when 2^k > budget
        assert type(GridSpec((0,), (6,), budget=kind(64)).budget) is int
        with pytest.raises(BudgetExceededError):
            GridSpec((0,), (6,), budget=kind(63))


class TestRasterize:
    def test_2x2_example(self):
        E = product_crystal(ScaleSet((0, 1)), ScaleSet((0, 1)))
        mask = rasterize(E, GridSpec((0, 0), (1, 1)))
        assert int(mask.values.sum()) == 1
        assert mask.measure() == DyadicRational(1, 0)

    def test_1d_example(self):
        E = product_crystal(ScaleSet((0, 2, 3)))
        mask = rasterize(E, GridSpec((0,), (3,)))
        assert list(np.flatnonzero(mask.values)) == [0, 2]

    def test_measure_consistency(self):
        for sets in [
            (ScaleSet((-2, 0, 1)), ScaleSet((0, 3))),
            (ScaleSet((1,)), ScaleSet((-1, 2)), ScaleSet((0, 1))),
        ]:
            E = product_crystal(*sets)
            grid = GridSpec(
                tuple(A.min for A in sets), tuple(A.max for A in sets)
            )
            assert rasterize(E, grid).measure() == crystal_measure(E)

    def test_refinement_invariance(self):
        E = product_crystal(ScaleSet((0, 2)), ScaleSet((-1, 1)))
        g1 = GridSpec((0, -1), (2, 1))
        g2 = GridSpec((-2, -3), (2, 1))
        assert rasterize(E, g1).measure() == rasterize(E, g2).measure()

    def test_too_coarse_grid_refused(self):
        E = product_crystal(ScaleSet((0, 2)))
        with pytest.raises(ParameterError):
            rasterize(E, GridSpec((1,), (2,)))

    def test_measure_mismatch_raises(self, monkeypatch):
        E = product_crystal(ScaleSet((0, 2)), ScaleSet((0, 1)))
        # a kernel that drops one kept cell breaks the measure check
        cells = Crystal1D.cells

        def one_dropped(self, resolution, ncells):
            axis = cells(self, resolution, ncells)
            axis[np.flatnonzero(axis)[-1]] = False
            return axis

        monkeypatch.setattr(Crystal1D, "cells", one_dropped)
        with pytest.raises(ConstructionError):
            rasterize(E, GridSpec((0, 0), (2, 1)))


@st.composite
def malformed_mask_values(draw):
    """A grid of at most 64 cells and factors that are not a nonempty
    tuple of bool arrays of at least one axis whose shapes concatenate
    to the grid's: a non-bool dtype of the grid's shape, one to three
    bool arrays of other shapes (the right cell count split the wrong
    way included), the right bools as a nested list, an empty tuple, or
    a bare array of the right bools, the old call form."""
    ks = draw(st.lists(st.integers(0, 2), min_size=1, max_size=3))
    grid = GridSpec((0,) * len(ks), tuple(ks))
    kind = draw(st.sampled_from(["dtype", "shape", "list", "empty", "bare"]))
    if kind == "dtype":
        dtype = draw(st.one_of(
            hnp.integer_dtypes(), hnp.unsigned_integer_dtypes(),
            hnp.floating_dtypes(), st.just(np.dtype(object)),
        ))
        return grid, (draw(hnp.arrays(dtype, grid.shape, elements=st.integers(0, 1))),)
    if kind == "shape":
        shapes = st.lists(hnp.array_shapes(min_dims=0, max_dims=3, max_side=4),
                          min_size=1, max_size=3)
        shapes = shapes.filter(lambda ss: sum(ss, ()) != grid.shape or () in ss)
        return grid, tuple(np.ones(s, dtype=bool) for s in draw(shapes))
    if kind == "list":
        return grid, (np.ones(grid.shape, dtype=bool).tolist(),)
    if kind == "empty":
        return grid, ()
    return grid, np.ones(grid.shape, dtype=bool)


class TestBitMaskContract:
    """A mask is built only as BitMask(grid, factors), from a tuple of
    bool arrays whose shapes concatenate to the grid's; its values, the
    outer AND of the factors, are a read-only property built on first
    read, so no walk over the fields builds them (that rasterize's
    factors are read-only is checked in TestFactoredPrefixSums); masks,
    fields and instances compare by identity."""

    @given(case=malformed_mask_values())
    # an int mask's field would disagree with its own popcount measure
    @example(case=(GridSpec((0,), (2,)), (np.array([1, 0, 2, 0]),)))
    # the right cell count split the wrong way, and the right shapes with
    # a 0-d factor, which has no axis to read a support box from
    @example(case=(GridSpec((0, 0), (1, 2)), (np.ones(4, bool), np.ones(2, bool))))
    @example(case=(GridSpec((0,), (1,)), (np.ones(2, bool), np.array(True))))
    # a bare 2 x 2 array: iterated, its rows would pass as two 1D factors
    @example(case=(GridSpec((0, 0), (1, 1)), np.ones((2, 2), bool)))
    @settings(max_examples=80, deadline=None)
    def test_malformed_values_raise(self, case):
        grid, factors = case
        with pytest.raises(ParameterError, match="bool ndarray"):
            BitMask(grid, factors)

    def test_replaced_values_drop_the_factors(self):
        # all-True factors next to one corner cell: a mask that kept them
        # would read 1 at every cell of the unit-shape field
        grid = GridSpec((0, 0), (1, 1))
        full = rasterize(product_crystal(ScaleSet((1,)), ScaleSet((1,))), grid)
        assert [a.tolist() for a in full.factors] == [[True, True]] * 2
        corner = np.zeros(grid.shape, dtype=bool)
        corner[0, 0] = True
        replaced = dataclasses.replace(full, factors=(corner,))
        assert len(replaced.factors) == 1 and replaced.factors[0] is corner
        # one factor's values are a read-only view of it
        assert not replaced.values.flags.writeable
        assert np.shares_memory(replaced.values, corner)
        unit = [Shape((0, 0))]
        got = maximal_field(replaced, unit)
        assert got.num.tolist() == [[1, 0], [0, 0]]
        assert np.array_equal(got.num, maximal_field(BitMask(grid, (corner,)), unit).num)

    def test_repr_and_replace_keep_the_factors(self):
        # the 2^22-cell n = 2, m = 12 grid: values built by a walk over
        # the fields would take 4 MB
        inst = build_instance(2, range(12))
        mask = rasterize(inst.Y[inst.indices[-1]], inst.grid)
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            text = repr(mask)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert text.startswith("BitMask(grid=GridSpec(")
        assert peak < inst.grid.ncells / 16 and "values" not in vars(mask)
        replaced = dataclasses.replace(mask, grid=mask.grid)
        assert len(replaced.factors) == 2
        assert all(a is b and a.ndim == 1 for a, b in zip(replaced.factors, mask.factors))
        assert "values" not in vars(mask) and "values" not in vars(replaced)

    def test_equality_and_hash_are_identity(self):
        grid = GridSpec((0,), (2,))
        values = np.ones(grid.shape, dtype=bool)
        mask, twin = BitMask(grid, (values,)), BitMask(grid, (values.copy(),))
        fld = maximal_field(mask, [Shape((1,))])
        fld_twin = maximal_field(twin, [Shape((1,))])
        inst, inst_twin = build_instance(2, range(3)), build_instance(2, range(3))
        for a, b in [(mask, twin), (fld, fld_twin), (inst, inst_twin)]:
            assert a == a and hash(a) == hash(a)
            assert a != b
            assert len({a, b}) == 2


def whole_table(mask, *dtype):
    """The mask's prefix table, the outer product of the one table per
    factor that prefix_sums returns, each of its factor's shape plus one."""
    tables = prefix_sums(mask, *dtype)
    assert [P.shape for P in tables] == [
        tuple(n + 1 for n in f.shape) for f in mask.factors
    ]
    return reduce(np.multiply.outer, tables)


class TestPrefixSums:
    """The contract: entry i of the table counts the set cells in the
    half-open box [0, i)."""

    def test_full_box_is_popcount(self):
        mask = random_mask((8, 8))
        P = whole_table(mask)
        assert P.shape == (9, 9)
        assert P[8, 8] == int(mask.values.sum())

    def test_single_cell(self):
        # [0, i) holds the one set cell c exactly when i > c on every axis
        grid = GridSpec((0, 0), (2, 3))
        for c in [(0, 0), (3, 7), (2, 5)]:
            values = np.zeros(grid.shape, dtype=bool)
            values[c] = True
            P = whole_table(BitMask(grid, (values,)))
            for i in np.ndindex(P.shape):
                assert P[i] == all(a > b for a, b in zip(i, c))

    def test_random_boxes_against_naive(self):
        for shape in [(16,), (8, 16), (4, 8, 8)]:
            mask = random_mask(shape)
            P = whole_table(mask)
            origin = (0,) * len(shape)
            for _ in range(50):
                i = tuple(int(rng.integers(0, n + 1)) for n in shape)
                assert P[i] == naive_box_sum(mask.values, origin, i)


class TestFactoredPrefixSums:
    """A rasterized crystal's table is the outer product of its axis
    tables; the dense table of the same values is the oracle."""

    @given(case=product_crystal_cases())
    # 32 x 8 kept cells: the uint8 table of the whole grid wraps to 0 at
    # the far corner, though neither factor's table wraps
    @example(case=(
        product_crystal(ScaleSet((1, 3)), ScaleSet((0, 2))),
        GridSpec((-3, -2), (4, 3)), [(4, 3), (1, 0)],
    ))
    # 512 kept cells on the first axis: that factor's own uint8 table
    # wraps to 0 at its end, under the uint8 kernel of 8-cell windows
    @example(case=(
        product_crystal(ScaleSet((9,)), ScaleSet((0,))),
        GridSpec((0, 0), (10, 1)), [(3, 0), (0, 1)],
    ))
    @settings(max_examples=80, deadline=None)
    def test_against_the_dense_table(self, case):
        E, grid, rects = case
        mask = rasterize(E, grid)
        assert len(mask.factors) == grid.dimension
        dense = BitMask(grid, (mask.values.copy(),))
        P = whole_table(mask)
        assert P.dtype == np.int64 and np.array_equal(P, whole_table(dense))
        for dt in (np.uint8, np.uint16, np.uint32):
            residues = P % (1 << (8 * np.dtype(dt).itemsize))
            for source in (mask, dense):
                narrow = whole_table(source, dt)
                assert narrow.dtype == dt and np.array_equal(narrow, residues)
        shapes = [Shape(r) for r in rects]
        fld, want = maximal_field(mask, shapes), maximal_field(dense, shapes)
        assert fld.num.dtype == want.num.dtype and fld.denom_exp == want.denom_exp
        assert np.array_equal(fld.num, want.num)
        # the factors and their product are read-only, so none goes stale
        for a in (mask.values, *mask.factors):
            with pytest.raises(ValueError):
                a[(0,) * a.ndim] = not a[(0,) * a.ndim]


@st.composite
def small_instances(draw):
    """A theorem instance for n = 2..4, step 1..3 and offset -3..3, with
    m = 2..5 cut so the grid has at most 2^12 cells."""
    n, d = draw(st.integers(2, 4)), draw(st.integers(1, 3))
    m = draw(st.integers(2, min(5, 1 + 12 // (n * d))))
    u0 = draw(st.integers(-3, 3))
    return build_instance(n, range(u0, u0 + m * d, d))


@st.composite
def factored_masks(draw):
    """Masks of several factors on one grid, and one to three compatible
    shapes: the rasterized E and Y(i) of a small theorem instance, one
    1D factor per axis; or a "mixed" mask of random cells, whose two or
    three factors have one or two axes each and lay out a grid of two or
    three axes and at most 1024 cells.  Also the factors' ndims."""
    if draw(st.sampled_from(["rasterized", "mixed"])) == "rasterized":
        inst = draw(small_instances())
        grid, ndims = inst.grid, (1,) * inst.n
        masks = [rasterize(c, grid) for c in (inst.E, *inst.Y.values())]
    else:
        ndims = draw(st.sampled_from([(1, 1), (1, 2), (2, 1), (1, 1, 1)]))
        ks, spare = [], 10
        for _ in range(sum(ndims)):
            ks.append(draw(st.integers(0, min(4, spare))))
            spare -= ks[-1]
        res = tuple(draw(st.integers(-2, 2)) for _ in ks)
        grid = GridSpec(res, tuple(r + k for r, k in zip(res, ks)))
        factors, ax = [], 0
        for d in ndims:
            factors.append(draw(hnp.arrays(bool, grid.shape[ax:ax + d])))
            ax += d
        masks = [BitMask(grid, tuple(factors))]
    exponent = [st.integers(r, L) for r, L in zip(grid.resolution, grid.extent)]
    rects = draw(st.lists(st.tuples(*exponent), min_size=1, max_size=3))
    return grid, masks, [Shape(r) for r in rects], ndims


class TestFactoredMaskAnswers:
    """A mask of several factors, rasterized or mixed, answers its
    measure, its set cells, its cells at an index, its support box, its
    prefix table and its maximal field from its factors, and builds its
    values only when they are read; its dense copy, its own single
    factor, answers from the grid and is the oracle."""

    @given(case=factored_masks())
    @settings(max_examples=60, deadline=None)
    def test_against_the_dense_copy(self, case):
        grid, masks, shapes, ndims = case
        picks = np.random.default_rng(grid.ncells + len(masks))
        indices = [m.cell_index() for m in masks] + [
            tuple(int(picks.integers(N)) for N in grid.shape),
            tuple(picks.integers(N, size=5) for N in grid.shape),
        ]
        for mask in masks:
            measure, box = mask.measure(), _support_box(mask)
            got = [mask.at(idx) for idx in indices]
            table, fld = whole_table(mask), maximal_field(mask, shapes)
            assert "values" not in vars(mask)  # all read from the factors
            dense = BitMask(grid, (mask.values.copy(),))
            for g, idx in zip(got, indices):
                assert np.array_equal(g, mask.values[idx])
                assert np.array_equal(dense.at(idx), mask.values[idx])
            assert measure == mask.measure() and box == _support_box(mask)
            assert tuple(f.ndim for f in mask.factors) == ndims
            assert len(dense.factors) == 1
            count = int(np.count_nonzero(mask.values))
            assert mask.measure() == dense.measure() == DyadicRational(
                count, grid.cell_volume_exponent
            )
            for source in (mask, dense):
                # the set cells in C order, which the homogeneity witness reads
                coords = np.broadcast_arrays(*source.cell_index())
                assert np.array_equal(
                    np.stack([c.ravel() for c in coords], axis=1), np.argwhere(mask.values)
                )
                picked = np.zeros(grid.shape, dtype=bool)
                picked[source.cell_index()] = True
                assert np.array_equal(picked, mask.values)
                assert mask.values[source.cell_index()].size == count
            assert _support_box(mask) == _support_box(dense)
            assert np.array_equal(table, whole_table(dense))
            want = maximal_field(dense, shapes)
            assert fld.num.dtype == want.num.dtype and fld.denom_exp == want.denom_exp
            assert np.array_equal(fld.num, want.num)


def assert_field_matches_naive(mask, rects):
    """The maximal field of the shapes with exponents `rects` against the
    brute-force oracle, which scans every overhanging anchor as well."""
    fld = maximal_field(mask, [Shape(r) for r in rects])
    assert fld.num.dtype == np.min_scalar_type(1 << fld.denom_exp)
    assert fld.num.max() <= 1 << fld.denom_exp
    den = Fraction(1, 1 << fld.denom_exp)
    windows = [
        tuple(1 << (e - r) for e, r in zip(rect, mask.grid.resolution))
        for rect in rects
    ]
    want = naive_maximal(mask.values, windows)
    for idx in np.ndindex(*mask.grid.shape):
        assert int(fld.num[idx]) * den == want[idx]
    return fld


class TestMaximalField:
    def test_single_cell_shape_is_mask(self):
        mask = random_mask((8, 8))
        fld = maximal_field(mask, [Shape((0, 0))])
        assert np.array_equal(fld.num > 0, mask.values)

    def test_dominates_mask(self):
        mask = random_mask((16, 8))
        fld = maximal_field(mask, [Shape((2, 1)), Shape((0, 3))])
        thr = np.where(mask.values, 1, 0)
        assert (fld.num >= thr).all()

    def test_incompatible_shape(self):
        mask = random_mask((8,))
        # finer than a cell, wider than the extent, no shape at all
        with pytest.raises(ParameterError):
            maximal_field(mask, [Shape((-1,))])
        with pytest.raises(ParameterError):
            maximal_field(mask, [Shape((1,)), Shape((4,))])
        with pytest.raises(ParameterError):
            maximal_field(mask, [])

    @given(case=brute_force_cases())
    @example(case=_fixed_case((16,), [(2,), (4,)]))
    @example(case=_fixed_case((8, 8), [(1, 1), (3, 0)]))
    @example(case=_fixed_case((8, 16), [(0, 2), (2, 1), (3, 4)]))
    @example(case=_fixed_case((4, 4, 4), [(1, 1, 0), (2, 0, 2)]))
    @example(case=_fixed_case((4, 2, 4, 4), [(1, 1, 0, 2), (2, 0, 1, 1)]))
    # one interior cell: every reach is a proper sub-box of the grid
    @example(case=_cells_case((8, 8), [(3, 4)], [(1, 2), (0, 0)]))
    # the anchor range clamped at 0 on the first axis and at N - w on the
    # second, then the other way round
    @example(case=_cells_case((16, 16), [(1, 14)], [(3, 3), (2, 0)]))
    @example(case=_cells_case((16, 16), [(14, 1), (13, 2)], [(3, 3), (0, 2)]))
    # a reach equal to the whole grid (cells 7 and 8 meet every 8-cell
    # window) after one that is not, and a whole-grid window first, with
    # a smaller reach folded into it
    @example(case=_cells_case((16,), [(7,), (8,)], [(1,), (3,)]))
    @example(case=_cells_case((16, 8), [(5, 2)], [(4, 3), (1, 1)]))
    @settings(max_examples=80, deadline=None)
    def test_against_brute_force(self, case):
        assert_field_matches_naive(*case)

    @pytest.mark.parametrize("D", [7, 8, 15, 16])
    def test_full_window_at_the_dtype_edges(self, D):
        # 2^7 and 2^15 are the largest numerators a uint8 and a uint16
        # kernel hold, 2^8 and 2^16 the first that need uint16 and uint32;
        # the all-ones grid holds two windows, so at D = 7 and 15 its
        # 2^(D+1) set cells wrap the narrow prefix table to zero
        a = D // 2
        grid = GridSpec((0, 0), (a + 1, D - a))
        full = BitMask(grid, (np.ones(grid.shape, bool),))
        fld = maximal_field(full, [Shape((a, D - a))])
        assert fld.num.dtype == np.min_scalar_type(1 << D) and fld.denom_exp == D
        assert fld.num.max() <= 1 << D
        assert (fld.num == 1 << D).all()

    def test_wrapping_prefix_table(self):
        # 8-cell windows give D = 3 and a uint8 kernel; the mask has more
        # set cells than uint8 counts, so the prefix table wraps
        mask, rects = _fixed_case((32, 32), [(1, 2), (3, 0), (0, 3), (2, 1)])
        assert np.count_nonzero(mask.values) > np.iinfo(np.uint8).max
        assert assert_field_matches_naive(mask, rects).denom_exp == 3

    @given(case=brute_force_cases())
    @settings(max_examples=60, deadline=None)
    def test_maximum_of_the_shape_fields(self, case):
        # each one-shape field is a fresh, writeable array of its own
        mask, rects = case
        fld = maximal_field(mask, [Shape(r) for r in rects])
        want = np.zeros(mask.grid.shape, dtype=np.uint64)
        for r in rects:
            one = maximal_field(mask, [Shape(r)])
            assert one.num.flags.writeable
            assert not np.shares_memory(one.num, mask.values)
            shifted = one.num.astype(np.uint64) << (fld.denom_exp - one.denom_exp)
            np.maximum(want, shifted, out=want)
        assert np.array_equal(fld.num, want)

    def test_field_is_built_only_on_the_reach(self):
        # one set cell on a 2^20-cell grid, 16 x 16 windows: the uint16
        # prefix table and the zero-filled field are the only grid-sized
        # arrays; scanning every anchor would hold the table, a shape
        # field and a doubling buffer, about three
        grid = GridSpec((0, 0), (10, 10))
        values = np.zeros(grid.shape, dtype=bool)
        values[500, 300] = True
        mask = BitMask(grid, (values,))
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            fld = maximal_field(mask, [Shape((4, 4))])
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert fld.num.dtype == np.uint16
        assert peak < 2.5 * grid.ncells * fld.num.itemsize
        # a window holds the cell and x when |x - c| < 16 on each axis
        want = np.zeros(grid.shape, dtype=np.uint16)
        want[485:516, 285:316] = 1
        assert np.array_equal(fld.num, want)

    def test_rasterized_field_is_built_only_on_the_reach(self):
        # a one-cell product crystal on a 2^20-cell grid: the factor tables
        # and the shape's factor fields are 1D, so the zero-filled field is
        # the only grid-sized array; the mask's values are never built
        grid = GridSpec((0, 0), (10, 10))
        mask = rasterize(product_crystal(ScaleSet((0,)), ScaleSet((0,))), grid)
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            fld = maximal_field(mask, [Shape((4, 4))])
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert fld.num.dtype == np.uint16 and "values" not in vars(mask)
        assert peak < 1.25 * grid.ncells * fld.num.itemsize
        want = np.zeros(grid.shape, dtype=np.uint16)
        want[:16, :16] = 1
        assert np.array_equal(fld.num, want)

    def test_small_window_shifted_to_the_common_denominator(self):
        # a full 2-cell window next to the 128-cell one: its count 2 is
        # shifted by 6 to exactly 2^D = 128, the top of the uint8 kernel
        mask, rects = _fixed_case((8, 16), [(3, 4), (0, 1), (0, 0)])
        mask.factors[0][0, :2] = True
        fld = assert_field_matches_naive(mask, rects)
        assert fld.denom_exp == 7 and fld.num[0, 0] == 1 << 7


class TestSuperlevel:
    def test_threshold_zero_is_full_box(self):
        mask = random_mask((8, 8))
        fld = maximal_field(mask, [Shape((1, 1))])
        full = BitMask(mask.grid, (superlevel_mask(fld, DyadicRational(0, 0)),))
        assert full.measure() == DyadicRational(64, 0)

    def test_threshold_above_one_is_empty(self):
        mask = random_mask((8, 8))
        fld = maximal_field(mask, [Shape((1, 1))])
        empty = BitMask(mask.grid, (superlevel_mask(fld, DyadicRational(3, -1)),))
        assert empty.measure() == DyadicRational(0, 0)

    @pytest.mark.parametrize("rect, dtype", [((1, 2), np.uint8), ((3, 5), np.uint16)])
    def test_thresholds_at_and_above_one(self, rect, dtype):
        # threshold 1 selects the cells whose average is full (every set
        # cell, by the one-cell shape); one unit above it and 2^70, far
        # outside the field's dtype, select none
        D = sum(rect)
        mask, rects = _fixed_case((16, 32), [rect, (0, 0)])
        fld = maximal_field(mask, [Shape(r) for r in rects])
        assert fld.num.dtype == dtype and fld.denom_exp == D
        at_one = superlevel_mask(fld, DyadicRational(1, 0))
        assert at_one.any() and np.array_equal(at_one, fld.num == 1 << D)
        for thr in (DyadicRational((1 << D) + 1, -D), DyadicRational(1 << 70, 0)):
            assert not superlevel_mask(fld, thr).any()

    @pytest.mark.parametrize("dtype", [np.uint8, np.uint16, np.uint32, np.uint64])
    def test_thresholds_past_the_dtype(self, dtype):
        # the largest D the dtype holds 2^D for; the counts 3/2 2^D and
        # 2^(D+100) lie past it, and for uint64 past 2^64
        D = 8 * np.dtype(dtype).itemsize - 1
        grid = GridSpec((0,), (2,))
        num = np.array([0, 1, (1 << D) - 1, 1 << D], dtype=dtype)
        fld = AverageField(grid, num, D)
        cases = [
            (DyadicRational(1, -D), [False, True, True, True]),
            (DyadicRational(1, 0), [False, False, False, True]),
            (DyadicRational((1 << D) + 1, -D), [False] * 4),
            (DyadicRational(3, -1), [False] * 4),
            (DyadicRational(1, 100), [False] * 4),
        ]
        for thr, want in cases:
            got = superlevel_mask(fld, thr)
            assert got.dtype == bool and got.tolist() == want

    def test_frozen_square_example(self):
        # E = [0,1]^2 in [0,4]^2, shapes (2,0) and (0,2), threshold 1/4
        E = product_crystal(ScaleSet((0,)), ScaleSet((0,)))
        mask = rasterize(E, GridSpec((0, 0), (2, 2)))
        fld = maximal_field(mask, [Shape((2, 0)), Shape((0, 2))])
        got = BitMask(mask.grid, (superlevel_mask(fld, DyadicRational(1, -2)),)).measure()
        # frozen from the brute-force oracle
        want = naive_maximal(mask.values, [(4, 1), (1, 4)])
        count = sum(
            1 for idx in np.ndindex(4, 4) if want[idx] >= Fraction(1, 4)
        )
        assert count == 7
        assert got == DyadicRational(7, 0)


class TestProductSuperlevel:
    @given(
        case=product_field_cases(),
        kind=st.sampled_from(["zero", "one", "above", "attained", "dyadic"]),
        j=st.integers(0, 1 << 8),
        e=st.integers(0, 12),
    )
    # three full 16-cell axes: each uint8 factor is 2^4, and their product
    # 2^12 wraps to 0 unless the oracle multiplies in Python ints
    @example(
        case=([BitMask(GridSpec((0,), (4,)), (np.ones(16, dtype=bool),))] * 3, [[4]] * 3),
        kind="one", j=0, e=0,
    )
    @settings(max_examples=80, deadline=None)
    def test_against_the_outer_product(self, case, kind, j, e):
        masks, exps = case
        fields = [
            maximal_field(mask, [Shape((a,)) for a in ex])
            for mask, ex in zip(masks, exps)
        ]
        num = reduce(np.multiply.outer, [f.num.astype(object) for f in fields])
        D = sum(f.denom_exp for f in fields)
        thr = {
            "zero": DyadicRational(0, 0),
            "one": DyadicRational(1, 0),
            "above": DyadicRational(int(num.max()) + 1, -D),
            "attained": DyadicRational(int(num.flat[j % num.size]), -D),
            "dyadic": DyadicRational(j, -e),
        }[kind]
        count = int((num >= math.ceil(thr.as_fraction() * (1 << D))).sum())
        res = sum(mask.grid.resolution[0] for mask in masks)
        assert product_superlevel_measure(fields, thr) == DyadicRational(count, res)
        if kind == "above":
            assert count == 0
        # the outer product is the dense field of the product set over
        # the product shape set
        grid = GridSpec(
            [mask.grid.resolution[0] for mask in masks],
            [mask.grid.extent[0] for mask in masks],
        )
        values = reduce(np.logical_and.outer, [mask.values for mask in masks])
        dense = maximal_field(
            BitMask(grid, (values,)), [Shape(s) for s in iproduct(*exps)]
        )
        assert dense.denom_exp == D and np.array_equal(dense.num, num)


def assert_matches_naive_oracle(shapes):
    """The union and every |R_i \\ union of the others| against the naive
    union oracle: the latter is |all| - |others|."""
    au = anchored_union_measure(shapes)
    whole = naive_anchored_union(shapes)
    assert au.union.as_fraction() == whole
    for i, diff in enumerate(au.differences):
        others = shapes[:i] + shapes[i + 1 :]
        assert diff.as_fraction() == whole - (
            naive_anchored_union(others) if others else 0
        )


class TestAnchoredUnion:
    def test_cross_example(self):
        au = anchored_union_measure([Shape((1, 0)), Shape((0, 1))])
        assert au.union == DyadicRational(3, 0)
        assert au.differences == (DyadicRational(1, 0), DyadicRational(1, 0))

    def test_identical_shapes(self):
        au = anchored_union_measure([Shape((1, 1)), Shape((1, 1))])
        assert au.union == DyadicRational(4, 0)
        assert au.differences == (DyadicRational(0, 0), DyadicRational(0, 0))

    def test_incomparable_example(self):
        # (2,0) vs (1,1): intersection (1,0), union 4 + 4 - 2 = 6
        au = anchored_union_measure([Shape((2, 0)), Shape((1, 1))])
        assert au.union == DyadicRational(6, 0)

    def test_against_naive_oracle(self):
        for _ in range(40):
            n = int(rng.integers(1, 4))
            k = int(rng.integers(1, 6))
            shapes = [
                Shape(tuple(int(e) for e in rng.integers(-4, 5, n)))
                for _ in range(k)
            ]
            assert_matches_naive_oracle(shapes)
        # one axis, exponents far apart: private parts are whole widths
        assert_matches_naive_oracle([Shape((-40,)), Shape((40,)), Shape((3,))])

    def test_many_boxes_match_naive_oracle(self):
        # 25 boxes on a narrow exponent range, then boxes whose exponents
        # span [-40, 40], so cell widths overflow int64
        shapes = [
            Shape(tuple(int(e) for e in rng.integers(-3, 4, 3)))
            for _ in range(25)
        ]
        assert_matches_naive_oracle(shapes)
        for _ in range(10):
            n = int(rng.integers(1, 4))
            k = int(rng.integers(1, 26))
            shapes = [
                Shape(tuple(int(e) for e in rng.integers(-40, 41, n)))
                for _ in range(k)
            ]
            assert_matches_naive_oracle(shapes)

    def test_empty(self):
        assert anchored_union_measure([]).union == DyadicRational(0, 0)
