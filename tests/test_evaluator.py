from fractions import Fraction

import numpy as np
import pytest

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
    anchored_union_measure,
    box_sum,
    load_field,
    maximal_field,
    prefix_sums,
    rasterize,
    save_field,
    shape_average_field,
    superlevel_measure,
    union_measure,
)

rng = np.random.default_rng(20260824)


def random_mask(shape, res=None):
    grid = GridSpec(res or (0,) * len(shape), tuple(
        r + n.bit_length() - 1 for r, n in zip(res or (0,) * len(shape), shape)
    ))
    assert grid.shape == tuple(shape)
    return BitMask(grid, rng.random(shape) < 0.4)


class TestGridSpec:
    def test_cells_and_volume(self):
        g = GridSpec((0, -1), (2, 1))
        assert g.shape == (4, 4)
        assert g.ncells == 16
        assert g.cell_volume_exponent == -1

    def test_budget(self):
        with pytest.raises(BudgetExceededError) as ei:
            GridSpec((0,), (40,), budget=1 << 20)
        assert ei.value.required_cells == 1 << 40

    def test_validation(self):
        with pytest.raises(ParameterError):
            GridSpec((1,), (0,))


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


class TestPrefixSums:
    def test_full_box_is_popcount(self):
        mask = random_mask((8, 8))
        P = prefix_sums(mask)
        assert box_sum(P, (0, 0), (8, 8)) == int(mask.values.sum())

    def test_single_cell(self):
        mask = random_mask((4, 8))
        P = prefix_sums(mask)
        for idx in [(0, 0), (3, 7), (2, 5)]:
            hi = tuple(i + 1 for i in idx)
            assert box_sum(P, idx, hi) == int(mask.values[idx])

    def test_random_boxes_against_naive(self):
        for shape in [(16,), (8, 16), (4, 8, 8)]:
            mask = random_mask(shape)
            P = prefix_sums(mask)
            for _ in range(50):
                lo = tuple(int(rng.integers(0, n)) for n in shape)
                hi = tuple(int(rng.integers(l + 1, n + 1)) for l, n in zip(lo, shape))
                assert box_sum(P, lo, hi) == naive_box_sum(mask.values, lo, hi)


class TestShapeAverageField:
    def test_full_box_shape(self):
        E = product_crystal(ScaleSet((0, 1)), ScaleSet((0, 1)))
        grid = GridSpec((0, 0), (1, 1))
        mask = rasterize(E, grid)
        fld = shape_average_field(mask, Shape((1, 1)))
        # placement anchored at 0 is index (w-1, w-1)
        assert fld.value_at((1, 1)) == Fraction(1, 4)

    def test_single_cell_shape_equals_mask(self):
        mask = random_mask((8, 8))
        fld = shape_average_field(mask, Shape((0, 0)))
        assert fld.origin == (0, 0)
        assert np.array_equal(fld.num > 0, mask.values)

    def test_against_naive_sliding_windows(self):
        for shape, rect in [
            ((16,), (2,)),
            ((8, 16), (1, 3)),
            ((4, 8, 8), (2, 0, 1)),
            ((4, 2, 4, 8), (1, 1, 0, 2)),
        ]:
            mask = random_mask(shape)
            fld = shape_average_field(mask, Shape(rect))
            window = tuple(1 << e for e in rect)
            den = Fraction(1, 1 << fld.denom_exp)
            for _ in range(30):
                anchor = tuple(
                    int(rng.integers(-(w - 1), n))
                    for w, n in zip(window, shape)
                )
                idx = tuple(a - o for a, o in zip(anchor, fld.origin))
                got = int(fld.num[idx]) * den
                want = Fraction(naive_box_sum(
                    mask.values, anchor, tuple(a + w for a, w in zip(anchor, window))
                ), 1 << sum(rect))
                assert got == want

    def test_incompatible_shape(self):
        mask = random_mask((8,))
        with pytest.raises(ParameterError):
            shape_average_field(mask, Shape((-1,)))
        with pytest.raises(ParameterError):
            shape_average_field(mask, Shape((4,)))


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

    def test_against_brute_force(self):
        cases = [
            ((16,), [(2,), (4,)]),
            ((8, 8), [(1, 1), (3, 0)]),
            ((8, 16), [(0, 2), (2, 1), (3, 4)]),
            ((4, 4, 4), [(1, 1, 0), (2, 0, 2)]),
            ((4, 2, 4, 4), [(1, 1, 0, 2), (2, 0, 1, 1)]),
        ]
        for shape, rects in cases:
            mask = random_mask(shape)
            fld = maximal_field(mask, [Shape(r) for r in rects])
            den = Fraction(1, 1 << fld.denom_exp)
            want = naive_maximal(mask.values, [tuple(1 << e for e in r) for r in rects])
            for idx in np.ndindex(*shape):
                assert int(fld.num[idx]) * den == want[idx]


class TestSuperlevel:
    def test_threshold_zero_is_full_box(self):
        mask = random_mask((8, 8))
        fld = maximal_field(mask, [Shape((1, 1))])
        assert superlevel_measure(fld, DyadicRational(0, 0)) == DyadicRational(64, 0)

    def test_threshold_above_one_is_empty(self):
        mask = random_mask((8, 8))
        fld = maximal_field(mask, [Shape((1, 1))])
        assert superlevel_measure(fld, DyadicRational(3, -1)) == DyadicRational(0, 0)

    def test_frozen_square_example(self):
        # E = [0,1]^2 in [0,4]^2, shapes (2,0) and (0,2), threshold 1/4
        E = product_crystal(ScaleSet((0,)), ScaleSet((0,)))
        mask = rasterize(E, GridSpec((0, 0), (2, 2)))
        fld = maximal_field(mask, [Shape((2, 0)), Shape((0, 2))])
        got = superlevel_measure(fld, DyadicRational(1, -2))
        # frozen from the brute-force oracle
        want = naive_maximal(mask.values, [(4, 1), (1, 4)])
        count = sum(
            1 for idx in np.ndindex(4, 4) if want[idx] >= Fraction(1, 4)
        )
        assert count == 7
        assert got == DyadicRational(7, 0)


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
        assert union_measure([Shape((2, 0)), Shape((1, 1))]) == DyadicRational(6, 0)

    def test_against_naive_oracle(self):
        for _ in range(40):
            n = int(rng.integers(1, 4))
            k = int(rng.integers(1, 6))
            shapes = [
                Shape(tuple(int(e) for e in rng.integers(-4, 5, n)))
                for _ in range(k)
            ]
            got = union_measure(shapes).as_fraction()
            assert got == naive_anchored_union(shapes)

    def test_many_boxes_match_naive_oracle(self):
        # 25 boxes on a narrow exponent range, then boxes whose exponents
        # span [-40, 40], so cell widths overflow int64
        shapes = [
            Shape(tuple(int(e) for e in rng.integers(-3, 4, 3)))
            for _ in range(25)
        ]
        assert union_measure(shapes).as_fraction() == naive_anchored_union(shapes)
        for _ in range(10):
            n = int(rng.integers(1, 4))
            k = int(rng.integers(1, 26))
            shapes = [
                Shape(tuple(int(e) for e in rng.integers(-40, 41, n)))
                for _ in range(k)
            ]
            assert union_measure(shapes).as_fraction() == naive_anchored_union(shapes)

    def test_empty(self):
        assert union_measure([]) == DyadicRational(0, 0)


class TestFieldDump(object):
    def test_mask_roundtrip(self, tmp_path):
        mask = random_mask((8, 4))
        p = tmp_path / "mask.dmx"
        save_field(p, mask)
        back = load_field(p)
        assert isinstance(back, BitMask)
        assert back.grid.resolution == mask.grid.resolution
        assert np.array_equal(back.values, mask.values)

    def test_average_roundtrip(self, tmp_path):
        mask = random_mask((8, 8))
        fld = shape_average_field(mask, Shape((2, 1)))
        p = tmp_path / "avg.dmx"
        save_field(p, fld)
        back = load_field(p)
        assert isinstance(back, AverageField)
        assert back.denom_exp == fld.denom_exp
        assert back.origin == fld.origin
        assert np.array_equal(back.num, fld.num)

    def test_truncated_header_is_parameter_error(self, tmp_path):
        p = tmp_path / "avg.dmx"
        save_field(p, shape_average_field(random_mask((8, 8)), Shape((2, 1))))
        whole = p.read_bytes()
        # cut inside the version word, an axis, denom_exp and the origin
        for cut in (6, 12, 26, 30):
            p.write_bytes(whole[:cut])
            with pytest.raises(ParameterError, match="truncated"):
                load_field(p)

    def test_truncated_payload_is_parameter_error(self, tmp_path):
        mask = random_mask((8, 4))
        for obj in (mask, shape_average_field(mask, Shape((2, 1)))):
            p = tmp_path / "field.dmx"
            save_field(p, obj)
            p.write_bytes(p.read_bytes()[:-1])
            with pytest.raises(ParameterError, match="payload"):
                load_field(p)
