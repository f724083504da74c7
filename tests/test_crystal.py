import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bruteforce import contained_anchored_rectangles, naive_crystal_cells
from dyadicmax.crystal import (
    Crystal1D,
    ScaleSet,
    Shape,
    build_crystal,
    crystal_measure,
    primitive_rectangle,
    product_crystal,
    suffix,
)
from dyadicmax.dyadic import DyadicRational
from dyadicmax.errors import ConstructionError, ParameterError
from dyadicmax.evaluator import GridSpec, rasterize

scale_sets = st.lists(
    st.integers(-6, 6), min_size=1, max_size=6, unique=True
).map(lambda xs: ScaleSet(tuple(sorted(xs))))


def crystal_axis(A: ScaleSet) -> np.ndarray:
    """The crystal over A at resolution min(A) on [0, 2^max(A)]."""
    return build_crystal(A).cells(A.min, 1 << (A.max - A.min))


class TestScaleSet:
    def test_validation(self):
        with pytest.raises(ParameterError):
            ScaleSet((3, 1))
        with pytest.raises(ParameterError):
            ScaleSet(())

    def test_text_roundtrip(self):
        A = ScaleSet((-2, 0, 3))
        assert ScaleSet.from_text(A.to_text()) == A
        with pytest.raises(ParameterError):
            ScaleSet.from_text("1,x")


class TestSuffix:
    def test_example(self):
        assert suffix(ScaleSet((0, 1, 2)), 2) == ScaleSet((1, 2))

    def test_identity(self):
        A = ScaleSet((-1, 2, 5))
        assert suffix(A, 1) == A

    def test_out_of_range(self):
        with pytest.raises(ParameterError):
            suffix(ScaleSet((0, 1)), 3)

    @given(scale_sets, st.data())
    def test_containment(self, A, data):
        i = data.draw(st.integers(1, len(A)))
        # both crystals end at 2^max(A); compare them on A's finer grid
        n = 1 << (A.max - A.min)
        big = build_crystal(A).cells(A.min, n)
        small = build_crystal(suffix(A, i)).cells(A.min, n)
        assert not (big & ~small).any()


class TestBuildCrystal:
    def test_example_012(self):
        A = ScaleSet((0, 1, 2))
        assert np.flatnonzero(crystal_axis(A)).tolist() == [0]
        assert build_crystal(A).measure() == DyadicRational(1, 0)

    def test_example_023(self):
        A = ScaleSet((0, 2, 3))
        assert np.flatnonzero(crystal_axis(A)).tolist() == [0, 2]
        assert build_crystal(A).measure() == DyadicRational(2, 0)

    def test_single_scale(self):
        A = ScaleSet((5,))
        assert build_crystal(A).measure() == DyadicRational(1, 5)
        assert crystal_axis(A).all()

    @given(scale_sets)
    @settings(max_examples=200)
    def test_measure_law(self, A):
        law = DyadicRational.pow2(A.max - (len(A) - 1))
        assert build_crystal(A).measure() == law
        assert DyadicRational(int(crystal_axis(A).sum()), A.min) == law

    @given(scale_sets)
    def test_exact_halving(self, A):
        # each added (finer) oscillation halves the crystal exactly
        for i in range(1, len(A)):
            part = ScaleSet(A.scales[-(i + 1):])
            whole = ScaleSet(A.scales[-i:])
            n = 1 << (A.max - A.min)
            kept = build_crystal(part).cells(A.min, n).sum()
            assert 2 * kept == build_crystal(whole).cells(A.min, n).sum()

    def test_broken_halving_law_raises(self, monkeypatch):
        # a kernel that keeps one extra cell breaks the halving law
        cells = Crystal1D.cells

        def one_extra(self, resolution, ncells):
            axis = cells(self, resolution, ncells)
            axis[np.flatnonzero(~axis)[0]] = True
            return axis

        monkeypatch.setattr(Crystal1D, "cells", one_extra)
        with pytest.raises(ConstructionError):
            rasterize(product_crystal(ScaleSet((0, 2))), GridSpec((0,), (2,)))

    @given(
        st.lists(st.integers(-3, 3), min_size=1, max_size=5, unique=True).map(
            lambda xs: ScaleSet(tuple(sorted(xs)))
        ),
        st.integers(0, 2),
        st.integers(0, 2),
    )
    @settings(max_examples=200, deadline=None)
    def test_cells_match_naive_oracle(self, A, finer, wider):
        # any resolution r <= min(A) and extent L >= max(A)
        r, L = A.min - finer, A.max + wider
        axis = build_crystal(A).cells(r, 1 << (L - r))
        assert axis.tolist() == naive_crystal_cells(A.scales, r, L)


class TestCrystalMeasure:
    def test_product_example(self):
        Y = product_crystal(ScaleSet((0, 1, 2)), ScaleSet((0, 1, 2)))
        assert crystal_measure(Y) == DyadicRational(1, 0)

    def test_cube_of_intervals(self):
        for n in (1, 2, 3):
            Y = product_crystal(*([ScaleSet((3,))] * n))
            assert crystal_measure(Y) == DyadicRational.pow2(3 * n)

    def test_construction_set_measure_formula(self):
        # E = X^(n-1) x Z for u = (0,1,2), n = 2: h_s = s
        X = ScaleSet((0, 1, 2))
        Z = ScaleSet((-2, -1, 0))
        E = product_crystal(X, Z)
        m = 3
        assert crystal_measure(E) == DyadicRational.pow2(
            (2 - (m - 1)) + (0 - (m - 1))
        )


class TestPrimitiveRectangle:
    def test_example(self):
        Y = product_crystal(ScaleSet((0, 1, 2)), ScaleSet((-2, 0)))
        assert primitive_rectangle(Y) == Shape((0, -2))

    def test_single_scale_product(self):
        Y = product_crystal(ScaleSet((1,)), ScaleSet((2,)))
        assert primitive_rectangle(Y) == Shape((1, 2))

    @given(
        st.lists(
            st.lists(st.integers(-3, 3), min_size=1, max_size=3, unique=True).map(
                lambda xs: ScaleSet(tuple(sorted(xs)))
            ),
            min_size=1,
            max_size=3,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_exhaustive_search(self, factor_sets):
        Y = product_crystal(*factor_sets)
        grid = GridSpec(
            tuple(A.min for A in factor_sets), tuple(A.max for A in factor_sets)
        )
        mask = rasterize(Y, grid)
        contained = contained_anchored_rectangles(
            mask.values, grid.resolution, grid.extent
        )
        p = primitive_rectangle(Y)
        assert tuple(p.exponents) in contained
        # unique maximal element: everything contained is componentwise <= p
        for b in contained:
            assert all(bj <= pj for bj, pj in zip(b, p.exponents))


class TestShape:
    def test_volume(self):
        s = Shape((2, -1, -1))
        assert s.volume_exponent == 0
        assert s.volume() == DyadicRational(1, 0)

    def test_dilate(self):
        assert Shape((1, -1)).dilate(2) == Shape((3, 1))
