"""Dyadic rationals, and the two building blocks of a crystal axis: the
anchored interval [0, 2^a] is the crystal over (a,), and the oscillation
at scale a restricted to [0, 2^L] is the crystal over (a, L)."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from dyadicmax.crystal import Crystal1D, ScaleSet
from dyadicmax.dyadic import DyadicRational
from dyadicmax.errors import ParameterError


def interval_cells(a: int, r: int, L: int) -> np.ndarray:
    return Crystal1D(ScaleSet((a,))).cells(r, 1 << (L - r))


def oscillation_cells(a: int, r: int, L: int) -> np.ndarray:
    return Crystal1D(ScaleSet((a, L))).cells(r, 1 << (L - r))


def cells(axis: np.ndarray) -> list[int]:
    return np.flatnonzero(axis).tolist()


def measure(axis: np.ndarray, r: int) -> DyadicRational:
    return DyadicRational(int(axis.sum()), r)


class TestDyadicRational:
    def test_canonical_form(self):
        assert DyadicRational(4, 0) == DyadicRational(1, 2)
        assert DyadicRational(0, 5) == DyadicRational(0, 0)
        assert DyadicRational(6, -1) == DyadicRational(3, 0)

    def test_arithmetic(self):
        half = DyadicRational(1, -1)
        assert half + half == DyadicRational(1, 0)
        assert half * half == DyadicRational(1, -2)

    def test_ordering(self):
        assert DyadicRational(1, -3) < DyadicRational(1, 0)
        assert DyadicRational(-1, 5) < DyadicRational(0, 0)
        assert DyadicRational(3, 1) >= DyadicRational(6, 0)

    @given(
        st.integers(-1000, 1000), st.integers(-20, 20),
        st.integers(-1000, 1000), st.integers(-20, 20),
    )
    def test_matches_fractions(self, m1, e1, m2, e2):
        a, b = DyadicRational(m1, e1), DyadicRational(m2, e2)
        fa, fb = a.as_fraction(), b.as_fraction()
        assert (a + b).as_fraction() == fa + fb
        assert (a * b).as_fraction() == fa * fb
        assert (a < b) == (fa < fb)
        assert (a <= b) == (fa <= fb)
        assert (a > b) == (fa > fb)
        assert (a >= b) == (fa >= fb)
        assert (a == b) == (fa == fb)


class TestIntervalSet:
    def test_unit_cell(self):
        s = interval_cells(0, 0, 2)
        assert cells(s) == [0]
        assert s.size == 4
        assert measure(s, 0) == DyadicRational(1, 0)

    def test_full_bounding_interval(self):
        s = interval_cells(2, 0, 2)
        assert cells(s) == [0, 1, 2, 3]
        assert measure(s, 0) == DyadicRational(4, 0)

    def test_refined_interval(self):
        s = interval_cells(1, -1, 2)
        assert cells(s) == [0, 1, 2, 3]
        assert s.size == 8
        assert measure(s, -1) == DyadicRational(2, 0)

    def test_parameter_errors(self):
        with pytest.raises(ParameterError):
            interval_cells(0, 1, 2)  # resolution coarser than the interval
        with pytest.raises(ParameterError):
            Crystal1D(ScaleSet((3,))).cells(0, 4)  # interval does not fit


class TestOscillationSet:
    def test_unit_scale(self):
        assert cells(oscillation_cells(0, 0, 2)) == [0, 2]

    def test_scale_one(self):
        assert cells(oscillation_cells(1, 0, 3)) == [0, 1, 4, 5]

    @given(st.data())
    def test_density_exactly_half(self, data):
        a = data.draw(st.integers(-6, 6))
        r = data.draw(st.integers(a - 5, a))
        L = data.draw(st.integers(a + 1, a + 6))
        s = oscillation_cells(a, r, L)
        assert 2 * s.sum() == s.size
        assert measure(s, r) == DyadicRational(1, L - 1)

    def test_parameter_errors(self):
        with pytest.raises(ParameterError):
            oscillation_cells(0, 1, 3)
        with pytest.raises(ParameterError):
            oscillation_cells(2, 0, 2)  # no full period fits

