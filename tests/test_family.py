import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dyadicmax.crystal import Shape
from dyadicmax.errors import ParameterError
from dyadicmax.family import find_progression, generate_shapes, is_member


class TestGenerateShapes:
    def test_n3_example(self):
        shapes = generate_shapes(3, {0, 1, 2})
        assert len(shapes) == 9
        assert Shape((1, 1, -2)) in shapes
        assert Shape((0, 2, -2)) in shapes

    def test_n2_example(self):
        shapes = generate_shapes(2, {0, 1})
        assert shapes == [Shape((0, 0)), Shape((1, -1))]

    @given(st.integers(2, 4), st.sets(st.integers(-5, 5), min_size=1, max_size=4))
    def test_zero_sum_and_cardinality(self, n, A):
        shapes = generate_shapes(n, A)
        assert all(s.volume_exponent == 0 for s in shapes)
        assert all(is_member(s, n, A) for s in shapes)
        assert len(set(shapes)) == len(shapes) == len(A) ** (n - 1)
        assert shapes == sorted(shapes, key=lambda s: s.exponents)


class TestIsMember:
    def test_plain_membership(self):
        assert is_member(Shape((1, 1, -2)), 3, {0, 1, 2})
        assert not is_member(Shape((1, 1, -1)), 3, {0, 1, 2})
        assert not is_member(Shape((3, 0, -3)), 3, {0, 1, 2})

    def test_dimension_mismatch(self):
        with pytest.raises(ParameterError):
            is_member(Shape((0, 0)), 3, {0})


class TestProgression:
    def test_tie_break(self):
        assert find_progression({0, 1, 2, 3}, 3) == range(0, 3)

    def test_powers_of_two_have_none(self):
        assert find_progression({1, 2, 4, 8, 16}, 3) is None

    def test_gap_example(self):
        assert find_progression({0, 2, 4, 5}, 3) == range(0, 6, 2)

    @given(st.sets(st.integers(-12, 12), min_size=1, max_size=8), st.integers(2, 5))
    @settings(max_examples=150)
    def test_matches_exhaustive_oracle(self, A, m):
        # oracle: enumerate every (start, step) pair directly
        found = []
        for u0 in sorted(A):
            for d in range(1, 30):
                if all(u0 + k * d in A for k in range(m)):
                    found.append((d, u0))
        got = find_progression(A, m)
        if not found:
            assert got is None
        else:
            d, u0 = min(found)
            assert got == range(u0, u0 + m * d, d)
