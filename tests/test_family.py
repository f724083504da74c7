import pytest
from hypothesis import example, given, settings
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
    # members past 2^63 are searched as Python ints
    @example({2**63 - 1, 2**63 + 2, 2**63 + 5, 2**64}, 3)
    @example({-(2**64), -(2**63) - 4, -(2**63) - 2, -(2**63), 0}, 4)
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

    @given(st.data(), st.integers(2, 5))
    @settings(max_examples=150)
    def test_matches_the_pair_loop_on_wide_integers(self, data, m):
        # A around one progression, at scales on both sides of the int64
        # edge of 2 max|A|; the oracle tests every pair of members as the
        # first two terms in Python ints
        scale = data.draw(st.sampled_from([2**5, 2**40, 2**62, 2**63 - 1, 2**66]))
        A = data.draw(st.sets(st.integers(-scale, scale), max_size=12))
        u0, d = data.draw(st.integers(-scale, scale)), data.draw(st.integers(1, scale))
        A |= set(range(u0, u0 + data.draw(st.integers(0, m)) * d, d))
        found = [
            (b - a, a) for a in A for b in A
            if a < b and all(a + k * (b - a) in A for k in range(m))
        ]
        got = find_progression(A, m)
        if not found:
            assert got is None
        else:
            d, u0 = min(found)
            assert got == range(u0, u0 + m * d, d)

    @pytest.mark.parametrize("A, m, want", [
        # 2 max|A| = 2^63 - 2: steps and terms still fit int64
        ({-(2**62) + 1, 0, 2**62 - 1}, 3, range(-(2**62) + 1, 2**62 + 2**62 - 2, 2**62 - 1)),
        # 2 max|A| = 2^63: searched as Python ints
        ({-(2**62), 0, 2**62}, 3, range(-(2**62), 2**63, 2**62)),
        # members inside int64, a step of 2^64 - 2 past it
        ({-(2**63) + 1, 2**63 - 1}, 2, range(-(2**63) + 1, 2**63 + 2**64 - 3, 2**64 - 2)),
        ({0, 2**70, 2**71, 2**71 + 1}, 3, range(0, 3 * 2**70, 2**70)),
        ({0, 2**70, 2**71 + 1}, 3, None),
    ])
    def test_steps_near_and_past_int64(self, A, m, want):
        assert find_progression(A, m) == want

    def test_no_three_term_progression_in_the_base_three_set(self):
        # the 4096 sums of distinct powers 3^0..3^11: every digit is 0 or 1,
        # so no member is the mean of two others
        A = {sum(3**j for j in range(12) if b >> j & 1) for b in range(4096)}
        assert find_progression(A, 3) is None
        assert find_progression(A, 2) == range(0, 2)
