import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bruteforce import naive_generators, naive_indices
from dyadicmax.crystal import Shape
from dyadicmax.errors import ParameterError
from dyadicmax.family import bounded_tuples, find_progression, is_member
from dyadicmax.verify import build_instance


@st.composite
def progression_supersets(draw):
    """n, m, a progression u of step d and a set A holding u and up to
    four more scales, below u_0, above u_(m-1) or off the step."""
    n, m, d = draw(st.integers(2, 5)), draw(st.integers(2, 6)), draw(st.integers(1, 3))
    u0 = draw(st.integers(-5, 5))
    u = range(u0, u0 + m * d, d)
    extra = draw(st.sets(st.integers(u0 - 3 * d, u[-1] + 3 * d), max_size=4))
    return n, m, u, set(u) | extra


class TestBoundedTuples:
    def test_example(self):
        assert bounded_tuples(range(3), 2, 2) == [
            (0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (2, 0)
        ]

    @given(progression_supersets())
    @example((5, 6, range(-3, 15, 3), {-9, -3, -1, 0, 3, 6, 9, 12, 17, 23}))
    @settings(max_examples=80, deadline=None)
    def test_matches_the_naive_product_filters(self, case):
        # the walk's two callers: the indices of a run over range(m), and
        # its fitting generators over the offsets a - u_0 of A ∩ [u_0, ∞)
        n, m, u, A = case
        assert bounded_tuples(range(m), n - 1, m - 1) == naive_indices(n, m)
        grid = build_instance(n, u, budget=1 << 200).grid
        offsets = [a - u[0] for a in sorted(A) if a >= u[0]]
        walk = bounded_tuples(offsets, n - 1, (m - 1) * u.step)
        shapes = [Shape(tuple(u[0] + o for o in t) + (-(n - 1) * u[0] - sum(t),)) for t in walk]
        assert shapes == naive_generators(n, A, grid)


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
