import dataclasses
import json
import math
import subprocess
import sys
import time
import tracemalloc
from collections import Counter
from fractions import Fraction
from itertools import product as iproduct
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import dyadicmax
from dyadicmax.crystal import Crystal1D, CrystalND, ScaleSet, Shape, product_crystal
from dyadicmax.dyadic import DyadicRational
from dyadicmax.errors import (
    BudgetExceededError,
    ConstructionError,
    NoProgressionError,
    ParameterError,
)
from dyadicmax.evaluator import (
    DEFAULT_CELL_BUDGET,
    AverageField,
    BitMask,
    GridSpec,
    anchored_union_measure,
    maximal_field,
    rasterize,
    superlevel_mask,
    value_classes,
)
from dyadicmax.verify import (
    CSV_COLUMNS,
    _first_below,
    build_instance,
    check_disjointness,
    check_homogeneity,
    cube_counterexample,
    fraction_decimal,
    verify_theorem,
)
from bruteforce import naive_generators, naive_indices
from dyadicmax.family import find_progression
from dense_theorem import dense_theorem, homogeneity, union_Y_mask
from test_evaluator import small_instances


class TestBuildInstance:
    def test_n3_u012(self):
        inst = build_instance(3, range(3))
        # Z is the negated h = (0, 1, 2), in increasing order
        assert inst.E.factors[-1].scales == ScaleSet((-2, -1, 0))
        assert len(inst.indices) == 6
        assert all(sum(i) <= 2 for i in inst.indices)

    def test_smallest_case(self):
        inst = build_instance(2, range(2))
        assert inst.R[(0,)] == Shape((0, 0))

    def test_zero_sum_primitive_shapes(self):
        inst = build_instance(3, range(1, 7, 2))
        for i in inst.indices:
            assert inst.R[i].volume_exponent == 0

    def test_index_count_is_binomial(self):
        for n in (2, 3):
            for m in (2, 3, 4):
                inst = build_instance(n, range(m))
                assert len(inst.indices) == math.comb(m - 1 + n - 1, n - 1)
                assert list(inst.indices) == naive_indices(n, m)

    def test_indices_are_walked_not_filtered(self):
        # 24 indices of the 2^23 tuples in [0, 2)^23: the zero tuple,
        # then the unit tuples in lexicographic order
        inst = build_instance(24, range(2))
        units = [tuple(int(k == j) for k in range(23)) for j in reversed(range(23))]
        assert inst.indices == ((0,) * 23, *units)

    def test_measure_identity(self):
        inst = build_instance(2, range(0, 6, 2))
        for i in inst.indices:
            from dyadicmax.crystal import crystal_measure

            assert crystal_measure(inst.Y[i]) == inst.measure_E().scale2(
                inst.m - 1
            )

    def test_E_contained_in_every_Y(self):
        inst = build_instance(2, range(3))
        mask_E = rasterize(inst.E, inst.grid)
        for i in inst.indices:
            mask_Y = rasterize(inst.Y[i], inst.grid)
            assert not (mask_E.values & ~mask_Y.values).any()

    def test_validation(self):
        with pytest.raises(ParameterError):
            build_instance(1, range(2))
        with pytest.raises(ParameterError):
            build_instance(2, range(1))
        with pytest.raises(ParameterError):
            build_instance(2, range(2, 0, -1))

    @given(
        n=st.integers(2, 5), d=st.integers(1, 3), u0=st.integers(-4, 4), m=st.integers(2, 5)
    )
    @settings(max_examples=60, deadline=None)
    def test_Y_is_the_product_crystal_of_shared_axes(self, n, d, u0, m):
        # each Y(i) equals the product crystal over the suffixes u[i_k:]
        # and the last s+1 scales of -h by value, and E and all Y(i) are
        # built from 2m axis crystal objects
        u = range(u0, u0 + m * d, d)
        inst = build_instance(n, u, budget=1 << 64)
        h = [(n - 1) * u0 + d * s for s in range(m)]

        def Z(s):
            return ScaleSet(tuple(-hs for hs in reversed(h[: s + 1])))

        assert inst.E == product_crystal(*[ScaleSet(u)] * (n - 1), Z(m - 1))
        for i in inst.indices:
            want = product_crystal(*(ScaleSet(u[ik:]) for ik in i), Z(sum(i)))
            assert inst.Y[i] == want and hash(inst.Y[i]) == hash(want)
        crystals = [inst.E, *inst.Y.values()]
        assert len({id(c) for Y in crystals for c in Y.factors}) == 2 * m

    @pytest.mark.parametrize("n, m", [(2, 4), (4, 5)])
    def test_each_axis_is_built_once_per_run(self, monkeypatch, n, m):
        # 2m distinct axis crystals, each rasterized on one grid axis
        build, built = Crystal1D._axis, []

        def counted(self, resolution, ncells):
            built.append((self.scales, resolution, ncells))
            return build(self, resolution, ncells)

        monkeypatch.setattr(Crystal1D, "_axis", counted)
        assert verify_theorem(n, range(m), m).passed
        assert len(built) == len(set(built)) == 2 * m

    def test_budget_is_checked_on_the_grid_exponent_first(self, monkeypatch):
        # the exponent build_instance refuses on, before it builds any
        # n-tuple, is that of the grid it goes on to build
        seen = []
        monkeypatch.setattr(
            dyadicmax.verify, "check_budget", lambda k, budget: seen.append(k)
        )
        cases = iproduct(range(2, 5), range(2, 7), range(1, 4), range(-5, 6))
        for n, m, d, u0 in cases:
            inst = build_instance(n, range(u0, u0 + m * d, d), budget=1 << 4096)
            assert seen == [inst.grid.cells_exponent], (n, m, d, u0)
            seen.clear()


class TestHomogeneity:
    def test_smallest_case(self):
        inst = build_instance(2, range(2))
        r = check_homogeneity(inst, (0,), rasterize(inst.E, inst.grid))
        assert r.passed and r.k <= 1

    def test_n2_u012_all_pass_with_k2(self):
        inst = build_instance(2, range(3))
        mask_E = rasterize(inst.E, inst.grid)
        for i in inst.indices:
            r = check_homogeneity(inst, i, mask_E)
            assert r.passed and r.k == 2

    def test_n3_u012_all_six_pass(self):
        inst = build_instance(3, range(3))
        mask_E = rasterize(inst.E, inst.grid)
        results = [check_homogeneity(inst, i, mask_E) for i in inst.indices]
        assert len(results) == 6
        assert all(r.passed and r.k == 2 for r in results)

    def test_passing_check_builds_only_the_field(self):
        # the 2^18-cell grid of n=2, m=10: the check builds the R(i) field
        # as 1D factors of 2^9 cells and reads it, Y(i) and E factor by
        # factor; a grid-sized array would take at least 2^18 bytes
        inst = build_instance(2, range(10))
        i = inst.indices[3]
        mask_E = rasterize(inst.E, inst.grid)
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            r = check_homogeneity(inst, i, mask_E)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert r.passed and "values" not in vars(mask_E)
        assert peak < inst.grid.ncells // 8

    def test_ratio_not_a_power_of_two_raises(self, monkeypatch):
        # Y(1) is 2 x 2 cells and E one cell; one more cell on Y(1)'s
        # first axis keeps E ⊂ Y(1), but |Y(1)| is then 3 x 2 cells, not
        # a power of two times |E|
        inst = build_instance(2, range(3))
        i = inst.indices[1]
        mask_E = rasterize(inst.E, inst.grid)

        def one_extra_entry(Y, grid):
            mask = rasterize(Y, grid)
            if Y is inst.Y[i]:
                first, *rest = mask.factors
                first = first.copy()
                first[np.flatnonzero(~first)[0]] = True
                mask = BitMask(grid, (first, *rest))
            return mask

        monkeypatch.setattr(dyadicmax.verify, "rasterize", one_extra_entry)
        with pytest.raises(ConstructionError, match="power of two"):
            check_homogeneity(inst, i, mask_E)

    def test_cell_of_E_outside_Y_is_the_witness(self, monkeypatch):
        # drop the last entry of E's first axis from Y(i)'s: E ⊂ Y(i)
        # fails on that line of cells, first at E's first entry on the
        # other axis
        inst = build_instance(2, range(0, 6, 2))
        i = inst.indices[-1]
        mask_E = rasterize(inst.E, inst.grid)
        x0, x1 = (np.flatnonzero(f) for f in mask_E.factors)

        def one_entry_missing(Y, grid):
            first, *rest = rasterize(Y, grid).factors
            first = first.copy()
            first[x0[-1]] = False
            return BitMask(grid, (first, *rest))

        monkeypatch.setattr(dyadicmax.verify, "rasterize", one_entry_missing)
        r = check_homogeneity(inst, i, mask_E)
        assert not r.passed and r.k == -1
        assert r.counterexample == (int(x0[-1]), int(x1[0]))

    def test_masks_and_fields_of_another_layout_raise(self, monkeypatch):
        # E as one dense factor, or an R(i) field of one dense term
        inst = build_instance(2, range(3))
        i = inst.indices[0]
        mask_E = rasterize(inst.E, inst.grid)
        with pytest.raises(ParameterError, match="one 1D factor per grid axis"):
            check_homogeneity(inst, i, BitMask(inst.grid, (mask_E.values,)))

        def dense(mask, shapes):
            fld = maximal_field(mask, shapes)
            return AverageField(fld.grid, (fld.num[None],), np.zeros((1, 1), int), fld.denom_exp)

        monkeypatch.setattr(dyadicmax.verify, "maximal_field", dense)
        with pytest.raises(ParameterError, match="one 1D factor per grid axis"):
            check_homogeneity(inst, i, mask_E)


def lacking_part_of_E(inst, i):
    """Y(i) with its first axis cut to the crystal over u without its
    last scale: a product crystal that, on a step of 2 or more, misses
    the cells of E whose first coordinate lies past 2^u_(m-2)."""
    u = inst.progression
    factors = [c.scales for c in inst.Y[i].factors]
    return product_crystal(ScaleSet(u[:-1]), *factors[1:])


class TestHomogeneityOnProductMasks:
    """check_homogeneity reads a rasterized mask's cells through its
    per-axis factors and takes a witness from the entries it read; the
    dense oracle's `homogeneity`, and the first failing cell of a pass
    over the dense grid, are the oracles."""

    @given(inst=small_instances(), variant=st.sampled_from(["built", "one_cell_R", "Y_lacks_E"]))
    @settings(max_examples=60, deadline=None)
    def test_against_the_dense_path(self, inst, variant):
        # a one-cell R(i) sees the average 1_E, so every cell of Y(i) \ E
        # fails; a Y(i) lacking part of E fails with k = -1 on step >= 2
        if variant == "one_cell_R":
            cell = Shape(inst.grid.resolution)
            inst = dataclasses.replace(inst, R=dict.fromkeys(inst.R, cell))
        if variant == "Y_lacks_E":
            inst = dataclasses.replace(
                inst, Y={i: lacking_part_of_E(inst, i) for i in inst.indices}
            )
        mask_E = rasterize(inst.E, inst.grid)
        got = [check_homogeneity(inst, i, mask_E) for i in inst.indices]
        union_Y = check_disjointness(inst).union_Y
        assert got == [homogeneity(inst, i, mask_E) for i in inst.indices]
        assert union_Y == BitMask(inst.grid, (union_Y_mask(inst),)).measure()
        if variant == "one_cell_R":
            assert not any(r.passed for r in got)
        # the first failing cell in C order, found on the dense grid
        for i, r in zip(inst.indices, got):
            if r.passed:
                continue
            Y = rasterize(inst.Y[i], inst.grid).values
            if r.k == -1:
                bad = mask_E.values & ~Y
            else:
                fld = maximal_field(mask_E, [inst.R[i]])
                bad = Y & ~superlevel_mask(fld, DyadicRational.pow2(-r.k))
            assert r.counterexample == tuple(int(v) for v in np.argwhere(bad)[0])

    @pytest.mark.parametrize(
        "lowered", [((0, 0),), ((1, -1),), ((0, -1), (1, 1))], ids=["0", "-1", "-1,1"]
    )
    def test_cell_below_the_threshold_is_the_witness(self, monkeypatch, lowered):
        # zero the R(i) field's factor entry on axis 0 or 1 at that
        # coordinate of the first, the last, or the last and the second
        # cell of Y(i) in C order: every cell of Y(i) on a zeroed line
        # falls below the threshold, and the witness is the first of them
        inst = build_instance(2, range(0, 6, 2))
        i = inst.indices[1]
        mask_Y = rasterize(inst.Y[i], inst.grid)
        Y_cells = np.argwhere(mask_Y.values)
        lines = [(ax, int(Y_cells[w][ax])) for ax, w in lowered]

        def lines_lowered(mask, shapes):
            fld = maximal_field(mask, shapes)
            (term,) = fld.index
            rows = [r.copy() for r in fld.rows]  # the kernel's stacks are read-only
            for ax, x in lines:
                rows[ax][term[ax], x] = 0
            return AverageField(fld.grid, tuple(rows), fld.index, fld.denom_exp)

        monkeypatch.setattr(dyadicmax.verify, "maximal_field", lines_lowered)
        mask_E = rasterize(inst.E, inst.grid)
        r = check_homogeneity(inst, i, mask_E)
        assert not r.passed and r.k == inst.m - 1
        # a line's first cell of Y(i) takes Y(i)'s first entry off the line
        first = [int(v) for v in Y_cells[0]]
        want = min(tuple(x if a == ax else first[a] for a in range(2)) for ax, x in lines)
        fld = lines_lowered(mask_E, [inst.R[i]])
        bad = mask_Y.values & ~superlevel_mask(fld, DyadicRational.pow2(-r.k))
        assert r.counterexample == want == tuple(int(v) for v in np.argwhere(bad)[0])

    def test_product_Y_lacking_part_of_E(self, monkeypatch):
        inst = build_instance(2, range(0, 6, 2))
        i = inst.indices[0]
        Y = lacking_part_of_E(inst, i)
        mask_E, mask_Y = rasterize(inst.E, inst.grid), rasterize(Y, inst.grid)
        assert len(mask_Y.factors) == 2
        outside = np.argwhere(mask_E.values & ~mask_Y.values)
        assert len(outside) > 1

        def swapped(C, grid):
            return rasterize(Y if C is inst.Y[i] else C, grid)

        monkeypatch.setattr(dyadicmax.verify, "rasterize", swapped)
        r = check_homogeneity(inst, i, mask_E)
        assert (r.k, r.passed) == (-1, False)
        assert r.counterexample == tuple(int(v) for v in outside[0])


class TestDisjointness:
    def test_n2_u012(self):
        inst = build_instance(2, range(3))
        d = check_disjointness(inst)
        assert d.passed
        assert d.min_delta == Fraction(1, 4)
        assert d.sum_Y.as_fraction() == 3 * inst.measure_E().as_fraction() * 4

    def test_sum_identity(self):
        inst = build_instance(3, range(3))
        d = check_disjointness(inst)
        assert d.sum_Y == DyadicRational(
            len(inst.indices), 0
        ) * inst.measure_E().scale2(inst.m - 1)
        assert 0 < d.rho <= 1

    @staticmethod
    def closed_form_union_Y(inst) -> Fraction:
        """|∪Y(i)| = |E| 2^(m-1) sum_j C(n-1, j) C(m-1, j) 2^-j."""
        n, m = inst.n, inst.m
        terms = (Fraction(math.comb(n - 1, j) * math.comb(m - 1, j), 2**j) for j in range(n))
        return inst.measure_E().as_fraction() * 2 ** (m - 1) * sum(terms)

    # every draw has n (m - 1) d <= 60, a grid of at most 2^60 cells
    @given(
        n=st.integers(2, 4), d=st.integers(1, 3), m=st.integers(2, 6), u0=st.integers(-4, 4)
    )
    @settings(max_examples=60, deadline=None)
    def test_union_Y_against_the_closed_form(self, n, d, m, u0):
        inst = build_instance(n, range(u0, u0 + m * d, d), budget=1 << 200)
        union_Y = check_disjointness(inst).union_Y
        assert union_Y.as_fraction() == self.closed_form_union_Y(inst)

    def test_union_Y_past_the_dense_frontier(self):
        # n = 2, step 2, m = 12: a grid of 2^44 cells
        inst = build_instance(2, range(0, 24, 2), budget=1 << 200)
        assert inst.grid.cells_exponent == 44
        d = check_disjointness(inst)
        assert d.union_Y.as_fraction() == self.closed_form_union_Y(inst)
        assert d.union_Y == inst.measure_E() * DyadicRational(13, 10)
        assert d.rho == Fraction(13, 24)

    def test_Y_not_nested_on_an_axis_raises(self):
        # Y((0,))'s first axis {0, 2} beside Y((1,))'s {0, 1}: neither
        # holds the other, so no chain of ranks measures their union
        inst = build_instance(2, range(3))
        Y0 = inst.Y[(0,)]
        odd = CrystalND((Crystal1D(ScaleSet((0, 2))), *Y0.factors[1:]))
        bad = dataclasses.replace(inst, Y={**inst.Y, (0,): odd})
        with pytest.raises(ConstructionError, match="not nested"):
            check_disjointness(bad)


class TestVerifyTheorem:
    def test_no_progression(self):
        with pytest.raises(NoProgressionError):
            verify_theorem(2, {1, 2, 4, 8}, 3)

    @pytest.mark.parametrize(
        "A, named",
        [
            (range(200_000), "|A| = 200000, 0..199999"),
            ({8, -3, 5}, "|A| = 3, -3..8"),
            (set(), "|A| = 0)"),
        ],
    )
    def test_no_progression_names_the_size_and_span_of_A(self, A, named):
        with pytest.raises(NoProgressionError) as ei:
            verify_theorem(2, A, 300_000)
        assert named in str(ei.value) and len(str(ei.value)) < 100

    def test_a_one_shot_iterable_is_read_once(self):
        rep = verify_theorem(2, iter([0, 1, 2]), 3)
        assert rep.passed and rep.description.startswith("n=2, A=[0, 1, 2],")

    def test_n2_m3_report(self):
        rep = verify_theorem(2, {0, 1, 2}, 3)
        assert rep.passed
        assert rep.homogeneity_ok and rep.disjointness_ok and rep.inclusion_ok
        assert rep.index_count == 3
        assert rep.ratio > 0
        # superlevel sets nest: lower threshold covers at least as much
        assert rep.superlevel_alt >= rep.superlevel

    def test_n3_m4_report(self):
        rep = verify_theorem(3, {0, 1, 2, 3}, 4)
        assert rep.passed
        assert rep.index_count == math.comb(5, 2)

    def test_union_inside_superlevel(self):
        A = {0, 1, 2, 3}
        rep = verify_theorem(2, A, 4)
        assert rep.inclusion_ok
        assert rep.union_Y <= rep.superlevel

    # (S, S_alt, |∪Y|) as (mantissa, exponent), recorded from the dense
    # pipeline before prefix tables were factored per axis
    @pytest.mark.parametrize(
        "n, A, m, S, S_alt, union_Y",
        [
            (2, range(0, 8, 2), 4, (1477, -6), (2183, -6), (5, 2)),
            (2, range(0, 9, 3), 3, (2153, -6), (3299, -6), (1, 5)),
            (3, range(0, 8, 2), 4, (25003, -6), (46303, -6), (19, 4)),
            (3, range(-2, 4, 2), 3, (235, -2), (385, -2), (13, 2)),
            (2, range(3, 13, 2), 5, (15125, -8), (23699, -8), (3, 4)),
        ],
    )
    def test_reports_on_multi_cell_crystals(self, n, A, m, S, S_alt, union_Y):
        # on step 1, E is one grid cell; on these steps it is a crystal
        inst = build_instance(n, find_progression(A, m))
        assert np.count_nonzero(rasterize(inst.E, inst.grid).values) > 1
        rep = verify_theorem(n, A, m)
        assert rep.passed
        got = (rep.superlevel, rep.superlevel_alt, rep.union_Y)
        assert got == tuple(DyadicRational(*x) for x in (S, S_alt, union_Y))

    def test_family_pass_is_bounded_by_the_grid(self):
        # 1000^3 family shapes; only those whose scales fit the
        # 8-cell grid are built
        rep = verify_theorem(4, range(1000), 2)
        assert rep.passed
        assert 0 < rep.shapes_used < 10
        assert rep.shapes_skipped == 1000**3 - rep.shapes_used

    def test_family_walk_is_bounded_by_its_output(self):
        # 16 of the 2^15 generators fit the grid; only they are built
        tracemalloc.start()
        try:
            rep = verify_theorem(16, {0, 1}, 2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rep.passed and rep.shapes_used == 16
        assert peak < 4 << 20

    def test_json_and_csv(self):
        rep = verify_theorem(2, {0, 1, 2}, 3)
        d = json.loads(rep.to_json())
        assert d["schema_version"] == 1
        assert d["measure_E"] == {
            "mantissa": rep.measure_E.mantissa,
            "exponent": rep.measure_E.exponent,
        }
        row = rep.csv_row()
        assert tuple(row) == CSV_COLUMNS
        assert row["index_count"] == 3


@st.composite
def theorem_inputs(draw):
    """n, A and m of a theorem run that dense evaluation still affords:
    n = 2..4, a progression of step 1..3 from an offset in -5..5, cut so
    its grid has at most 2^14 cells, and up to three extra scales inside
    its span, which add family generators that fit the grid (and may
    hold a progression of smaller step, on a smaller grid)."""
    n, d = draw(st.integers(2, 4)), draw(st.integers(1, 3))
    m = draw(st.integers(2, 1 + 14 // (n * d)))
    u0 = draw(st.integers(-5, 5))
    u = range(u0, u0 + m * d, d)
    extra = draw(st.sets(st.integers(u[0], u[-1]), max_size=3))
    return n, sorted(set(u) | extra), m


class TestClassPathAgainstTheDensePipeline:
    """verify_theorem counts S, S_alt and |∪Y| over per-axis classes of
    cells and reads the inclusion off each Y(i)'s R(i) term factor by
    factor, and check_homogeneity reads E, Y(i) and the R(i) field the
    same way; `dense_theorem.py` computes each on grid-sized arrays and
    is the oracle."""

    @given(case=theorem_inputs())
    @example(case=(2, [0, 2, 3, 4, 6, 8], 5))
    @example(case=(2, [0, 3, 4, 5, 6, 9, 12], 5))
    @example(case=(3, [0, 2, 3, 4, 6], 4))
    @example(case=(2, [-5, -2, 1, 4], 4))
    @example(case=(4, [0, 3], 2))
    @settings(max_examples=60, deadline=None)
    def test_reports_and_homogeneity(self, case):
        n, A, m = case
        rep = verify_theorem(n, A, m)
        want = dense_theorem(n, A, m)
        got = (rep.superlevel, rep.superlevel_alt, rep.union_Y, rep.inclusion_ok)
        assert got == (want.S, want.S_alt, want.union_Y, want.inclusion_ok)
        inst = build_instance(n, find_progression(A, m))
        mask_E = rasterize(inst.E, inst.grid)
        hom = [check_homogeneity(inst, i, mask_E) for i in inst.indices]
        assert hom == want.homogeneity
        assert rep.homogeneity_ok == all(r.passed for r in hom)
        assert rep.passed

    @pytest.mark.parametrize("cut", ["first_shape", "one_cell"])
    def test_uncovered_cell_of_a_Y_fails_inclusion(self, monkeypatch, cut):
        # the family of its first generator alone; or the full field with
        # the entry of the last cell of ∪Y(i) zeroed on the first axis of
        # the one term that reaches the threshold there: either leaves a
        # cell of some Y(i) outside the superlevel set, which the dense
        # mask of ∪Y(i) finds
        n, A, m = 2, range(0, 8, 2), 4
        inst = build_instance(n, find_progression(A, m))
        union = union_Y_mask(inst)
        last = np.unravel_index(np.flatnonzero(union)[-1], union.shape)
        real_walk, real_field = dyadicmax.verify.bounded_tuples, maximal_field

        def family_cut(mask, shapes):
            shapes = list(shapes)
            fld = real_field(mask, shapes)
            if len(shapes) == 1:  # a homogeneity field
                return fld
            # the last generator's row on the first axis is its own
            first, row = fld.rows[0].copy(), fld.index[-1, 0]
            assert list(fld.index[:, 0]).count(row) == 1
            first[row, last[0]] = 0
            return AverageField(fld.grid, (first, *fld.rows[1:]), fld.index, fld.denom_exp)

        if cut == "first_shape":
            # the generator walk keeps its first tuple; the index walk,
            # over range(m), stays whole
            monkeypatch.setattr(
                dyadicmax.verify, "bounded_tuples",
                lambda values, k, bound: real_walk(values, k, bound)[
                    : None if isinstance(values, range) else 1
                ],
            )
        else:
            monkeypatch.setattr(dyadicmax.verify, "maximal_field", family_cut)
        rep = verify_theorem(n, A, m)
        checks = (rep.homogeneity_ok, rep.disjointness_ok, rep.inclusion_ok)
        assert checks == (True, True, False)
        mask_E = rasterize(inst.E, inst.grid)
        used = naive_generators(n, A, inst.grid)[: 1 if cut == "first_shape" else None]
        fld = dyadicmax.verify.maximal_field(mask_E, used)
        lvl = superlevel_mask(fld, DyadicRational.pow2(-(m - 1)))
        assert (union & ~lvl).any()
        assert rep.superlevel == BitMask(inst.grid, (lvl,)).measure()
        if cut == "one_cell":
            # the last generator's term alone reaches the threshold at the
            # last cell of ∪Y(i), which zeroing its line puts outside
            uncovered = np.argwhere(union & ~lvl).tolist()
            assert list(last) in uncovered
            assert {x for x, _ in uncovered} == {last[0]}

    def test_inclusion_reads_the_term_of_each_R(self, monkeypatch):
        # entry 0 of the first factor of R((1,))'s family term zeroed:
        # other terms still cover that cell of Y((1,)), so ∪Y(i) stays in
        # the superlevel set, but the term of R((1,)) no longer reaches
        # the threshold on all of Y((1,)), which is what the check reads
        n, A, m = 2, range(4), 4
        inst = build_instance(n, find_progression(A, m))
        real = maximal_field

        def cut(mask, shapes):
            shapes = list(shapes)
            fld = real(mask, shapes)
            if len(shapes) == 1:  # a homogeneity field
                return fld
            # R((1,))'s row on the first axis is its own
            row = fld.index[shapes.index(inst.R[(1,)]), 0]
            assert list(fld.index[:, 0]).count(row) == 1
            first = fld.rows[0].copy()  # the kernel's stacks are read-only
            first[row, 0] = 0
            return AverageField(fld.grid, (first, *fld.rows[1:]), fld.index, fld.denom_exp)

        monkeypatch.setattr(dyadicmax.verify, "maximal_field", cut)
        rep = verify_theorem(n, A, m)
        checks = (rep.homogeneity_ok, rep.disjointness_ok, rep.inclusion_ok)
        assert checks == (True, True, False)
        mask_E = rasterize(inst.E, inst.grid)
        used = naive_generators(n, A, inst.grid)
        lvl = superlevel_mask(cut(mask_E, used), DyadicRational.pow2(-(m - 1)))
        assert lvl[union_Y_mask(inst)].all()


@st.composite
def product_values(draw):
    """A term of one to three 1D factors of 1, 2 or 4 small values, a
    mask on their grid with a nonempty selection of cells on each axis,
    and a bound c."""
    ks = draw(st.lists(st.integers(0, 2), min_size=1, max_size=3))
    grid = GridSpec((0,) * len(ks), tuple(ks))
    term = tuple(draw(hnp.arrays(np.uint8, 1 << k, elements=st.integers(0, 6))) for k in ks)
    sels = tuple(draw(hnp.arrays(bool, 1 << k).filter(np.any)) for k in ks)
    return term, BitMask(grid, sels), draw(st.integers(0, 100))


def _whole(*rows):
    """A term of the given rows, and the mask of every cell of their grid."""
    grid = GridSpec((0,) * len(rows), tuple(len(v).bit_length() - 1 for v in rows))
    term = tuple(np.array(v, np.uint8) for v in rows)
    return term, BitMask(grid, tuple(np.ones(len(v), bool) for v in rows))


@given(case=product_values())
# the first factor's value 2 at cell 0 leaves 2 * 2 >= 3; its value 1
# at cell 1 reaches 2 < 3, since ceil(3 / 2) = 2 > 1
@example(case=(*_whole([2, 1], [2]), 3))
@settings(max_examples=200, deadline=None)
def test_first_below_is_the_first_failing_cell(case):
    # the oracle scans the mask's cells in C order
    term, mask, c = case
    want = None
    for cell in iproduct(*(np.flatnonzero(sel) for sel in mask.factors)):
        if math.prod(int(t[x]) for t, x in zip(term, cell)) < c:
            want = tuple(int(x) for x in cell)
            break
    assert _first_below(term, mask, c) == want


def test_first_below_reads_one_1D_factor_per_axis():
    # a term or a mask of one 2D factor, or a term of too few factors
    term, mask = _whole([1, 2], [3, 4])
    dense = (np.multiply.outer(*term),)
    for args in [(dense, mask), (term, BitMask(mask.grid, (mask.values,))), (term[:1], mask)]:
        with pytest.raises(ParameterError, match="one 1D factor per grid axis"):
            _first_below(*args, 1)
    assert _first_below(term, mask, 4) == (0, 0)


def test_class_counts_past_int64():
    # the 2^64 cells of 32 axes of 4 cells, each factor 0 on one cell and
    # 1 on three: the fold's classes hold 3^31 cells of product 1 and
    # 4^31 - 3^31 of product 0, counts past int64, in Python ints
    grid = GridSpec((0,) * 32, (2,) * 32, budget=1 << 70)
    axis = np.array([0, 1, 1, 1], np.uint8)
    (rows, counts), (last, last_counts) = value_classes(
        AverageField(grid, (axis[None],) * 32, np.zeros((1, 32), int), 0)
    )
    assert counts.dtype == object and all(type(c) is int for c in counts)
    assert dict(zip(rows[0].tolist(), counts)) == {0: 4**31 - 3**31, 1: 3**31}
    assert last[0].tolist() == [0, 1] and last_counts.tolist() == [1, 3]


class TestPastTheDenseFrontier:
    """Runs whose dense grid would not fit: each stays under a few MB of
    traced allocations, since nothing of the grid's size is built."""

    @pytest.mark.parametrize(
        "n, A, m, budget, ratio",
        [
            # 2^28 cells; the value the dense pipeline recorded (30 s, 2 GB)
            (2, range(0, 16, 2), 8, DEFAULT_CELL_BUDGET, Fraction(13167173, 33554432)),
            # 2^30 cells, the default budget; the step-1 closed form (m+1)/(4m)
            (2, range(16), 16, DEFAULT_CELL_BUDGET, Fraction(17, 64)),
            # 2^42 cells; the value the class count recorded while it also
            # counted the ∪Y(i) indicator, at a 12.45 MiB peak
            (3, range(0, 16, 2), 8, 1 << 42, Fraction(6187764175, 34359738368)),
        ],
        ids=["n2m8d2", "n2m16d1", "n3m8d2"],
    )
    def test_ratio_and_peak_memory(self, n, A, m, budget, ratio):
        tracemalloc.start()
        try:
            rep = verify_theorem(n, A, m, budget)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rep.passed and rep.ratio == ratio
        assert peak < 8 << 20


class TestSharedRowsPastTheDenseFrontier:
    """Runs at n >= 4 where the family field's terms share their rows
    and the n - 1 X axes of E share one stack; the ratios are those the
    class count recorded when each term held its own factor tuple."""

    @pytest.mark.parametrize(
        "n, m, ratio, ratio_alt",
        [
            (4, 8, Fraction(2238105934865, 35184372088832),
             Fraction(5294701362513, 35184372088832)),
            (5, 6, Fraction(66942694799, 2783138807808), Fraction(57021797983, 927712935936)),
            (6, 6, Fraction(20530190911, 2783138807808), Fraction(18947714927, 927712935936)),
        ],
        ids=["n4m8d2", "n5m6d2", "n6m6d2"],
    )
    def test_ratios(self, n, m, ratio, ratio_alt):
        rep = verify_theorem(n, range(0, 2 * m, 2), m, budget=1 << 200)
        assert rep.passed and (rep.ratio, rep.ratio_alt) == (ratio, ratio_alt)


class TestCubeCounterexample:
    def test_n1_hardy_littlewood_scaling(self):
        rep = cube_counterexample(1, 4)
        # n - 1 = 0: no logarithmic factor, pure 2^m scaling
        assert rep.ratio > 0
        assert rep.superlevel.as_fraction() == rep.ratio * 16

    def test_n2_positive_ratios(self):
        for m in (1, 2, 3, 4):
            rep = cube_counterexample(2, m)
            assert rep.passed and rep.ratio > 0

    def test_monotone_in_shape_set(self):
        # growing the shape set can only grow the superlevel set
        m = 3
        grid = GridSpec((0, 0), (m, m))
        Q = product_crystal(*[ScaleSet((0,))] * 2)
        mask = rasterize(Q, grid)
        shapes = [Shape(e) for e in iproduct(range(m + 1), repeat=2)]
        small = maximal_field(mask, shapes[:3])
        big = maximal_field(mask, shapes)
        thr = DyadicRational.pow2(-m)
        S_small, S_big = (
            BitMask(grid, (superlevel_mask(f, thr),)).measure() for f in (small, big)
        )
        assert S_small <= S_big

    def test_validation(self):
        with pytest.raises(ParameterError):
            cube_counterexample(0, 3)

    @pytest.mark.parametrize("budget", [-7, 0, 64.0, True, False])
    def test_budget_must_be_a_positive_integer(self, budget):
        with pytest.raises(ParameterError, match="positive integer"):
            cube_counterexample(2, 1, budget=budget)
        with pytest.raises(ParameterError, match="positive integer"):
            verify_theorem(2, {0, 1, 2}, 3, budget=budget)

    @pytest.mark.parametrize("n", [10**6, 10**12])
    def test_huge_dimension_is_refused_before_any_allocation(self, n):
        # nothing n long is built before the budget refuses the 2^n grid
        runs = (lambda: verify_theorem(n, {0, 1}, 2), lambda: cube_counterexample(n, 2))
        for run in runs:
            tracemalloc.start()
            try:
                with pytest.raises(BudgetExceededError):
                    run()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 1 << 20

    @pytest.mark.parametrize(
        "n, m", [(n, m) for n in (1, 2, 3) for m in range(1, 16 // n + 1)]
    )
    def test_matches_the_dense_pipeline(self, n, m):
        # Q rasterized on the n-D grid and one dense field over [0, m]^n
        grid = GridSpec((0,) * n, (m,) * n)
        mask = rasterize(product_crystal(*[ScaleSet((0,))] * n), grid)
        shapes = [Shape(e) for e in iproduct(range(m + 1), repeat=n)]
        fld = maximal_field(mask, shapes)
        rep = cube_counterexample(n, m)
        lvl = superlevel_mask(fld, DyadicRational.pow2(-m))
        assert rep.superlevel == BitMask(grid, (lvl,)).measure()
        assert rep.measure_E == mask.measure()
        assert rep.index_count == rep.shapes_used == len(shapes)

    def test_class_count_builds_no_tuple_grid(self):
        # n = 20, m = 1 has 2^20 value tuples; the class count keeps one
        # entry per product of values, 21 of them
        tracemalloc.start()
        try:
            cube_counterexample(20, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_runtime_includes_rasterization(self, monkeypatch):
        # the clock starts on entry, so building the mask counts too
        def slow_rasterize(E, grid):
            time.sleep(0.05)
            return rasterize(E, grid)

        monkeypatch.setattr(dyadicmax.verify, "rasterize", slow_rasterize)
        assert cube_counterexample(1, 1).runtime_ms >= 50


@st.composite
def huge_inputs(draw):
    """A theorem or cube call whose n, m and step are each small or, in
    calls not drawn all small, possibly huge: n in 1..4 or 10^5..10^6,
    m in 1..6 or 100..200, A a progression of step 1..2 or 2^40..2^61
    from a scale in +-2^80, mostly of m terms and else of m - 1, plus,
    at a step of at most 2, up to three scales inside its span; and a
    budget of 1, 2^30 - 1, 2^30 or 2^64.  Any progression A holds has a
    step of at most the drawn one, so a call the budget admits has small
    n, m and step, and builds axes of at most 2^10 cells."""
    small = draw(st.booleans())
    n = draw(st.integers(1, 4) if small else st.integers(1, 4) | st.integers(10**5, 10**6))
    m = draw(st.integers(1, 6) if small else st.integers(1, 6) | st.integers(100, 200))
    d = draw(st.integers(1, 2) if small else st.integers(1, 2) | st.integers(1 << 40, 1 << 61))
    u0 = draw(st.integers(-(1 << 80), 1 << 80))
    terms = m - 1 if draw(st.integers(0, 3)) == 0 else m
    A = {u0 + i * d for i in range(terms)}
    if d <= 2 and terms:
        A |= draw(st.sets(st.integers(u0, u0 + (terms - 1) * d), max_size=3))
    budget = draw(st.sampled_from([1, (1 << 30) - 1, 1 << 30, 1 << 64]))
    if draw(st.booleans()):
        return verify_theorem, (n, A, m, budget)
    return cube_counterexample, (n, m, budget)


@given(case=huge_inputs())
@settings(max_examples=300, deadline=None)
def test_huge_inputs_pass_or_are_refused_small(case):
    # every call returns a passing report or raises one of the
    # documented errors; a refused call allocates next to nothing
    run, args = case
    tracemalloc.start()
    try:
        rep = run(*args)
    except (ParameterError, NoProgressionError, BudgetExceededError):
        peak = tracemalloc.get_traced_memory()[1]
        assert peak < 1 << 20
    else:
        assert rep.passed
    finally:
        tracemalloc.stop()


INTEGER_DTYPES = (
    np.int8, np.int16, np.int32, np.int64, np.uint8, np.uint16, np.uint32, np.uint64,
)


def holders(values):
    """The numpy integer dtypes that hold every value."""
    return [
        dt for dt in INTEGER_DTYPES
        if np.iinfo(dt).min <= min(values) and max(values) <= np.iinfo(dt).max
    ]


def payload(report):
    """The report's JSON payload, runtime aside; `to_json` must succeed."""
    json.loads(report.to_json())
    got = report.to_json_dict()
    got.pop("runtime_ms")
    return got


class TestIntegerInputs:
    """Numpy integers are read as the Python ints they stand for, and a
    float is refused at the boundary."""

    @given(
        n=st.integers(2, 3),
        m=st.integers(2, 4),
        start=st.integers(-5, 5),
        d=st.integers(1, 2),
        extra=st.sets(st.integers(-5, 5), max_size=3),
        dtypes=st.data(),
    )
    @settings(max_examples=25, deadline=None)
    def test_verify_theorem(self, n, m, start, d, extra, dtypes):
        A = sorted(set(range(start, start + m * d, d)) | extra)
        want = payload(verify_theorem(n, A, m))
        assert want["description"].startswith(f"n={n}, A={A},")
        for dt in holders(A):
            assert payload(verify_theorem(n, np.array(A, dt), m)) == want
        n_dt, m_dt, a_dt = (
            dtypes.draw(st.sampled_from(holders(values)))
            for values in ([n], [m], A)
        )
        scalars = [a_dt(a) for a in A]
        assert payload(verify_theorem(n, scalars, m)) == want
        assert payload(verify_theorem(n_dt(n), scalars, m_dt(m))) == want

    @given(n=st.integers(1, 3), m=st.integers(1, 4))
    @settings(max_examples=20, deadline=None)
    def test_cube_counterexample(self, n, m):
        want = payload(cube_counterexample(n, m))
        for dt in holders([n, m]):
            assert payload(cube_counterexample(dt(n), dt(m))) == want

    @pytest.mark.parametrize("dt", INTEGER_DTYPES)
    def test_value_types_store_ints(self, dt):
        v = np.arange(3, dtype=dt)
        grid = GridSpec(v, v + 1)
        for got in (ScaleSet(v).scales, Shape(v).exponents, grid.resolution, grid.extent):
            assert all(type(x) is int for x in got)
        assert grid.extent == (1, 2, 3)

    @pytest.mark.parametrize(
        "run",
        [
            lambda: verify_theorem(2, [0, 1, 2.0], 3),
            lambda: verify_theorem(2.0, [0, 1, 2], 3),
            lambda: verify_theorem(2, [0, 1, 2], 3.0),
            lambda: cube_counterexample(2, 3.0),
            lambda: Shape((0, 1.0)),
            lambda: ScaleSet((0.0, 1)),
            lambda: GridSpec((0.0,), (1,)),
        ],
        ids=["member", "n", "m", "cube-m", "Shape", "ScaleSet", "GridSpec"],
    )
    def test_a_float_is_refused(self, run):
        with pytest.raises(TypeError, match="integer"):
            run()


class TestCubeClosedForms:
    """Closed forms of the cube ratio, proved for every n.

    Take the 1D field of [0, 1] over the shapes 0..m on the 2^m unit
    cells of [0, 2^m].  An aligned placement of side 2^a averages 2^-a
    over [0, 1] when it is anchored at the origin and 0 otherwise, and
    the anchored one reaches cell c iff c < 2^a.  So the field is 1 on
    cell 0 and 2^-a on the w(a) = 2^(a-1) cells of [2^(a-1), 2^a),
    a = 1..m; let w(0) = 1.  The field of Q = [0, 1]^n is the product of
    n such fields, so its superlevel set at 2^-m is the set of cells
    whose classes have a_1 + ... + a_n <= m, of measure

      T_n(m) = sum over a_1 + ... + a_n <= m of w(a_1) ... w(a_n),

    and |Q| = 1, so ratio = T_n(m) / (m^(n-1) 2^m).  With
    W(x) = sum_a w(a) x^a = (1-x)/(1-2x), T_n(m) is the coefficient of
    x^m in W(x)^n / (1-x) = (1-x)^(n-1) / (1-2x)^n:

      T_n(m) = sum_(j=0..min(n-1, m)) (-1)^j C(n-1, j) C(m-j+n-1, n-1) 2^(m-j).

    Hence T_1 = 2^m, T_2 = 2^(m-1) (m+2) and T_3 = 2^(m-3) (m^2+7m+8),
    so the ratio is 1, (m+2)/(2m) and (m^2+7m+8)/(8m^2).  The cube
    materializes one 2^m-cell axis, so m = 14 takes milliseconds."""

    @staticmethod
    def w(a):
        return 1 if a == 0 else 2 ** (a - 1)

    @classmethod
    def T(cls, n, m):
        return sum(
            math.prod(map(cls.w, a))
            for a in iproduct(range(m + 1), repeat=n)
            if sum(a) <= m
        )

    @staticmethod
    def T_coefficient(n, m):
        return sum(
            (-1) ** j * math.comb(n - 1, j) * math.comb(m - j + n - 1, n - 1)
            * 2 ** (m - j)
            for j in range(min(n, m + 1))
        )

    @pytest.mark.parametrize("m", [1, 2, 5, 8])
    def test_value_classes(self, m):
        mask = rasterize(product_crystal(ScaleSet((0,))), GridSpec((0,), (m,)))
        fld = maximal_field(mask, [Shape((a,)) for a in range(m + 1)])
        values = [Fraction(int(v), 2**fld.denom_exp) for v in fld.num]
        # class a >= 1 is the cells c with c.bit_length() == a
        assert values == [Fraction(1, 2 ** c.bit_length()) for c in range(2**m)]
        assert Counter(values) == {Fraction(1, 2**a): self.w(a) for a in range(m + 1)}

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_superlevel_is_T(self, n):
        for m in range(1, 7):
            rep = cube_counterexample(n, m)
            assert rep.measure_E == DyadicRational(1, 0)
            assert rep.superlevel.as_fraction() == self.T(n, m)
            assert self.T_coefficient(n, m) == self.T(n, m), (n, m)

    def test_T1_T2_T3(self):
        for m in range(1, 101):
            assert self.T_coefficient(1, m) == 2**m
            assert 2 * self.T_coefficient(2, m) == 2**m * (m + 2)
            assert 8 * self.T_coefficient(3, m) == 2**m * (m * m + 7 * m + 8)

    @pytest.mark.parametrize("m", range(9, 15))
    def test_n2(self, m):
        assert cube_counterexample(2, m).ratio == Fraction(m + 2, 2 * m)

    @pytest.mark.parametrize("m", range(1, 10))
    def test_n3(self, m):
        assert cube_counterexample(3, m).ratio == Fraction(
            m * m + 7 * m + 8, 8 * m * m
        )

    def test_n40_m2_past_64_bits(self):
        # the 2^80-cell grid: products up to 2^80 and class counts past
        # 2^63, both in Python ints
        rep = cube_counterexample(40, 2, budget=1 << 90)
        assert rep.ratio == Fraction(self.T_coefficient(40, 2), 2**39 * 2**2)
        assert rep.ratio == Fraction(901, 2**41)

    def test_n29_m1(self):
        # the default budget admits the 2^29-cell grid; T_n(1) = n + 1
        rep = cube_counterexample(29, 1)
        assert rep.superlevel.as_fraction() == self.T_coefficient(29, 1) == 30
        assert rep.ratio == 15


def step_one_union(n, A, m, budget=DEFAULT_CELL_BUDGET):
    """The step-1 oracle.  On a progression of step 1 every crystal
    factor of E is over consecutive scales, so E is one grid cell, and
    every family generator has unit volume, so the family field is
    2^-(m-1) on the union of the anchored windows of the generators that
    fit the grid and 0 elsewhere.  Both superlevel sets and the union of
    the Y(i) are then the anchored union of those generators, selected
    by the naive product filter.  Returns the instance and that union's
    measure; nothing is rasterized."""
    A = sorted(set(A))
    inst = build_instance(n, find_progression(A, m), budget)
    used = naive_generators(n, A, inst.grid)
    return inst, anchored_union_measure(used).union


class TestStepOneOracle:
    @pytest.mark.parametrize("k", [-40, -7, 0, 13, 40])
    @pytest.mark.parametrize("n, m_top", [(2, 10), (3, 6), (4, 5)])
    def test_dense_run_is_one_anchored_union(self, n, m_top, k):
        for m in range(2, m_top + 1):
            A = range(k, k + m)
            rep = verify_theorem(n, A, m)
            inst, union = step_one_union(n, A, m)
            # E is one grid cell
            assert inst.measure_E() == DyadicRational.pow2(inst.grid.cell_volume_exponent)
            assert rep.superlevel == rep.superlevel_alt == rep.union_Y == union
            assert rep.passed


class TestStepOneClosedForms:
    """Closed forms of the theorem ratio on A = u = 0..m-1, proved for
    every n >= 2 and checked through the symbolic step-1 oracle.  The
    huge budget admits grids that are never allocated.

    X is the crystal over the consecutive scales 0..m-1 and Z the one
    over -(m-1)..0, so |X| = 1, |Z| = 2^-(m-1), and E = X^(n-1) x Z is
    the one grid cell [0, 1]^(n-1) x [0, 2^-(m-1)], of volume
    |E| = 2^-(m-1).  The generators that fit the grid are the shapes
    (a_1, ..., a_(n-1), -sum(a)) with every a_k in 0..m-1 and
    sum(a) <= m-1, each of unit volume.  An aligned placement of one of
    them that contains a cell of E holds all of E, so its average is
    2^-(m-1) when the placement is anchored at the origin and 0
    otherwise.  Hence S, at 2^-(m-1) and at 2^-m alike, is the anchored
    union of the boxes [0, 2^a_1] x ... x [0, 2^a_(n-1)] x [0, 2^-sum(a)].

    Cut each of the first n-1 axes at 1, 2, 4, ...: compressed cell 0 is
    [0, 1], of width w(0) = 1, and cell i >= 1 is [2^(i-1), 2^i], of
    width w(i) = 2^(i-1).  Over the compressed cell (i_1, ..., i_(n-1))
    the boxes that reach it are those with every a_k >= i_k, and the
    tallest of them is a = i.  So the union has height 2^-sum(i) there
    when sum(i) <= m-1 and is absent otherwise:

      S = sum over sum(i) <= m-1 of prod_k w(i_k) 2^-i_k.

    Each factor w(i) 2^-i is 1 for i = 0 and 1/2 for i >= 1.  Count the
    cells by j, the number of nonzero i_k: there are C(n-1, j) ways to
    place them and C(m-1, j) ways to give them positive values with sum
    at most m-1.  So

      S = sum_(j=0..n-1) C(n-1, j) C(m-1, j) 2^-j,

    and ratio = S / (m^(n-1) 2^m |E|) = S / (2 m^(n-1)).  For n = 2 this
    is (m+1)/(4m), the union being the staircase (m+1)/2; for n = 3 it
    is (m^2+5m+2)/(16m^2).
    """

    @staticmethod
    def ratio(n, m):
        inst, union = step_one_union(n, range(m), m, budget=1 << 4096)
        scale = Fraction(m ** (n - 1) * 2**m) * inst.measure_E().as_fraction()
        return union.as_fraction() / scale

    @staticmethod
    def closed_form(n, m):
        S = sum(
            Fraction(math.comb(n - 1, j) * math.comb(m - 1, j), 2**j)
            for j in range(n)
        )
        return S / (2 * m ** (n - 1))

    @pytest.mark.parametrize("n, m_top", [(2, 60), (3, 40), (4, 20), (5, 12)])
    def test_derivation(self, n, m_top):
        for m in range(2, m_top + 1):
            inst, union = step_one_union(n, range(m), m, budget=1 << 4096)
            assert inst.measure_E() == DyadicRational.pow2(-(m - 1))
            w = [1] + [2 ** (i - 1) for i in range(1, m)]
            stairs = sum(
                math.prod(Fraction(w[ik], 2**ik) for ik in i)
                for i in iproduct(range(m), repeat=n - 1)
                if sum(i) <= m - 1
            )
            assert union.as_fraction() == stairs
            assert union.as_fraction() / 2 / m ** (n - 1) == self.closed_form(n, m)

    def test_n2_derivation(self):
        for m in range(2, 101):
            inst, union = step_one_union(2, range(m), m, budget=1 << 4096)
            assert inst.measure_E() == DyadicRational.pow2(-(m - 1))
            generators = [Shape((a, -a)) for a in range(m)]
            assert union == anchored_union_measure(generators).union
            staircase = 1 + sum(
                Fraction(2**a - 2 ** (a - 1), 2**a) for a in range(1, m)
            )
            assert union.as_fraction() == staircase == Fraction(m + 1, 2), m

    def test_n2(self):
        for m in range(2, 101):
            assert self.ratio(2, m) == Fraction(m + 1, 4 * m), m

    def test_n3(self):
        for m in range(2, 41):
            assert self.ratio(3, m) == Fraction(m * m + 5 * m + 2, 16 * m * m), m


def test_fraction_decimal_deterministic():
    assert fraction_decimal(Fraction(1, 3)) == fraction_decimal(Fraction(1, 3))
    assert fraction_decimal(Fraction(3, 4)) == "0.75"


def test_runs_on_numpy_and_the_standard_library_alone():
    # a fresh interpreter in which every other top-level import fails
    src = Path(dyadicmax.__file__).resolve().parents[1]
    code = (
        "import sys\n"
        "allowed = sys.stdlib_module_names | {'numpy', 'dyadicmax'}\n"
        "class Block:\n"
        "    def find_spec(self, name, path=None, target=None):\n"
        "        if name.partition('.')[0] not in allowed:\n"
        "            raise ImportError(f'{name} is not numpy or standard library')\n"
        "sys.meta_path.insert(0, Block())\n"
        f"sys.path.insert(0, {str(src)!r})\n"
        "from dyadicmax import cube_counterexample, verify_theorem\n"
        "assert cube_counterexample(2, 4).passed\n"
        "assert verify_theorem(2, {0, 1, 2}, 3).passed\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
