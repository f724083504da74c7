"""Acceptance suite: one test per criterion, printing one pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
complete.
"""

import csv
import json
import math
import pathlib
import random
from contextlib import contextmanager
from fractions import Fraction
from functools import reduce
from itertools import combinations, product

import numpy as np
import pytest

from bruteforce import (
    contained_anchored_rectangles,
    naive_average,
    naive_box_sum,
    naive_generators,
)
from dyadicmax.cli import main as cli_main
from dyadicmax.crystal import (
    Crystal1D,
    ScaleSet,
    Shape,
    primitive_rectangle,
    product_crystal,
)
from dyadicmax.dyadic import DyadicRational
from dyadicmax.evaluator import (
    BitMask,
    GridSpec,
    maximal_field,
    prefix_sums,
    rasterize,
)
from dyadicmax.family import is_member
from dyadicmax.verify import (
    build_instance,
    check_homogeneity,
    cube_counterexample,
    verify_theorem,
)

GOLDEN = pathlib.Path(__file__).parent / "golden"

SWEEPS = {
    "sweep_n2.json": (2, set(range(10)), range(2, 11)),
    "sweep_n3.json": (3, set(range(6)), range(2, 7)),
}


@contextmanager
def criterion(num, desc):
    try:
        yield
    except BaseException:
        print(f"criterion {num} ({desc}): FAIL")
        raise
    print(f"criterion {num} ({desc}): PASS")


@pytest.fixture(scope="module")
def sweep_reports():
    out = {}
    for name, (n, A, ms) in SWEEPS.items():
        out[name] = [verify_theorem(n, A, m) for m in ms]
    return out


def test_criterion_1_crystal_measure_law():
    with criterion(1, "crystal measure law"):
        rng = random.Random(1)
        for _ in range(200):
            m = rng.randint(1, 6)
            A = ScaleSet(tuple(sorted(rng.sample(range(-6, 7), m))))
            axis = Crystal1D(A).cells(A.min, 1 << (A.max - A.min))
            assert DyadicRational(int(axis.sum()), A.min) == (
                DyadicRational.pow2(A.max - (m - 1))
            )


def test_criterion_2_primitive_rectangle_oracle():
    with criterion(2, "primitive rectangle vs exhaustive search"):
        values = range(-3, 4)
        all_sets = [
            ScaleSet(c)
            for k in (1, 2, 3)
            for c in combinations(values, k)
        ]
        # independent 1D oracle: scan the rasterized bits directly
        max_interval = {}
        for A in all_sets:
            mask1 = rasterize(
                product_crystal(A), GridSpec((A.min,), (A.max,))
            )
            best = max(
                contained_anchored_rectangles(mask1.values, (A.min,), (A.max,))
            )
            max_interval[A] = best[0]
        # n = 1 and the factorized oracle for every n <= 3 product
        for A in all_sets:
            assert primitive_rectangle(product_crystal(A)) == Shape(
                (max_interval[A],)
            )
        for n in (2, 3):
            for factors in product(all_sets, repeat=n):
                want = tuple(max_interval[A] for A in factors)
                assert primitive_rectangle(product_crystal(*factors)) == Shape(want)
        # spot check the full nD exhaustive search on random products
        rng = random.Random(2)
        for n in (2, 3):
            for _ in range(60):
                factors = tuple(rng.choice(all_sets) for _ in range(n))
                Y = product_crystal(*factors)
                grid = GridSpec(
                    tuple(A.min for A in factors), tuple(A.max for A in factors)
                )
                contained = contained_anchored_rectangles(
                    rasterize(Y, grid).values, grid.resolution, grid.extent
                )
                p = primitive_rectangle(Y)
                assert tuple(p.exponents) in contained
                assert all(
                    all(b <= q for b, q in zip(bb, p.exponents))
                    for bb in contained
                )


def test_criterion_3_evaluator_oracles():
    with criterion(3, "evaluator oracle equivalence"):
        rng = np.random.default_rng(3)
        pr = random.Random(3)
        for case in range(100):
            ndim = pr.choice((1, 2, 3))
            exps = []
            total = 0
            for k in range(ndim):
                hi = min(6, 12 - total - (ndim - k - 1))
                e = pr.randint(1, max(1, hi))
                exps.append(e)
                total += e
            shape = tuple(1 << e for e in exps)
            grid = GridSpec((0,) * ndim, tuple(exps))
            mask = BitMask(grid, (rng.random(shape) < pr.uniform(0.1, 0.7),))
            tables = prefix_sums(mask)
            assert [T.shape for T in tables] == [tuple(n + 1 for n in shape)]
            P = reduce(np.multiply.outer, tables)
            # prefix table entries: entry i counts the box [0, i)
            for _ in range(10):
                i = tuple(int(rng.integers(0, n + 1)) for n in shape)
                assert P[i] == naive_box_sum(mask.values, (0,) * ndim, i)
            # maximal fields of one window and of two, at sampled cells
            rect = tuple(pr.randint(0, min(e, 3)) for e in exps)
            rect2 = tuple(pr.randint(0, min(e, 3)) for e in exps)
            for rects in ([rect], [rect, rect2]):
                mfld = maximal_field(mask, [Shape(r) for r in rects])
                mden = Fraction(1, 1 << mfld.denom_exp)
                windows = [tuple(1 << e for e in r) for r in rects]
                for _ in range(6):
                    cell = tuple(int(rng.integers(0, n)) for n in shape)
                    best = Fraction(0)
                    for w in windows:
                        for anchor in product(
                            *(range(c - wj + 1, c + 1) for c, wj in zip(cell, w))
                        ):
                            best = max(best, naive_average(mask.values, w, anchor))
                    assert int(mfld.num[cell]) * mden == best


def test_criterion_4_homogeneity():
    with criterion(4, "homogeneity of every suffix crystal"):
        for n, m_top in ((2, 10), (3, 6)):
            for m in range(2, m_top + 1):
                inst = build_instance(n, range(m))
                mask_E = rasterize(inst.E, inst.grid)
                mE = inst.measure_E()
                for i in inst.indices:
                    from dyadicmax.crystal import crystal_measure

                    assert crystal_measure(inst.Y[i]) == mE.scale2(m - 1)
                    r = check_homogeneity(inst, i, mask_E)
                    assert r.passed, (n, m, i, r)
                    assert r.k == m - 1


def test_criterion_5_sharpness_sweep(sweep_reports):
    with criterion(5, "sharpness ratio sweep vs golden"):
        for name, reports in sweep_reports.items():
            golden = json.loads((GOLDEN / name).read_text())
            assert len(golden) == len(reports)
            ratios = []
            for rep, want in zip(reports, golden):
                got = rep.to_json_dict()
                got.pop("runtime_ms")
                assert got == want, (name, rep.m)
                ratios.append(rep.ratio)
            assert all(r > 0 for r in ratios)
            assert min(ratios) >= ratios[-1] / 2


def test_criterion_6_certified_inclusion(sweep_reports):
    with criterion(6, "union of Y inside aligned superlevel set"):
        for reports in sweep_reports.values():
            for rep in reports:
                assert rep.inclusion_ok
                assert rep.union_Y <= rep.superlevel


def test_criterion_7_cube_counterexample():
    with criterion(7, "unit cube lower bound sweep vs golden"):
        golden = json.loads((GOLDEN / "cube_n2.json").read_text())
        reports = [cube_counterexample(2, m) for m in range(1, 9)]
        ratios = []
        for rep, want in zip(reports, golden):
            got = rep.to_json_dict()
            got.pop("runtime_ms")
            assert got == want, rep.m
            ratios.append(rep.ratio)
        assert all(r > 0 for r in ratios)
        assert min(ratios) >= ratios[-1] / 2


def test_criterion_8_membership_consistency():
    with criterion(8, "family membership of every primitive rectangle"):
        for n, A, ms in SWEEPS.values():
            from dyadicmax.family import find_progression

            for m in ms:
                inst = build_instance(n, find_progression(A, m))
                for s in naive_generators(n, A, inst.grid):
                    assert s.volume_exponent == 0
                for i in inst.indices:
                    assert is_member(inst.R[i], n, A)
                    assert inst.R[i].volume_exponent == 0


def test_criterion_9_determinism(tmp_path):
    with criterion(9, "byte-identical sweep CSV payload"):
        paths = [tmp_path / "run1.csv", tmp_path / "run2.csv"]
        for p in paths:
            rc = cli_main(
                ["sweep", "--n", "2", "--set", "0..6", "--m", "2..7",
                 "--csv", str(p)]
            )
            assert rc == 0

        def payload(path):
            with open(path) as fh:
                rows = list(csv.reader(fh))
            head = rows[0]
            drop = head.index("runtime_ms")
            return [
                ",".join(v for j, v in enumerate(r) if j != drop) for r in rows
            ]

        assert payload(paths[0]) == payload(paths[1])
