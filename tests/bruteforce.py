"""Independent brute-force oracles used by the test suite.

Everything here is deliberately naive (nested loops, direct enumeration)
and shares no code path with the implementations it checks.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product

import numpy as np


def naive_box_sum(mask: np.ndarray, lo, hi) -> int:
    """Count set cells in [lo, hi) by looping, clipping to the array."""
    total = 0
    ranges = [range(max(l, 0), min(h, n)) for l, h, n in zip(lo, hi, mask.shape)]
    for idx in product(*ranges):
        total += int(mask[idx])
    return total


def naive_average(mask: np.ndarray, window, anchor) -> Fraction:
    vol = 1
    for w in window:
        vol *= w
    hi = tuple(a + w for a, w in zip(anchor, window))
    return Fraction(naive_box_sum(mask, anchor, hi), vol)


def naive_maximal(mask: np.ndarray, windows) -> list:
    """Max average over all windows and all aligned placements containing
    each cell; returns a flat nested list of Fractions."""
    shape = mask.shape
    out = np.empty(shape, dtype=object)
    for cell in product(*(range(n) for n in shape)):
        best = Fraction(0)
        for window in windows:
            for anchor in product(
                *(range(c - w + 1, c + 1) for c, w in zip(cell, window))
            ):
                best = max(best, naive_average(mask, window, anchor))
        out[cell] = best
    return out


def naive_crystal_cells(scales, r, L) -> list[bool]:
    """Cell i of size 2^r in [0, 2^L] is kept iff its left endpoint x lies
    below 2^max and floor(x / 2^a) is even for every finer scale a."""
    keep = []
    for i in range(2 ** (L - r)):
        x = i * Fraction(2) ** r
        keep.append(
            x < Fraction(2) ** scales[-1]
            and all((x // Fraction(2) ** a) % 2 == 0 for a in scales[:-1])
        )
    return keep


def naive_anchored_union(shapes) -> Fraction:
    """Union of anchored boxes [0, 2^e] via a rational coordinate grid."""
    n = len(shapes[0])
    edges = []
    for j in range(n):
        es = sorted({s.exponents[j] for s in shapes})
        edges.append([Fraction(0)] + [Fraction(2) ** e for e in es])
    total = Fraction(0)
    for idx in product(*(range(len(e) - 1) for e in edges)):
        mids = [(edges[j][i] + edges[j][i + 1]) / 2 for j, i in enumerate(idx)]
        if any(
            all(mids[j] < Fraction(2) ** s.exponents[j] for j in range(n))
            for s in shapes
        ):
            vol = Fraction(1)
            for j, i in enumerate(idx):
                vol *= edges[j][i + 1] - edges[j][i]
            total += vol
    return total


def contained_anchored_rectangles(mask: np.ndarray, res, extent):
    """All anchored dyadic rectangles (by exponent vector) whose full cell
    box is contained in the mask."""
    out = []
    n = mask.ndim
    ranges = [range(r, L + 1) for r, L in zip(res, extent)]
    for b in product(*ranges):
        hi = tuple(1 << (bj - rj) for bj, rj in zip(b, res))
        sl = tuple(slice(0, h) for h in hi)
        if mask[sl].all():
            out.append(b)
    return out
