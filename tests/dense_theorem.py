"""The dense theorem pipeline, kept as a test oracle.

It certifies an instance the way `verify_theorem` once did, on arrays the
size of the whole grid: E and every Y(i) as dense masks, one dense
homogeneity field per R(i), the family field's `num`, its superlevel
masks and the mask of the union of the Y(i).  It is the middle link of
the oracle chain: `bruteforce.py` checks the evaluator, this checks the
per-axis class path of `dyadicmax.verify`.  Every field comes from a
mask of one dense factor, so each of its terms is one grid-sized array,
and the oracle reads only the fields' `num`.  The family's generators
are the naive product filter of `bruteforce.py`, not the bounded walk
that `verify_theorem` takes them from.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from bruteforce import naive_generators
from dyadicmax.dyadic import DyadicRational
from dyadicmax.errors import ConstructionError
from dyadicmax.evaluator import BitMask, maximal_field, rasterize, superlevel_mask
from dyadicmax.family import find_progression
from dyadicmax.verify import HomogeneityResult, TheoremInstance, build_instance


def dense_mask(C, grid) -> BitMask:
    """The crystal C rasterized as one dense factor."""
    return BitMask(grid, (rasterize(C, grid).values,))


def first_cell(bad: np.ndarray) -> tuple[int, ...]:
    """The first set cell of bad in C order."""
    return tuple(int(v) for v in np.argwhere(bad)[0])


def union_Y_mask(inst: TheoremInstance) -> np.ndarray:
    bits = np.zeros(inst.grid.shape, dtype=bool)
    for i in inst.indices:
        bits |= rasterize(inst.Y[i], inst.grid).values
    return bits


def homogeneity(inst: TheoremInstance, i, E: BitMask) -> HomogeneityResult:
    """check_homogeneity on the grid: E ⊂ Y(i), |Y(i)| = 2^k |E|, and the
    R(i) field of E at least 2^-k on every cell of Y(i)."""
    Y, E = rasterize(inst.Y[i], inst.grid).values, E.values
    outside = E & ~Y
    if outside.any():
        return HomogeneityResult(-1, False, first_cell(outside))
    k = int(np.count_nonzero(Y) // np.count_nonzero(E)).bit_length() - 1
    if np.count_nonzero(Y) != np.count_nonzero(E) << k:
        raise ConstructionError(f"|Y|/|Y∩E| is not a power of two at index {i}")
    fld = maximal_field(BitMask(inst.grid, (E,)), [inst.R[i]])
    bad = Y & ~superlevel_mask(fld, DyadicRational.pow2(-k))
    return HomogeneityResult(k, not bad.any(), first_cell(bad) if bad.any() else None)


@dataclass(frozen=True)
class DenseTheorem:
    S: DyadicRational
    S_alt: DyadicRational
    union_Y: DyadicRational
    inclusion_ok: bool
    homogeneity: list[HomogeneityResult]


def dense_theorem(n: int, A, m: int) -> DenseTheorem:
    """What verify_theorem(n, A, m) measures, from dense arrays."""
    A = sorted(set(A))
    inst = build_instance(n, find_progression(A, m))
    grid = inst.grid
    E = dense_mask(inst.E, grid)
    used = naive_generators(n, A, grid)
    fld = maximal_field(E, used)
    lvl, lvl_alt = (
        superlevel_mask(fld, DyadicRational.pow2(-e)) for e in (m - 1, m)
    )
    union = union_Y_mask(inst)

    def measure(bits):
        return BitMask(grid, (bits,)).measure()

    return DenseTheorem(
        measure(lvl),
        measure(lvl_alt),
        measure(union),
        bool(lvl[union].all()),
        [homogeneity(inst, i, E) for i in inst.indices],
    )
