"""End-to-end certification of the lower-bound construction.

Given a dimension n and an arithmetic progression u_0 < ... < u_(m-1)
inside the generating set A, this module builds the product crystal
E = X^(n-1) x Z, the suffix crystals Y(i) and their primitive rectangles
R(i), and certifies on an exact grid that

  * every Y(i) satisfies the homogeneity check: |Y(i)| = 2^(m-1) |E| and
    every cell of Y(i) sees a rectangle average of 1_E at least 2^-(m-1)
    over translates of R(i);
  * the R(i) are independent (each keeps a positive fraction of its
    volume away from the others) and the Y(i) overlap boundedly;
  * the union of the Y(i) sits inside the aligned superlevel set of the
    full family maximal field, so the reported superlevel measure is a
    certified lower bound.

A `VerificationReport` stores what a run measured and the outcome of
each check; it derives the sharpness ratio and the verdict from them.

The unit-cube example (`cube_counterexample`) is evaluated as a
product: one 1D field of [0, 1] over the side exponents 0..m, whose
n-fold product has its superlevel set counted over the field's value
classes.

Aligned evaluation under-estimates the true maximal operator, which is
the safe direction for these lower bounds.
"""

from __future__ import annotations

import decimal
import json
import time
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from itertools import product as iproduct
from operator import index

import numpy as np

from .crystal import (
    CrystalND,
    ScaleSet,
    Shape,
    crystal_measure,
    primitive_rectangle,
    product_crystal,
)
from .dyadic import DyadicRational
from .errors import ConstructionError, NoProgressionError, ParameterError
from .evaluator import (
    DEFAULT_CELL_BUDGET,
    BitMask,
    GridSpec,
    _count_threshold,
    anchored_union_measure,
    check_budget,
    maximal_field,
    product_superlevel_measure,
    rasterize,
    superlevel_mask,
)
from .family import find_progression, generate_shapes, is_member

CSV_COLUMNS = (
    "n", "m", "measure_E_mantissa", "measure_E_exp", "superlevel_mantissa",
    "superlevel_exp", "ratio_decimal", "index_count", "min_delta", "runtime_ms",
)


def fraction_text(q: Fraction | None) -> str | None:
    """The exact `p/q` rendering used by the JSON and the CSV."""
    return None if q is None else f"{q.numerator}/{q.denominator}"


def fraction_decimal(q: Fraction) -> str:
    """Deterministic 12-digit decimal rendering (advisory; exact values
    live in the mantissa/exponent columns)."""
    ctx = decimal.Context(prec=12)
    return str(ctx.divide(decimal.Decimal(q.numerator), decimal.Decimal(q.denominator)))


@dataclass(frozen=True, eq=False)
class TheoremInstance:
    """All derived objects of the construction for one (n, progression)."""

    n: int
    progression: range
    E: CrystalND
    indices: tuple[tuple[int, ...], ...]
    Y: dict
    R: dict
    grid: GridSpec

    @property
    def m(self) -> int:
        return len(self.progression)

    def measure_E(self) -> DyadicRational:
        return crystal_measure(self.E)


def build_instance(
    n: int, u: range, budget: int = DEFAULT_CELL_BUDGET
) -> TheoremInstance:
    """Construct E, all Y(i)/R(i) from the progression u, and assert the
    structural identities.  Each R(i) is checked to generate B_(u^(n-1)),
    which lies inside B_(A^(n-1)) for any A containing u."""
    if n < 2:
        raise ParameterError("dimension must be at least 2")
    m = len(u)
    if m < 2:
        raise ParameterError("progression must have length at least 2")
    u0, d = u[0], u.step
    check_budget(n * (m - 1) * d, budget)  # grid.cells_exponent, before any n-tuple
    h = tuple((n - 1) * u0 + d * s for s in range(m))
    X = ScaleSet(u)
    Z = ScaleSet(tuple(-hs for hs in reversed(h)))
    E = product_crystal(*[X] * (n - 1), Z)
    grid = GridSpec(
        (u0,) * (n - 1) + (-h[-1],), (u[-1],) * (n - 1) + (-h[0],), budget
    )
    indices = tuple(
        i for i in iproduct(range(m), repeat=n - 1) if sum(i) <= m - 1
    )
    measure_E = crystal_measure(E)
    Y, R = {}, {}
    for i in indices:
        s = sum(i)
        z_scales = ScaleSet(tuple(-hs for hs in reversed(h[: s + 1])))
        Yi = product_crystal(*(ScaleSet(u[ik:]) for ik in i), z_scales)
        Ri = primitive_rectangle(Yi)
        expected = Shape(tuple(u[ik] for ik in i) + (-h[s],))
        if Ri != expected:
            raise ConstructionError(f"primitive rectangle mismatch at index {i}")
        if h[s] != sum(u[ik] for ik in i):
            raise ConstructionError(f"resonance identity fails at index {i}")
        if not is_member(Ri, n, u):
            raise ConstructionError(
                f"primitive rectangle {Ri.exponents} not in the family at index {i}"
            )
        if crystal_measure(Yi) != measure_E.scale2(m - 1):
            raise ConstructionError(f"|Y| != 2^(m-1)|E| at index {i}")
        Y[i], R[i] = Yi, Ri
    return TheoremInstance(n, u, E, indices, Y, R, grid)


@dataclass(frozen=True)
class HomogeneityResult:
    k: int
    passed: bool
    counterexample: tuple[int, ...] | None = None


def _first_failure(ok: np.ndarray, idx) -> tuple[int, ...]:
    """The first failing cell of a test ok read at arr[idx], whose
    entries follow the cells' C order (`cell_index`)."""
    at = np.unravel_index(np.argmin(ok), ok.shape)
    return tuple(int(np.broadcast_to(c, ok.shape)[at]) for c in idx)


def check_homogeneity(
    instance: TheoremInstance,
    i: tuple[int, ...],
    mask_E: BitMask,
) -> HomogeneityResult:
    """Rasterized check that every cell of Y(i) sees an R(i)-average of
    1_E at least 2^-k, where |Y(i)| = 2^k |Y(i) ∩ E|; mask_E is E
    rasterized on the instance grid.

    Both tests read only the cells each mask selects (`cell_index`), and
    Y(i) is read at the cells of E through its factors (`at`), so masks
    with per-axis factors build neither their values nor a grid-sized
    temporary, and a failed test takes its witness, the first failing
    cell, from the entries it read."""
    mask_Y = rasterize(instance.Y[i], instance.grid)
    idx_E, idx_Y = mask_E.cell_index(), mask_Y.cell_index()
    inside = mask_Y.at(idx_E)
    if not inside.all():
        # E ⊂ Y(i) must hold; report the first offending cell
        return HomogeneityResult(-1, False, _first_failure(inside, idx_E))
    # E ⊂ Y(i), so |Y(i) ∩ E| = |E|; both measures are canonical (odd
    # mantissa), so their ratio is a power of two iff the mantissas agree
    mu_Y, mu_E = mask_Y.measure(), mask_E.measure()
    if mu_Y.mantissa != mu_E.mantissa:
        raise ConstructionError(f"|Y|/|Y∩E| is not a power of two at index {i}")
    k = mu_Y.exponent - mu_E.exponent
    fld = maximal_field(mask_E, [instance.R[i]])
    c = _count_threshold(fld.denom_exp, DyadicRational.pow2(-k))
    seen = fld.num[idx_Y]
    if int(seen.min()) >= c:
        return HomogeneityResult(k, True)
    return HomogeneityResult(k, False, _first_failure(seen >= c, idx_Y))


@dataclass(frozen=True)
class DisjointnessResult:
    min_delta: Fraction
    union_Y: DyadicRational
    sum_Y: DyadicRational
    rho: Fraction
    passed: bool


def check_disjointness(instance: TheoremInstance) -> DisjointnessResult:
    """Independence of the primitive rectangles plus the exact overlap
    ratio of the union of the Y(i)."""
    shapes = [instance.R[i] for i in instance.indices]
    au = anchored_union_measure(shapes)
    min_delta = min(
        diff.as_fraction() / s.volume().as_fraction()
        for diff, s in zip(au.differences, shapes)
    )
    union_Y = BitMask(instance.grid, (union_Y_mask(instance),)).measure()
    sum_Y = sum(
        (crystal_measure(instance.Y[i]) for i in instance.indices),
        DyadicRational(0, 0),
    )
    rho = union_Y.as_fraction() / sum_Y.as_fraction()
    return DisjointnessResult(min_delta, union_Y, sum_Y, rho, min_delta > 0)


def union_Y_mask(instance: TheoremInstance) -> np.ndarray:
    bits = np.zeros(instance.grid.shape, dtype=bool)
    for i in instance.indices:
        bits[rasterize(instance.Y[i], instance.grid).cell_index()] = True
    return bits


@dataclass(frozen=True)
class VerificationReport:
    kind: str  # "theorem" or "cube"
    n: int
    m: int
    description: str
    measure_E: DyadicRational
    superlevel: DyadicRational  # at the main threshold
    threshold: DyadicRational
    index_count: int
    shapes_used: int
    runtime_ms: float
    # theorem reports only; a cube report leaves them at their defaults
    superlevel_alt: DyadicRational | None = None
    threshold_alt: DyadicRational | None = None
    min_delta: Fraction | None = None
    rho: Fraction | None = None
    union_Y: DyadicRational | None = None
    inclusion_ok: bool | None = None
    homogeneity_ok: bool | None = None
    disjointness_ok: bool | None = None
    shapes_skipped: int = 0

    def _sharpness(self, S: DyadicRational) -> Fraction:
        """The sharpness ratio S / (m^(n-1) 2^m |E|)."""
        scale = self.m ** (self.n - 1) * 2**self.m * self.measure_E.as_fraction()
        return S.as_fraction() / scale

    @property
    def ratio(self) -> Fraction:
        return self._sharpness(self.superlevel)

    @property
    def ratio_alt(self) -> Fraction | None:
        S = self.superlevel_alt
        return None if S is None else self._sharpness(S)

    @property
    def passed(self) -> bool:
        """A positive ratio and no failed check; a cube runs no checks."""
        checks = (self.homogeneity_ok, self.disjointness_ok, self.inclusion_ok)
        return self.ratio > 0 and False not in checks

    def csv_row(self) -> dict:
        E, S = self.measure_E, self.superlevel
        values = (
            self.n, self.m, E.mantissa, E.exponent, S.mantissa, S.exponent,
            fraction_decimal(self.ratio), self.index_count,
            fraction_text(self.min_delta) or "", f"{self.runtime_ms:.1f}",
        )
        return dict(zip(CSV_COLUMNS, values, strict=True))

    def to_json_dict(self) -> dict:
        def dy(x):
            return None if x is None else {"mantissa": x.mantissa, "exponent": x.exponent}

        return {
            "schema_version": 1,
            "kind": self.kind,
            "n": self.n,
            "m": self.m,
            "description": self.description,
            "measure_E": dy(self.measure_E),
            "threshold": dy(self.threshold),
            "superlevel": dy(self.superlevel),
            "ratio": fraction_text(self.ratio),
            "ratio_decimal": fraction_decimal(self.ratio),
            "threshold_alt": dy(self.threshold_alt),
            "superlevel_alt": dy(self.superlevel_alt),
            "ratio_alt": fraction_text(self.ratio_alt),
            "index_count": self.index_count,
            "min_delta": fraction_text(self.min_delta),
            "rho": fraction_text(self.rho),
            "union_Y": dy(self.union_Y),
            "inclusion_ok": self.inclusion_ok,
            "homogeneity_ok": self.homogeneity_ok,
            "disjointness_ok": self.disjointness_ok,
            "shapes_used": self.shapes_used,
            "shapes_skipped": self.shapes_skipped,
            "threshold_convention": "closed (field >= threshold)",
            "translate_convention": "cell-aligned only; certified lower bound",
            "runtime_ms": self.runtime_ms,
            "passed": self.passed,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2)


def verify_theorem(
    n: int, A, m: int, budget: int = DEFAULT_CELL_BUDGET
) -> VerificationReport:
    """Full certification run: homogeneity, disjointness, and the
    superlevel measure of the family maximal field at threshold
    2^-(m-1) (2^-m reported too); the report derives the ratio."""
    t0 = time.perf_counter()
    n, m, A = index(n), index(m), sorted({index(a) for a in A})
    if n < 2:
        raise ParameterError("dimension must be at least 2")
    u = find_progression(A, m)
    if u is None:
        span = f", {A[0]}..{A[-1]}" if A else ""
        raise NoProgressionError(
            f"no arithmetic progression of length {m} in A (|A| = {len(A)}{span})"
        )
    inst = build_instance(n, u, budget)
    mask_E = rasterize(inst.E, inst.grid)
    hom = [check_homogeneity(inst, i, mask_E) for i in inst.indices]
    hom_ok = all(r.passed for r in hom)
    disj = check_disjointness(inst)

    # the first n-1 axes share one scale range, so only the scales of A
    # inside it give shapes that can fit the grid
    lo, hi = inst.grid.resolution[0], inst.grid.extent[0]
    fitting = {a for a in A if lo <= a <= hi}
    used = [s for s in generate_shapes(n, fitting) if inst.grid.compatible_shape(s)]
    skipped = len(A) ** (n - 1) - len(used)
    fld = maximal_field(mask_E, used)
    thr = DyadicRational.pow2(-(m - 1))
    thr_alt = DyadicRational.pow2(-m)
    lvl = superlevel_mask(fld, thr)
    S = BitMask(inst.grid, (lvl,)).measure()
    S_alt = BitMask(inst.grid, (superlevel_mask(fld, thr_alt),)).measure()
    inclusion_ok = bool(lvl[union_Y_mask(inst)].all())
    runtime = (time.perf_counter() - t0) * 1000.0
    return VerificationReport(
        kind="theorem",
        n=n,
        m=m,
        description=f"n={n}, A={A}, progression={tuple(u)} step {u.step}",
        measure_E=inst.measure_E(),
        superlevel=S,
        threshold=thr,
        superlevel_alt=S_alt,
        threshold_alt=thr_alt,
        index_count=len(inst.indices),
        min_delta=disj.min_delta,
        rho=disj.rho,
        union_Y=disj.union_Y,
        inclusion_ok=inclusion_ok,
        homogeneity_ok=hom_ok,
        disjointness_ok=disj.passed,
        shapes_used=len(used),
        shapes_skipped=skipped,
        runtime_ms=runtime,
    )


def cube_counterexample(
    n: int, m: int, budget: int = DEFAULT_CELL_BUDGET
) -> VerificationReport:
    """Unit-cube lower bound: maximal field of 1_Q over all dyadic
    rectangles with side exponents in [0, m], superlevel at 2^-m.

    Q = [0, 1]^n and the shape set [0, m]^n are both products, so the
    field is the n-fold product of the 1D field of [0, 1] over the
    shapes 0..m: averages, containing placements and exponents all split
    per axis, and a maximum of products of nonnegative factors is the
    product of the maxima.  Only the 2^m-cell axis is materialized; the
    budget still counts the n-D grid."""
    t0 = time.perf_counter()
    n, m = index(n), index(m)
    if n < 1 or m < 1:
        raise ParameterError("need n >= 1 and m >= 1")
    check_budget(n * m, budget)  # the n-D grid's 2^(nm) cells
    unit = product_crystal(ScaleSet((0,)))
    mask = rasterize(unit, GridSpec((0,), (m,), budget))
    fld = maximal_field(mask, [Shape((a,)) for a in range(m + 1)])
    thr = DyadicRational.pow2(-m)
    S = product_superlevel_measure([fld] * n, thr)
    runtime = (time.perf_counter() - t0) * 1000.0
    nshapes = (m + 1) ** n
    return VerificationReport(
        kind="cube",
        n=n,
        m=m,
        description=f"unit cube, n={n}, shape exponents in [0,{m}]^{n}",
        measure_E=reduce(DyadicRational.__mul__, [mask.measure()] * n),
        superlevel=S,
        threshold=thr,
        index_count=nshapes,
        shapes_used=nshapes,
        runtime_ms=runtime,
    )
