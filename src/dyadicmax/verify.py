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
  * every Y(i) sits inside the aligned superlevel set of its R(i)'s term
    of the family maximal field, hence so does their union, and the
    reported superlevel measure is a certified lower bound.

E, every Y(i) and every R(i) are products, so the grid is never built.
A run has 2m distinct axis crystals, X over each suffix u[j:] and Z
over the last s+1 scales of -h; E and every Y(i) are tuples of those
objects, so each axis is rasterized and checked once per run (the
crystal keeps it) and every other `rasterize` is a lookup.  Each field
of E is a maximum of outer products of per-axis factors, held as one
stack of distinct rows per axis (the n - 1 X axes share one) and a
table naming each term's rows, and each Y(i) is the outer AND of its
axes.  One reader, `_first_below(term, mask, c)`, makes every
per-index test: the first cell of the mask at which the product of the
term's factors is below c.  It reads E ⊂ Y(i) (Y(i)'s factors over E),
the R(i) field over Y(i), and the inclusion (the family field's term of
R(i), its rows named by the table, over Y(i)), factor by factor, and
refuses terms and masks of any other layout.  S and S_alt are
superlevel measures of the family field, counted over its value
classes (`superlevel_measure`).  The union of the R(i) and that of the
Y(i) are both measured as unions of anchored boxes
(`anchored_union_measure`); `check_disjointness` says why the Y(i) are
such boxes, and reads only the union of the second.  A passing
`verify_theorem` builds no array of the grid's size; the cell budget
still counts the grid's cells.

The indices i and the family's generators that fit the grid are both
walked, not filtered from a product (`bounded_tuples`): the indices
are the tuples in [0, m)^(n-1) with sum at most m-1, and the
generators those of offsets a_k - u_0 >= 0 with sum at most (m-1)d.

A `VerificationReport` stores what a run measured and the outcome of
each check; it derives the sharpness ratio and the verdict from them.

The unit-cube example (`cube_counterexample`) is evaluated as a
product: one 1D field of [0, 1] over the side exponents 0..m (the
`num` of its m + 1 terms), whose n-fold product, a field of one term
whose n stacks are that one row, is counted over value classes like
the theorem's fields.

Aligned evaluation under-estimates the true maximal operator, which is
the safe direction for these lower bounds.
"""

from __future__ import annotations

import decimal
import json
import math
import time
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from operator import index

import numpy as np

from .crystal import (
    Crystal1D,
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
    AverageField,
    BitMask,
    GridSpec,
    _count_threshold,
    anchored_union_measure,
    check_budget,
    maximal_field,
    rasterize,
    superlevel_measure,
)
from .family import bounded_tuples, find_progression, is_member

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
    # E and every Y(i) share these 2m axis crystals, so each axis is
    # rasterized once per run
    X = [Crystal1D(ScaleSet(u[j:])) for j in range(m)]
    Z = [Crystal1D(ScaleSet(tuple(-hs for hs in h[s::-1]))) for s in range(m)]
    E = CrystalND((X[0],) * (n - 1) + (Z[-1],))
    grid = GridSpec(
        (u0,) * (n - 1) + (-h[-1],), (u[-1],) * (n - 1) + (-h[0],), budget
    )
    indices = tuple(bounded_tuples(range(m), n - 1, m - 1))
    measure_E = crystal_measure(E)
    Y, R = {}, {}
    for i in indices:
        s = sum(i)
        Yi = CrystalND(tuple(X[ik] for ik in i) + (Z[s],))
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


def _first_below(term, mask: BitMask, c: int) -> tuple[int, ...] | None:
    """The first cell of a nonempty mask, in C order, at which the
    product of the term's factors is below c; None if there is none.
    The term (a field term, or a mask's factors) and the mask must hold
    one 1D factor per grid axis, or `ParameterError` is raised, so the
    mask is a product set and its cells run in C order axis by axis.

    The values are >= 0, so the least product over the mask is the
    product of each axis's least value at the mask's cells.  Fixing the
    axes in order, each at its first set cell from which a product below
    c is still reachable with the least values of the axes after it,
    finds that cell."""
    axes = [1] * mask.grid.dimension
    if [f.ndim for f in term] != axes or [f.ndim for f in mask.factors] != axes:
        raise ParameterError("masks and fields must hold one 1D factor per grid axis")
    values = [t[sel] for t, sel in zip(term, mask.factors)]
    least = [int(np.minimum.reduce(v)) for v in values]
    if math.prod(least) >= c:
        return None
    cell, prefix = (), 1
    for j, (v, sel) in enumerate(zip(values, mask.factors)):
        rest = prefix * math.prod(least[j + 1:])
        # rest * v < c iff v < ceil(c / rest)
        p = 0 if rest == 0 else int(np.argmax(v < -(-c // rest)))
        prefix *= int(v[p])
        cell += (int(np.flatnonzero(sel)[p]),)
    return cell


def check_homogeneity(
    instance: TheoremInstance,
    i: tuple[int, ...],
    mask_E: BitMask,
) -> HomogeneityResult:
    """Rasterized check that every cell of Y(i) sees an R(i)-average of
    1_E at least 2^-k, where |Y(i)| = 2^k |Y(i) ∩ E|; mask_E is E
    rasterized on the instance grid.

    Y(i), E and the R(i) field are products of one 1D factor per axis,
    or `ParameterError` is raised, so both tests read them factor by
    factor (`_first_below`): E ⊂ Y(i) as the product of Y(i)'s factors
    at the cells of E's, and the field at Y(i)'s cells as the product of
    its factors there.  Nothing of the grid's size is built, and a
    failed test reports its first failing cell in C order."""
    mask_Y = rasterize(instance.Y[i], instance.grid)
    outside = _first_below(mask_Y.factors, mask_E, 1)
    if outside is not None:
        # E ⊂ Y(i) must hold; report the first offending cell
        return HomogeneityResult(-1, False, outside)
    # E ⊂ Y(i), so |Y(i) ∩ E| = |E|; both measures are canonical (odd
    # mantissa), so their ratio is a power of two iff the mantissas agree
    mu_Y, mu_E = mask_Y.measure(), mask_E.measure()
    if mu_Y.mantissa != mu_E.mantissa:
        raise ConstructionError(f"|Y|/|Y∩E| is not a power of two at index {i}")
    k = mu_Y.exponent - mu_E.exponent
    fld = maximal_field(mask_E, [instance.R[i]])
    (term,) = fld.terms
    c = _count_threshold(fld.denom_exp, DyadicRational.pow2(-k))
    low = _first_below(term, mask_Y, c)
    return HomogeneityResult(k, low is None, low)


@dataclass(frozen=True)
class DisjointnessResult:
    min_delta: Fraction
    union_Y: DyadicRational
    sum_Y: DyadicRational
    rho: Fraction
    passed: bool


def check_disjointness(instance: TheoremInstance) -> DisjointnessResult:
    """Independence of the primitive rectangles plus the exact overlap
    ratio of the union of the Y(i), both measured as unions of anchored
    boxes (`anchored_union_measure`).

    On each grid axis the Y(i)'s rasterized factors must form a chain,
    each a subset of the next by set-cell count, or `ConstructionError`
    is raised.  Rank a coordinate by the first link that holds it: a
    cell lies in Y(i) iff on every axis its rank is at most that of
    Y(i)'s factor.  A link's measure is 2^e, e its crystal's measure
    exponent (`Crystal1D.cells` checks the count), so ∪Y(i) measures as
    the union of the anchored boxes [0, 2^e_1] x ... of the Y(i), whose
    compressed cells are exactly the differences of consecutive links.
    Only that union is read, so no Y(i)'s private volume is built."""
    shapes = [instance.R[i] for i in instance.indices]
    au = anchored_union_measure(shapes)
    min_delta = min(
        diff.as_fraction() / s.volume().as_fraction()
        for diff, s in zip(au.differences, shapes)
    )
    masks = [rasterize(instance.Y[i], instance.grid) for i in instance.indices]
    for axis in zip(*(y.factors for y in masks)):
        chain = sorted({id(f): f for f in axis}.values(), key=np.count_nonzero)
        if any((a > b).any() for a, b in zip(chain, chain[1:])):
            raise ConstructionError("the Y(i) are not nested on every axis")
    union_Y = anchored_union_measure(
        Shape(tuple(c.measure_exponent for c in instance.Y[i].factors))
        for i in instance.indices
    ).union
    sum_Y = sum(
        (crystal_measure(instance.Y[i]) for i in instance.indices),
        DyadicRational(0, 0),
    )
    rho = union_Y.as_fraction() / sum_Y.as_fraction()
    return DisjointnessResult(min_delta, union_Y, sum_Y, rho, min_delta > 0)


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
    2^-(m-1) (2^-m reported too); the report derives the ratio.
    inclusion_ok is the sufficient condition that each Y(i) lies in the
    superlevel set of its R(i)'s term: True implies ∪Y(i) ⊂ {F >= thr},
    and a cell of Y(i) that only other terms cover reads False."""
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

    # a generator fits the grid iff every a_k >= u_0 and the offsets
    # a_k - u_0 sum to at most (m-1)d: that bound gives a_k <= u_(m-1)
    # and -sum(a) >= -h_(m-1), and -sum(a) <= -h_0 always holds; the
    # walk's order over sorted offsets is the sorted product order
    offsets = [a - u[0] for a in A if a >= u[0]]
    fitting = bounded_tuples(offsets, n - 1, (m - 1) * u.step)
    used = [Shape(a + (-sum(a),)) for a in (tuple(u[0] + o for o in t) for t in fitting)]
    skipped = len(A) ** (n - 1) - len(used)
    fld = maximal_field(mask_E, used)
    thr = DyadicRational.pow2(-(m - 1))
    thr_alt = DyadicRational.pow2(-m)
    S, S_alt = superlevel_measure(fld, thr, thr_alt)
    # the terms are the shapes' own fields, in order; each Y(i) is read
    # against its R(i)'s term factor by factor
    terms = dict(zip(used, fld.terms, strict=True))
    c = _count_threshold(fld.denom_exp, thr)
    inclusion_ok = all(
        inst.R[i] in terms
        and _first_below(terms[inst.R[i]], rasterize(inst.Y[i], inst.grid), c) is None
        for i in inst.indices
    )
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
    product of the maxima: a field of one term on the n-D grid.  Only the
    2^m-cell axis is materialized; the budget still counts the n-D grid."""
    t0 = time.perf_counter()
    n, m = index(n), index(m)
    if n < 1 or m < 1:
        raise ParameterError("need n >= 1 and m >= 1")
    check_budget(n * m, budget)  # the n-D grid's 2^(nm) cells
    unit = product_crystal(ScaleSet((0,)))
    mask = rasterize(unit, GridSpec((0,), (m,), budget))
    fld = maximal_field(mask, [Shape((a,)) for a in range(m + 1)])
    grid = GridSpec((0,) * n, (m,) * n, budget)
    thr = DyadicRational.pow2(-m)
    field = AverageField(grid, (fld.num[None],) * n, np.zeros((1, n), np.intp), n * fld.denom_exp)
    (S,) = superlevel_measure(field, thr)
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
