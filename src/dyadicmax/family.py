"""Translation-invariant rectangle families described by their shapes.

A family is generated by axis scale sets A_1, ..., A_(n-1): for each
choice a in the Cartesian product it contains the unit-volume shape
(a_1, ..., a_(n-1), -(a_1 + ... + a_(n-1))), normalized along the last
axis.  Optionally the family is closed under dyadic central dilations,
which shift every exponent by the same integer.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import product

from .crystal import Shape
from .errors import ParameterError


@dataclass(frozen=True)
class FamilySpec:
    dimension: int
    axis_sets: tuple[frozenset[int], ...]
    dilation_closed: bool = False

    def __post_init__(self):
        object.__setattr__(
            self, "axis_sets", tuple(frozenset(s) for s in self.axis_sets)
        )
        if self.dimension < 2:
            raise ParameterError("dimension must be at least 2")
        if len(self.axis_sets) != self.dimension - 1:
            raise ParameterError(
                f"need {self.dimension - 1} axis sets, got {len(self.axis_sets)}"
            )
        if any(not s for s in self.axis_sets):
            raise ParameterError("axis sets must be non-empty")

    def to_json(self) -> str:
        return json.dumps(
            {
                "n": self.dimension,
                "axis_sets": [sorted(s) for s in self.axis_sets],
                "dilation_closed": self.dilation_closed,
            }
        )

    @classmethod
    def from_json(cls, text: str) -> "FamilySpec":
        d = json.loads(text)
        return cls(d["n"], tuple(frozenset(s) for s in d["axis_sets"]),
                   bool(d.get("dilation_closed", False)))

    @classmethod
    def power(cls, dimension: int, axis_set, dilation_closed: bool = False
              ) -> "FamilySpec":
        """The family generated by A^(n-1) for a single set A."""
        return cls(dimension, (frozenset(axis_set),) * (dimension - 1),
                   dilation_closed)


def generate_shapes(spec: FamilySpec) -> set[Shape]:
    """All generator shapes; the last exponent balances the sum to zero."""
    out = set()
    for a in product(*(sorted(s) for s in spec.axis_sets)):
        out.add(Shape(a + (-sum(a),)))
    return out


@dataclass(frozen=True)
class Membership:
    member: bool
    dilation_exponent: int | None = None

    def __bool__(self) -> bool:
        return self.member


def is_member(shape: Shape, spec: FamilySpec) -> Membership:
    """Shape membership; with dilation closure the witness exponent t is
    the dyadic dilation 2^t mapping a generator onto the query.  A
    generator is a zero-sum shape whose first n-1 exponents lie in their
    axis sets, so this is a direct O(n) test."""
    if len(shape) != spec.dimension:
        raise ParameterError(
            f"shape has {len(shape)} axes, family has {spec.dimension}"
        )
    # generators have zero exponent sum, so the shift is forced
    t = shape.volume_exponent // spec.dimension if spec.dilation_closed else 0
    g = shape.dilate(-t).exponents
    if sum(g) == 0 and all(a in A for a, A in zip(g, spec.axis_sets)):
        return Membership(True, t if spec.dilation_closed else None)
    return Membership(False)


@dataclass(frozen=True)
class Progression:
    """Arithmetic progression u_0 < u_1 < ... with positive integer step."""

    values: tuple[int, ...]
    step: int

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(self.values))
        if self.step <= 0:
            raise ParameterError("step must be positive")
        u0 = self.values[0]
        if any(u != u0 + k * self.step for k, u in enumerate(self.values)):
            raise ParameterError(f"not arithmetic with step {self.step}: {self.values}")

    def __len__(self) -> int:
        return len(self.values)


def find_progression(A, m: int) -> Progression | None:
    """Smallest-step, then smallest-start, length-m progression in A, if any."""
    if m < 2:
        raise ParameterError("progression length must be at least 2")
    elems = sorted(set(A))
    if len(elems) < m:
        return None
    members = set(elems)
    span = elems[-1] - elems[0]
    for d in range(1, span // (m - 1) + 1):
        for u0 in elems:
            if all(u0 + k * d in members for k in range(1, m)):
                return Progression(tuple(u0 + k * d for k in range(m)), d)
    return None


def zero_sum_shapes(n: int, bound: int) -> set[Shape]:
    """Unit-volume shapes with the first n-1 exponents in [-bound, bound]."""
    if bound < 0:
        raise ParameterError("bound must be nonnegative")
    rng = range(-bound, bound + 1)
    return {Shape(a + (-sum(a),)) for a in product(rng, repeat=n - 1)}
