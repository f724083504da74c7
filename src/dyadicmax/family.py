"""Translation-invariant rectangle families described by their shapes.

A family is generated by axis scale sets A_1, ..., A_(n-1): for each
choice a in the Cartesian product it contains the unit-volume shape
(a_1, ..., a_(n-1), -(a_1 + ... + a_(n-1))), normalized along the last
axis.  The family is invariant under translation only.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from .crystal import Shape
from .errors import ParameterError


@dataclass(frozen=True)
class FamilySpec:
    dimension: int
    axis_sets: tuple[frozenset[int], ...]

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

    @classmethod
    def power(cls, dimension: int, axis_set) -> "FamilySpec":
        """The family generated by A^(n-1) for a single set A."""
        return cls(dimension, (frozenset(axis_set),) * (dimension - 1))


def generate_shapes(spec: FamilySpec) -> set[Shape]:
    """All generator shapes; the last exponent balances the sum to zero."""
    out = set()
    for a in product(*(sorted(s) for s in spec.axis_sets)):
        out.add(Shape(a + (-sum(a),)))
    return out


def is_member(shape: Shape, spec: FamilySpec) -> bool:
    """Whether shape is a generator of the family: a zero-sum shape whose
    first n-1 exponents lie in their axis sets, an O(n) test."""
    if len(shape) != spec.dimension:
        raise ParameterError(
            f"shape has {len(shape)} axes, family has {spec.dimension}"
        )
    g = shape.exponents
    return sum(g) == 0 and all(a in A for a, A in zip(g, spec.axis_sets))


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
