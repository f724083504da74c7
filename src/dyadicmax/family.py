"""The translation-invariant rectangle family B_(A^(n-1)) and progressions.

For a set A of integer scales the family is generated by the unit-volume
shapes (a_1, ..., a_(n-1), -(a_1 + ... + a_(n-1))) with every a_j in A,
normalized along the last axis.  The family is invariant under
translation only.

A run measures only the generators that fit its grid, and those are the
tuples of offsets a_j - u_0 >= 0 with a bounded sum, as are the run's
indices; `bounded_tuples` walks such tuples directly, so neither
A^(n-1) nor [0, m)^(n-1) is ever enumerated.
"""

from __future__ import annotations

from bisect import bisect_right

import numpy as np

from .crystal import Shape
from .errors import ParameterError


def bounded_tuples(values, k: int, bound: int) -> list[tuple[int, ...]]:
    """The k-tuples over a sorted sequence of values >= 0 whose sum is at
    most bound, in lexicographic order.

    The walk extends each kept prefix by the values that keep its sum
    within bound (a prefix of the sorted values), one position at a
    time, without recursion.  When 0 is among the values every prefix is
    a kept tuple padded with zeros, so no intermediate list is longer
    than the result."""
    walk = [()]
    for _ in range(k):
        walk = [t + (v,) for t in walk for v in values[: bisect_right(values, bound - sum(t))]]
    return walk


def is_member(shape: Shape, n: int, A) -> bool:
    """Whether shape is a generator of B_(A^(n-1)): a zero-sum shape whose
    first n-1 exponents lie in the set A, an O(n) test."""
    if len(shape) != n:
        raise ParameterError(f"shape has {len(shape)} axes, family has {n}")
    g = shape.exponents
    return sum(g) == 0 and all(a in A for a in g[:-1])


def find_progression(A, m: int) -> range | None:
    """Smallest-step, then smallest-start, length-m progression in A, if
    any, as range(u_0, u_0 + m d, d).

    Per start, every candidate step is tested at once: each term
    u_0 + i d is looked up by binary search in the sorted members.  A
    step is cut to (max(A) - u_0) / (m - 1) before it is multiplied, so
    steps and terms stay within 2 max|A|: the members are int64 when
    that fits and Python ints in an object array otherwise."""
    if m < 2:
        raise ParameterError("progression length must be at least 2")
    elems = sorted(set(A))
    if len(elems) < m:
        return None
    top, best = elems[-1], None
    wide = 2 * max(-elems[0], top) > np.iinfo(np.int64).max
    members = np.array(elems, dtype=object if wide else np.int64)
    gap = min(b - a for a, b in zip(elems, elems[1:]))  # no step is smaller
    # only differences of members can be steps; per start they ascend, so
    # a start's steps stop below the best one found and where the last
    # term would pass max(A), and the starts stop once even the smallest
    # step would pass it
    for k, u0 in enumerate(elems):
        if (best is not None and best.step == gap) or u0 + (m - 1) * gap > top:
            break
        limit = (top - u0) // (m - 1)
        if best is not None:
            limit = min(limit, best.step - 1)
        steps = members[k + 1 : bisect_right(elems, u0 + limit)] - u0
        for i in range(2, m):
            terms = u0 + i * steps
            steps = steps[members[np.searchsorted(members, terms)] == terms]
        if steps.size:
            d = int(steps[0])
            best = range(u0, u0 + m * d, d)
    return best
