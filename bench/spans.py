"""In-memory span tracing of the dyadicmax layers, from outside src/.

``install`` replaces every public function of the traced layer modules
with a wrapper that records a span (name, start, end, parent span,
instance id).  The wrapper is bound in every loaded ``dyadicmax`` module
that imported the function, e.g. both ``dyadicmax.verify.maximal_field``
and ``dyadicmax.evaluator.maximal_field``, so calls between layers and
within a layer are both seen.  ``dyadic`` is called as methods on value
types and gets no span; its cost shows in its callers' self time.

Work counters (cells, shapes, placements, boxes, distinct masks and
crystals) are computed from each call's arguments before the call
starts.  That work is recorded as its own ``trace.counters`` span, so it
lands in the tracing overhead and not in any layer's time.
"""

from __future__ import annotations

import hashlib
import inspect
import math
import sys
import time
from contextlib import contextmanager

LAYERS = ("verify", "evaluator", "crystal", "family")
ROOT = "instance"
COUNTERS = "trace.counters"

# span fields
NAME, START, END, PARENT, INSTANCE, COUNTS = range(6)


def _shapes_list(bound):
    shapes = list(bound.arguments["shapes"])
    bound.arguments["shapes"] = shapes  # an iterator would be consumed
    return shapes


def _count_maximal_field(bound):
    grid = bound.arguments["mask"].grid
    shapes = _shapes_list(bound)
    placements = 0
    for s in shapes:
        windows = (1 << (a - r) for a, r in zip(s.exponents, grid.resolution))
        placements += math.prod(N + w - 1 for N, w in zip(grid.shape, windows))
    return {"shapes": len(shapes), "placements": placements}


def _count_prefix_sums(bound):
    values = bound.arguments["mask"].values
    digest = hashlib.blake2b(values.tobytes(), digest_size=16).hexdigest()
    return {"key": f"{values.shape}:{digest}"}


def _count_rasterize(bound):
    E = bound.arguments["E"]
    return {
        "cells": bound.arguments["grid"].ncells,
        "key": repr(tuple(c.scales.scales for c in E.factors)),
    }


def _count_build_crystal(bound):
    return {"key": repr(bound.arguments["A"].scales)}


def _count_union(bound):
    return {"boxes": len(_shapes_list(bound))}


COUNTER_HOOKS = {
    "evaluator.maximal_field": _count_maximal_field,
    "evaluator.prefix_sums": _count_prefix_sums,
    "evaluator.rasterize": _count_rasterize,
    "evaluator.union_measure": _count_union,
    "crystal.build_crystal": _count_build_crystal,
}


class Recorder:
    """Spans of one process, kept in memory until the run ends."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._instance: int | None = None
        self._restore: list[tuple] = []

    def _open(self, name):
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter_ns(), None, parent, self._instance, None])
        self._stack.append(len(self.spans) - 1)
        return self.spans[-1]

    def _close(self, span):
        span[END] = time.perf_counter_ns()
        self._stack.pop()

    @contextmanager
    def instance(self, instance_id: int):
        """Root span of one workload instance; spans are recorded only
        inside one."""
        self._instance = instance_id
        span = self._open(ROOT)
        try:
            yield
        finally:
            self._close(span)
            self._instance = None

    def _wrap(self, name, fn):
        hook = COUNTER_HOOKS.get(name)
        sig = inspect.signature(fn)

        def traced(*args, **kwargs):
            if self._instance is None:
                return fn(*args, **kwargs)
            counts = None
            if hook is not None:
                span = self._open(COUNTERS)
                try:
                    bound = sig.bind(*args, **kwargs)
                    counts = hook(bound)
                    args, kwargs = bound.args, bound.kwargs
                finally:
                    self._close(span)
            span = self._open(name)
            span[COUNTS] = counts
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(span)

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Wrap every public function of the traced layers, in every
        loaded dyadicmax module that holds a reference to it."""
        modules = [
            mod
            for key, mod in list(sys.modules.items())
            if key == "dyadicmax" or key.startswith("dyadicmax.")
        ]
        for layer in LAYERS:
            owner = sys.modules[f"dyadicmax.{layer}"]
            for attr, fn in vars(owner).copy().items():
                if attr.startswith("_") or not inspect.isfunction(fn):
                    continue
                if fn.__module__ != owner.__name__:
                    continue
                traced = self._wrap(f"{layer}.{attr}", fn)
                for mod in modules:
                    if getattr(mod, attr, None) is fn:
                        setattr(mod, attr, traced)
                        self._restore.append((mod, attr, fn))

    def uninstall(self) -> None:
        for mod, attr, fn in reversed(self._restore):
            setattr(mod, attr, fn)
        self._restore.clear()


def durations(spans) -> list[int]:
    return [s[END] - s[START] for s in spans]


def self_times(spans) -> list[int]:
    """Each span's duration minus the part of its interval that its
    child spans cover (children clipped to the parent and merged)."""
    children: dict[int, list[int]] = {}
    for i, s in enumerate(spans):
        if s[PARENT] is not None:
            children.setdefault(s[PARENT], []).append(i)
    out = []
    for i, s in enumerate(spans):
        covered, cur_lo, cur_hi = 0, None, None
        for lo, hi in sorted(
            (max(spans[c][START], s[START]), min(spans[c][END], s[END]))
            for c in children.get(i, ())
        ):
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append(s[END] - s[START] - covered)
    return out


def instance_self_sums(spans) -> dict[int, tuple[int, int]]:
    """Per instance: (sum of all its spans' self times, root duration).
    The two agree when every span nests inside its root."""
    selfs = self_times(spans)
    out: dict[int, list[int]] = {}
    for s, st in zip(spans, selfs):
        acc = out.setdefault(s[INSTANCE], [0, 0])
        acc[0] += st
        if s[NAME] == ROOT:
            acc[1] += s[END] - s[START]
    return {k: (v[0], v[1]) for k, v in out.items()}


def layer_metrics(spans) -> dict[str, float]:
    """Per-layer times (s), call and work counts, and waste ratios."""
    dur = durations(spans)
    selfs = self_times(spans)
    names = [s[NAME] for s in spans]

    def outermost_s(targets) -> float:
        """Total time in the named spans, not counting one nested in another."""
        total = 0
        for i, s in enumerate(spans):
            if s[NAME] not in targets:
                continue
            p = s[PARENT]
            while p is not None and spans[p][NAME] not in targets:
                p = spans[p][PARENT]
            if p is None:
                total += dur[i]
        return total * 1e-9

    def calls(name) -> int:
        return names.count(name)

    def counted(name, key) -> int:
        return sum(s[COUNTS][key] for s in spans if s[NAME] == name)

    def per_distinct(name) -> float:
        keys = {(s[INSTANCE], s[COUNTS]["key"]) for s in spans if s[NAME] == name}
        return calls(name) / len(keys) if keys else 0.0

    def layer(prefix):
        return {n for n in names if n.startswith(prefix + ".")}

    top = {"verify.verify_theorem", "verify.cube_counterexample"}
    mf = "evaluator.maximal_field"
    mf_s = outermost_s({mf})
    placements = counted(mf, "placements")
    return {
        "verify.homogeneity_s": outermost_s({"verify.check_homogeneity"}),
        "verify.homogeneity_calls": calls("verify.check_homogeneity"),
        "verify.family_pass_s": 1e-9 * sum(
            d for s, d in zip(spans, dur)
            if s[NAME] == mf and s[PARENT] is not None and spans[s[PARENT]][NAME] in top
        ),
        "verify.disjointness_s": outermost_s({"verify.check_disjointness"}),
        "verify.union_Y_s": outermost_s({"verify.union_Y_mask"}),
        "verify.build_instance_s": outermost_s({"verify.build_instance"}),
        "verify.self_s": 1e-9 * sum(
            st for n, st in zip(names, selfs) if n.startswith("verify.")
        ),
        "evaluator.maximal_field_s": mf_s,
        "evaluator.maximal_field_self_s": 1e-9 * sum(
            st for n, st in zip(names, selfs) if n == mf
        ),
        "evaluator.maximal_field_calls": calls(mf),
        "evaluator.maximal_field_shapes": counted(mf, "shapes"),
        "evaluator.maximal_field_placements": placements,
        "evaluator.placements_per_s": placements / mf_s if mf_s else 0.0,
        "evaluator.prefix_sums_s": outermost_s({"evaluator.prefix_sums"}),
        "evaluator.prefix_sums_calls": calls("evaluator.prefix_sums"),
        "evaluator.prefix_sums_per_mask": per_distinct("evaluator.prefix_sums"),
        "evaluator.rasterize_s": outermost_s({"evaluator.rasterize"}),
        "evaluator.rasterize_calls": calls("evaluator.rasterize"),
        "evaluator.rasterize_cells": counted("evaluator.rasterize", "cells"),
        "evaluator.rasterize_per_crystal": per_distinct("evaluator.rasterize"),
        "evaluator.superlevel_s": outermost_s(
            {"evaluator.superlevel_mask", "evaluator.superlevel_measure"}
        ),
        "evaluator.union_s": outermost_s(
            {"evaluator.anchored_union_measure", "evaluator.union_measure"}
        ),
        "evaluator.union_calls": calls("evaluator.union_measure"),
        "evaluator.union_boxes": counted("evaluator.union_measure", "boxes"),
        "crystal.build_crystal_s": outermost_s({"crystal.build_crystal"}),
        "crystal.build_crystal_calls": calls("crystal.build_crystal"),
        "crystal.build_crystal_per_scaleset": per_distinct("crystal.build_crystal"),
        "family.s": outermost_s(layer("family")),
        "family.generate_shapes_calls": calls("family.generate_shapes"),
        "trace.counters_s": outermost_s({COUNTERS}),
    }
