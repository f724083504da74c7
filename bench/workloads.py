"""Seeded benchmark workloads and their exact-answer gate.

Every theorem instance uses a generating set ``A = range(k, k + M)``
whose offset ``k`` comes from the seed.  Shifting A shifts every scale
by the same amount, so each payload field except ``description`` equals
the ``k = 0`` payload: the seed gives an input the program has not seen,
and its exact answer is still known.  The reference payloads are the
``k = 0`` answers of the seed commit (``bench/reference/``), or the frozen
goldens under ``tests/golden/``, which are only read.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
REFERENCE_DIR = BENCH_DIR / "reference"
GOLDEN_DIR = ROOT / "tests" / "golden"

OFFSET_RANGE = (-40, 40)

# Payload keys that legitimately differ from the reference: wall-clock
# time, and the description, which names the shifted progression and is
# checked against expected_description() instead.
UNCHECKED_KEYS = ("runtime_ms", "description")


@dataclass(frozen=True)
class Instance:
    """One public-API call: verify_theorem(n, A, m) or cube_counterexample(n, m)."""

    kind: str  # "theorem" or "cube"
    n: int
    m: int
    A: tuple[int, ...] = ()

    @property
    def label(self) -> str:
        if self.kind == "cube":
            return f"cube n={self.n} m={self.m}"
        return f"theorem n={self.n} m={self.m} A=[{self.A[0]}..{self.A[-1]}]"

    def run(self, api):
        """Call the public API through the package namespace ``api``."""
        if self.kind == "cube":
            return api.cube_counterexample(self.n, self.m)
        return api.verify_theorem(self.n, set(self.A), self.m)

    def expected_description(self, reference: dict) -> str:
        """A theorem description names A and its length-m progression,
        which for a run of consecutive integers starts at min(A) with
        step 1.  A cube has no free parameter, so its description is the
        reference's."""
        if self.kind == "cube":
            return reference["description"]
        prog = self.A[: self.m]
        return f"n={self.n}, A={list(self.A)}, progression={prog} step 1"


def _theorem(n: int, k: int, size: int, m: int) -> Instance:
    return Instance("theorem", n, m, tuple(range(k, k + size)))


def _theorem_n2(k):
    return [_theorem(2, k, 12, 12)]


def _theorem_hidim(k):
    return [_theorem(3, k, 7, 7), _theorem(4, k, 5, 5)]


def _cube_n2(k):
    return [Instance("cube", 2, 10)]


def _sweep_golden(k):
    return (
        [_theorem(2, k, 10, m) for m in range(2, 11)]
        + [_theorem(3, k, 6, m) for m in range(2, 7)]
        + [Instance("cube", 2, m) for m in range(1, 9)]
    )


def _smoke(k):
    return [_theorem(2, k, 4, 4)]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    build: Callable[[int], list[Instance]]  # offset k -> instances
    reference_files: tuple[Path, ...]
    seeded: bool = True


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "theorem_n2",
            "large 2D dense case: 2^22 cells, 12 homogeneity calls and one family pass "
            "dominate; prefix sums rebuilt per call; union measure bypassed",
            _theorem_n2,
            (REFERENCE_DIR / "theorem_n2.json",),
        ),
        Workload(
            "theorem_hidim",
            "n=3 and n=4: 8 and 16 prefix-sum corners, 28 and 35 indices, compressed-grid "
            "union path; makes costs that depend on the dimension visible",
            _theorem_hidim,
            (REFERENCE_DIR / "theorem_hidim.json",),
        ),
        Workload(
            "cube_n2",
            "121 shapes on one 2^20-cell mask: the family-pass kernel alone; bypasses every "
            "reuse-across-indices change (no homogeneity, no Y(i), no union)",
            _cube_n2,
            (REFERENCE_DIR / "cube_n2.json",),
            seeded=False,
        ),
        Workload(
            "sweep_golden",
            "the 22 frozen golden sweep instances: small grids where per-call overhead and "
            "the inclusion-exclusion union measure show",
            _sweep_golden,
            tuple(GOLDEN_DIR / f for f in ("sweep_n2.json", "sweep_n3.json", "cube_n2.json")),
        ),
        Workload(
            "smoke",
            "tiny n=2 m=4 configuration for the benchmark's self-tests",
            _smoke,
            (REFERENCE_DIR / "smoke.json",),
        ),
    )
}


def offset(workload: Workload, seed: int) -> int | None:
    """The generating-set offset k picked by the seed; None for a
    workload with no free parameter."""
    if not workload.seeded:
        return None
    return random.Random(f"{workload.name}:{seed}").randint(*OFFSET_RANGE)


def instances(workload: Workload, seed: int) -> list[Instance]:
    k = offset(workload, seed)
    return workload.build(0 if k is None else k)


def load_references(workload: Workload) -> list[dict]:
    refs = []
    for path in workload.reference_files:
        refs.extend(json.loads(path.read_text()))
    return refs


def check_payload(payload: dict, reference: dict, description: str) -> list[str]:
    """Mismatches of one report payload against its reference, on the
    reference's keys; an empty list means the exact answer is right."""
    errors = [
        f"{key}: got {payload.get(key, '<missing>')!r}, want {want!r}"
        for key, want in reference.items()
        if key not in UNCHECKED_KEYS and payload.get(key, object()) != want
    ]
    if payload.get("description") != description:
        errors.append(f"description: got {payload.get('description')!r}, want {description!r}")
    if payload.get("passed") is not True:
        errors.append("passed is not True")
    return errors


def gate(insts: list[Instance], outcomes: list, references: list[dict]) -> list[list[str]]:
    """Per-instance failure reasons.  An outcome is a payload dict, or a
    string naming the exception the call raised."""
    if len(references) != len(insts):
        raise ValueError(f"{len(references)} references for {len(insts)} instances")
    reasons = []
    for inst, out, ref in zip(insts, outcomes, references):
        if isinstance(out, str):
            reasons.append([f"raised {out}"])
        else:
            reasons.append(check_payload(out, ref, inst.expected_description(ref)))
    return reasons
