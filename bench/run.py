"""Benchmark of the dyadicmax certification pipeline.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Each sample is one fresh, single-threaded
process (bench/worker.py) that imports dyadicmax from src/ and runs the
workload's instances once, cold, as a `dyadicmax verify` call would.
Samples run one after another, never in parallel, until the next one
would overrun S seconds; metrics are medians over the samples.

--trace 0 reports the end-to-end metrics: set-up time (process start
until dyadicmax with numpy and scipy is imported and the inputs are
generated; sampled by extra set-up-only processes as well), wall time of
the timed section, and peak resident memory.  --trace 1 alternates
untraced and traced samples and reports the per-layer metrics of
bench/spans.py, plus the tracing overhead (traced over untraced wall).

Every exact answer is checked (bench/workloads.py); the last line of
standard output is {"correct", "attempted", "failed", "metrics"}, where
attempted and failed count instances and failed/attempted is the failed
share.  The full run record, including spans, goes to
.bench_out/<workload>-seed<N>-trace<T>.json.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata

import workloads
from workloads import ROOT, WORKLOADS

WORKER = workloads.BENCH_DIR / "worker.py"
SRC = ROOT / "src" / "dyadicmax"
OUT_DIR = ROOT / ".bench_out"

SETUP_PROBES = 4
RUN_LIMIT_S = 170.0  # a run must end within 180 s, whatever --seconds says
CHILD_ENV = {
    **os.environ,
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}

END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "verify.homogeneity_s": "s",
    "verify.homogeneity_calls": "count",
    "verify.family_pass_s": "s",
    "verify.disjointness_s": "s",
    "verify.union_Y_s": "s",
    "verify.build_instance_s": "s",
    "verify.self_s": "s",
    "evaluator.maximal_field_s": "s",
    "evaluator.maximal_field_self_s": "s",
    "evaluator.maximal_field_calls": "count",
    "evaluator.maximal_field_shapes": "count",
    "evaluator.maximal_field_placements": "count",
    "evaluator.placements_per_s": "1/s",
    "evaluator.prefix_sums_s": "s",
    "evaluator.prefix_sums_calls": "count",
    "evaluator.prefix_sums_per_mask": "ratio",
    "evaluator.rasterize_s": "s",
    "evaluator.rasterize_calls": "count",
    "evaluator.rasterize_cells": "count",
    "evaluator.rasterize_per_crystal": "ratio",
    "evaluator.superlevel_s": "s",
    "evaluator.union_s": "s",
    "evaluator.union_calls": "count",
    "evaluator.union_boxes": "count",
    "crystal.build_crystal_s": "s",
    "crystal.build_crystal_calls": "count",
    "crystal.build_crystal_per_scaleset": "ratio",
    "family.s": "s",
    "family.generate_shapes_calls": "count",
    "trace.counters_s": "s",
    "trace.wall_s": "s",
    "trace.overhead": "ratio",
}


class ChildFailed(RuntimeError):
    pass


def run_child(workload: str, seed: int, trace: int, deadline: float, setup_only=False) -> dict:
    """Start one worker process, wait for it, and return its result with
    setup_s (spawn until ready) and elapsed_s (spawn until exit) added."""
    cmd = [sys.executable, str(WORKER), "--workload", workload, "--seed", str(seed),
           "--trace", str(trace)] + (["--setup-only"] if setup_only else [])
    spawned = time.monotonic()
    try:
        proc = subprocess.run(
            cmd, capture_output=True, text=True, cwd=ROOT, env=CHILD_ENV,
            timeout=max(1.0, deadline - spawned),
        )
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped it
        raise ChildFailed(f"worker timed out after {exc.timeout:.0f} s") from exc
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildFailed(f"worker exited {proc.returncode}: {proc.stderr[-2000:]}")
    out = json.loads(lines[-1])
    out["setup_s"] = out.pop("ready") - spawned
    out["elapsed_s"] = time.monotonic() - spawned
    return out


def sample_failures(sample: dict) -> list[list[str]]:
    """Gate failures, plus a traced instance whose span self times do not
    add up to its root span's duration."""
    reasons = [list(r) for r in sample["failures"]]
    for idx, (self_sum, wall) in sample.get("self_sums", ()):
        if self_sum != wall:
            reasons[idx].append(f"span self times sum to {self_sum} ns, root {wall} ns")
    return reasons


def run_info() -> dict:
    files = sorted(SRC.glob("*.py"))
    digest = hashlib.sha256(b"".join(f.read_bytes() for f in files)).hexdigest()
    commit = None
    if (ROOT / ".git").exists():  # a benchmark checkout need not be a repository
        try:
            git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=10)
            commit = git.stdout.strip() if git.returncode == 0 else None
        except (OSError, subprocess.TimeoutExpired):
            pass
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "commit": commit,
        "src_sha256": digest,
        "src_lines": sum(len(f.read_text().splitlines()) for f in files),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "nproc": os.cpu_count(),
        "cpu": cpu,
    }


def measure(args) -> tuple[dict, list[dict], list[float]]:
    """Take samples until the next would overrun --seconds; returns
    metrics, the samples, and the set-up times."""
    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    samples, setups = [], []

    def child(trace, setup_only=False):
        out = run_child(args.workload, args.seed, trace, deadline, setup_only)
        out["trace"] = trace
        setups.append(out["setup_s"])
        if not setup_only:
            samples.append(out)
        return out

    if not args.trace:
        for _ in range(SETUP_PROBES):
            child(0, setup_only=True)
    rounds = []
    while True:
        r0 = time.monotonic()
        child(0)
        if args.trace:
            child(1)
        rounds.append(time.monotonic() - r0)
        if time.monotonic() - start + statistics.median(rounds) > args.seconds:
            break

    untraced = [s for s in samples if s["trace"] == 0]
    wall = statistics.median(s["wall_s"] for s in untraced)
    if not args.trace:
        return {
            "setup_s": statistics.median(setups),
            "wall_s": wall,
            "peak_rss_mb": statistics.median(s["peak_rss_mb"] for s in untraced),
        }, samples, setups
    traced = [s for s in samples if s["trace"] == 1]
    metrics = {k: statistics.median(s["metrics"][k] for s in traced) for k in traced[0]["metrics"]}
    metrics["trace.wall_s"] = statistics.median(s["wall_s"] for s in traced)
    metrics["trace.overhead"] = metrics["trace.wall_s"] / wall
    return metrics, samples, setups


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    workload = WORKLOADS[args.workload]
    missing = [p for p in (SRC / "__init__.py", *workload.reference_files) if not p.is_file()]
    if missing:
        print(f"missing {', '.join(map(str, missing))}: run from a dyadicmax checkout",
              file=sys.stderr)
        return 2

    n_instances = len(workloads.instances(workload, args.seed))
    record = {
        "workload": workload.name,
        "why": workload.why,
        "seed": args.seed,
        "offset_k": workloads.offset(workload, args.seed),
        "seeded": workload.seeded,
        "seconds": args.seconds,
        "trace": args.trace,
        "info": run_info(),
    }
    try:
        metrics, samples, setups = measure(args)
    except ChildFailed as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        record.update(error=str(exc))
        metrics, samples, setups = {}, [], []

    reasons = [sample_failures(s) for s in samples]
    attempted = sum(len(r) for r in reasons) or n_instances
    failed = sum(1 for r in reasons for inst in r if inst) if samples else n_instances
    for r in reasons:
        for label, why in zip(samples[0]["instances"], r):
            if why:
                print(f"FAILED {label}: {'; '.join(why)}", file=sys.stderr)
    units = PER_LAYER if args.trace else END_TO_END
    correct = failed == 0 and set(metrics) == set(units)

    record.update(
        attempted=attempted,
        failed=failed,
        failed_frac=failed / attempted,
        setup_samples_s=setups,
        samples=[{k: v for k, v in s.items() if k != "spans"} | {"failures": r}
                 for s, r in zip(samples, reasons)],
        spans=[s["spans"] for s in samples if "spans" in s],
        metrics=metrics,
    )
    OUT_DIR.mkdir(exist_ok=True)
    out_path = OUT_DIR / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(record) + "\n")
    print(f"record: {out_path}", file=sys.stderr)

    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items() if k in metrics},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
