#!/usr/bin/env python3
"""A/B timing of two dyadicmax checkouts on one benchmark workload.

    python3 scripts/ab_bench.py --base DIR --change DIR --workload W --seed S --pairs N

Runs N pairs of fresh `bench/worker.py --trace 0` processes, one from
each checkout, the two in alternating order from pair to pair so that a
drift in machine load falls on both sides alike.  Each worker imports
dyadicmax from its own checkout's src/ and checks every exact answer
against that checkout's references.  Any gate failure, or a worker that
does not exit cleanly, ends the run with exit status 1.

For each end-to-end metric (setup_s, wall_s, peak_rss_mb; lower is
better) it prints the median and interquartile range of each side, the
ratio of the medians (change over base), in how many pairs the change
was strictly lower, and three verdicts.  The metric's `bound` in
BENCHMARK.json is read as a fraction of the base median b:
  gain        the change is lower in at least nine tenths of the pairs,
              and its median is below b by more than the base's
              interquartile range;
  worse       the change's median is above b by more than bound * b;
  unresolved  the base's interquartile range is wider than bound * b,
              so the runs spread too widely to tell, unless every change
              run is below every base run.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

METRICS = ("setup_s", "wall_s", "peak_rss_mb")
BENCHMARK = Path(__file__).resolve().parents[1] / "BENCHMARK.json"
BOUNDS = {m["name"]: m["bound"] for m in json.loads(BENCHMARK.read_text())["end_to_end"]}
CHILD_ENV = {
    **os.environ,
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


class WorkerFailed(RuntimeError):
    pass


def run_worker(checkout: Path, workload: str, seed: int) -> dict:
    """One cold worker run from the checkout: its end-to-end metrics."""
    cmd = [sys.executable, str(checkout / "bench" / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--trace", "0"]
    spawned = time.monotonic()
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=checkout, env=CHILD_ENV,
                          timeout=600)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerFailed(f"{checkout}: worker exited {proc.returncode}: {proc.stderr[-2000:]}")
    out = json.loads(lines[-1])
    failures = [(label, why) for label, why in zip(out["instances"], out["failures"]) if why]
    if failures:
        raise WorkerFailed(f"{checkout}: gate failures: {failures}")
    return {"setup_s": out["ready"] - spawned, "wall_s": out["wall_s"],
            "peak_rss_mb": out["peak_rss_mb"]}


def quartiles(xs: list[float]) -> tuple[float, float]:
    q1, _, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q3


def summary(base: list[dict], change: list[dict]) -> list[str]:
    lines = [f"{'metric':<12} {'base median':>12} {'base IQR':>21} {'change median':>14} "
             f"{'change IQR':>21} {'ratio':>7} {'wins':>7} {'gain':>5} {'worse':>6} "
             f"{'unresolved':>11}"]
    for k in METRICS:
        b, c = [s[k] for s in base], [s[k] for s in change]
        (b1, b3), (c1, c3) = quartiles(b), quartiles(c)
        mb, mc = statistics.median(b), statistics.median(c)
        wins = sum(y < x for x, y in zip(b, c))
        gain = 10 * wins >= 9 * len(b) and mb - mc > b3 - b1
        worse = mc - mb > BOUNDS[k] * mb
        unresolved = b3 - b1 > BOUNDS[k] * mb and not max(c) < min(b)
        yes = ["yes" if v else "no" for v in (gain, worse, unresolved)]
        lines.append(
            f"{k:<12} {mb:>12.6g} {f'{b1:.6g}-{b3:.6g}':>21} {mc:>14.6g} "
            f"{f'{c1:.6g}-{c3:.6g}':>21} {mc / mb if mb else float('nan'):>7.3f} "
            f"{f'{wins}/{len(b)}':>7} {yes[0]:>5} {yes[1]:>6} {yes[2]:>11}"
        )
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--base", type=Path, required=True, help="checkout of the parent")
    ap.add_argument("--change", type=Path, required=True, help="checkout of the change")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--pairs", type=int, required=True)
    args = ap.parse_args(argv)
    if args.pairs < 2:
        ap.error("--pairs must be at least 2 to give quartiles")
    sides = {"base": args.base.resolve(), "change": args.change.resolve()}
    for side, path in sides.items():
        if not (path / "bench" / "worker.py").is_file():
            ap.error(f"--{side} {path}: no bench/worker.py")

    runs = {"base": [], "change": []}
    try:
        for pair in range(args.pairs):
            order = ("base", "change") if pair % 2 == 0 else ("change", "base")
            for side in order:
                runs[side].append(run_worker(sides[side], args.workload, args.seed))
            print(f"pair {pair + 1}/{args.pairs}: wall_s base "
                  f"{runs['base'][-1]['wall_s']:.6g}, change "
                  f"{runs['change'][-1]['wall_s']:.6g}", file=sys.stderr)
    except (WorkerFailed, subprocess.TimeoutExpired) as exc:
        print(f"ab_bench failed: {exc}", file=sys.stderr)
        return 1
    print(f"workload {args.workload}, seed {args.seed}, {args.pairs} alternating pairs")
    print("\n".join(summary(runs["base"], runs["change"])))
    return 0


if __name__ == "__main__":
    sys.exit(main())
