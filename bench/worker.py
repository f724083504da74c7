"""One fresh, single-threaded process that runs a workload once, cold.

    python3 bench/worker.py --workload NAME --seed N --trace 0|1 [--setup-only]

Prints one JSON object: the monotonic time at which dyadicmax (with
numpy and scipy) was imported and the inputs generated, then, unless
--setup-only, the wall time of the timed section, the peak resident
memory, each instance's gate result and, when traced, the spans and the
per-layer metrics derived from them.  bench/run.py starts it and reads
that object.
"""

import argparse
import json
import resource
import sys
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))
sys.path.insert(0, str(BENCH_DIR))

import dyadicmax  # noqa: E402  (set-up cost: numpy and scipy come with it)

import spans as tracing  # noqa: E402
import workloads  # noqa: E402


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    workload = workloads.WORKLOADS[args.workload]
    insts = workloads.instances(workload, args.seed)
    ready = time.monotonic()
    if args.setup_only:
        print(json.dumps({"ready": ready}))
        return 0

    references = workloads.load_references(workload)
    recorder = tracing.Recorder()
    if args.trace:
        recorder.install()
    outcomes = []
    t0 = time.perf_counter()
    for idx, inst in enumerate(insts):
        try:
            with recorder.instance(idx):
                report = inst.run(dyadicmax)
        except Exception:  # one failing instance must not hide the others
            outcomes.append(traceback.format_exc(limit=3))
        else:
            outcomes.append(report)
    wall = time.perf_counter() - t0
    recorder.uninstall()

    payloads = [o if isinstance(o, str) else o.to_json_dict() for o in outcomes]
    out = {
        "ready": ready,
        "wall_s": wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "instances": [i.label for i in insts],
        "failures": workloads.gate(insts, payloads, references),
    }
    if args.trace:
        out["spans"] = recorder.spans
        out["metrics"] = tracing.layer_metrics(recorder.spans)
        out["self_sums"] = sorted(tracing.instance_self_sums(recorder.spans).items())
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
