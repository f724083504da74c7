#!/usr/bin/env python3
"""Regenerate the frozen golden values under tests/golden/.

The values are produced by the exact evaluation pipeline itself; the
test suite recomputes them and checks byte-for-byte agreement, so this
script only needs rerunning when the constructions themselves change.
"""

import json
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from dyadicmax.verify import cube_counterexample, verify_theorem  # noqa: E402

GOLDEN = ROOT / "tests" / "golden"


def entry(rep):
    d = rep.to_json_dict()
    d.pop("runtime_ms")
    return d


def main():
    GOLDEN.mkdir(parents=True, exist_ok=True)
    sweeps = {
        "sweep_n2.json": [
            entry(verify_theorem(2, set(range(10)), m)) for m in range(2, 11)
        ],
        "sweep_n3.json": [
            entry(verify_theorem(3, set(range(6)), m)) for m in range(2, 7)
        ],
        "cube_n2.json": [entry(cube_counterexample(2, m)) for m in range(1, 9)],
    }
    for name, rows in sweeps.items():
        path = GOLDEN / name
        path.write_text(json.dumps(rows, indent=2) + "\n")
        print(f"wrote {path} ({len(rows)} rows)")


if __name__ == "__main__":
    sys.exit(main())
