"""Record the k = 0 reference payloads under bench/reference/.

    PYTHONPATH=src python3 bench/record_reference.py

Run on a commit whose answers are trusted; the benchmark's gate then
checks every later commit against these payloads.  The sweep_golden
workload reads tests/golden/ instead and has no file here.
"""

import json
import sys

import dyadicmax

from workloads import REFERENCE_DIR, WORKLOADS, instances


def main() -> int:
    REFERENCE_DIR.mkdir(exist_ok=True)
    for w in WORKLOADS.values():
        if w.reference_files[0].parent != REFERENCE_DIR:
            continue
        insts = w.build(0)
        rows = []
        for inst in insts:
            d = inst.run(dyadicmax).to_json_dict()
            d.pop("runtime_ms")
            rows.append(d)
        (path,) = w.reference_files
        path.write_text(json.dumps(rows, indent=2) + "\n")
        print(f"wrote {path} ({len(rows)} rows)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
