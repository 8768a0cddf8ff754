"""One set-up sample: a fresh interpreter imports blgauss and builds a workload's inputs.

Run by ``run.py`` as ``python3 bench/setup_probe.py WORKLOAD SEED`` from the
repository root. Prints one JSON line: the CLOCK_MONOTONIC time at which the
first op was ready (the parent subtracts its own spawn time), and the import
and input-generation times measured here.
"""

import json
import sys
import time
from pathlib import Path

if __name__ == "__main__":
    root = Path.cwd()
    sys.path.insert(0, str(root / "src"))
    t0 = time.perf_counter()
    import blgauss  # noqa: F401

    t1 = time.perf_counter()
    import workloads

    workloads.build(sys.argv[1], int(sys.argv[2]), root)
    t2 = time.perf_counter()
    ready = time.monotonic()
    print(json.dumps({"ready": ready, "import_s": t1 - t0, "inputs_s": t2 - t1}))
