"""Time one cold set-up of a workload in a fresh interpreter.

Run by run.py as ``python3 benchmarks/setup_probe.py WORKLOAD SEED`` after
the workload's inputs exist; prints {"setup_s": seconds} for importing
polyest and doing the workload's program set-up, exactly as run.py times
its own.
"""

import json
import sys
import time

import workloads

if __name__ == "__main__":
    sys.path.insert(0, workloads.SRC)
    name, seed = sys.argv[1], int(sys.argv[2])
    wl = workloads.WORKLOADS[name](seed, workloads.OUT_DIR)
    t = time.perf_counter()
    wl.import_program()
    wl.prepare()
    print(json.dumps({"setup_s": time.perf_counter() - t}))
