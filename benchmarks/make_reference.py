"""Regenerate benchmarks/reference.json from the current program.

    python3 benchmarks/make_reference.py

Stores, per workload, the hash of its fixed-seed reference probe and, for
mc_dense, long-run failure counts that the binomial band gate compares each
run against.  Rerun only when a change to the program is meant to change
these answers, and say so in CHANGES.md.
"""

import json
import os
import sys

import gen_inputs
import workloads

MC_SHOTS = 4096

if __name__ == "__main__":
    sys.path.insert(0, workloads.SRC)
    os.makedirs(workloads.OUT_DIR, exist_ok=True)
    reference = {}
    for name, cls in workloads.WORKLOADS.items():
        wl = cls(workloads.REF_SEED, workloads.OUT_DIR)
        wl.make_inputs()
        wl.import_program()
        wl.prepare()
        reference[name] = {"probe_sha256": wl.reference_probe()}
    mc = workloads.McDense(workloads.REF_SEED, workloads.OUT_DIR)
    mc.import_program()
    mc.prepare()
    seed = gen_inputs.derive_seed(workloads.REF_SEED, "mc-reference")
    result = mc.sim.run_monte_carlo(mc.layout, mc.rates, MC_SHOTS, mc.ROUNDS, seed, graphs=mc.graphs)
    reference["mc_dense"].update({
        "shots": MC_SHOTS, "fails_x": result.fails_x, "fails_z": result.fails_z,
        "band_sigma": 5.0,
    })
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=2)
        fh.write("\n")
    print(json.dumps(reference, indent=2))
