"""Self-check of the benchmark itself.

    python3 benchmarks/selfcheck.py

For each workload, runs run.py untraced and traced at the same seed and
checks that both runs are correct, that the traced run's replay gave the
same results as its untraced half (so wrapping changed no output), that
the traced and untraced runs report the same fingerprint and the same
ops_failed_frac, and that run.py exits non-zero without a result line when
the program's sources are missing.  Exits 1 on any failed check.
"""

import json
import os
import shutil
import subprocess
import sys

import workloads

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
SEED, SECONDS = 7, 6.0


def run(workload: str, seed: int, seconds: float, trace: int, cwd: str = workloads.ROOT):
    out = subprocess.run(
        [sys.executable, os.path.join("benchmarks", "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )
    return out


def details(workload: str, seed: int, trace: int) -> dict:
    path = os.path.join(workloads.OUT_DIR, f"result-{workload}-seed{seed}-trace{trace}.json")
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def main() -> int:
    problems = []
    for name in workloads.WORKLOADS:
        for trace in (0, 1):
            out = run(name, SEED, SECONDS, trace)
            if out.returncode != 0:
                problems.append(f"{name} trace={trace}: exit {out.returncode}\n{out.stderr[-2000:]}")
        if any(p.startswith(f"{name} ") for p in problems):
            continue
        plain, traced = details(name, SEED, 0), details(name, SEED, 1)
        for gate in ("traced_results_equal", "traced_fingerprint_equal", "traced_failed_equal"):
            if not traced["gates"].get(gate):
                problems.append(f"{name}: {gate} failed")
        if plain["report"]["fingerprint"] != traced["report"]["fingerprint"]:
            problems.append(f"{name}: traced and untraced fingerprints differ")
        plain_frac = plain["failed"] / plain["attempted"]
        if plain_frac != traced["metrics"]["bench.ops_failed_frac"]["value"]:
            problems.append(f"{name}: ops_failed_frac differs between traced and untraced runs")
        print(f"{name}: checked", flush=True)

    bare = os.path.join(workloads.OUT_DIR, "selfcheck-bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH_DIR, os.path.join(bare, "benchmarks"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(workloads.ROOT, "BENCHMARK.json"), bare)
    out = run("query", SEED, 1, 0, cwd=bare)
    if out.returncode == 0 or out.stdout.strip():
        problems.append("run.py succeeded or printed a result without the program's sources")
    shutil.rmtree(bare)

    for p in problems:
        print(f"FAIL {p}")
    print("selfcheck", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
