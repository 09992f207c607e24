"""Benchmark for polyest: Monte Carlo decode, low-noise generation, queries.

Usage, from the repository root:

    python3 benchmarks/run.py --workload mc_dense|gen_sparse|query \\
        --seed N --seconds S --trace 0|1

The program is imported from ``src/`` of the checkout; nothing is installed.
Workloads are described in workloads.py.  With ``--trace 0`` the run
measures the end-to-end metrics: set-up time, peak resident memory and
work per second, with times rescaled to a reference machine speed by
calibration ticks (calib.py) so that the shared host's drift cancels; the
raw rates are in the human report.  With ``--trace 1`` it first runs half the
time untraced, then replays the same operations with polyest's entry points
wrapped (spans.py) and reports per-layer metrics, the tracing overhead and
whether tracing changed any output.

Human-readable lines go first; the last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics.  Details of the run
(samples, fingerprints, hashes) go to .bench_out/ in the checkout.  The exit
code is 1 when a correctness gate fails and 2 when the program is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

import workloads
from calib import CalibratedClock
from spans import SpanRecorder, Tracer
from workloads import OUT_DIR, ROOT, SRC, fingerprint, percentile

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
SETUP_SAMPLES = 7
# Share of --seconds spent on in-process operations; the query workload
# spends the rest on at least CLI_MIN_CALLS cold command-line calls.
OPS_SHARE = {"mc_dense": 1.0, "gen_sparse": 1.0, "query": 0.6}
CLI_MIN_CALLS = 10
# peak_rss_mb is read after this many operations, which every run completes:
# mc_dense's resident set grows with the operations done, so a peak read at
# the end would follow how many the machine's speed allowed.
RSS_OPS = {"mc_dense": 96, "gen_sparse": 4, "query": 1024}
# The traced replay covers at most this many operations, which bounds the
# spans kept in memory (about 60 per query operation).
REPLAY_MAX_OPS = 4096


def run_ops(wl, seconds: float, min_ops: int, count: int | None = None, calibrate: bool = True):
    """Closed loop of wl.op(i); stops before the op that would pass ``seconds``.

    Returns the op latencies, the work done, the results, the ops' total
    time rescaled to the reference machine's speed (calib.py) and the peak
    resident set after op RSS_OPS (None when the loop stops before it).
    Without ``calibrate`` no ticks run and the rescaled time is the raw time.
    """
    latencies, results, work, scaled, rss = [], [], 0, 0.0, None
    clock = CalibratedClock()
    if calibrate:
        clock.start()
    try:
        t0 = time.perf_counter()
        i = 0
        while count is None or i < count:
            if count is None and i >= min_ops:
                elapsed = time.perf_counter() - t0
                if elapsed + elapsed / i > seconds:
                    break
            wl.stage(i)
            raw0, scaled0 = clock.now()
            w, r = wl.op(i)
            raw1, scaled1 = clock.now()
            latencies.append(raw1 - raw0)
            scaled += scaled1 - scaled0
            work += w
            results.append(r)
            i += 1
            if i == RSS_OPS[wl.name]:
                rss = peak_rss_mb()
    finally:
        clock.stop()
    return latencies, work, results, scaled, rss


def setup_samples(name: str, seed: int) -> list[float]:
    """Set-up times of fresh processes, each importing and preparing once."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        out = subprocess.run(
            [sys.executable, os.path.join(BENCH_DIR, "setup_probe.py"), name, str(seed)],
            cwd=ROOT, capture_output=True, text=True, check=True, timeout=120,
        )
        samples.append(json.loads(out.stdout)["setup_s"])
    return samples


def peak_rss_mb() -> float:
    # VmHWM, not ru_maxrss: on Linux ru_maxrss also counts the parent's peak
    # at exec, so it would report the size of whatever launched the benchmark.
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM missing from /proc/self/status")


def untraced(wl, args, reference) -> tuple[dict, dict, int, int, dict]:
    wl.import_program()
    wl.prepare()
    setup = setup_samples(wl.name, args.seed)
    share = OPS_SHARE[wl.name]
    min_ops = max(wl.FINGERPRINT_OPS, RSS_OPS[wl.name])
    lat, work, results, scaled, rss = run_ops(wl, args.seconds * share, min_ops)
    # The probes run alone, so no ticks measure the machine's speed during
    # them; they are rescaled by the mean speed factor of this run's ops.
    speed = scaled / sum(lat)
    verdict = wl.check(results, reference)
    attempted, failed = len(results), verdict["failed"]
    report = {
        "setup_s_raw_samples": setup, "speed_factor": speed, "ops": len(results), "work": work,
        "fingerprint": fingerprint(wl, results), **verdict["info"],
    }
    report[wl.RATE_NAME] = work / scaled
    report["raw_work_per_s"] = work / sum(lat)
    if wl.name == "query":
        est = [x for i, x in enumerate(lat) if i % 4 != 3]
        sol = [x for i, x in enumerate(lat) if i % 4 == 3]
        report.update({
            "estimate_us_p50": percentile(est, 0.5) * 1e6, "estimate_us_p99": percentile(est, 0.99) * 1e6,
            "solve_us_p50": percentile(sol, 0.5) * 1e6, "solve_us_p99": percentile(sol, 0.99) * 1e6,
            "estimate_calls": len(est), "solve_calls": len(sol),
        })
        cli_lat, cli_failed, cli_sha = wl.cli_phase(args.seconds * (1 - share), CLI_MIN_CALLS)
        attempted += len(cli_lat)
        failed += cli_failed
        report.update({
            "cli_ms_p50": percentile(cli_lat, 0.5) * 1e3, "cli_ms_p75": percentile(cli_lat, 0.75) * 1e3,
            "cli_calls": len(cli_lat), "cli_stdout_sha256": cli_sha,
        })
    metrics = {
        "setup_s": statistics.median(setup) * speed,
        "peak_rss_mb": rss,
        "work_per_s": work / scaled,
    }
    report.update({"op_ms_p50": percentile(lat, 0.5) * 1e3, "op_ms_p90": percentile(lat, 0.9) * 1e3})
    return metrics, report, attempted, failed, dict(verdict["gates"])


def traced(wl, args, reference) -> tuple[dict, dict, int, int, dict]:
    wl.import_program()
    rec = SpanRecorder()
    tracer = Tracer(rec)
    tracer.install()
    t = time.perf_counter()
    wl.prepare()
    wall = time.perf_counter() - t
    tracer.uninstall()

    seconds = args.seconds * OPS_SHARE[wl.name] / 2
    lat_u, _, res_u, _, _ = run_ops(wl, seconds, wl.FINGERPRINT_OPS, calibrate=False)
    tracer.install()
    t = time.perf_counter()
    lat_t, _, res_t, _, _ = run_ops(
        wl, seconds, wl.FINGERPRINT_OPS, count=min(len(res_u), REPLAY_MAX_OPS), calibrate=False
    )
    wall += time.perf_counter() - t
    tracer.uninstall()
    lat_u, res_u = lat_u[: len(res_t)], res_u[: len(res_t)]

    check_u, check_t = wl.check(res_u, reference), wl.check(res_t, reference)
    fp_u, fp_t = fingerprint(wl, res_u), fingerprint(wl, res_t)
    # Self-check: wrapping must change no output.
    gates = {
        **check_t["gates"],
        "traced_results_equal": res_u == res_t,
        "traced_fingerprint_equal": fp_u == fp_t,
        "traced_failed_equal": check_u["failed"] == check_t["failed"],
    }
    layers = tracer.layer_metrics(wall)
    info = check_t["info"]
    attempted = len(res_u) + len(res_t)
    failed = check_u["failed"] + check_t["failed"]
    layers.update({
        "estimator.solve_scan_steps": wl.solve_scan_steps(res_t) if wl.name == "query" else 0,
        "cli.python_startup_ms": 0.0, "cli.import_ms": 0.0, "cli.main_ms": 0.0,
        "bench.traced_wall_s": wall,
        "bench.trace_overhead_frac": sum(lat_t) / sum(lat_u) - 1.0,
        "bench.ops": attempted,
        "bench.ops_failed_frac": failed / attempted,
        "bench.fails_x": info.get("fails_x", 0),
        "bench.fails_z": info.get("fails_z", 0),
    })
    if wl.name == "query":
        layers.update(wl.cli_layers())
    spans_path = os.path.join(OUT_DIR, f"spans-{wl.name}-seed{args.seed}.csv")
    rec.write(spans_path)
    report = {"ops": len(res_u), "fingerprint": fp_t, "spans_file": spans_path, **info}
    return layers, report, attempted, failed, gates


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "polyest", "__init__.py")):
        print(f"error: polyest sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    os.makedirs(OUT_DIR, exist_ok=True)
    with open(os.path.join(BENCH_DIR, "reference.json"), encoding="utf-8") as fh:
        reference = json.load(fh)[args.workload]

    wl = workloads.WORKLOADS[args.workload](args.seed, OUT_DIR)
    wl.make_inputs()
    measure = traced if args.trace else untraced
    metrics, report, attempted, failed, gates = measure(wl, args, reference)

    probe = wl.reference_probe()
    report["fingerprint_match"] = probe == reference["probe_sha256"]
    if wl.name == "query":
        gates["reference_hash_equal"] = report["fingerprint_match"]
    if args.trace:
        metrics["bench.fingerprint_match"] = int(report["fingerprint_match"])
    correct = failed == 0 and all(gates.values())
    report["ops_failed_frac"] = failed / attempted

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = {m["name"]: m["unit"] for m in json.load(fh)["per_layer" if args.trace else "end_to_end"]}
    if set(metrics) != set(declared):
        raise RuntimeError(f"metrics differ from BENCHMARK.json: {sorted(set(metrics) ^ set(declared))}")
    print(f"workload {wl.name} seed {args.seed} seconds {args.seconds:g} trace {args.trace}")
    for name, value in {**report, **metrics}.items():
        if not isinstance(value, (list, dict)):
            print(f"  {name} = {value} {declared.get(name) or report_unit(name)}".rstrip())
    for name, ok in gates.items():
        print(f"  gate {name}: {'pass' if ok else 'FAIL'}")
    result = {
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in declared.items()},
    }
    with open(os.path.join(OUT_DIR, f"result-{wl.name}-seed{args.seed}-trace{args.trace}.json"),
              "w", encoding="utf-8") as fh:
        json.dump({**result, "report": report, "gates": gates}, fh, indent=1)
    print(json.dumps(result))
    return 0 if correct else 1


def report_unit(name: str) -> str:
    """Unit of a report line, from its name's suffix."""
    for suffix, unit in (("_per_s", "1/s"), ("_us_", "us"), ("_ms_", "ms"), ("_ms", "ms"), ("_s", "s")):
        if suffix in name if suffix.endswith("_") else name.endswith(suffix):
            return unit
    return ""


if __name__ == "__main__":
    sys.exit(main())
