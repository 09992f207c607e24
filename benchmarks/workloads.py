"""The three benchmark workloads.

Each workload is closed-loop with one client: the next operation starts
when the previous one returns.  A workload object is driven in this order:

* ``make_inputs()`` writes the seeded inputs to disk (parent process only),
* ``import_program()`` imports polyest (timed as part of set-up),
* ``prepare()`` does the program set-up before the first timed operation,
* ``stage(i)`` readies the inputs of operation i, outside the timing,
* ``op(i)`` runs operation i and returns (units of work, result); the
  result of op i depends only on the seed and i, so a replay of the same
  indices must return the same results,
* ``check(results, reference)`` returns the number of failed operations,
  the workload's correctness gates and reported counts,
* ``reference_probe()`` returns the hash of a fixed-seed probe, compared
  with benchmarks/reference.json.
"""

from __future__ import annotations

import csv
import hashlib
import math
import os
import subprocess
import sys
import time

import gen_inputs
import oracle

REF_SEED = 0
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def fingerprint(wl, results) -> str:
    """Hash of the first FINGERPRINT_OPS results, which every run completes."""
    return sha256_text(repr(results[: wl.FINGERPRINT_OPS]))


def percentile(values, q: float) -> float:
    """Linear-interpolated q-quantile (0 <= q <= 1) of a non-empty sample."""
    xs = sorted(values)
    pos = q * (len(xs) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


class McDense:
    """Decode-bound Monte Carlo near threshold: d=5, p=3e-3, 25 rounds.

    Chosen because MWPM decoding takes about 94% of the wall time here
    (networkx blossom about 75%, clusters up to ~20 events) while noise draw
    plus frame simulation take under 7%: a decoder change shows on this
    workload and a noise-draw change should not move it.  An operation is
    one run_monte_carlo call of CHUNK shots; successive calls continue one
    seeded shot stream (first_shot_index), so the results do not depend on
    how many calls a run makes.
    """

    name = "mc_dense"
    RATE_NAME = "mc_shots_per_s"
    D, P, ROUNDS, CHUNK = 5, 3e-3, 25, 8
    FINGERPRINT_OPS = 8

    def __init__(self, seed: int, out_dir: str):
        self.seed = seed
        self.stream_seed = gen_inputs.derive_seed(seed, "mc")

    def make_inputs(self) -> None:
        pass

    def stage(self, i: int) -> None:
        pass

    def import_program(self) -> None:
        from polyest import matcher, surface_sim

        self.sim, self.matcher = surface_sim, matcher

    def prepare(self) -> None:
        p = self.P
        self.rates = self.sim.Rates(p0x=p, p0z=p, p1x=p, p1z=p, p2=p)
        self.layout = self.sim.get_layout(self.D)
        faults = self.sim.enumerate_single_faults(self.layout)
        self.graphs = self.matcher.build_graphs(faults, self.rates, self.layout)
        for graph in self.graphs:
            graph.prepare(self.ROUNDS)

    def op(self, i: int, stream_seed: int | None = None):
        r = self.sim.run_monte_carlo(
            self.layout, self.rates, self.CHUNK, self.ROUNDS,
            self.stream_seed if stream_seed is None else stream_seed,
            graphs=self.graphs, first_shot_index=i * self.CHUNK,
        )
        return self.CHUNK, (r.fails_x, r.fails_z)

    def reference_probe(self) -> str:
        ref = gen_inputs.derive_seed(REF_SEED, "mc")
        return fingerprint(self, [self.op(i, ref)[1] for i in range(self.FINGERPRINT_OPS)])

    def check(self, results, reference: dict) -> dict:
        # RNG-independent gate: per-shot failure counts must fall inside a
        # binomial band around the stored long-run reference rates.
        shots = len(results) * self.CHUNK
        gates, info = {}, {}
        for k, kind in enumerate(("x", "z")):
            fails = sum(r[k] for r in results)
            ref_fails, ref_shots = reference[f"fails_{kind}"], reference["shots"]
            q = ref_fails / ref_shots
            sigma = math.sqrt(shots * q * (1 - q) + shots * shots * q * (1 - q) / ref_shots)
            lo, hi = shots * q - reference["band_sigma"] * sigma, shots * q + reference["band_sigma"] * sigma
            gates[f"rate_{kind}_in_band"] = lo <= fails <= hi
            info[f"fails_{kind}"] = fails
            info[f"p_{kind}l_per_round"] = fails / (shots * self.ROUNDS)
            info[f"band_{kind}"] = [lo, hi]
        return {"failed": 0, "gates": gates, "info": info}


class GenSparse:
    """Low-noise database generation: the write path of ratedb.

    The grid is the low-p2 corner of the ladder: d 3..6, p2 in {1e-4, 2e-4},
    r0 in {0.5, 2}, r1 in {0.2, 1}.  With target_fails out of reach every
    point runs exactly MAX_SHOTS shots at rounds = 10 d after its 256-shot
    pilot, a fixed amount of work whatever the RNG draws.  Chosen because
    at this noise level a 32-point profile of the grid put noise draw plus
    frame simulation at about 71% of the time, per-point distance tables
    (MatchingGraph.prepare) at about 9% and decoding at about 17% (mostly 0-2
    events per call, blossom about 6%): frame-sim, table and checkpoint
    changes show here, and a blossom change should move it by 6% at most.
    The traced run reports the shares this benchmark itself measures.  An operation generates one column of the
    grid (one point per distance at a fixed r0, r1, p2) and saves the pass's
    database, so operations are alike and every one checkpoints.
    """

    name = "gen_sparse"
    RATE_NAME = "gen_shot_rounds_per_s"
    DISTANCES = (3, 4, 5, 6)
    COLUMNS = tuple((r0, r1, p2) for r0 in (0.5, 2.0) for r1 in (0.2, 1.0) for p2 in (1e-4, 2e-4))
    MAX_SHOTS = 512
    TARGET_FAILS = 10 ** 9
    FINGERPRINT_OPS = 1

    def __init__(self, seed: int, out_dir: str):
        self.seed = seed
        self.out_dir = out_dir
        self._db = None

    def make_inputs(self) -> None:
        pass

    def stage(self, i: int) -> None:
        pass

    def import_program(self) -> None:
        from polyest import ratedb, surface_sim

        self.ratedb, self.sim = ratedb, surface_sim

    def prepare(self) -> None:
        for d in self.DISTANCES:
            self.sim.enumerate_single_faults(self.sim.get_layout(d))

    def csv_path(self, seed: int, n_pass: int) -> str:
        return os.path.join(self.out_dir, f"gen_sparse-seed{seed}-pass{n_pass}.csv")

    def op(self, i: int, seed: int | None = None):
        seed = self.seed if seed is None else seed
        n_pass, col = divmod(i, len(self.COLUMNS))
        if col == 0 or self._db is None:
            self._db = self.ratedb.RateDatabase()
        r0, r1, p2 = self.COLUMNS[col]
        grid = self.ratedb.GridSpec(
            distances=self.DISTANCES, r0_values=(r0,), r1_values=(r1,), p2_values=(p2,)
        )
        added, _ = self.ratedb.generate(
            self._db, grid, gen_inputs.derive_seed(seed, "gen", n_pass),
            target_fails=self.TARGET_FAILS, max_shots=self.MAX_SHOTS,
        )
        self._db.save(self.csv_path(seed, n_pass))
        new = [e for e in self._db.entries() if e.key in set(added)]
        # Shot-rounds generated, counting each point's pilot at rounds = d.
        work = sum(e.shots * e.rounds + self.ratedb.PILOT_SHOTS * e.d for e in new)
        return work, tuple((*e.key, e.shots, e.rounds, e.fails_x, e.fails_z) for e in new)

    def reference_probe(self) -> str:
        # One grid point at the reference seed: pilot plus MAX_SHOTS shots.
        db = self.ratedb.RateDatabase()
        grid = self.ratedb.GridSpec(distances=(3,), r0_values=(0.5,), r1_values=(0.2,), p2_values=(2e-4,))
        self.ratedb.generate(db, grid, REF_SEED, target_fails=self.TARGET_FAILS, max_shots=self.MAX_SHOTS)
        path = os.path.join(self.out_dir, "gen_sparse-reference.csv")
        db.save(path)
        with open(path, "rb") as fh:
            return hashlib.sha256(fh.read()).hexdigest()

    def check(self, results, reference: dict) -> dict:
        # RNG-independent gate: each pass's CSV parses and holds exactly the
        # points generated, each at MAX_SHOTS shots and rounds = 10 d.  An
        # operation fails when any of its points is missing or wrong; rows
        # that no operation generated fail the pass's last operation.
        failed = 0
        info = {"fails_x": 0, "fails_z": 0, "csv_sha256": []}
        n_cols = len(self.COLUMNS)
        for n_pass in range(0, (len(results) + n_cols - 1) // n_cols):
            path = self.csv_path(self.seed, n_pass)
            with open(path, "rb") as fh:
                info["csv_sha256"].append(hashlib.sha256(fh.read()).hexdigest())
            with open(path, newline="", encoding="utf-8") as fh:
                rows = list(csv.DictReader(line for line in fh if not line.startswith("#")))
            by_key = {(r["d"], r["r0"], r["r1"], r["p2"]): r for r in rows}
            for r in rows:
                info["fails_x"] += int(r["fails_x"])
                info["fails_z"] += int(r["fails_z"])
            done = self.COLUMNS[: min(n_cols, len(results) - n_pass * n_cols)]
            expected = set()
            for r0, r1, p2 in done:
                keys = [
                    (str(d), gen_inputs.format_axis(r0), gen_inputs.format_axis(r1), gen_inputs.format_axis(p2))
                    for d in self.DISTANCES
                ]
                expected.update(keys)
                failed += not all(
                    k in by_key
                    and int(by_key[k]["shots"]) == self.MAX_SHOTS
                    and int(by_key[k]["rounds"]) == 10 * int(k[0])
                    for k in keys
                )
            failed += len(rows) != len(by_key) or not set(by_key) <= expected
        return {"failed": min(failed, len(results)), "gates": {}, "info": info}


class Query:
    """The read path: estimate and solve over a full-ladder database.

    A synthetic 3136-row database is built from the seed and loaded with
    RateDatabase.load; operations are in-process estimate(d in 3..40) and
    solve_distance(target) calls over a seeded model mix (depolarizing,
    full-form with random and asymmetric CNOT channels, on-grid, between
    grid points and clamped at the axis ends), followed by sequential cold
    ``python -m polyest estimate|solve`` calls.  No simulation runs.
    Chosen because in-process estimate takes about 0.29 ms at p50, about 62%
    of it in ladder_neighbors/ladder_values, DB load takes about 40 ms and a
    cold CLI call about 350 ms against 45 ms for a bare interpreter: ladder,
    import-splitting and DB-load changes show here, and no Monte Carlo change
    should move it.
    """

    name = "query"
    RATE_NAME = "queries_per_s"
    FINGERPRINT_OPS = 1024
    CLI_MODELS = 64

    def __init__(self, seed: int, out_dir: str):
        self.seed = seed
        self.out_dir = out_dir
        self.db_path = os.path.join(out_dir, f"query-seed{seed}.csv")
        self._blocks: dict = {}

    def make_inputs(self) -> None:
        gen_inputs.write_db(self.db_path, self.seed)
        self.cli_models = gen_inputs.write_model_files(
            os.path.join(self.out_dir, f"query-seed{self.seed}-models"),
            [m for _, m, _ in gen_inputs.query_block(self.seed, 0, "cli")[: self.CLI_MODELS]],
        )

    def import_program(self) -> None:
        from polyest import error_model, estimator, ratedb

        self.error_model, self.estimator, self.ratedb = error_model, estimator, ratedb

    def prepare(self) -> None:
        self.db = self.ratedb.RateDatabase.load(self.db_path)

    def stage(self, i: int, seed: int | None = None):
        """Inputs of op i, with the models of its block parsed; run outside timing."""
        key = (self.seed if seed is None else seed, i // gen_inputs.QUERY_BLOCK)
        if key not in self._blocks:
            self._blocks = {key: [
                (op, self.error_model.model_from_dict(m), arg)
                for op, m, arg in gen_inputs.query_block(*key)
            ]}
        return self._blocks[key][i % gen_inputs.QUERY_BLOCK]

    def op(self, i: int, seed: int | None = None, db=None):
        op, model, arg = self.stage(i, seed)
        return 1, self.query(db or self.db, op, model, arg)

    def query(self, db, op, model, arg) -> tuple:
        try:
            if op == "estimate":
                e = self.estimator.estimate(db, model, arg)
            else:
                e = self.estimator.solve_distance(db, model, arg)
        except self.estimator.ComputationError as err:
            return ("error", type(err).__name__)
        except Exception as err:  # an unexpected error is a failed operation
            return ("error", f"unexpected {type(err).__name__}: {err}")
        return ("ok", e.d, e.p_xl, e.p_zl, e.warnings)

    def _cli(self, op, model_path, arg, db_path):
        flag = ["--distance", str(arg)] if op == "estimate" else ["--target", repr(arg)]
        argv = [sys.executable, "-m", "polyest", op, "--db", db_path, "--model", model_path, *flag]
        env = dict(os.environ, PYTHONPATH=SRC)
        t = time.perf_counter()
        proc = subprocess.run(argv, env=env, cwd=ROOT, capture_output=True, text=True, timeout=120)
        return time.perf_counter() - t, (proc.returncode, proc.stdout)

    def _cli_expected(self, db, op, model: dict, arg):
        """Exit code and stdout the command line must give, from the in-process answer."""
        got = self.query(db, op, self.error_model.model_from_dict(model), arg)
        if got[0] == "ok":
            text = f"p_xl = {got[2]!r}\np_zl = {got[3]!r}\n" if op == "estimate" else f"{got[1]}\n"
            return (0, text)
        return (2, "") if not got[1].startswith("unexpected") else (None, got[1])

    def cli_phase(self, seconds: float, min_calls: int):
        """Sequential cold command-line calls; returns (latencies, failed, stdout hash)."""
        block = gen_inputs.query_block(self.seed, 0, "cli")[: self.CLI_MODELS]
        latencies, failed, outputs = [], 0, []
        t0 = time.perf_counter()
        while len(latencies) < min_calls or time.perf_counter() - t0 < seconds:
            j = len(latencies) % len(block)
            op, model, arg = block[j]
            expected = self._cli_expected(self.db, op, model, arg)
            dt, got = self._cli(op, self.cli_models[j], arg, self.db_path)
            latencies.append(dt)
            failed += got != expected
            outputs.append(got)
        return latencies, failed, sha256_text(repr(outputs[: len(block)]))

    def cli_layers(self, samples: int = 5) -> dict:
        """Interpreter start-up, import and in-process main() times of the command line."""
        import contextlib
        import io
        import statistics

        from polyest import cli

        def child(code):
            env = dict(os.environ, PYTHONPATH=SRC)
            t = time.perf_counter()
            subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT, check=True, timeout=120)
            return time.perf_counter() - t

        startup = statistics.median(child("pass") for _ in range(samples))
        imported = statistics.median(child("import polyest.cli") for _ in range(samples))
        block = gen_inputs.query_block(self.seed, 0, "cli")
        mains = []
        for j in range(samples):
            op, _, arg = block[j]
            flag = ["--distance", str(arg)] if op == "estimate" else ["--target", repr(arg)]
            sink = io.StringIO()
            t = time.perf_counter()
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                cli.main([op, "--db", self.db_path, "--model", self.cli_models[j], *flag])
            mains.append(time.perf_counter() - t)
        return {
            "cli.python_startup_ms": startup * 1e3,
            "cli.import_ms": (imported - startup) * 1e3,
            "cli.main_ms": statistics.median(mains) * 1e3,
        }

    def reference_probe(self) -> str:
        # Fixed database, query stream and command-line calls at REF_SEED;
        # the exact gate compares their hash with benchmarks/reference.json.
        path = os.path.join(self.out_dir, "query-reference.csv")
        gen_inputs.write_db(path, REF_SEED)
        db = self.ratedb.RateDatabase.load(path)
        results = [self.op(i, REF_SEED, db)[1] for i in range(self.FINGERPRINT_OPS)]
        block = gen_inputs.query_block(REF_SEED, 0, "cli")[:2]
        models = gen_inputs.write_model_files(
            os.path.join(self.out_dir, "query-reference-models"), [m for _, m, _ in block]
        )
        outputs = [self._cli(op, mp, arg, path)[1] for (op, _, arg), mp in zip(block, models)]
        return sha256_text(repr(results) + repr(outputs))

    @staticmethod
    def solve_scan_steps(results) -> int:
        """Distances scanned by the solve operations (every fourth op)."""
        steps = 0
        for r in results[3::4]:
            if r[0] == "ok":
                steps += r[1] - 2
            elif r[1] == "ScanLimitError":
                steps += oracle.MAX_SCAN - 2
            else:
                steps += 5  # the fit is needed, and fails, at d = 7
        return steps

    def _reference(self, seed: int) -> oracle.Reference:
        rows = {}
        for line in gen_inputs.synthetic_db_rows(seed):
            f = line.split(",")
            rows[(int(f[0]), float(f[1]), float(f[2]), float(f[3]))] = (
                float(f[8]), float(f[9]), f[10] == "1",
            )
        return oracle.Reference(rows)

    def check(self, results, reference: dict) -> dict:
        # Every result must agree with the independent oracle; an expected
        # ComputationError (above threshold, scan limit) is not a failure.
        ref = self._reference(self.seed)
        failed, errors, warned = 0, {}, 0
        for i, got in enumerate(results):
            block_no, k = divmod(i, gen_inputs.QUERY_BLOCK)
            if k == 0:
                block = gen_inputs.query_block(self.seed, block_no)
            op, model, arg = block[k]
            failed += not oracle.agrees(ref.answer(op, model, arg), got)
            if got[0] == "error":
                errors[got[1]] = errors.get(got[1], 0) + 1
            else:
                warned += bool(got[4])
        return {"failed": failed, "gates": {}, "info": {"error_classes": errors, "ops_with_warnings": warned}}


WORKLOADS = {w.name: w for w in (McDense, GenSparse, Query)}
