import hashlib
import inspect
import json
import math
import os
import signal
import subprocess
import sys
import time
from itertools import product

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import polyest
import readme_examples
from conftest import build_bench_db, build_flat_db
from polyest.cli import main
from polyest.error_model import depolarizing_model, load_model, reduce
from polyest.estimator import MissingEntryError, estimate, interpolate, solve_distance
from polyest.store import (
    AXES, CSV_HEADER, DISTANCES, DbEntry, RateDatabase, format_value, ladder_values,
)


@pytest.fixture()
def model_file(tmp_path):
    path = tmp_path / "depol.json"
    path.write_text(json.dumps({"depolarizing": 1e-3}))
    return str(path)


@pytest.fixture()
def bench_file(tmp_path):
    path = tmp_path / "bench.csv"
    build_bench_db().save(path)
    return str(path)


@pytest.fixture(autouse=True)
def _clean_env(monkeypatch):
    monkeypatch.delenv("POLYEST_DB", raising=False)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# reduce
# ---------------------------------------------------------------------------


def test_reduce_human_output(capsys, model_file):
    code, out, err = run(capsys, "reduce", "--model", model_file)
    assert code == 0
    assert err == ""
    lines = out.splitlines()
    assert len(lines) == 8
    parsed = {}
    for line in lines:
        name, _, value = line.partition(" = ")
        parsed[name] = float(value)
    rr = reduce(load_model(model_file))
    assert parsed["p0x"] == rr.p0x == 2e-3
    assert parsed["p0z"] == rr.p0z
    assert parsed["p2x"] == 1e-3
    assert parsed["asym_x"] == 1.0


def test_reduce_json_with_asymmetry_warning(capsys, tmp_path):
    path = tmp_path / "asym.json"
    path.write_text(json.dumps({"cnot": {"ix": 1e-4, "xi": 1e-5, "xx": 1e-6}}))
    code, out, err = run(capsys, "reduce", "--model", str(path), "--json")
    assert code == 0
    assert "warning: asymmetric_cnot" in err
    data = json.loads(out)
    assert data["p2x"] == 15 * 1e-4 / 4
    assert data["p2z"] == 0.0
    assert data["asym_x"] == pytest.approx(100.0)
    assert data["asym_z"] == 1.0
    assert data["warnings"] == ["asymmetric_cnot"]


def test_reduce_unbounded_asymmetry_serializes_as_inf(capsys, tmp_path):
    path = tmp_path / "ix.json"
    path.write_text(json.dumps({"cnot": {"ix": 1e-4}}))
    code, out, _ = run(capsys, "reduce", "--model", str(path), "--json")
    assert code == 0
    assert json.loads(out)["asym_x"] == "inf"


@pytest.mark.parametrize("command", ["reduce", "estimate", "solve"])
def test_asymmetry_threshold_flag_is_a_usage_error(capsys, tmp_path, bench_file, command):
    # The cut-off is error_model.ASYMMETRY_THRESHOLD alone; no subcommand
    # takes another.
    path = tmp_path / "asym.json"
    path.write_text(json.dumps({"cnot": {"ix": 1e-3}}))
    extra = {"reduce": [], "estimate": ["--db", bench_file, "--distance", "3"],
             "solve": ["--db", bench_file, "--target", "1e-9"]}[command]
    code, out, err = run(
        capsys, command, "--model", str(path), "--asymmetry-threshold", "5", *extra
    )
    assert code == 1
    assert out == ""
    assert err == "error: unrecognized arguments: --asymmetry-threshold 5\n"


def test_no_entry_point_takes_an_asymmetry_threshold():
    for function in (reduce, estimate, solve_distance):
        assert "asymmetry_threshold" not in inspect.signature(function).parameters


def test_reduce_missing_model_file(capsys, tmp_path):
    code, out, err = run(capsys, "reduce", "--model", str(tmp_path / "nope.json"))
    assert code == 1
    assert out == ""
    assert err.startswith("error:")


def test_reduce_non_object_gate_entry_is_input_error(capsys, tmp_path):
    path = tmp_path / "init.json"
    path.write_text(json.dumps({"init": 0.1}))
    code, out, err = run(capsys, "reduce", "--model", str(path))
    assert code == 1
    assert out == ""
    assert err == "error: init must be a JSON object, got 0.1\n"


# ---------------------------------------------------------------------------
# estimate / solve
# ---------------------------------------------------------------------------


def test_estimate_human_output(capsys, bench_file, model_file):
    code, out, err = run(
        capsys, "estimate", "--db", bench_file, "--model", model_file,
        "--distance", "3",
    )
    assert code == 0
    assert err == ""
    assert out == "p_xl = 0.0011\np_zl = 0.0014\n"


def test_estimate_json_extrapolated(capsys, bench_file, model_file):
    code, out, _ = run(
        capsys, "estimate", "--db", bench_file, "--model", model_file,
        "--distance", "7", "--json",
    )
    assert code == 0
    data = json.loads(out)
    assert data["d"] == 7
    assert data["p_xl"] == pytest.approx(1.0e-4**2 / 1.1e-3, rel=1e-12)
    assert data["warnings"] == []
    assert set(data["fit_x"]) == {"x", "y", "C", "D"}
    assert data["fit_x"]["x"] == pytest.approx(1.0e-4 / 1.1e-3, rel=1e-12)


def test_estimate_reads_db_from_environment(capsys, monkeypatch, bench_file,
                                            model_file):
    monkeypatch.setenv("POLYEST_DB", bench_file)
    code, out, _ = run(
        capsys, "estimate", "--model", model_file, "--distance", "3"
    )
    assert code == 0
    assert out.startswith("p_xl = 0.0011")


def test_estimate_requires_some_db(capsys, model_file):
    code, out, err = run(capsys, "estimate", "--model", model_file,
                         "--distance", "3")
    assert code == 1
    assert "POLYEST_DB" in err


def test_estimate_missing_entry_is_input_error(capsys, bench_file, tmp_path):
    other = tmp_path / "hot.json"
    other.write_text(json.dumps({"depolarizing": 1e-2}))
    code, out, err = run(
        capsys, "estimate", "--db", bench_file, "--model", str(other),
        "--distance", "3",
    )
    assert code == 1
    assert "missing database entry" in err


def test_estimate_db_row_without_rounds_is_input_error(capsys, tmp_path, model_file):
    path = tmp_path / "bad.csv"
    path.write_text(f"{CSV_HEADER}\n3,1,1,0.01,1000,0,200,300,0.04,0.06,0\n")
    code, out, err = run(
        capsys, "estimate", "--db", str(path), "--model", model_file, "--distance", "3",
    )
    assert (code, out) == (1, "")
    assert err == "error: line 2: rounds must be positive when shots=1000\n"


def test_estimate_db_rate_outside_unit_interval_is_input_error(capsys, tmp_path, model_file):
    # A database rate takes the one probability rule, with its message.
    path = tmp_path / "bad.csv"
    path.write_text(f"{CSV_HEADER}\n3,1,1,0.01,0,0,0,0,1.5,0.06,0\n")
    code, out, err = run(
        capsys, "estimate", "--db", str(path), "--model", model_file, "--distance", "3",
    )
    assert (code, out) == (1, "")
    assert err == "error: line 2: p_xl must lie in [0, 1], got 1.5\n"


def test_estimate_seeded_db_row_with_counts_is_input_error(capsys, tmp_path, model_file):
    path = tmp_path / "bad.csv"
    path.write_text(f"{CSV_HEADER}\n3,1,1,0.01,0,5,200,300,0.04,0.06,0\n")
    code, out, err = run(
        capsys, "estimate", "--db", str(path), "--model", model_file, "--distance", "3",
    )
    assert (code, out) == (1, "")
    assert err == (
        "error: line 2: seeded entry (shots=0) has nonzero rounds, fails_x, fails_z\n"
    )


def test_solve_prints_distance(capsys, bench_file, model_file):
    code, out, err = run(
        capsys, "solve", "--db", bench_file, "--model", model_file,
        "--target", "1e-20",
    )
    assert (code, out, err) == (0, "36\n", "")


def test_solve_json(capsys, bench_file, model_file):
    code, out, _ = run(
        capsys, "solve", "--db", bench_file, "--model", model_file,
        "--target", "1e-6", "--json",
    )
    assert code == 0
    assert json.loads(out)["d"] == 10


def test_solve_above_threshold_is_exit_2(capsys, tmp_path, model_file):
    db = RateDatabase()
    for d, p in ((3, 1e-3), (4, 1e-3), (5, 2e-3), (6, 2e-3)):
        for r0 in (2.0, 5.0):
            db.add(DbEntry.seeded(d, r0, 1.0, 1e-3, p, p))
    path = tmp_path / "hot.csv"
    db.save(path)
    code, out, err = run(
        capsys, "solve", "--db", str(path), "--model", model_file,
        "--target", "1e-9",
    )
    assert code == 2
    assert out == ""
    assert "error:" in err


@pytest.mark.parametrize("p5, message", [
    (1e-170, "extrapolation ratios square to 0: x = 1e-167, y = 0.1"),
    (1e-161, "extrapolation coefficients p3/x**2 = inf and p4/y**2 = 0.09999999999999998 "
             "must be finite"),
], ids=["square_underflows", "coeff_overflows"])
def test_estimate_past_a_ratio_too_small_to_square_is_exit_2(capsys, tmp_path, model_file,
                                                             p5, message):
    # These fits once crashed the command with a traceback and exit 1.
    db = RateDatabase()
    for d, p in ((3, 1e-3), (4, 1e-3), (5, p5), (6, 1e-4)):
        for r0 in (2.0, 5.0):
            db.add(DbEntry.seeded(d, r0, 1.0, 1e-3, p, p))
    path = tmp_path / "tiny.csv"
    db.save(path)
    code, out, err = run(capsys, "estimate", "--db", str(path), "--model", model_file,
                         "--distance", "7")
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_bad_flags_are_exit_1(capsys, model_file):
    assert run(capsys, "nonsense")[0] == 1
    assert run(capsys, "estimate", "--model", model_file)[0] == 1  # no --distance
    assert run(capsys, "solve", "--target", "oops")[0] == 1


# ---------------------------------------------------------------------------
# generate
# ---------------------------------------------------------------------------


def _grid_file(tmp_path):
    path = tmp_path / "grid.json"
    path.write_text(json.dumps(
        {"distances": [3], "r0": [1], "r1": [1], "p2": [1e-2]}
    ))
    return str(path)


def test_generate_writes_database(capsys, tmp_path):
    grid = _grid_file(tmp_path)
    out_path = tmp_path / "db.csv"
    code, out, err = run(
        capsys, "generate", "--grid", grid, "--out", str(out_path),
        "--seed", "9", "--target-fails", "5", "--max-shots", "4096",
    )
    assert code == 0
    assert out == ""  # progress goes to stderr only
    assert "wrote" in err
    db = RateDatabase.load(out_path)
    assert len(db) == 1
    assert db.metadata["seed"] == "9"
    entry = db.get(3, 1.0, 1.0, 1e-2)
    assert entry.fails_x >= 5 and entry.fails_z >= 5

    # rerunning over the same grid recomputes nothing and keeps the file
    before = out_path.read_bytes()
    code, _, err = run(
        capsys, "generate", "--grid", grid, "--out", str(out_path),
        "--seed", "9", "--target-fails", "5", "--max-shots", "4096",
    )
    assert code == 0
    assert "already present" in err
    assert out_path.read_bytes() == before


def test_generate_is_deterministic_across_files(capsys, tmp_path):
    grid = _grid_file(tmp_path)
    blobs = []
    for name in ("a.csv", "b.csv"):
        path = tmp_path / name
        code, _, _ = run(
            capsys, "generate", "--grid", grid, "--out", str(path),
            "--seed", "9", "--target-fails", "5", "--max-shots", "4096",
        )
        assert code == 0
        blobs.append(path.read_bytes())
    assert blobs[0] == blobs[1]


def test_one_point_generate_and_its_estimate_are_pinned(capsys, tmp_path):
    # The database's bytes pin the noise draw and decode of generate; the
    # model's z ratio r0 = 10/3 lies between the r0 = 2 and r0 = 5 rows, so
    # the estimate's z rate runs the corner interpolation.
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps({"distances": [3], "r0": [2, 5], "r1": [1], "p2": [5e-3]}))
    model = tmp_path / "model.json"
    model.write_text(json.dumps({"depolarizing": 5e-3}))
    db = tmp_path / "rates.csv"
    code, _, _ = run(capsys, "generate", "--grid", str(grid), "--out", str(db),
                     "--max-shots", "512")
    assert code == 0
    assert hashlib.sha256(db.read_bytes()).hexdigest() == (
        "25e663ebb85b48d55928f8f974b04f34a7c2b8a4074cb0a48951bbd4d6fed6a1"
    )
    code, out, _ = run(capsys, "estimate", "--db", str(db), "--model", str(model),
                       "--distance", "3")
    assert code == 0
    assert out == "p_xl = 0.016927083333333332\np_zl = 0.014829030207455277\n"


def test_generate_rejects_bad_grid_file(capsys, tmp_path):
    bad = tmp_path / "grid.json"
    bad.write_text("{not json")
    code, _, err = run(
        capsys, "generate", "--grid", str(bad), "--out", str(tmp_path / "o.csv")
    )
    assert code == 1
    assert "error:" in err


@pytest.mark.parametrize("case", ["string_axis_value", "empty_stamp_key"])
def test_generate_rejects_what_store_cannot_read_back_before_simulating(
    capsys, tmp_path, monkeypatch, case
):
    # A grid axis value follows GridSpec's rule, and --out follows load's
    # stamp rule, which is save's: both fail before the first point.
    from polyest import ratedb

    def no_simulation(*args, **kwargs):
        raise AssertionError("run_monte_carlo called")

    monkeypatch.setattr(ratedb, "run_monte_carlo", no_simulation)
    grid = _grid_file(tmp_path)
    out_path = tmp_path / "db.csv"
    if case == "string_axis_value":
        with open(grid, "w") as fh:
            json.dump({"distances": [3], "r0": ["2"], "r1": [1], "p2": [1e-2]}, fh)
        want = "error: r0='2' is not on the 1-2-5 ladder\n"
    else:
        out_path.write_text(f"# =x\n{CSV_HEADER}\n")
        want = "error: line 1: metadata key '': a key must be non-empty\n"
    before = out_path.read_bytes() if out_path.exists() else None
    code, out, err = run(capsys, "generate", "--grid", grid, "--out", str(out_path))
    assert (code, out, err) == (1, "", want)
    assert (out_path.read_bytes() if out_path.exists() else None) == before


@pytest.mark.parametrize("role", ["database", "model", "grid"])
def test_a_file_that_is_not_utf8_is_an_input_error_naming_it(capsys, tmp_path, model_file, role):
    bad = tmp_path / "bin.dat"
    bad.write_bytes(b"\xff\xfe{}\n")
    argv = {
        "database": ("estimate", "--db", str(bad), "--model", model_file, "--distance", "3"),
        "model": ("reduce", "--model", str(bad)),
        "grid": ("generate", "--grid", str(bad), "--out", str(tmp_path / "o.csv")),
    }[role]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and str(bad) in err and "can't decode byte 0xff" in err
    assert not (tmp_path / "o.csv").exists()


def test_generate_rejects_zero_target_fails(capsys, tmp_path):
    out_path = tmp_path / "db.csv"
    code, _, err = run(
        capsys, "generate", "--grid", _grid_file(tmp_path), "--out", str(out_path),
        "--target-fails", "0",
    )
    assert code == 1
    assert "target_fails" in err
    assert not out_path.exists()


def test_generate_rejects_missing_out_directory_before_simulating(capsys, tmp_path, monkeypatch):
    from polyest import ratedb

    def no_simulation(*args, **kwargs):
        raise AssertionError("run_monte_carlo called")

    monkeypatch.setattr(ratedb, "run_monte_carlo", no_simulation)
    out_path = tmp_path / "missing" / "db.csv"
    code, out, err = run(
        capsys, "generate", "--grid", _grid_file(tmp_path), "--out", str(out_path),
    )
    assert (code, out) == (1, "")
    assert err == f"error: --out directory {out_path.parent} does not exist\n"
    assert not out_path.parent.exists()


def test_generate_stamps_version_and_warns_on_other_versions(capsys, tmp_path):
    grid = _grid_file(tmp_path)
    out_path = tmp_path / "db.csv"
    argv = ("generate", "--grid", grid, "--out", str(out_path),
            "--seed", "9", "--target-fails", "5", "--max-shots", "4096")
    code, _, err = run(capsys, *argv)
    assert code == 0 and "warning" not in err
    lines = out_path.read_text().splitlines()
    assert f"# polyest_version={polyest.__version__}" in lines
    stamped = out_path.read_bytes()

    code, _, err = run(capsys, *argv)  # same version: no warning
    assert code == 0 and "warning" not in err

    # Another version's stamp refuses the run; a file without one takes the
    # run's, as a file without a seed stamp does, and draws no warning.
    kept = [ln for ln in lines if not ln.startswith("# polyest_version=")]
    for old, want in (("# polyest_version=0.1.0", 1), (None, 0)):
        out_path.write_text("\n".join(([old] if old else []) + kept) + "\n")
        written = out_path.read_bytes()
        code, _, err = run(capsys, *argv)
        assert code == want and "warning" not in err
        assert out_path.read_bytes() == (written if want else stamped)


def test_generate_refuses_to_extend_a_file_stamped_with_other_settings(capsys, tmp_path):
    # One stamp describes every row of a file, so a run with another seed,
    # target_fails or max_shots must not add rows to it and relabel them all.
    grid = _grid_file(tmp_path)
    out_path = tmp_path / "db.csv"
    first = ["generate", "--grid", grid, "--out", str(out_path),
             "--seed", "1", "--target-fails", "5", "--max-shots", "256"]
    assert run(capsys, *first)[0] == 0
    stamped = out_path.read_bytes()
    for flag, value, recorded in (
        ("--seed", "2", "seed=1"), ("--target-fails", "7", "target_fails=5"),
        ("--max-shots", "512", "max_shots=256"),
    ):
        argv = list(first)
        argv[argv.index(flag) + 1] = value
        code, _, err = run(capsys, *argv)
        assert code == 1
        assert f"{recorded} (given {value})" in err
        assert out_path.read_bytes() == stamped
    # Nor may a run add rows to a file another polyest version wrote.
    version = f"# polyest_version={polyest.__version__}\n"
    out_path.write_text(stamped.decode().replace(version, "# polyest_version=0.1.0\n"))
    written = out_path.read_bytes()
    code, _, err = run(capsys, *first)
    assert code == 1
    assert f"polyest_version=0.1.0 (given {polyest.__version__})" in err
    assert out_path.read_bytes() == written
    # A file without these stamps takes the run's, as before.
    kept = [ln for ln in stamped.decode().splitlines()
            if not ln.startswith(("# seed=", "# target_fails=", "# max_shots="))]
    out_path.write_text("\n".join(kept) + "\n")
    code, _, err = run(capsys, *argv)
    assert code == 0 and "already present" in err
    assert "# max_shots=512" in out_path.read_text().splitlines()


def test_generate_refuses_a_file_of_another_version_before_simulating(
    capsys, tmp_path, monkeypatch,
):
    # A file's polyest_version stamp takes the rule its seed stamp takes:
    # another version's rows differ at a fixed seed, so none may join them.
    from polyest import ratedb

    grid = _grid_file(tmp_path)
    out_path = tmp_path / "db.csv"
    argv = ("generate", "--grid", grid, "--out", str(out_path), "--max-shots", "256")
    assert run(capsys, *argv)[0] == 0
    version = f"# polyest_version={polyest.__version__}\n"
    text = out_path.read_text()
    assert version in text
    out_path.write_text(text.replace(version, "# polyest_version=0.1.0\n"))
    written = out_path.read_bytes()

    def no_simulation(*args, **kwargs):
        raise AssertionError("run_monte_carlo called")

    monkeypatch.setattr(ratedb, "run_monte_carlo", no_simulation)
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert err == (f"error: {out_path} was generated with polyest_version=0.1.0 "
                   f"(given {polyest.__version__}); extend it with the same values "
                   "or write a new --out\n")
    assert out_path.read_bytes() == written


def test_generate_resumes_after_kill_byte_identical(capsys, tmp_path):
    # A generate run killed after its first grid point keeps that point on
    # disk; rerunning completes the grid with the bytes of an unbroken run.
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps(
        {"distances": [3], "r0": [1, 2, 5], "r1": [1], "p2": [1e-2]}
    ))
    flags = ["--seed", "3", "--target-fails", "1000000", "--max-shots", "1200"]
    killed = tmp_path / "killed.csv"
    src = os.path.dirname(os.path.dirname(os.path.abspath(polyest.__file__)))
    child = subprocess.Popen(
        [sys.executable, "-m", "polyest", "generate", "--grid", str(grid),
         "--out", str(killed), *flags],
        env={**os.environ, "PYTHONPATH": src},
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    try:
        deadline = time.monotonic() + 120.0
        while not killed.exists() and child.poll() is None:
            assert time.monotonic() < deadline, "no checkpoint within 120 s"
            time.sleep(0.005)
    finally:
        child.send_signal(signal.SIGKILL)
        child.wait(timeout=30)
    assert child.returncode == -signal.SIGKILL
    assert 1 <= len(RateDatabase.load(killed)) < 3

    code, _, err = run(capsys, "generate", "--grid", str(grid), "--out", str(killed), *flags)
    assert code == 0 and "already present" in err
    whole = tmp_path / "whole.csv"
    code, _, _ = run(capsys, "generate", "--grid", str(grid), "--out", str(whole), *flags)
    assert code == 0
    assert len(RateDatabase.load(whole)) == 3
    assert killed.read_bytes() == whole.read_bytes()


# ---------------------------------------------------------------------------
# README examples
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("command", readme_examples.COMMANDS)
def test_readme_examples_print_what_the_readme_shows(monkeypatch, command):
    # The README's reduce and simulate outputs, byte for byte.
    [(argv, expected)] = [ex for ex in readme_examples.examples() if ex[0][0] == command]
    monkeypatch.chdir(readme_examples.README.parent)
    assert readme_examples.run(argv) == (0, expected)


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

_SIM_ARGV = (
    "simulate", "--distance", "3",
    "--p0x", "2e-3", "--p0z", "2e-3", "--p1x", "1e-3", "--p1z", "1e-3",
    "--p2", "1e-2", "--shots", "300", "--rounds", "3", "--seed", "5",
)


def test_simulate_data_line(capsys):
    code, out, err = run(capsys, *_SIM_ARGV)
    assert code == 0
    assert err == ""
    lines = out.splitlines()
    assert len(lines) == 1
    fields = lines[0].split(",")
    assert len(fields) == 14
    assert fields[0] == "3"
    assert float(fields[5]) == 1e-2
    assert fields[6] == "300" and fields[7] == "3"
    fails_x, fails_z = int(fields[8]), int(fields[9])
    assert float(fields[10]) == fails_x / 900
    assert float(fields[12]) == math.sqrt(fails_x) / 900
    assert fails_x + fails_z > 0


def test_simulate_is_byte_deterministic(capsys):
    outs = [run(capsys, *_SIM_ARGV)[1] for _ in range(2)]
    assert outs[0] == outs[1]


def test_simulate_dump_graph(capsys, tmp_path):
    dump = tmp_path / "graph.csv"
    code, out, err = run(capsys, *_SIM_ARGV, "--dump-graph", str(dump))
    assert code == 0
    assert "edge classes" in err
    lines = dump.read_text().splitlines()
    assert lines[0] == "node_a,node_b,weight,mask"
    assert len(lines) > 20
    for line in lines[1:]:
        a, b, w, m = line.split(",")
        assert a[0] in "xz"
        assert float(w) > 0
        assert m in ("0", "1")


# sha256 of the --dump-graph file of both graphs at p0x, p0z, p1x, p1z, p2 =
# 1e-3, 2e-3, 3e-3, 4e-3, 1.5e-2, recorded with polyest 0.2.0.
_DUMP_GRAPH_SHA256 = {
    3: "8025fc039e4e010843846b56843db829d0cf0f1b6b3b7f3a1551a4aa1dfb7732",
    4: "480cd398309afe71fa448e81393969042004eadbbfa8b495e93f2c1c567e1ecc",
    5: "7f92340e93ae0dd1e151be1b7a8fd5292f5c672db6f15fdc43d413eda05a927e",
    6: "248053a3bcdba5c4e1f78ce5ac9dc976b920cb2773698c140bdd36abd32e318a",
}


@pytest.mark.parametrize("d", sorted(_DUMP_GRAPH_SHA256))
def test_simulate_dump_graph_bytes_are_pinned(capsys, tmp_path, d):
    dump = tmp_path / "graph.csv"
    code, _, _ = run(
        capsys, "simulate", "--distance", str(d), "--p0x", "1e-3", "--p0z", "2e-3",
        "--p1x", "3e-3", "--p1z", "4e-3", "--p2", "1.5e-2", "--shots", "1", "--rounds", "1",
        "--dump-graph", str(dump),
    )
    assert code == 0
    assert hashlib.sha256(dump.read_bytes()).hexdigest() == _DUMP_GRAPH_SHA256[d]


def test_simulate_dump_graph_at_unequal_rates_is_pinned(capsys, tmp_path):
    # build_graphs sums the footprint arrays the shots XOR; the hash was
    # recorded when it walked a per-fault table one fault at a time.
    dump = tmp_path / "g.csv"
    code, _, _ = run(
        capsys, "simulate", "--distance", "4", "--p0x", "2e-3", "--p0z", "3e-3",
        "--p1x", "1e-3", "--p1z", "4e-3", "--p2", "5e-3", "--shots", "1", "--rounds", "1",
        "--seed", "1", "--dump-graph", str(dump),
    )
    assert code == 0
    assert hashlib.sha256(dump.read_bytes()).hexdigest() == (
        "3918d49a66eccdc7aefe86e6d9a3277e4859897ff0f971769ae6ffd47ccf254d"
    )


@pytest.mark.parametrize("d, p0, p1, p2, shots, rounds, line", [
    # every decoded row has a cluster of three or more events
    pytest.param(5, "3e-3", "3e-3", "3e-3", 256, 25,
                 "5,0.003,0.003,0.003,0.003,0.003,256,25,12,9,0.001875,0.00140625,"
                 "0.0005412658773652742,0.00046875", id="blossom_d5"),
    # most clusters of three or more events have their flip settled without
    # the blossom
    pytest.param(4, "2e-3", "2e-3", "2e-3", 1024, 40,
                 "4,0.002,0.002,0.002,0.002,0.002,1024,40,62,53,0.001513671875,"
                 "0.0012939453125,0.0001922365203616165,0.00017773705784376265",
                 id="low_noise_d4"),
    # both outcome-flip classes have p*n = 60, past where binomial samplers
    # commonly leave inversion; the draw's one CDF table covers every rate
    pytest.param(3, "0.05", "1e-3", "1e-3", 64, 200,
                 "3,0.05,0.05,0.001,0.001,0.001,64,200,18,14,0.00140625,0.00109375,"
                 "0.0003314563036811941,0.0002923169833417142", id="flip_p_n_60_d3"),
])
def test_simulate_lines_are_pinned(capsys, d, p0, p1, p2, shots, rounds, line):
    code, out, err = run(
        capsys, "simulate", "--distance", str(d), "--p0x", p0, "--p0z", p0,
        "--p1x", p1, "--p1z", p1, "--p2", p2, "--shots", str(shots),
        "--rounds", str(rounds), "--seed", "1",
    )
    assert (code, out, err) == (0, line + "\n", "")


@pytest.mark.parametrize("flag, value", [("--rounds", "0"), ("--shots", "-1"), ("--seed", "-2")])
def test_simulate_validates_before_dumping_graph(capsys, tmp_path, flag, value):
    dump = tmp_path / "graph.csv"
    argv = list(_SIM_ARGV)
    argv[argv.index(flag) + 1] = value
    code, out, err = run(capsys, *argv, "--dump-graph", str(dump))
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and flag[2:] in err
    assert "edge classes" not in err
    assert not dump.exists()


def test_simulate_rejects_bad_rates(capsys):
    argv = list(_SIM_ARGV)
    argv[argv.index("--p2") + 1] = "1.5"
    assert run(capsys, *argv)[0] == 1


# ---------------------------------------------------------------------------
# curve
# ---------------------------------------------------------------------------


@pytest.fixture()
def curve_db(tmp_path):
    db = RateDatabase()
    for d in (3, 4, 5, 6):
        for k, p2 in enumerate((1e-3, 2e-3)):
            px = (2 + k) * 10.0 ** (-d)
            db.add(DbEntry.seeded(d, 1.0, 1.0, p2, px, 2 * px))
    path = tmp_path / "curve.csv"
    db.save(path)
    return str(path)


def test_curve_table(capsys, curve_db):
    code, out, err = run(
        capsys, "curve", "--db", curve_db, "--r0", "1", "--r1", "1",
        "--p2-min", "1e-3", "--p2-max", "2e-3",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "p2,d3,d4,d5,d6"
    assert len(lines) == 3
    assert lines[1].split(",")[0] == "1e-3"
    assert float(lines[1].split(",")[1]) == 2e-3
    assert float(lines[2].split(",")[4]) == 3e-6


def test_curve_brackets_each_row_once(capsys, tmp_path, bracket_calls):
    # One row's corners serve its four distances: three ladder_neighbors
    # calls (one per axis) per printed row, not twelve.
    path = tmp_path / "flat.csv"
    build_flat_db((0.5, 1.0), (0.2, 0.5), ladder_values(*AXES["p2"])).save(path)
    code, out, err = run(capsys, "curve", "--db", str(path), "--r0", "0.7", "--r1", "0.3")
    assert code == 0 and err == ""
    rows = out.splitlines()[1:]
    assert len(rows) == len(ladder_values(*AXES["p2"]))
    assert bracket_calls == ["r0", "r1", "p2"] * len(rows)


def test_curve_skips_missing_points(capsys, curve_db):
    code, out, err = run(
        capsys, "curve", "--db", curve_db, "--r0", "1", "--r1", "1",
        "--p2-min", "1e-3", "--p2-max", "5e-3",
    )
    assert code == 0
    assert len(out.splitlines()) == 3  # 5e-3 row skipped
    assert "skipping p2=5e-3" in err


def test_curve_empty_sweep_prints_header_only(capsys, curve_db):
    code, out, err = run(
        capsys, "curve", "--db", curve_db, "--p2-min", "0.05",
    )
    assert code == 0
    assert out == "p2,d3,d4,d5,d6\n"


@pytest.mark.parametrize(
    "flags",
    [
        ("--p2-min", "nan"),
        ("--p2-max", "nan"),
        ("--p2-min=-inf",),
        ("--p2-max", "inf"),
        ("--p2-min=-1e-3",),
        ("--r0=-1",),
        ("--r1", "nan"),
        ("--r0", "inf", "--p2-min", "0.05"),
    ],
    ids=["p2_min_nan", "p2_max_nan", "p2_min_inf", "p2_max_inf", "p2_min_negative",
         "r0_negative", "r1_nan", "r0_inf_empty_sweep"],
)
def test_curve_rejects_bad_bounds_before_printing(capsys, curve_db, flags):
    # Nothing reaches stdout, not even the header, and the error names the flag.
    code, out, err = run(capsys, "curve", "--db", curve_db, *flags)
    assert code == 1
    assert out == ""
    assert err.startswith("error: " + flags[0].split("=")[0] + " must be finite and >= 0")


def test_curve_model_and_ratios_conflict(capsys, curve_db, model_file):
    code, _, err = run(
        capsys, "curve", "--db", curve_db, "--model", model_file, "--r0", "1",
    )
    assert code == 1
    assert "not both" in err


@pytest.mark.parametrize("kind", ["x", "z"])
def test_curve_model_prints_the_curve_of_its_ratios(capsys, bench_file, model_file, kind):
    rr = reduce(load_model(model_file))
    p0, p1, p2 = (getattr(rr, f"{name}{kind}") for name in ("p0", "p1", "p2"))
    sweep = ("curve", "--db", bench_file, "--kind", kind, "--p2-min", "1e-3", "--p2-max", "1e-3")
    by_model = run(capsys, *sweep, "--model", model_file)
    by_ratios = run(capsys, *sweep, "--r0", repr(p0 / p2), "--r1", repr(p1 / p2))
    assert by_model[0] == 0
    assert len(by_model[1].splitlines()) == 2
    assert by_model == by_ratios


def test_curve_model_warns_on_asymmetric_cnot_like_estimate(capsys, tmp_path):
    # The model's CNOT is lopsided (ix against xi), and it has no idle noise,
    # so its r1 of zero is clamped; curve reports both as estimate does.
    model = tmp_path / "asym.json"
    model.write_text(json.dumps({
        "cnot": {"ix": 1e-3, "xi": 1e-5, "iz": 1e-3, "zi": 1e-3}, "meas": {"flip": 1e-3},
    }))
    db = tmp_path / "flat.csv"
    build_flat_db((0.2, 0.5), (0.01,), (2e-3, 5e-3)).save(db)
    code, _, expected = run(
        capsys, "estimate", "--db", str(db), "--model", str(model), "--distance", "5",
    )
    assert code == 0
    assert expected.startswith("warning: asymmetric_cnot: ")
    code, out, err = run(
        capsys, "curve", "--db", str(db), "--model", str(model),
        "--p2-min", "2e-3", "--p2-max", "2e-3",
    )
    assert code == 0
    assert len(out.splitlines()) == 2
    assert err == expected


@pytest.mark.parametrize(
    "model", [{"depolarizing": 0.0}, {"meas": {"flip": 1e-3}}], ids=["all_zero", "flips_only"]
)
def test_curve_model_with_zero_p2_is_exit_2(capsys, tmp_path, curve_db, model):
    path = tmp_path / "model.json"
    path.write_text(json.dumps(model))
    code, out, err = run(capsys, "curve", "--db", curve_db, "--model", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")


def test_curve_warns_only_for_the_rows_it_prints(capsys, tmp_path):
    # The one-point database CI generates holds only d = 3 entries, each with
    # fewer than LOW_CONFIDENCE_FAILS failures, so curve skips every row.  The
    # p2 = 5e-3 row reads its d = 3 entries before its d = 4 entry turns out
    # to be missing, and that read once left a low_confidence warning under
    # a table of the header alone.
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps({"distances": [3], "r0": [2, 5], "r1": [1], "p2": [5e-3]}))
    model = tmp_path / "model.json"
    model.write_text(json.dumps({"depolarizing": 5e-3}))
    db = tmp_path / "rates.csv"
    code, _, _ = run(capsys, "generate", "--grid", str(grid), "--out", str(db),
                     "--max-shots", "512")
    assert code == 0
    code, out, err = run(capsys, "curve", "--db", str(db), "--model", str(model))
    assert code == 0
    assert out == "p2,d3,d4,d5,d6\n"
    lines = err.splitlines()
    assert len(lines) == 8 and all(line.startswith("skipping p2=") for line in lines)
    # Once the other distances are present the p2 = 5e-3 row is printed, and
    # its low-confidence d = 3 entries warn.
    full = RateDatabase.load(db)
    for d in (4, 5, 6):
        for r0 in (2.0, 5.0):
            full.add(DbEntry.seeded(d, r0, 1.0, 5e-3, 1e-3, 1e-3))
    full.save(db)
    code, out, err = run(capsys, "curve", "--db", str(db), "--model", str(model))
    assert code == 0
    assert [row.split(",")[0] for row in out.splitlines()[1:]] == ["5e-3"]
    assert err.splitlines()[-1].startswith("warning: low_confidence: ")
    assert err.count("warning:") == 1


def test_curve_kind_z(capsys, curve_db):
    code, out, _ = run(
        capsys, "curve", "--db", curve_db, "--kind", "z",
        "--p2-min", "1e-3", "--p2-max", "1e-3",
    )
    assert code == 0
    assert float(out.splitlines()[1].split(",")[1]) == 4e-3


@pytest.mark.parametrize("argv, out", [
    (("estimate", "--distance", "3"), "p_xl = 0.001\np_zl = 0.002\n"),
    (("solve", "--target", "1e-6"), "10\n"),
    (("curve", "--p2-min", "1e-4", "--p2-max", "1e-4"),
     "p2,d3,d4,d5,d6\n1e-4,0.001,0.0004,0.0001,3e-05\n"),
    (("curve", "--kind", "z"), "p2,d3,d4,d5,d6\n1e-4,0.002,0.0008,0.0002,6e-05\n"),
], ids=["estimate", "solve", "curve", "curve_z"])
def test_a_model_ratio_that_overflows_is_clamped_as_a_large_one(capsys, tmp_path, argv, out):
    # A model with no idle noise whose CNOT rates are all 1e-300 or 1e-320.
    # At 1e-320 the reduced p2 is subnormal and r0 = p0/p2 overflows to inf,
    # which once stopped estimate and solve with "axis r0 value must be
    # positive and finite", and curve with an error blaming an --r0 flag that
    # was not given.  Both models clamp to the seeded corner
    # (r0, r1, p2) = (200, 0.01, 1e-4).
    db = RateDatabase()
    for d, p in zip(DISTANCES, (1e-3, 4e-4, 1e-4, 3e-5)):
        db.add(DbEntry.seeded(d, 200.0, 0.01, 1e-4, p, 2 * p))
    db.save(tmp_path / "seeded.csv")
    answers = []
    for p in ("1e-300", "1e-320"):
        model = tmp_path / f"m{p}.json"
        model.write_text('{"init": {"flip": 1e-3}, "cnot": {%s}}' % ", ".join(
            f'"{name}": {p}' for name in ("ix", "xi", "xx", "iz", "zi", "zz")))
        rr = reduce(load_model(model))
        assert math.isinf(rr.p0x / rr.p2x) == (p == "1e-320")
        answers.append(run(capsys, argv[0], "--db", str(tmp_path / "seeded.csv"),
                           "--model", str(model), *argv[1:]))
    code, got, err = answers[0]
    assert (code, got) == (0, out)
    assert err.splitlines()[-1].startswith("warning: clamped: ")
    assert answers[1] == answers[0]


def _agreement_db():
    """Rates that vary with every key, over part of the axes.

    The sub-grid holds every rung of r0 in [0.2, 5] and of r1 in [0.1, 1],
    and the axis ends, where a zero ratio or one past an end clamps.  A query
    off it misses entries, so curve skips its rows; one entry is missing and
    one is zero inside it, and every 53rd entry is low confidence.
    """
    db = RateDatabase()
    r0s, r1s = (0.01, 0.2, 0.5, 1.0, 2.0, 5.0, 200.0), (0.01, 0.1, 0.2, 0.5, 1.0)
    keys = product(DISTANCES, r0s, r1s, ladder_values(*AXES["p2"]))
    for k, key in enumerate(keys):
        d, r0, r1, p2 = key
        if key == (4, 1.0, 0.2, 2e-3):
            continue
        rate = 0.0 if key == (5, 0.5, 0.2, 5e-4) else (
            1e-2 * (p2 / 1e-2) ** ((d + 1) / 2) * (1 + r0 / 100) * (1 + r1) * (1 + k % 13 / 100))
        db.add(DbEntry.seeded(*key, rate, min(1.2 * rate, 1.0), k % 53 == 0))
    return db


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    # on and off the sub-grid, on its rungs, zero and past either axis end
    r0=st.floats(-1, 0.9).map(lambda e: 10.0 ** e) | st.sampled_from([0.0, 2.0, 200.0, 1e4]),
    r1=st.floats(-1.2, 0).map(lambda e: 10.0 ** e) | st.sampled_from([0.0, 0.2, 1.0, 5.0]),
    kind=st.sampled_from("xz"),
)
@example(r0=0.7, r1=0.3, kind="x")  # the zero corner at p2 = 5e-4, the missing one at 2e-3
def test_curve_rows_are_interpolate_at_each_distance(capsys, tmp_path, r0, r1, kind):
    # curve reads each row through one Query; interpolate is one read of a
    # Query.  Every printed value, every skipped row and every warning of
    # curve must be those of interpolate at the row's p2 and each distance.
    path = tmp_path / "agree.csv"
    if not path.exists():
        _agreement_db().save(path)
    db = RateDatabase.load(path)
    rows, skipped, warnings = ["p2,d3,d4,d5,d6"], [], set()
    for p2 in ladder_values(*AXES["p2"]):
        found = set()
        try:
            values = [interpolate(db, d, r0, r1, p2, kind, found) for d in DISTANCES]
        except MissingEntryError as err:
            skipped.append(f"skipping p2={format_value(p2)}: {err}")
            continue
        warnings |= found
        rows.append(format_value(p2) + "," + ",".join(repr(v) for v in values))
    code, out, err = run(capsys, "curve", "--db", str(path), "--r0", repr(r0),
                         "--r1", repr(r1), "--kind", kind)
    assert code == 0
    assert out.splitlines() == rows
    lines = err.splitlines()
    assert lines[:len(skipped)] == skipped
    assert [line.split(":")[1].strip() for line in lines[len(skipped):]] == sorted(warnings)


@pytest.mark.parametrize("kind", ["x", "z"])
def test_curve_model_rows_are_the_estimate_at_each_distance(capsys, tmp_path, kind):
    # models/depol_1e-3.json reduces to p2 = 1e-3, r1 = 1 and r0 = 2 (x) or
    # 10/3 (z), which interpolates between the r0 = 2 and r0 = 5 rows.
    model = str(readme_examples.README.parent / "models" / "depol_1e-3.json")
    path = tmp_path / "agree.csv"
    _agreement_db().save(path)
    code, out, _ = run(capsys, "curve", "--db", str(path), "--model", model, "--kind", kind,
                       "--p2-min", "1e-3", "--p2-max", "1e-3")
    assert code == 0
    _, row = out.splitlines()
    p2, *values = row.split(",")
    assert p2 == "1e-3"
    for d, value in zip(DISTANCES, values):
        code, out, _ = run(capsys, "estimate", "--db", str(path), "--model", model,
                           "--distance", str(d))
        assert code == 0
        assert out.splitlines()["xz".index(kind)] == f"p_{kind}l = {value}"


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("polyest ")


@pytest.mark.parametrize("module, heavy, then", [
    pytest.param("polyest.cli", "networkx", "", id="polyest.cli-networkx"),
    pytest.param("polyest.cli", "numpy", "", id="polyest.cli-numpy"),
    pytest.param("polyest.error_model", "numpy", "", id="polyest.error_model-numpy"),
    pytest.param(
        "polyest.surface_sim", "networkx",
        "polyest.surface_sim.run_monte_carlo("
        "polyest.surface_sim.get_layout(3), (2e-2,) * 5, 64, 3, seed=1)",
        id="run_monte_carlo-networkx",
    ),
])
def test_cli_import_leaves_networkx_unloaded(module, heavy, then):
    # Decoding, blossom clusters included, runs on the in-repo matcher, and
    # reduction needs neither numpy nor the simulation stack; importing or
    # running a module must not pay for what it does not use.
    src = os.path.dirname(os.path.dirname(os.path.abspath(polyest.__file__)))
    out = subprocess.run(
        [sys.executable, "-c",
         f"import sys, {module}\n{then}\nprint({heavy!r} in sys.modules)"],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True, text=True, check=True,
    )
    assert out.stdout.strip() == "False"


def test_query_commands_load_no_simulation_stack(bench_file, model_file):
    # reduce, estimate, solve and curve read only the model and the CSV
    # store; the simulator, the decoder and numpy belong to generate and
    # simulate.
    src = os.path.dirname(os.path.dirname(os.path.abspath(polyest.__file__)))
    heavy = ["numpy", "polyest.surface_sim", "polyest.matcher", "polyest.ratedb"]
    db = ["--db", bench_file, "--model", model_file]
    argvs = [
        ["reduce", "--model", model_file],
        ["estimate", *db, "--distance", "7"],
        ["solve", *db, "--target", "1e-20"],
        ["curve", *db],
    ]
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys\nfrom polyest.cli import main\n"
         f"for argv in {argvs!r}:\n    assert main(argv) == 0, argv\n"
         f"print([m for m in {heavy!r} if m in sys.modules])"],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True, text=True, check=True,
    )
    assert out.stdout.splitlines()[-1] == "[]"
