"""Seeded input generators for the benchmark workloads.

Everything here is a pure function of the workload seed and uses only the
standard library, so the same seed gives the same inputs whatever numpy or
polyest version runs them.  The program under test sees only what these
functions return: a rate database file, error model dicts, model JSON files
and integer seeds.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random

# The full 1-2-5 ladder of the rate database axes (ratedb.AXES), written out
# so that building inputs needs no polyest import.
R0_LADDER = (0.01, 0.02, 0.05, 0.1, 0.2, 0.5, 1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0, 200.0)
R1_LADDER = (0.01, 0.02, 0.05, 0.1, 0.2, 0.5, 1.0)
P2_LADDER = (1e-4, 2e-4, 5e-4, 1e-3, 2e-3, 5e-3, 1e-2, 2e-2)
DISTANCES = (3, 4, 5, 6)
CSV_HEADER = "d,r0,r1,p2,shots,rounds,fails_x,fails_z,p_xl,p_zl,low_confidence"
PAULIS2 = (
    "ix", "iy", "iz", "xi", "xx", "xy", "xz",
    "yi", "yx", "yy", "yz", "zi", "zx", "zy", "zz",
)


def derive_seed(seed: int, label: str, index: int = 0) -> int:
    """A 63-bit seed for one named stream, independent of every other stream."""
    digest = hashlib.sha256(f"{seed}:{label}:{index}".encode()).digest()
    return int.from_bytes(digest[:8], "big") >> 1


def format_axis(v: float) -> str:
    """Canonical CSV spelling of a ladder value, as ratedb.format_value writes it."""
    m, e = _decompose(v)
    if e >= 0:
        return str(m * 10 ** e)
    if e in (-1, -2):
        return f"0.{'0' * (-e - 1)}{m}"
    return f"{m}e{e}"


def _decompose(v: float) -> tuple[int, int]:
    e0 = round(math.log10(v))
    for e in range(e0 - 1, e0 + 2):
        for m in (1, 2, 5):
            if float(f"{m}e{e}") == v:
                return m, e
    raise ValueError(f"{v!r} is not a ladder value")


# ---------------------------------------------------------------------------
# Synthetic full-ladder rate database
# ---------------------------------------------------------------------------

def _synthetic_rate(kind: str, d: int, r0: float, r1: float, p2: float) -> float:
    # Below-threshold surface code scaling, p_L ~ A (q / q_th)^((d+1)/2),
    # with the effective rate q rising with the measurement and idle ratios.
    # Large p2 or r0 puts a point above threshold, so some extrapolations
    # raise AboveThresholdError, as they do on a real database.
    scale = 1.0 if kind == "x" else 1.3
    q = p2 * (0.6 + 0.1 * math.sqrt(r0) + 0.3 * r1) * scale
    return min(0.08 * (q / 9.5e-3) ** ((d + 1) / 2.0), 0.45)


def synthetic_db_rows(seed: int) -> list[str]:
    """CSV rows of a 3136-entry database covering every ladder point.

    Each entry looks like a finished Monte Carlo point: a per-kind failure
    count near a target of 200, 300 or 1000, or 20 for one entry in twenty
    (low confidence), over the shots that target would have needed.  Counts are
    at least 1, so no entry is a zero-failure bound.
    """
    rng = random.Random(derive_seed(seed, "db"))
    rows = []
    for d in DISTANCES:
        for r0 in R0_LADDER:
            for r1 in R1_LADDER:
                for p2 in P2_LADDER:
                    px = _synthetic_rate("x", d, r0, r1, p2) * math.exp(rng.gauss(0.0, 0.08))
                    pz = _synthetic_rate("z", d, r0, r1, p2) * math.exp(rng.gauss(0.0, 0.08))
                    target = 20 if rng.random() < 0.05 else rng.choice((200, 300, 1000))
                    rounds = 10 * d
                    shots = max(1, math.ceil(target / (min(px, pz) * rounds)))
                    denom = shots * rounds
                    fx = min(denom, max(1, round(px * denom)))
                    fz = min(denom, max(1, round(pz * denom)))
                    low = "1" if fx < 100 or fz < 100 else "0"
                    rows.append(",".join((
                        str(d), format_axis(r0), format_axis(r1), format_axis(p2),
                        str(shots), str(rounds), str(fx), str(fz),
                        repr(fx / denom), repr(fz / denom), low,
                    )))
    return rows


def write_db(path: str, seed: int) -> None:
    rows = synthetic_db_rows(seed)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# source=synthetic seed={seed}\n{CSV_HEADER}\n" + "\n".join(rows) + "\n")


# ---------------------------------------------------------------------------
# Error model stream
# ---------------------------------------------------------------------------

def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def _random_cnot(rng: random.Random, total: float, asymmetric: bool) -> dict:
    weights = [rng.uniform(0.2, 1.0) for _ in PAULIS2]
    if asymmetric:
        # One dominant Pauli drives a derived-rate ratio far above 2.
        weights[rng.randrange(len(PAULIS2))] += 40.0
    s = sum(weights)
    return {name: total * w / s for name, w in zip(PAULIS2, weights)}


def _on_grid_model(rng: random.Random) -> dict:
    # init/meas and idle channels chosen so both kinds reduce onto ladder
    # points: p0 = r0 p2, p1 = r1 p2, p2 on the ladder.
    p2 = rng.choice(P2_LADDER)
    r0 = rng.choice([r for r in R0_LADDER if r * p2 <= 0.5])
    r1 = rng.choice(R1_LADDER)
    flip = r0 * p2 / 2.0
    idle = {"px": r1 * p2 / 1.5, "pz": r1 * p2 / 1.5}
    cnot = {name: p2 / 15.0 for name in PAULIS2}
    return {
        "init": {"flip": flip}, "meas": {"flip": flip},
        "id_init": idle, "id_had": idle, "id_meas": idle, "cnot": cnot,
    }


def _full_form_model(rng: random.Random, asymmetric: bool) -> dict:
    p = _log_uniform(rng, 2e-5, 1.5e-2)
    single = lambda scale: {  # noqa: E731
        "px": p * scale * rng.uniform(0.1, 0.5),
        "py": p * scale * rng.uniform(0.0, 0.3),
        "pz": p * scale * rng.uniform(0.1, 0.5),
    }
    return {
        "init": {"flip": p * rng.uniform(0.1, 3.0)},
        "meas": {"flip": min(0.4, p * _log_uniform(rng, 0.1, 400.0))},
        "hadamard": single(1.0),
        "id_init": single(rng.uniform(0.005, 1.0)),
        "id_had": single(rng.uniform(0.005, 1.0)),
        "id_meas": single(rng.uniform(0.005, 1.0)),
        "cnot": _random_cnot(rng, p, asymmetric),
    }


def _depolarizing_model(rng: random.Random) -> dict:
    # Some depolarizing rates fall outside the p2 axis [1e-4, 2e-2], so the
    # query is clamped at an axis end; measurement overrides push r0 past 200.
    model = {"depolarizing": _log_uniform(rng, 3e-5, 3e-2)}
    if rng.random() < 0.5:
        model["meas"] = _log_uniform(rng, 1e-5, 0.1)
    return model


def _model(rng: random.Random) -> dict:
    # The mix: 35% depolarizing (half with a measurement override), 35%
    # full-form with random 15-entry CNOT channels (a third of them strongly
    # asymmetric, which triggers asymmetric_cnot), 20% reducing exactly onto
    # grid points, and 10% full-form with r0 far above the axis (clamped).
    u = rng.random()
    if u < 0.35:
        return _depolarizing_model(rng)
    if u < 0.70:
        return _full_form_model(rng, asymmetric=rng.random() < 1 / 3)
    if u < 0.90:
        return _on_grid_model(rng)
    model = _full_form_model(rng, asymmetric=False)
    model["meas"] = {"flip": 0.45}
    return model


QUERY_BLOCK = 1024


def query_block(seed: int, block: int, label: str = "queries") -> list[tuple]:
    """Block ``block`` of the seeded query stream: (op, model dict, argument).

    Ops are ("estimate", model, d) and ("solve", model, target), three
    estimates per solve in a fixed pattern so the latency mix is the same for
    every seed; distances span 3..40 and targets 1e-24..1e-3.
    """
    rng = random.Random(derive_seed(seed, label, block))
    ops = []
    for i in range(QUERY_BLOCK):
        model = _model(rng)
        if i % 4 == 3:
            ops.append(("solve", model, 10.0 ** rng.uniform(-24.0, -3.0)))
        else:
            ops.append(("estimate", model, rng.randint(3, 40)))
    return ops


def write_model_files(directory: str, models: list[dict]) -> list[str]:
    """Write each model as one JSON file for the command line; returns the paths."""
    os.makedirs(directory, exist_ok=True)
    paths = []
    for i, model in enumerate(models):
        path = os.path.join(directory, f"model_{i:03d}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(model, fh)
        paths.append(path)
    return paths
