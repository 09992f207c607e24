"""Rate database generation: fill a RateDatabase by Monte Carlo.

Each grid point runs a short pilot to choose its rounds per shot, then
accumulates shots until both failure counts reach a target or the shot
budget is spent.  Seeds are derived per point from the master seed, so
results do not depend on which grid spec includes the point.
"""

from __future__ import annotations

import math
from dataclasses import astuple
from typing import Callable

import numpy as np

from .store import (
    LOW_CONFIDENCE_FAILS, MAX_SHOTS, DbEntry, DbError, GridSpec, RateDatabase, check_int,
    format_value, ladder_decompose,
)
from .surface_sim import Rates, SimResult, enumerate_single_faults, get_layout, run_monte_carlo


def _point_seeds(master_seed: int, d: int, r0: float, r1: float, p2: float):
    """Independent pilot and main RNG roots for one grid point.

    Keyed by the ladder decomposition of the coordinates, so the same point
    gets the same seeds regardless of which grid spec includes it.  Exponents
    are offset to keep the entropy pool non-negative.
    """
    parts = [int(master_seed), int(d)]
    for v in (r0, r1, p2):
        m, e = ladder_decompose(v)
        parts.extend((m, e + 16))
    root = np.random.SeedSequence(parts)
    pilot, main = root.spawn(2)
    return (
        int(pilot.generate_state(1, np.uint64)[0]),
        int(main.generate_state(1, np.uint64)[0]),
    )


PILOT_SHOTS = 256


def choose_rounds(d: int, p_hat: float) -> int:
    """Rounds per shot keeping expected failures per shot near or below 0.1.

    Bounded below by the code distance and above by 10x the distance, so a
    shot is never shorter than one logical-scale memory window and never so
    long that multi-failure cancellation distorts the per-round estimate.
    """
    if p_hat <= 0.0:
        return 10 * d
    return max(d, min(math.ceil(0.1 / p_hat), 10 * d))


def generate(
    db: RateDatabase,
    grid: GridSpec,
    seed: int,
    *,
    target_fails: int = LOW_CONFIDENCE_FAILS,
    max_shots: int = MAX_SHOTS,
    progress: Callable[[str], None] | None = None,
    checkpoint: Callable[[RateDatabase], None] | None = None,
) -> tuple[list[tuple], list[tuple]]:
    """Fill a database with Monte Carlo results for every grid point.

    Points already present in ``db`` are kept as-is, so reruns extend rather
    than recompute.  Points whose implied p0 = r0 * p2 exceeds 1 are skipped
    with a note.  Each point runs a short pilot at rounds = d to set the
    production round count, then accumulates shots until both failure
    counters reach ``target_fails`` or ``max_shots`` is spent.  Results are
    deterministic in (seed, point) and independent of grid batching.
    ``checkpoint``, if given, receives ``db`` after each point is added, for
    example to save it, so an interrupted run loses at most the point in
    progress.  ``seed`` must be an integer >= 0, ``target_fails`` and
    ``max_shots`` integers >= 1.

    Returns (added_keys, skipped) where skipped pairs each key with a reason.
    """
    seed, target_fails, max_shots = (check_int(DbError, *check) for check in (
        ("seed", seed, 0), ("target_fails", target_fails, 1), ("max_shots", max_shots, 1),
    ))
    note = progress or (lambda msg: None)
    added: list[tuple] = []
    skipped: list[tuple] = []
    for d, r0, r1, p2 in grid.points():
        key = (d, r0, r1, p2)
        label = (
            f"d={d} r0={format_value(r0)} r1={format_value(r1)} p2={format_value(p2)}"
        )
        if key in db:
            skipped.append((key, "already present"))
            note(f"skip {label}: already present")
            continue
        p0 = r0 * p2
        p1 = r1 * p2
        if p0 > 1.0:
            skipped.append((key, "p0 above 1"))
            note(f"skip {label}: r0*p2 = {p0:.3g} exceeds 1")
            continue
        rates = Rates(p0x=p0, p0z=p0, p1x=p1, p1z=p1, p2=p2)
        layout = get_layout(d)
        from .matcher import build_graphs

        graphs = build_graphs(enumerate_single_faults(layout), rates, layout)
        pilot_seed, main_seed = _point_seeds(seed, d, r0, r1, p2)
        pilot = run_monte_carlo(
            layout, rates, PILOT_SHOTS, d, pilot_seed, graphs=graphs
        )
        # A pilot without failures gets 10 d rounds, as one failure would.
        total = SimResult(0, choose_rounds(d, max(pilot.p_xl, pilot.p_zl)), 0, 0)
        while total.shots < max_shots and min(total.fails_x, total.fails_z) < target_fails:
            total = total.merged(run_monte_carlo(
                layout, rates, min(2048, max_shots - total.shots), total.rounds, main_seed,
                graphs=graphs, first_shot_index=total.shots,
            ))
        entry = DbEntry.from_counts(d, r0, r1, p2, *astuple(total))
        db.add(entry)
        added.append(key)
        if checkpoint is not None:
            checkpoint(db)
        note(
            f"done {label}: rounds={total.rounds} shots={total.shots} "
            f"fails_x={total.fails_x} fails_z={total.fails_z}"
            + (" (low confidence)" if entry.low_confidence else "")
        )
    return added, skipped
