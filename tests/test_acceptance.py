"""End-to-end acceptance checks for the released toolkit.

Each test covers one release criterion and prints a single PASS or FAIL
line even under pytest's output capture, so the suite doubles as a
checklist.  Statistical checks run with fixed seeds and are therefore
reproducible; the two Monte Carlo criteria and the database generation
criterion dominate the runtime (a few minutes total).
"""

import math
import time

import numpy as np

from _oracle import fault_effects
from conftest import build_bench_db
from test_matcher import OracleTables, brute_force_total

from polyest.error_model import depolarizing_model, model_from_dict, reduce
from polyest.estimator import estimate, evaluate, fit, interpolate, solve_distance
from polyest.matcher import build_graphs, min_weight_perfect_matching
from polyest.ratedb import generate
from polyest.store import DbEntry, GridSpec, RateDatabase, ladder_neighbors
from polyest.surface_sim import Rates, enumerate_single_faults, get_layout, run_monte_carlo


def _report(capsys, num, name, passed, detail):
    with capsys.disabled():
        status = "PASS" if passed else "FAIL"
        print(f"acceptance {num:02d} {name}: {status} ({detail})")
    assert passed, f"criterion {num} {name}: {detail}"


def _sim_rates(reduced):
    # The simulator takes one CNOT rate; callers pick the kind themselves.
    return Rates(reduced.p0x, reduced.p0z, reduced.p1x, reduced.p1z, reduced.p2x)


def test_c01_reduction_fixed_point(capsys):
    worst = 0.0
    for p in (1e-4, 1e-3, 1e-2):
        rr = reduce(depolarizing_model(p))
        pinned = {
            "p0x": 2.0 * p,
            "p1x": p,
            "p1z": p,
            "p2x": p,
            "p2z": p,
        }
        for field, want in pinned.items():
            worst = max(worst, abs(getattr(rr, field) - want) / want)
    _report(capsys, 1, "reduction fixed point", worst <= 1e-12,
            f"max relative error {worst:.2e} over p in 1e-4..1e-2")


def test_c02_seeded_benchmark_extrapolation(capsys):
    db = build_bench_db()
    model = depolarizing_model(1e-3)
    values = {d: estimate(db, model, d).p_xl for d in (7, 8, 9, 10, 36)}
    finite = all(0.0 < v < 1.0 and math.isfinite(v) for v in values.values())
    ordered = (values[7] > values[8] > values[9] > values[10] > values[36])
    lo, hi = 8.5e-6 * 0.95, 9.0e-6 * 1.05
    in_band = lo <= values[7] <= hi
    solved = solve_distance(db, model, 1e-20)
    target_met = solved.p_xl <= 1e-20 and solved.p_zl <= 1e-20
    ok = finite and ordered and in_band and solved.d == 36 and target_met
    _report(capsys, 2, "seeded benchmark extrapolation", ok,
            f"pXL(7)={values[7]:.4e} in [{lo:.3e}, {hi:.3e}], "
            f"solve_distance(1e-20) d={solved.d}")


def test_c03_extrapolation_self_consistency(capsys):
    rng = np.random.default_rng(20260816)
    cases = 1000
    exact_misses = 0
    worst_ratio = 0.0
    for _ in range(cases):
        p3 = 10.0 ** rng.uniform(-6.0, -1.0)
        p4 = 10.0 ** rng.uniform(-6.0, -1.0)
        x = rng.uniform(1e-4, 0.99)
        y = rng.uniform(1e-4, 0.99)
        p5 = x * p3
        p6 = y * p4
        f = fit(p3, p4, p5, p6)
        if evaluate(f, 5) != p5 or evaluate(f, 6) != p6:
            exact_misses += 1
        for d in (5, 6, 9, 10, 15, 22):
            ratio = evaluate(f, d + 2) / evaluate(f, d)
            want = f.x if d % 2 == 1 else f.y
            worst_ratio = max(worst_ratio, abs(ratio - want) / want)
    ok = exact_misses == 0 and worst_ratio <= 1e-12
    _report(capsys, 3, "extrapolation self-consistency", ok,
            f"{cases} cases, exact misses {exact_misses}, "
            f"worst ratio error {worst_ratio:.2e}")


def test_c04_interpolation_exactness_and_bounds(capsys):
    db = RateDatabase()
    corner_x = {}
    for i, (r0, r1, p2) in enumerate(
        (r0, r1, p2)
        for r0 in (2.0, 5.0) for r1 in (0.5, 1.0) for p2 in (1e-3, 2e-3)
    ):
        p_xl = 10.0 ** (-3.0 - 0.35 * i)
        corner_x[(r0, r1, p2)] = p_xl
        db.add(DbEntry.seeded(3, r0, r1, p2, p_xl, 2.0 * p_xl))
    worst_grid = max(
        abs(interpolate(db, 3, r0, r1, p2, "x") - v) / v
        for (r0, r1, p2), v in corner_x.items()
    )
    off = interpolate(db, 3, 3.0, 0.7, 1.5e-3, "x")
    inside = min(corner_x.values()) <= off <= max(corner_x.values())
    bracket = ladder_neighbors(0.3, "r0")
    bracket_ok = bracket == (0.2, 0.5, False)
    ok = worst_grid <= 1e-12 and inside and bracket_ok
    _report(capsys, 4, "interpolation exactness and bounds", ok,
            f"grid max relative error {worst_grid:.2e}, off-grid inside "
            f"envelope {inside}, r0=0.3 brackets ({bracket.low}, {bracket.high})")


def test_c05_matcher_optimality(capsys):
    draws = (
        Rates(2e-3, 2e-3, 2e-3, 2e-3, 8e-3),
        Rates(1e-2, 1e-3, 0.0, 5e-3, 2e-3),
        Rates(0.0, 0.0, 0.0, 0.0, 1.5e-2),
        Rates(0.0, 0.0, 6e-3, 6e-3, 0.0),
        Rates(5e-2, 5e-2, 1e-2, 1e-2, 5e-2),
    )
    layout = get_layout(3)
    faults = enumerate_single_faults(layout)
    rounds = 8
    rng = np.random.default_rng(505)
    checked = 0
    mismatches = 0
    start = time.monotonic()
    for rates in draws:
        for graph in build_graphs(faults, rates, layout):
            if not graph.boundary:
                continue
            tables = OracleTables(graph, rounds)
            nodes = [(s, t) for s in range(graph.n_sites) for t in range(rounds + 1)]
            for _ in range(100):
                n = int(rng.integers(1, 11))
                picks = rng.choice(len(nodes), size=n, replace=False)
                events = [nodes[i] for i in picks]
                matching = min_weight_perfect_matching(graph, events)
                if matching.total_weight != brute_force_total(events, tables):
                    mismatches += 1
                checked += 1
    elapsed = time.monotonic() - start
    ok = checked >= 1000 and mismatches == 0 and elapsed < 60.0
    _report(capsys, 5, "matcher optimality", ok,
            f"{checked} instances, {mismatches} mismatches, {elapsed:.1f}s")


def test_c06_single_fault_correction(capsys):
    layout = get_layout(3)
    faults = fault_effects(layout)
    rates = _sim_rates(reduce(depolarizing_model(1e-3)))
    graph_x, graph_z = build_graphs(layout.footprints, rates, layout)
    checked = 0
    failures = []
    for fault in faults:
        sides = ((graph_x, fault.events_x, fault.flip_x),
                 (graph_z, fault.events_z, fault.flip_z))
        for graph, events, flip in sides:
            for t0 in (0, 2):
                placed = [(s, t0 + off) for s, off in events]
                matching = min_weight_perfect_matching(graph, placed)
                if matching.correction_flip != flip:
                    failures.append((fault.kind, fault.step, fault.site, fault.pauli))
                checked += 1
    ok = not failures and checked == len(faults) * 4
    _report(capsys, 6, "single-fault correction at d=3", ok,
            f"{len(faults)} faults, {checked} decodes, "
            f"{len(failures)} residual logical errors")


def test_c07_monte_carlo_benchmark_d3(capsys):
    layout = get_layout(3)
    rates = _sim_rates(reduce(depolarizing_model(1e-3)))
    graphs = build_graphs(enumerate_single_faults(layout), rates, layout)
    rounds = 30
    runs = []
    for seed in (71, 72):
        total = None
        base = 0
        while total is None or total.fails_x < 100:
            chunk = run_monte_carlo(layout, rates, 2000, rounds, seed,
                                    graphs=graphs, first_shot_index=base)
            base += 2000
            total = chunk if total is None else total.merged(chunk)
            if base >= 40000:
                break
        runs.append(total)
    a, b = runs
    enough = a.fails_x >= 100 and b.fails_x >= 100
    in_band = all(1.1e-3 / 2.0 <= r.p_xl <= 1.1e-3 * 2.0 for r in runs)
    sigma = math.hypot(a.stderr_x, b.stderr_x)
    agree = abs(a.p_xl - b.p_xl) <= 4.0 * sigma
    ok = enough and in_band and agree
    _report(capsys, 7, "monte carlo benchmark at d=3", ok,
            f"pXL {a.p_xl:.3e} and {b.p_xl:.3e} vs 1.1e-3, "
            f"fails {a.fails_x}/{b.fails_x}, "
            f"seed gap {abs(a.p_xl - b.p_xl) / sigma if sigma else 0.0:.1f} sigma")


def test_c08_suppression_and_threshold(capsys):
    bench = _sim_rates(reduce(depolarizing_model(1e-3)))
    low = {}
    for d, shots, rounds, seed in ((3, 4500, 30, 81), (5, 6000, 50, 85)):
        layout = get_layout(d)
        graphs = build_graphs(enumerate_single_faults(layout), bench, layout)
        low[d] = run_monte_carlo(layout, bench, shots, rounds, seed, graphs=graphs)
    gap = low[3].p_xl - low[5].p_xl
    sigma = math.hypot(low[3].stderr_x, low[5].stderr_x)
    suppressed = low[5].p_xl < low[3].p_xl and gap >= 3.0 * sigma
    hot = Rates(2e-2, 2e-2, 2e-2, 2e-2, 2e-2)
    thr = {}
    for d, shots, seed in ((3, 3000, 88), (5, 1000, 89)):
        layout = get_layout(d)
        graphs = build_graphs(enumerate_single_faults(layout), hot, layout)
        thr[d] = run_monte_carlo(layout, hot, shots, d, seed, graphs=graphs)
    not_suppressed = thr[5].p_xl >= 0.5 * thr[3].p_xl
    ok = suppressed and not_suppressed
    _report(capsys, 8, "suppression and threshold sanity", ok,
            f"low noise pXL d3={low[3].p_xl:.2e} d5={low[5].p_xl:.2e} "
            f"({gap / sigma:.1f} sigma), threshold pXL d3={thr[3].p_xl:.3f} "
            f"d5={thr[5].p_xl:.3f}")


def test_c09_measurement_flip_scenario(capsys):
    db = RateDatabase()
    grid = GridSpec(distances=(3,), r0_values=(100.0, 200.0),
                    r1_values=(1.0,), p2_values=(1e-3,))
    added, skipped = generate(db, grid, seed=91)
    est = estimate(db, depolarizing_model(1e-3, meas=0.1), 3)
    in_band = 2.8e-3 / 2.0 <= est.p_xl <= 2.8e-3 * 2.0
    ok = len(added) == 2 and not skipped and in_band
    _report(capsys, 9, "measurement-flip scenario at d=3", ok,
            f"{len(added)} corner entries generated, "
            f"pXL={est.p_xl:.3e} vs 2.8e-3")


def test_c10_asymmetric_cnot_warning(capsys):
    model = model_from_dict({"cnot": {"ix": 1e-4, "xi": 1e-5, "xx": 1e-6}})
    rr = reduce(model)
    exact = rr.p2x == 15 * 1e-4 / 4
    ok = rr.asymmetry_warning and exact
    _report(capsys, 10, "asymmetric cnot warning", ok,
            f"warning {rr.asymmetry_warning}, p2x={rr.p2x:.4e} "
            f"vs 15/4 of dominant rate 1e-4")
