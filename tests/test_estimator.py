import dataclasses
import functools
import inspect
import math
import re
import sys
from itertools import product

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import _oracle
from conftest import BENCH_X, BENCH_Z, build_bench_db, build_flat_db
from polyest.error_model import (
    TWO_QUBIT_PAULIS,
    FlipChannel,
    GateErrorModel,
    SingleQubitChannel,
    TwoQubitChannel,
    depolarizing_model,
    model_from_dict,
    reduce,
)
from polyest.estimator import (
    MAX_SCAN_DISTANCE,
    AboveThresholdError,
    ComputationError,
    Estimate,
    FitRangeError,
    MissingEntryError,
    Query,
    ScanLimitError,
    UndefinedRatioError,
    estimate,
    evaluate,
    fit,
    interpolate,
    solve_distance,
)
from polyest.store import AXES, DISTANCES, DbEntry, DbError, RateDatabase, ladder_values


# ---------------------------------------------------------------------------
# Parity-split extrapolation
# ---------------------------------------------------------------------------


def _bench_fit(kind="x"):
    table = BENCH_X if kind == "x" else BENCH_Z
    return fit(table[3], table[4], table[5], table[6])


def test_fit_ratios_and_coefficients():
    f = _bench_fit()
    assert f.x == 1.0e-4 / 1.1e-3
    assert f.y == 3.2e-5 / 4.5e-4
    assert f.coeff_odd == 1.1e-3 / (f.x * f.x)
    assert f.coeff_even == 4.5e-4 / (f.y * f.y)
    assert not f.above_threshold


def test_evaluate_passes_through_direct_distances():
    f = _bench_fit()
    for d, expected in BENCH_X.items():
        assert evaluate(f, d) == expected  # bit-exact, no arithmetic involved


def test_evaluate_extrapolates_geometrically():
    f = _bench_fit()
    # the d + 2 rate is one more ratio factor, so p7 = p5^2 / p3 and so on
    assert evaluate(f, 7) == pytest.approx(1.0e-4**2 / 1.1e-3, rel=1e-12)
    assert evaluate(f, 8) == pytest.approx(3.2e-5**2 / 4.5e-4, rel=1e-12)
    assert evaluate(f, 9) == pytest.approx(1.0e-4**3 / 1.1e-3**2, rel=1e-12)
    assert evaluate(f, 10) == pytest.approx(3.2e-5**3 / 4.5e-4**2, rel=1e-12)


def test_evaluate_validation():
    f = _bench_fit()
    for bad in (2, 0, -1, 3.0, "5", True):
        with pytest.raises(ValueError):
            evaluate(f, bad)


def test_fit_rejects_nonpositive_rates():
    for bad in (0.0, -1e-3, float("nan"), float("inf")):
        with pytest.raises(FitRangeError):
            fit(1e-3, bad, 1e-4, 1e-5)


def test_fit_rejects_non_numbers():
    # A bool is not a rate: True would otherwise fit as 1.0.
    for bad in (True, np.bool_(True), "1e-3", None):
        with pytest.raises(FitRangeError, match="positive finite p3"):
            fit(bad, 0.5, 0.25, 0.125)


# Once x*x underflowed: to 0 at p5 = 1e-170, a ZeroDivisionError, and to a
# subnormal at p5 = 1e-161, which made coeff_odd inf, so d = 7 read nan and
# a solve's skip-ahead raised OverflowError.  The CLI printed a traceback.
_TINY_P5 = [
    (1e-170, "extrapolation ratios square to 0: x = 1e-167, y = 0.1"),
    (1e-161, "extrapolation coefficients p3/x**2 = inf and p4/y**2 = 0.09999999999999998 "
             "must be finite"),
]


def _tiny_p5_db(p5):
    """Seeded d = 3..6 rates 1e-3, 1e-3, p5, 1e-4 at the depolarizing(1e-3) corners."""
    db = RateDatabase()
    for d, p in zip(DISTANCES, (1e-3, 1e-3, p5, 1e-4)):
        for r0 in (2.0, 5.0):
            db.add(DbEntry.seeded(d, r0, 1.0, 1e-3, p, p))
    return db


@pytest.mark.parametrize("p5, message", _TINY_P5, ids=["square_underflows", "coeff_overflows"])
def test_fit_refuses_a_ratio_too_small_to_square(p5, message):
    with pytest.raises(FitRangeError) as err:
        fit(1e-3, 1e-3, p5, 1e-4)
    assert str(err.value) == message
    db, model = _tiny_p5_db(p5), depolarizing_model(1e-3)
    for query in (lambda: estimate(db, model, 7), lambda: solve_distance(db, model, 1e-300)):
        with pytest.raises(FitRangeError) as err:
            query()
        assert str(err.value) == message
    assert estimate(db, model, 6).p_xl == 1e-4
    # a subnormal square with a finite coefficient still fits, as before
    x = 1e-180 / 1e-20
    assert 0.0 < x * x < sys.float_info.min
    assert fit(1e-20, 1e-3, 1e-180, 1e-4).coeff_odd == 1e-20 / (x * x) < math.inf


def test_fit_stores_numpy_scalars_as_floats():
    rates = (np.float32(1e-3), np.int64(1), np.float64(1e-4), 1e-5)
    f = fit(*rates)
    assert all(type(v) is float for v in f.direct)
    assert f == fit(*map(float, rates))


def test_fit_above_threshold_blocks_extrapolation_only():
    f = fit(1e-3, 1e-3, 2e-3, 1e-3)  # rates grow with distance
    assert f.above_threshold
    assert evaluate(f, 5) == 2e-3
    with pytest.raises(AboveThresholdError):
        evaluate(f, 7)


@pytest.mark.parametrize("seed", range(10))
def test_extrapolation_self_consistency(seed):
    # 100 random decreasing-rate fits per seed: the direct distances pass
    # through bit-exactly and every extrapolation step multiplies by the
    # parity ratio to within 1e-12 relative.
    rng = np.random.default_rng(seed)
    for _ in range(100):
        p3, p4 = 10.0 ** rng.uniform(-6, -1, size=2)
        x, y = rng.uniform(1e-4, 0.99, size=2)
        p5, p6 = x * p3, y * p4
        f = fit(p3, p4, p5, p6)
        assert evaluate(f, 5) == p5
        assert evaluate(f, 6) == p6
        for d in (7, 9, 15, 8, 10, 22):
            ratio = evaluate(f, d + 2) / evaluate(f, d)
            want = f.x if d % 2 else f.y
            assert abs(ratio - want) <= 1e-12 * want


# ---------------------------------------------------------------------------
# Interpolation
# ---------------------------------------------------------------------------


def test_interpolate_is_exact_at_grid_points(bench_db):
    assert interpolate(bench_db, 3, 2.0, 1.0, 1e-3, "x") == 1.1e-3
    assert interpolate(bench_db, 3, 2.0, 1.0, 1e-3, "z") == 1.4e-3
    assert interpolate(bench_db, 6, 5.0, 1.0, 1e-3, "x") == 3.2e-5


def test_interpolate_equal_corners_collapse_exactly(bench_db):
    # between r0 = 2 and r0 = 5 both corners hold the same value, so any
    # query in the bracket returns it exactly (the envelope clamp sees to it)
    for r0 in (2.5, 10 / 3, 4.99):
        assert interpolate(bench_db, 3, r0, 1.0, 1e-3, "x") == 1.1e-3
        assert interpolate(bench_db, 3, r0, 1.0, 1e-3, "z") == 1.4e-3


def test_interpolate_geometric_mean_between_decade_corners():
    db = RateDatabase()
    db.add(DbEntry.seeded(3, 0.2, 1.0, 1e-3, 1e-3, 1e-3))
    db.add(DbEntry.seeded(3, 0.5, 1.0, 1e-3, 1e-4, 1e-4))
    mid = math.sqrt(0.2 * 0.5)  # halfway in log space
    got = interpolate(db, 3, mid, 1.0, 1e-3, "x")
    assert got == pytest.approx(math.sqrt(1e-3 * 1e-4), rel=1e-9)
    # off-grid results never leave the corner envelope
    for r0 in (0.21, 0.3, 0.49):
        assert 1e-4 <= interpolate(db, 3, r0, 1.0, 1e-3, "x") <= 1e-3


def test_interpolate_bracketing_example(bench_db):
    # r0 = 0.3 brackets to [0.2, 0.5]: with entries there and nowhere else,
    # the query succeeds, and removing either corner breaks it
    db = RateDatabase()
    db.add(DbEntry.seeded(3, 0.2, 1.0, 1e-3, 2e-3, 2e-3))
    db.add(DbEntry.seeded(3, 0.5, 1.0, 1e-3, 1e-3, 1e-3))
    value = interpolate(db, 3, 0.3, 1.0, 1e-3, "x")
    assert 1e-3 <= value <= 2e-3

    partial = RateDatabase()
    partial.add(DbEntry.seeded(3, 0.2, 1.0, 1e-3, 2e-3, 2e-3))
    with pytest.raises(MissingEntryError, match=r"r0=0.5"):
        interpolate(partial, 3, 0.3, 1.0, 1e-3, "x")


def test_interpolate_clamps_and_warns_beyond_axis_range(bench_db):
    db = RateDatabase()
    db.add(DbEntry.seeded(3, 200.0, 1.0, 1e-3, 5e-3, 6e-3))
    warnings = set()
    assert interpolate(db, 3, 300.0, 1.0, 1e-3, "x", warnings) == 5e-3
    assert warnings == {"clamped"}


def test_a_ratio_that_overflows_clamps_as_a_large_one():
    # p0 or p1 over a subnormal p2 is inf: a ratio past the top of its axis,
    # as a zero ratio is one past the bottom.  p2 itself takes no such rule.
    db = RateDatabase()
    db.add(DbEntry.seeded(3, 200.0, 1.0, 1e-4, 5e-3, 6e-3))
    db.add(DbEntry.seeded(3, 200.0, 0.01, 1e-4, 1e-3, 2e-3))
    for r0, r1, want in ((math.inf, 1.0, 5e-3), (math.inf, 0.0, 1e-3), (200.0, math.inf, 5e-3)):
        warnings = set()
        assert interpolate(db, 3, r0, r1, 1e-4, "x", warnings) == want
        assert warnings == {"clamped"}
    with pytest.raises(DbError, match="axis p2 value must be positive and finite, got inf"):
        interpolate(db, 3, 200.0, 1.0, math.inf, "x")


def test_interpolate_zero_corner_pins_result_to_zero():
    db = RateDatabase()
    db.add(DbEntry.seeded(3, 0.2, 1.0, 1e-3, 0.0, 1e-3))
    db.add(DbEntry.seeded(3, 0.5, 1.0, 1e-3, 1e-4, 1e-3))
    assert interpolate(db, 3, 0.3, 1.0, 1e-3, "x") == 0.0
    assert interpolate(db, 3, 0.3, 1.0, 1e-3, "z") == 1e-3


def test_interpolate_flags_low_confidence():
    db = RateDatabase()
    db.add(DbEntry.seeded(3, 1.0, 1.0, 1e-3, 1e-3, 1e-3, low_confidence=True))
    warnings = set()
    interpolate(db, 3, 1.0, 1.0, 1e-3, "x", warnings)
    assert warnings == {"low_confidence"}


def test_interpolate_validation(bench_db):
    with pytest.raises(ValueError):
        interpolate(bench_db, 7, 1.0, 1.0, 1e-3)
    for bad in (5.0, True, "5"):
        with pytest.raises(ValueError, match="interpolation is defined for d in"):
            interpolate(bench_db, bad, 2.0, 1.0, 1e-3)
    assert interpolate(bench_db, np.int64(5), 2.0, 1.0, 1e-3) == BENCH_X[5]
    with pytest.raises(ValueError):
        interpolate(bench_db, 3, 1.0, 1.0, 1e-3, "q")
    with pytest.raises(MissingEntryError, match=r"d=3.*r0=1\b"):
        interpolate(bench_db, 3, 1.0, 1.0, 1e-3, "x")


# ---------------------------------------------------------------------------
# Model-level estimation
# ---------------------------------------------------------------------------


def test_estimate_benchmark_distances(bench_db):
    model = depolarizing_model(1e-3)
    for d in (3, 4, 5, 6):
        est = estimate(bench_db, model, d)
        assert est.p_xl == BENCH_X[d]
        assert est.p_zl == BENCH_Z[d]
        assert est.warnings == ()
        assert est.fit_x is None and est.fit_z is None
    assert estimate(bench_db, model, 3).rates.p2x == 1e-3


def test_estimate_extrapolates_past_direct_range(bench_db):
    est = estimate(bench_db, depolarizing_model(1e-3), 7)
    assert est.p_xl == pytest.approx(1.0e-4**2 / 1.1e-3, rel=1e-12)
    assert est.p_zl == pytest.approx(1.5e-4**2 / 1.4e-3, rel=1e-12)
    assert est.fit_x is not None and est.fit_z is not None
    assert est.fit_x.direct == (1.1e-3, 4.5e-4, 1.0e-4, 3.2e-5)


def test_estimate_missing_entry_names_the_key(bench_db):
    with pytest.raises(MissingEntryError, match=r"p2=0.01"):
        estimate(bench_db, depolarizing_model(1e-2), 3)


def test_estimate_zero_model_needs_no_database():
    est = estimate(RateDatabase(), GateErrorModel(), 9)
    assert est.p_xl == 0.0 and est.p_zl == 0.0
    assert est.fit_x is None and est.fit_z is None


def test_estimate_undefined_ratio():
    model = GateErrorModel(hadamard=SingleQubitChannel(px=1e-3))
    with pytest.raises(UndefinedRatioError):
        estimate(RateDatabase(), model, 3)
    assert issubclass(UndefinedRatioError, ComputationError)


def test_estimate_validation(bench_db):
    model = depolarizing_model(1e-3)
    for bad in (2, 3.0, True):
        with pytest.raises(ValueError):
            estimate(bench_db, model, bad)


def test_solve_distance_benchmark_targets(bench_db):
    model = depolarizing_model(1e-3)
    assert solve_distance(bench_db, model, 2e-3).d == 3
    assert solve_distance(bench_db, model, 1e-6).d == 10
    deep = solve_distance(bench_db, model, 1e-20)
    assert deep.d == 36
    assert deep.p_xl <= 1e-20 and deep.p_zl <= 1e-20


def test_solve_distance_validation(bench_db):
    model = depolarizing_model(1e-3)
    for bad in (0.0, 1.0, -1e-3, 1, "0.5", True, np.bool_(True), np.float32(0.0)):
        with pytest.raises(ValueError, match="target rate must be a float in"):
            solve_distance(bench_db, model, bad)


def test_solve_distance_takes_a_numpy_target_as_its_float(bench_db):
    # A float32 target is a real number like any float: it answers as the
    # equal Python float does.
    model = depolarizing_model(1e-3)
    target = np.float32(1e-9)
    assert solve_distance(bench_db, model, target) == solve_distance(bench_db, model, float(target))


def test_solve_distance_scan_limit():
    # Rates that fall by only 5% per two distances stay far above 1e-20 at
    # the scan cap, so the scan runs out rather than meeting the target.
    db = RateDatabase()
    for d, p in ((3, 1e-2), (4, 9e-3), (5, 9.5e-3), (6, 8.55e-3)):
        for r0 in (2.0, 5.0):
            db.add(DbEntry.seeded(d, r0, 1.0, 1e-3, p, p))
    model = depolarizing_model(1e-3)
    assert estimate(db, model, MAX_SCAN_DISTANCE).p_xl > 1e-20
    with pytest.raises(ScanLimitError, match=f"no distance up to {MAX_SCAN_DISTANCE} "):
        solve_distance(db, model, 1e-20)


_CNOT = {label: 1e-3 for label in ("ix", "xi", "xx", "iz", "zi", "zz")}


@pytest.mark.parametrize("model", [
    {"cnot": _CNOT, "meas": {"flip": 2e-3}},
    {"cnot": _CNOT, "id_meas": {"px": 1e-3, "pz": 1e-3}},
], ids=["no_idle_r1_zero", "no_flips_r0_zero"])
def test_zero_ratio_is_clamped_to_the_axis_minimum(model):
    # r0 = p0/p2 and r1 = p1/p2 are zero for a model without outcome flips
    # or without idle noise; a zero ratio lies below the axis like any
    # small one, so the query reads the axis minimum and is flagged.
    db = build_flat_db((0.01, 0.5, 1.0), (0.01, 0.1), (2e-3, 5e-3))
    model = model_from_dict(model)
    result = estimate(db, model, 5)
    assert result.p_xl == pytest.approx(BENCH_X[5], rel=1e-12)
    assert result.p_zl == pytest.approx(BENCH_Z[5], rel=1e-12)
    assert result.warnings == ("clamped",)
    solved = solve_distance(db, model, 2e-4)
    assert solved.d == 5
    assert solved.warnings == ("clamped",)


def test_solve_distance_above_threshold():
    db = RateDatabase()
    for d, p in ((3, 1e-3), (4, 1e-3), (5, 2e-3), (6, 2e-3)):
        db.add(DbEntry.seeded(d, 2.0, 1.0, 1e-3, p, p))
        db.add(DbEntry.seeded(d, 5.0, 1.0, 1e-3, p, p))
    with pytest.raises(AboveThresholdError):
        solve_distance(db, depolarizing_model(1e-3), 1e-9)


# ---------------------------------------------------------------------------
# The query path against its frozen per-distance form
# ---------------------------------------------------------------------------

# One corner left out and one zero corner, each on a query the examples make.
_MISSING = (5, 5.0, 1.0, 2e-3)
_ZERO_X = (6, 2.0, 1.0, 5e-4)


@functools.cache
def _query_db():
    """Every grid point of the full axes, each with its own rates.

    The rates fall with the distance below p2 = 1.5e-2 and grow above it, so
    both fits and above-threshold refusals occur; every eleventh entry is low
    confidence.
    """
    db = RateDatabase()
    grid = product(DISTANCES, *(ladder_values(*AXES[axis]) for axis in AXES))
    for k, key in enumerate(grid):
        d, r0, r1, p2 = key
        if key == _MISSING:
            continue
        rate = 1e-2 * (p2 / 1.5e-2) ** ((d + 1) / 2) * (1 + r0 / 200) * (1 + r1) / 2
        p_xl = 0.0 if key == _ZERO_X else rate * (1 + (k % 97) / 1000)
        db.add(DbEntry.seeded(*key, p_xl, 1.3 * rate * (1 + (k % 89) / 1000), k % 11 == 0))
    return db


def _answer(query, *args):
    """A query's result, or the type and message of the error it raises."""
    try:
        return query(*args)
    except Exception as err:  # any error, so that its type and message are compared
        return type(err), str(err)


def _log_floats(lo, hi):
    return st.floats(lo, hi).map(lambda e: 10.0 ** e)


_small = st.just(0.0) | _log_floats(-6, -2)
_single = st.builds(SingleQubitChannel, _small, _small, _small)
_flip = st.builds(FlipChannel, st.just(0.0) | _log_floats(-6, -1))


@st.composite
def _asymmetric_cnots(draw):
    # One to four Paulis carry the CNOT's noise; the others have little or none.
    heavy = draw(st.sets(st.sampled_from(TWO_QUBIT_PAULIS), min_size=1, max_size=4))
    big, small = draw(_log_floats(-4, -2.5)), draw(st.just(0.0) | _log_floats(-9, -6))
    return TwoQubitChannel(**{name: big if name in heavy else small for name in TWO_QUBIT_PAULIS})


_models = st.one_of(
    # depolarizing, with or without a slower readout
    st.builds(depolarizing_model, _log_floats(-4.5, -1.5), st.none() | _log_floats(-5, -1)),
    # random full form
    st.builds(
        GateErrorModel, init=_flip, meas=_flip, hadamard=_single, id_init=_single,
        id_had=_single, id_meas=_single, id_cnot=_single,
        cnot=st.builds(
            TwoQubitChannel, **{name: _small.map(lambda p: p / 8) for name in TWO_QUBIT_PAULIS}
        ),
    ),
    # strongly asymmetric CNOT
    st.builds(GateErrorModel, meas=_flip, id_had=_single, cnot=_asymmetric_cnots()),
    # zero p2, with or without the single-qubit noise that leaves r0, r1 undefined
    st.builds(GateErrorModel, meas=_flip, id_meas=_single),
    # ratios and rates past the axis ends on either side
    st.builds(
        depolarizing_model,
        st.sampled_from([1e-6, 5e-5, 3e-2, 0.1]),
        st.sampled_from([None, 0.0, 1e-7, 0.3, 0.45]),
    ),
)


@settings(max_examples=300, deadline=None)
@given(
    model=_models,
    d=st.integers(3, 40),
    target=_log_floats(-30, -0.5),
)
@example(model=depolarizing_model(1.5e-3), d=5, target=1e-9)  # missing z corner
@example(model=depolarizing_model(7e-4), d=6, target=1e-9)  # zero x corner
@example(model=depolarizing_model(7e-4), d=7, target=1e-3)
@example(model=depolarizing_model(1e-3), d=3, target=1e-12)  # on grid points
def test_queries_answer_as_the_frozen_per_distance_path(model, d, target):
    # The package finds a query's corners once per error type and sums the
    # CNOT triple from name tables; estimate, solve_distance and reduce must
    # still give the frozen path's every float, warning and error.
    db = _query_db()
    for query, frozen, args in (
        (reduce, _oracle.reduce, (model,)),
        (estimate, _oracle.estimate, (db, model, d)),
        (solve_distance, _oracle.solve_distance, (db, model, target)),
    ):
        got, want = _answer(query, *args), _answer(frozen, *args)
        assert got == want
        assert repr(got) == repr(want)  # bit for bit, signed zeros included


_ratio = _log_floats(-3, 3) | _log_floats(-1, 1) | st.just(0.0)


@settings(max_examples=300, deadline=None)
@given(
    d=st.sampled_from(DISTANCES),
    r0=_ratio,
    r1=_ratio,
    p2=_log_floats(-5, -1),
    kind=st.sampled_from("xz"),
)
@example(d=3, r0=2.0, r1=1.0, p2=0.0, kind="x")  # not on the p2 axis at all
@example(d=5, r0=10 / 3, r1=1.0, p2=1.5e-3, kind="z")  # the missing corner
@example(d=6, r0=2.0, r1=1.0, p2=7e-4, kind="x")  # the zero corner
def test_interpolate_answers_as_the_frozen_interpolate(d, r0, r1, p2, kind):
    db = _query_db()
    got_warnings, want_warnings = set(), set()
    got = _answer(interpolate, db, d, r0, r1, p2, kind, got_warnings)
    want = _answer(_oracle.interpolate, db, d, r0, r1, p2, kind, want_warnings)
    assert repr(got) == repr(want)
    assert got_warnings == want_warnings


_FIT_MODELS = (
    depolarizing_model(1e-3),
    # one error type only, so the other is trivial and reads no database
    model_from_dict({"cnot": {"ix": 1e-3, "xi": 1e-3, "xx": 1e-3}}),
    model_from_dict({"cnot": {"iz": 1e-3, "zi": 1e-3, "zz": 1e-3}}),
)


def _fit_db(px, pz):
    """Direct rates px and pz (d = 3..6) at every corner of every _FIT_MODELS query."""
    db = RateDatabase()
    for (d, p_xl, p_zl), key in product(
        zip(DISTANCES, px, pz), product((0.01, 2.0, 5.0), (0.01, 1.0), (1e-3, 2e-3, 5e-3))
    ):
        db.add(DbEntry.seeded(d, *key, p_xl, p_zl))
    return db


_decay = st.one_of(
    _log_floats(-3, 0),
    _log_floats(-150, -3),  # a coefficient p3 / ratio**2 far above 1
    st.floats(1 - 2 ** -18, 1 - 2 ** -22),  # either side of 1 - 2**-20
    _log_floats(-161.5, -157),  # so small that the coefficient overflows
)


@st.composite
def _direct_rates(draw):
    p3, p4 = draw(_log_floats(-30, -0.5)), draw(_log_floats(-30, -0.5))
    return p3, p4, min(p3 * draw(_decay), 1.0), min(p4 * draw(_decay), 1.0)


_BENCH = tuple(BENCH_X.values()), tuple(BENCH_Z.values())


def _refused_fit(model, rates):
    """The FitRangeError of the first fit at d = 7 that the frozen fit leaves non-finite.

    A query at d = 7 fits and evaluates X, then Z, skipping a trivial kind;
    an error from an earlier fit or an above-threshold X fit comes first,
    and then this is None.  ``rates`` are the direct X and Z rates, which
    _fit_db stores at every corner, so they are the ones a query fits.
    """
    rr = reduce(model)
    for direct, p2 in zip(rates, (rr.p2x, rr.p2z)):
        if p2 == 0.0:
            continue
        frozen = _answer(_oracle.fit, *direct)
        if isinstance(frozen, tuple):
            return _answer(fit, *direct) if frozen[0] is ZeroDivisionError else None
        if not (math.isfinite(frozen.coeff_odd) and math.isfinite(frozen.coeff_even)):
            return _answer(fit, *direct)
        if frozen.above_threshold:
            return None
    return None


@settings(max_examples=300, deadline=None)
@given(
    model=st.sampled_from(_FIT_MODELS),
    rates=st.tuples(_direct_rates(), _direct_rates()),
    target=_log_floats(-323.3, -0.01) | st.sampled_from(
        [5e-324, sys.float_info.min, math.nextafter(sys.float_info.min, 0.0)]
    ),
)
# targets equal to an extrapolated rate, on either parity and either error type
@example(model=_FIT_MODELS[0], rates=_BENCH, target=evaluate(fit(*_BENCH[1]), 40))
@example(model=_FIT_MODELS[0], rates=_BENCH, target=evaluate(fit(*_BENCH[1]), 101))
@example(model=_FIT_MODELS[0], rates=_BENCH, target=evaluate(fit(*_BENCH[0]), 300))
@example(model=_FIT_MODELS[1], rates=_BENCH, target=evaluate(fit(*_BENCH[0]), 301))
@example(model=_FIT_MODELS[2], rates=_BENCH, target=evaluate(fit(*_BENCH[1]), 560))
# x = 1e-70: x**5 underflows to 0, so d = 9 meets 1e-300 while the fit's bound
# puts the crossing at d = 11
@example(model=_FIT_MODELS[1], rates=((1e-3, 1e-3, 1e-73, 5e-4),) * 2, target=1e-300)
def test_solve_distance_answers_as_the_frozen_scan(model, rates, target):
    # solve_distance skips the distances its fits' bounds rule out; the
    # frozen path reads every distance from 3 up.  Both must give the same
    # answer, warnings and error, float for float, except that a scan
    # reaching d = 7 refuses a fit the frozen path ran with a coefficient
    # that is not finite.
    db = _fit_db(*rates)
    got = _answer(solve_distance, db, model, target)
    want = _answer(_oracle.solve_distance, db, model, target)
    refused = _refused_fit(model, rates)
    if refused is not None and not (isinstance(want, Estimate) and want.d <= 6):
        want = refused
    assert got == want
    assert repr(got) == repr(want)


# ---------------------------------------------------------------------------
# Work per query
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("query", [
    lambda db, model: estimate(db, model, 7),
    lambda db, model: solve_distance(db, model, 1e-20),
], ids=["estimate_d7", "solve"])
def test_a_query_brackets_each_error_type_once(bracket_calls, bench_db, query):
    # Each error type's corners serve all four direct distances: at most one
    # bracket per axis per type, where bracketing per distance takes twelve.
    result = query(bench_db, depolarizing_model(1e-3))
    assert result.fit_x is not None and result.fit_z is not None
    assert len(bracket_calls) <= 3 * 2


def test_a_query_reads_each_distance_once(monkeypatch, bench_db):
    # estimate at d = 7 reads d = 3..6 and fits them; the fit reads no
    # distance again.  X sits on one corner (r0 = 2), Z between two
    # (r0 = 10/3, so r0 = 2 and 5), and each query looks up each of its
    # corners' rows, which hold all four distances, once: 1 + 2 rows, and
    # no single entry.
    rows, gets = [], []
    raw_row, raw_get = RateDatabase.row, RateDatabase.get

    def row_spy(db, *point):
        rows.append(point)
        return raw_row(db, *point)

    def get_spy(db, *key):
        gets.append(key)
        return raw_get(db, *key)

    monkeypatch.setattr(RateDatabase, "row", row_spy)
    monkeypatch.setattr(RateDatabase, "get", get_spy)
    result = estimate(bench_db, depolarizing_model(1e-3), 7)
    assert result.fit_x is not None and result.fit_z is not None
    assert rows == [(2.0, 1.0, 1e-3), (2.0, 1.0, 1e-3), (5.0, 1.0, 1e-3)]
    assert gets == []


def test_a_query_reads_only_the_distances_it_is_asked_for():
    # The bench corners, but (r0, r1, p2) = (2, 1, 1e-3), the X corner and
    # the first Z corner, has no d = 5 entry and a low-confidence d = 4 one.
    # A missing entry or a low-confidence flag counts only at a distance read.
    db = RateDatabase()
    for entry in build_bench_db().entries():
        if entry.key == (4, 2.0, 1.0, 1e-3):
            entry = dataclasses.replace(entry, low_confidence=True)
        if entry.key != (5, 2.0, 1.0, 1e-3):
            db.add(entry)
    model = depolarizing_model(1e-3)
    assert estimate(db, model, 3).warnings == ()
    assert estimate(db, model, 4).warnings == ("low_confidence",)
    with pytest.raises(MissingEntryError, match=re.escape(
        "missing database entry (d=5, r0=2, r1=1, p2=1e-3)"
    )):
        estimate(db, model, 7)
    met = solve_distance(db, model, 2e-3)
    assert (met.d, met.warnings) == (3, ())


def test_a_query_at_zero_p2_reads_no_database():
    # Query.at answers 0.0 at p2 = 0 for any distance, without a lookup.
    query = Query.of(RateDatabase(), reduce(model_from_dict({"cnot": {"ix": 1e-3}})), "z")
    assert (query.r0, query.r1, query.p2) == (0.0, 0.0, 0.0)
    assert [query.at(d) for d in (3, 6, 7, 40)] == [0.0] * 4
    assert query.warnings == set() and query.fit is None


def test_a_deep_solve_evaluates_a_handful_of_distances(evaluate_calls, bench_db):
    # d = 548 meets 1e-300; a scan of every distance evaluates 2 * 542 rates
    # past 6, the skip two at d = 7, at most four bounds and a few steps.
    assert solve_distance(bench_db, depolarizing_model(1e-3), 1e-300).d == 548
    assert len(evaluate_calls) <= 16


# ---------------------------------------------------------------------------
# One database per Query
# ---------------------------------------------------------------------------


def _scaled_db(scale):
    """Seeded d = 3..6 rates at r0 in {2, 5}, r1 = 1, p2 = 1e-3, all times ``scale``.

    The Z rates are 1.4 times the X rates.
    """
    db = RateDatabase()
    for d, p in zip(DISTANCES, (1e-3, 4e-4, 1e-4, 3e-5)):
        for r0 in (2.0, 5.0):
            db.add(DbEntry.seeded(d, r0, 1.0, 1e-3, scale * p, 1.4 * scale * p))
    return db


_DB_A, _DB_B = _scaled_db(1.0), _scaled_db(2.0)


def test_each_query_answers_from_the_database_it_is_bound_to():
    # A Query's memo and fit belong to its one database: read in turns, a
    # query of A and one of B at the same point each give their own rates.
    query_a, query_b = (Query(db, "x", 3.0, 1.0, 1e-3) for db in (_DB_A, _DB_B))
    assert (query_a.read(3), query_b.read(3)) == (1e-3, 2e-3)
    assert query_a.at(9) == pytest.approx(1e-6, rel=1e-12)
    assert query_b.at(9) == pytest.approx(2e-6, rel=1e-12)
    assert (query_a.fit.direct[0], query_b.fit.direct[0]) == (1e-3, 2e-3)
    for method in (Query.read, Query.at):
        assert list(inspect.signature(method).parameters) == ["self", "d"]


@settings(max_examples=200, deadline=None)
@given(
    db=st.sampled_from([_DB_A, _DB_B]),
    d=st.sampled_from(DISTANCES),
    r0=_log_floats(0, 1) | st.sampled_from([2.0, 5.0]),
    r1=st.just(1.0) | _ratio,
    p2=st.just(1e-3) | _log_floats(-4, -2),
    kind=st.sampled_from("xz"),
)
def test_a_query_reads_as_the_frozen_interpolate(db, d, r0, r1, p2, kind):
    query = Query(db, kind, r0, r1, p2)
    want_warnings = set()
    got = _answer(query.read, d)
    want = _answer(_oracle.interpolate, db, d, r0, r1, p2, kind, want_warnings)
    assert repr(got) == repr(want)
    assert query.warnings == want_warnings


@pytest.mark.parametrize("kind", ["q", "X"])
def test_a_query_refuses_a_kind_other_than_x_or_z(bench_db, kind):
    message = f"kind must be 'x' or 'z', got '{kind}'"
    with pytest.raises(ValueError, match=message):
        Query(bench_db, kind, 2.0, 1.0, 1e-3)
    # Query.of refuses it too, before the ratio rule's zero-p2 check.
    for model in (depolarizing_model(1e-3), model_from_dict({"init": {"flip": 1e-3}})):
        with pytest.raises(ValueError, match=message):
            Query.of(bench_db, reduce(model), kind)


def test_a_query_reads_only_the_direct_distances(bench_db):
    query = Query(bench_db, "x", 2.0, 1.0, 1e-3)
    for bad in (7, 2, 5.0, True, "5"):
        with pytest.raises(ValueError, match=re.escape(
            f"interpolation is defined for d in {DISTANCES}, got {bad}"
        )):
            query.read(bad)
    assert query.read(np.int64(5)) == BENCH_X[5]


def test_a_query_at_refuses_what_evaluate_refuses(bench_db):
    query = Query(bench_db, "x", 2.0, 1.0, 1e-3)
    zero = Query(RateDatabase(), "x", 0.0, 0.0, 0.0)
    for bad in (7.5, 2, True, "5"):
        for q in (query, zero):
            with pytest.raises(ValueError, match=re.escape(
                f"distance must be an integer >= 3, got {bad!r}"
            )):
                q.at(bad)
    assert query.at(np.int64(7)) == evaluate(_bench_fit(), 7)
    assert query.at(np.int64(4)) == BENCH_X[4]
