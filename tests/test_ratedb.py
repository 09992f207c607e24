import hashlib
import itertools
import math
import operator
import os
import re
import tempfile
from dataclasses import fields, is_dataclass

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import _oracle
from conftest import BENCH_X, build_bench_db
from polyest import matcher, ratedb, store
from polyest.error_model import (
    FlipChannel,
    ModelError,
    SingleQubitChannel,
    TwoQubitChannel,
    depolarizing_model,
)
from polyest.estimator import estimate, evaluate, fit, interpolate
from polyest.ratedb import choose_rounds, generate
from polyest.surface_sim import Layout, LayoutError, Rates, SimResult, get_layout, run_monte_carlo
from polyest.store import (
    AXES,
    CSV_HEADER,
    DISTANCES,
    DbEntry,
    DbError,
    GridSpec,
    SNAP_RELATIVE,
    LadderBracket,
    RateDatabase,
    format_value,
    ladder_decompose,
    ladder_neighbors,
    ladder_values,
    per_round_rate,
)


# ---------------------------------------------------------------------------
# 1-2-5 ladder arithmetic
# ---------------------------------------------------------------------------


def test_ladder_decompose_examples():
    assert ladder_decompose(200.0) == (2, 2)
    assert ladder_decompose(0.05) == (5, -2)
    assert ladder_decompose(1) == (1, 0)
    assert ladder_decompose(2e-3) == (2, -3)
    assert ladder_decompose(0.3) is None
    assert ladder_decompose(10 / 3) is None
    assert ladder_decompose(0.0) is None
    assert ladder_decompose(-2.0) is None
    assert ladder_decompose(float("inf")) is None
    assert ladder_decompose(float("nan")) is None
    assert ladder_decompose(True) is None
    assert ladder_decompose("5") is None


@pytest.mark.parametrize(
    ("value", "text"),
    [
        (200.0, "200"),
        (20.0, "20"),
        (5.0, "5"),
        (1.0, "1"),
        (0.5, "0.5"),
        (0.05, "0.05"),
        (2e-3, "2e-3"),
        (1e-4, "1e-4"),
    ],
)
def test_format_value_canonical(value, text):
    assert format_value(value) == text
    assert float(text) == value  # the canonical text parses back exactly


def test_format_value_rejects_off_ladder():
    with pytest.raises(DbError):
        format_value(0.3)
    with pytest.raises(DbError):
        format_value(0.0)


def test_ladder_values_ranges():
    r0 = ladder_values(*AXES["r0"])
    assert r0 == [
        0.01, 0.02, 0.05, 0.1, 0.2, 0.5, 1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0, 200.0,
    ]
    assert len(ladder_values(*AXES["r1"])) == 7
    assert len(ladder_values(*AXES["p2"])) == 8
    with pytest.raises(DbError):
        ladder_values(1.0, 0.5)
    with pytest.raises(DbError):
        ladder_values(0.0, 1.0)


def test_ladder_neighbors_bracketing():
    assert ladder_neighbors(0.3, "r0") == LadderBracket(0.2, 0.5, False)
    assert ladder_neighbors(10 / 3, "r0") == LadderBracket(2.0, 5.0, False)
    assert ladder_neighbors(0.5, "r0") == LadderBracket(0.5, 0.5, False)
    assert ladder_neighbors(300.0, "r0") == LadderBracket(200.0, 200.0, True)
    assert ladder_neighbors(1e-3, "r0") == LadderBracket(0.01, 0.01, True)
    assert ladder_neighbors(3e-3, "p2") == LadderBracket(2e-3, 5e-3, False)
    assert ladder_neighbors(0.5, "r1") == LadderBracket(0.5, 0.5, False)
    assert ladder_neighbors(2.0, "r1") == LadderBracket(1.0, 1.0, True)


def test_ladder_neighbors_snaps_rounding_noise_onto_rungs():
    # Rate ratios computed in floats can land a few ulp off a rung or past
    # an axis end; such values must read as the rung itself, not as off-grid.
    assert ladder_neighbors(1.0000000000000002, "r1") == LadderBracket(1.0, 1.0, False)
    assert ladder_neighbors(0.9999999999999999, "r1") == LadderBracket(1.0, 1.0, False)
    assert ladder_neighbors(2.0 - 2e-16, "r0") == LadderBracket(2.0, 2.0, False)
    assert ladder_neighbors(5e-3 * (1 + 1e-10), "p2") == LadderBracket(5e-3, 5e-3, False)
    # A full 1e-6 away is a genuine off-grid value and still brackets.
    assert ladder_neighbors(2.0 * (1 + 1e-6), "r0") == LadderBracket(2.0, 5.0, False)
    assert ladder_neighbors(1.0 + 1e-6, "r1") == LadderBracket(1.0, 1.0, True)


def test_ladder_neighbors_validation():
    with pytest.raises(DbError):
        ladder_neighbors(0.3, "p3")
    for bad in (0.0, -1.0, float("inf"), float("nan"), "0.3"):
        with pytest.raises(DbError):
            ladder_neighbors(bad, "r0")


_RUNGS = [(axis, v) for axis, (lo, hi) in AXES.items() for v in ladder_values(lo, hi)]


def _ulps(value: float, n: int) -> float:
    """``value`` moved ``n`` floats up (n > 0) or down (n < 0)."""
    for _ in range(abs(n)):
        value = math.nextafter(value, math.copysign(math.inf, n))
    return value


@st.composite
def _near_rungs(draw):
    # A rung, 1-4 ulp from it, or within 4 ulp of either end of its snap window.
    axis, rung = draw(st.sampled_from(_RUNGS))
    snap = draw(st.sampled_from((0, -1, 1))) * SNAP_RELATIVE * rung
    return _ulps(rung + snap, draw(st.integers(-4, 4))), axis


@st.composite
def _past_ends(draw):
    axis = draw(st.sampled_from(list(AXES)))
    lo, hi = AXES[axis]
    return draw(st.floats(0.0, lo, exclude_min=True) | st.floats(hi, 1e300)), axis


def _bracket(rule, value, axis):
    try:
        return rule(value, axis)
    except DbError as err:
        return str(err)


@settings(max_examples=1000, deadline=None)
@given(query=_near_rungs() | _past_ends() | st.sampled_from(list(AXES)).flatmap(
    lambda axis: st.tuples(st.floats(*AXES[axis]), st.just(axis))))
@example(query=(0.3, "p3"))
@example(query=(0.0, "r0"))
@example(query=(math.nan, "r1"))
@example(query=(math.inf, "p2"))
@example(query=("0.3", "r0"))
@example(query=(np.float32(2.0), "r0"))
def test_ladder_neighbors_brackets_as_the_frozen_rung_walk(query):
    # The bracket is found by bisection; it must be the bracket, or the
    # error, of the rule that walks every rung.
    got, want = _bracket(ladder_neighbors, *query), _bracket(_oracle.ladder_neighbors, *query)
    assert got == want and type(got) is type(want)


# ---------------------------------------------------------------------------
# Entries
# ---------------------------------------------------------------------------


def test_from_counts_derives_rates_and_flag():
    e = DbEntry.from_counts(3, 1.0, 1.0, 1e-2, shots=2000, rounds=5,
                            fails_x=150, fails_z=80)
    assert e.p_xl == 150 / 10000
    assert e.p_zl == 80 / 10000
    assert e.low_confidence  # fails_z below the 100 threshold
    assert e.key == (3, 1.0, 1.0, 1e-2)
    assert not DbEntry.from_counts(
        3, 1.0, 1.0, 1e-2, shots=2000, rounds=5, fails_x=150, fails_z=120
    ).low_confidence


def test_entry_consistency_checks():
    ok = dict(d=3, r0=1.0, r1=1.0, p2=1e-2, shots=1000, rounds=5,
              fails_x=200, fails_z=300, p_xl=200 / 5000, p_zl=300 / 5000,
              low_confidence=False)
    DbEntry(**ok)
    with pytest.raises(DbError):
        DbEntry(**{**ok, "p_xl": 0.01})  # does not match fails_x / denom
    with pytest.raises(DbError):
        DbEntry(**{**ok, "low_confidence": True})
    with pytest.raises(DbError):
        DbEntry(**{**ok, "d": 7})
    with pytest.raises(DbError):
        DbEntry(**{**ok, "r0": 0.3})
    with pytest.raises(DbError):
        DbEntry(**{**ok, "p2": 0.05})  # on the ladder but outside the axis
    with pytest.raises(DbError):
        DbEntry(**{**ok, "fails_x": -1, "p_xl": 0.0})
    with pytest.raises(DbError, match=r"^p_zl must lie in \[0, 1\], got 1.5$"):
        DbEntry(**{**ok, "p_zl": 1.5})
    with pytest.raises(DbError, match="rounds must be positive"):
        DbEntry(**{**ok, "rounds": 0})


def test_seeded_entries_skip_count_consistency():
    e = DbEntry.seeded(3, 1.0, 1.0, 1e-3, p_xl=1.1e-3, p_zl=1.4e-3)
    assert e.shots == 0 and e.rounds == 0
    assert e.p_xl == 1.1e-3 and e.p_zl == 1.4e-3
    assert not e.low_confidence


def test_low_confidence_flag_is_a_bool(tmp_path):
    # Only a bool or a numpy bool is a flag; the numpy bool is stored as a
    # bool, so save and load give back the entry's own flag.
    for bad in ("no", 1, 0, None, np.array([True])):
        with pytest.raises(DbError, match="low_confidence must be a bool"):
            DbEntry.seeded(3, 1.0, 1.0, 1e-3, 1e-4, 1e-4, low_confidence=bad)
    db = RateDatabase()
    for r0, flag in ((1.0, np.bool_(True)), (2.0, np.bool_(False)), (5.0, True)):
        entry = DbEntry.seeded(3, r0, 1.0, 1e-3, 1e-4, 1e-4, low_confidence=flag)
        assert type(entry.low_confidence) is bool and entry.low_confidence == flag
        db.add(entry)
    db.save(tmp_path / "flags.csv")
    assert RateDatabase.load(tmp_path / "flags.csv").entries() == db.entries()


def test_is_real_is_int_or_float_never_bool():
    # numpy scalars count as the integer check counts them; bools never do.
    for good in (0, 3, -2.5, float("nan"), np.float64(0.5), np.float32(0.5), np.int64(3)):
        assert store.is_real(good)
    for bad in (True, False, np.bool_(True), "1", None, 1j, np.array(0.5)):
        assert not store.is_real(bad)


def test_axis_values_take_numpy_scalars_as_floats():
    grid = GridSpec((3,), (np.float32(2.0), np.int64(5)), (np.float32(0.5),), (np.float64(1e-3),))
    assert grid == GridSpec((3,), (2.0, 5.0), (0.5,), (1e-3,))
    assert all(type(v) is float for v in (*grid.r0_values, *grid.r1_values, *grid.p2_values))
    entry = DbEntry.seeded(3, np.float32(2.0), np.int64(1), 1e-3, 1e-4, 1e-4)
    assert (type(entry.r0), type(entry.r1)) == (float, float)
    assert ladder_neighbors(np.float32(2.0), "r0") == LadderBracket(2.0, 2.0, False)
    # float32(1e-3) is a number, but not the rung 1e-3.
    with pytest.raises(DbError, match="not on the 1-2-5 ladder"):
        GridSpec((3,), (2.0,), (1.0,), (np.float32(1e-3),))


def test_entry_constructors_judge_the_values_as_given():
    # seeded and from_counts once passed every axis value and seeded rate
    # through float(), so a bool or a string was stored as its float: the
    # first seeded call below was stored with r0 = 1.0.
    for args in (
        (3, True, "1", "1e-3", "0.1", 0.1),
        (3, True, 1.0, 1e-3, 0.1, 0.1),
        (3, 1.0, 1.0, "1e-3", 0.1, 0.1),
        (3, 1.0, 1.0, 1e-3, True, 0.1),
        (3, 1.0, 1.0, 1e-3, 0.1, "0.1"),
    ):
        with pytest.raises(DbError):
            DbEntry.seeded(*args)
    for bad in (True, np.bool_(True), "2", None):
        with pytest.raises(DbError, match="not on the 1-2-5 ladder"):
            DbEntry.seeded(3, bad, 1.0, 1e-3, 0.1, 0.1)
        with pytest.raises(DbError, match="not on the 1-2-5 ladder"):
            DbEntry.from_counts(3, 1.0, bad, 1e-3, 1000, 30, 5, 7)
    with pytest.raises(DbError, match="r0='2' is not on the 1-2-5 ladder"):
        DbEntry.from_counts(3, "2", 1.0, 1e-3, 1000, 30, 5, 7)
    # A count that is no integer is refused before it is turned into a rate.
    for bad in ("5", None, 5.5, True):
        with pytest.raises(DbError, match=f"^fails_x must be an integer >= 0, got {bad!r}$"):
            DbEntry.from_counts(3, 1.0, 1.0, 1e-3, 1000, 30, bad, 7)
        with pytest.raises(DbError, match=f"^fails_z must be an integer >= 0, got {bad!r}$"):
            DbEntry.from_counts(3, 1.0, 1.0, 1e-3, 1000, 30, 5, bad)
    # The direct constructor once refused a float32 rate that the model
    # channels take; it now stores the rate's Python float.
    entry = DbEntry(3, 1.0, 1.0, 1e-3, 0, 0, 0, 0, np.float32(0.25), np.int64(0), False)
    assert (entry.p_xl, entry.p_zl) == (0.25, 0.0)
    assert (type(entry.p_xl), type(entry.p_zl)) == (float, float)


def test_database_add_get_and_duplicates():
    db = RateDatabase()
    e = DbEntry.seeded(3, 1.0, 1.0, 1e-3, 1.1e-3, 1.4e-3)
    db.add(e)
    assert len(db) == 1
    assert e.key in db
    assert db.get(3, 1.0, 1.0, 1e-3) is e
    assert db.get(4, 1.0, 1.0, 1e-3) is None
    with pytest.raises(DbError):
        db.add(DbEntry.seeded(3, 1.0, 1.0, 1e-3, 2e-3, 2e-3))
    assert db.get(3, 1.0, 1.0, 1e-3) is e


def test_entries_sorted_by_key():
    db = RateDatabase()
    db.add(DbEntry.seeded(5, 1.0, 1.0, 1e-3, 1e-4, 1e-4))
    db.add(DbEntry.seeded(3, 2.0, 1.0, 1e-3, 1e-3, 1e-3))
    db.add(DbEntry.seeded(3, 1.0, 1.0, 1e-3, 1e-3, 1e-3))
    assert [e.key[:2] for e in db.entries()] == [(3, 1.0), (3, 2.0), (5, 1.0)]


def test_save_load_roundtrip_is_exact(tmp_path):
    db = RateDatabase(metadata={"seed": "42", "note": "smoke"})
    db.add(DbEntry.from_counts(3, 1.0, 0.5, 1e-2, 4096, 7, 311, 228))
    db.add(DbEntry.seeded(6, 200.0, 0.01, 1e-4, 7.25e-9, 1.75e-9,
                          low_confidence=True))
    path = tmp_path / "rates.csv"
    db.save(path)

    text = path.read_text().splitlines()
    assert text[0] == "# note=smoke"
    assert text[1] == "# seed=42"
    assert text[2] == CSV_HEADER
    assert text[3].startswith("3,1,0.5,0.01,4096,7,311,228,")

    loaded = RateDatabase.load(path)
    assert loaded.metadata == db.metadata
    assert loaded.entries() == db.entries()
    # and back out again, byte-identical
    again = tmp_path / "again.csv"
    loaded.save(again)
    assert again.read_text() == path.read_text()


def test_numpy_scalars_save_as_python_scalars(tmp_path):
    # np.float64 passes a float check and np.int64 an integer one.  Entries
    # hold Python scalars, so the file loads back, byte for byte as written
    # for the same entries built from Python scalars.
    def numpy(v):
        return np.int64(v) if isinstance(v, int) else np.float64(v)

    texts = []
    for scalar in (lambda v: v, numpy):
        db = RateDatabase()
        db.add(DbEntry.from_counts(*map(scalar, (3, 1.0, 0.5, 1e-2, 4096, 7, 311, 228))))
        db.add(DbEntry.seeded(*map(scalar, (4, 2.0, 1.0, 1e-3, 1e-4, 2e-4))))
        for entry in db.entries():
            for f in fields(DbEntry):
                assert type(getattr(entry, f.name)) in (int, float, bool), f.name
        db.save(tmp_path / "rates.csv")
        assert RateDatabase.load(tmp_path / "rates.csv").entries() == db.entries()
        texts.append((tmp_path / "rates.csv").read_bytes())
    assert texts[0] == texts[1]


def test_failed_save_leaves_previous_file_intact(tmp_path, monkeypatch):
    path = tmp_path / "rates.csv"
    old = RateDatabase(metadata={"seed": "1"})
    old.add(DbEntry.from_counts(3, 1.0, 0.5, 1e-2, 4096, 7, 311, 228))
    old.save(path)
    before = path.read_bytes()
    new = RateDatabase(metadata={"seed": "2"})
    for d in (3, 4, 5, 6):
        new.add(DbEntry.from_counts(d, 2.0, 1.0, 5e-3, 1000, 10, 40 - d, 30 - d))

    written = []

    class HalfWriter:
        """A file whose write stores half of the text, then fails."""

        def __init__(self, fh):
            self.fh = fh

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def write(self, text):
            self.fh.write(text[: len(text) // 2])
            self.fh.flush()
            written.append(self.fh.name)
            raise OSError("no space left on device")

    monkeypatch.setattr(store, "open", lambda *a, **k: HalfWriter(open(*a, **k)), raising=False)
    with pytest.raises(OSError, match="no space"):
        new.save(path)
    assert len(written) == 1 and written[0] != str(path)
    assert path.read_bytes() == before
    assert list(tmp_path.iterdir()) == [path]

    monkeypatch.undo()
    new.save(path)
    assert list(tmp_path.iterdir()) == [path]
    assert path.read_text() == "\n".join([
        "# seed=2",
        CSV_HEADER,
        *(
            f"{d},2,1,5e-3,1000,10,{40 - d},{30 - d},{(40 - d) / 10000!r},{(30 - d) / 10000!r},1"
            for d in (3, 4, 5, 6)
        ),
    ]) + "\n"


def _write(tmp_path, body):
    path = tmp_path / "db.csv"
    path.write_text(body)
    return path


def test_load_rejects_malformed_inputs(tmp_path):
    good_row = "3,1,1,0.01,1000,5,200,300,0.04,0.06,0"
    with pytest.raises(DbError, match="missing header"):
        RateDatabase.load(_write(tmp_path, ""))
    with pytest.raises(DbError, match="line 1"):
        RateDatabase.load(_write(tmp_path, f"{good_row}\n"))
    with pytest.raises(DbError, match="line 2: expected 11 fields"):
        RateDatabase.load(_write(tmp_path, f"{CSV_HEADER}\n3,1,1\n"))
    with pytest.raises(DbError, match="line 3: duplicate"):
        RateDatabase.load(_write(tmp_path, f"{CSV_HEADER}\n{good_row}\n{good_row}\n"))
    with pytest.raises(DbError, match="line 2"):
        RateDatabase.load(_write(
            tmp_path, f"{CSV_HEADER}\n3,0.3,1,0.01,1000,5,200,300,0.04,0.06,0\n"
        ))
    with pytest.raises(DbError, match="low_confidence"):
        RateDatabase.load(_write(
            tmp_path, f"{CSV_HEADER}\n3,1,1,0.01,1000,5,200,300,0.04,0.06,yes\n"
        ))
    with pytest.raises(DbError, match="line 3: comment after header"):
        RateDatabase.load(_write(tmp_path, f"{CSV_HEADER}\n{good_row}\n# late\n"))
    with pytest.raises(DbError, match="line 2: rounds must be positive"):
        RateDatabase.load(_write(
            tmp_path, f"{CSV_HEADER}\n3,1,1,0.01,1000,0,200,300,0.04,0.06,0\n"
        ))


def test_load_rejects_seeded_rows_with_counts(tmp_path):
    with pytest.raises(
        DbError, match=r"^line 2: seeded entry \(shots=0\) has nonzero rounds, fails_x, fails_z$"
    ):
        RateDatabase.load(_write(
            tmp_path, f"{CSV_HEADER}\n3,1,1,0.01,0,5,200,300,0.04,0.06,0\n"
        ))
    with pytest.raises(DbError, match=r"^line 2: seeded entry \(shots=0\) has nonzero fails_z$"):
        RateDatabase.load(_write(
            tmp_path, f"{CSV_HEADER}\n3,1,1,0.01,0,0,0,3,0.04,0.06,0\n"
        ))


def test_csv_columns_are_the_entry_fields():
    assert CSV_HEADER.split(",") == [f.name for f in fields(DbEntry)]


_KEYS = st.tuples(
    st.sampled_from(DISTANCES),
    *(st.sampled_from(ladder_values(*AXES[axis])) for axis in ("r0", "r1", "p2")),
)


@st.composite
def _counted_entries(draw, keys=_KEYS):
    shots = draw(st.integers(1, 10**7))
    rounds = draw(st.integers(1, 600))
    fails = st.integers(0, min(shots * rounds, 10**6))
    return DbEntry.from_counts(*draw(keys), shots, rounds, draw(fails), draw(fails))


def _seeded_entries(keys=_KEYS):
    return st.builds(
        lambda key, p_xl, p_zl, flag: DbEntry.seeded(*key, p_xl, p_zl, low_confidence=flag),
        keys, st.floats(0.0, 1.0), st.floats(0.0, 1.0), st.booleans(),
    )


_SEEDED_ENTRIES = _seeded_entries()


@settings(max_examples=60, deadline=None)
@given(st.lists(
    st.one_of(_counted_entries(), _SEEDED_ENTRIES), max_size=12, unique_by=lambda e: e.key,
))
def test_save_load_roundtrip_property(entries):
    db = RateDatabase(metadata={"polyest_version": "0.2.0", "seed": "7"})
    for entry in entries:
        db.add(entry)
    with tempfile.TemporaryDirectory() as tmp:
        first, second = os.path.join(tmp, "a.csv"), os.path.join(tmp, "b.csv")
        db.save(first)
        loaded = RateDatabase.load(first)
        assert loaded.entries() == db.entries()
        assert loaded.metadata == db.metadata
        loaded.save(second)
        with open(first, "rb") as fa, open(second, "rb") as fb:
            assert fa.read() == fb.read()


# A few points, so that random add sequences repeat keys and share rows.
_FEW_AXES = ((0.5, 1.0, 200.0), (0.01, 1.0), (1e-4, 2e-3))
_FEW_KEYS = st.tuples(st.sampled_from(DISTANCES), *map(st.sampled_from, _FEW_AXES))


def _spellings(key):
    # Other spellings of a key, and near misses: a dict keyed by entry.key
    # finds the first three and none of the rest.
    d, *point = key
    return [
        (float(d), *point), (np.int64(d), *point), (d, *map(np.float64, point)),
        (True, *point), (1, *point), (7, *point), (d + 0.5, *point),
    ]


@settings(max_examples=100, deadline=None)
@given(st.lists(st.one_of(_counted_entries(_FEW_KEYS), _seeded_entries(_FEW_KEYS)), max_size=30))
def test_the_store_answers_as_a_dict_keyed_by_entry_key(entries):
    db, model = RateDatabase(), {}
    for entry in entries:
        if entry.key in model:
            with pytest.raises(DbError, match=re.escape(f"duplicate entry for {entry.key}")):
                db.add(entry)
        else:
            db.add(entry)
            model[entry.key] = entry
        assert len(db) == len(model)
    for key in itertools.product(DISTANCES, *_FEW_AXES):
        for spelling in (key, *_spellings(key)):
            assert db.get(*spelling) is model.get(spelling)
            assert (spelling in db) == (spelling in model)
        for wrong_length in ((), key[:1], key[:3], (*key, 0)):
            assert wrong_length not in db
    assert all(map(operator.is_, db.entries(), (model[key] for key in sorted(model))))
    assert len(db.entries()) == len(model)
    with tempfile.TemporaryDirectory() as tmp:
        first, second = os.path.join(tmp, "a.csv"), os.path.join(tmp, "b.csv")
        db.save(first)
        loaded = RateDatabase.load(first)
        assert loaded.entries() == db.entries() and len(loaded) == len(model)
        loaded.save(second)
        with open(first, "rb") as fa, open(second, "rb") as fb:
            assert fa.read() == fb.read()


def test_a_row_holds_a_points_entries_in_distance_order():
    db = RateDatabase()
    e3 = DbEntry.seeded(3, 1.0, 1.0, 1e-3, 1.1e-3, 1.4e-3)
    db.add(e3)
    row = db.row(1.0, 1.0, 1e-3)
    assert row == (e3, None, None, None)
    assert db.row(2.0, 1.0, 1e-3) == (None,) * len(DISTANCES)
    # A row is a tuple as of the call; an entry added later goes into a new row.
    e5 = DbEntry.seeded(5, 1.0, 1.0, 1e-3, 1e-4, 1.5e-4)
    db.add(e5)
    assert row == (e3, None, None, None)
    assert db.row(1.0, 1.0, 1e-3) == (e3, None, e5, None)


def _integer_entry_points():
    # For each public call that takes an integer, call(n) passing n as that
    # integer and the error it raises for a non-integer.
    db = build_bench_db()
    model = depolarizing_model(1e-3)
    fitted = fit(*(BENCH_X[d] for d in DISTANCES))
    rates = Rates(*(1e-2,) * 5)
    return {
        "estimate": (lambda n: estimate(db, model, n), ValueError),
        "evaluate": (lambda n: evaluate(fitted, n), ValueError),
        "from_counts d": (lambda n: DbEntry.from_counts(n, 1.0, 1.0, 1e-3, 400, 5, 3, 2), DbError),
        "from_counts shots": (lambda n: DbEntry.from_counts(3, 1.0, 1.0, 1e-3, n, 5, 3, 2), DbError),
        "from_counts fails": (lambda n: DbEntry.from_counts(3, 1.0, 1.0, 1e-3, 400, 5, n, 2), DbError),
        "interpolate": (lambda n: interpolate(db, n, 2.0, 1.0, 1e-3), ValueError),
        "Layout": (lambda n: Layout(n).d, LayoutError),
        "get_layout": (lambda n: get_layout(n).d, LayoutError),
        "GridSpec": (lambda n: GridSpec((n,), (1.0,), (1.0,), (1e-3,)).distances, DbError),
        "run_monte_carlo shots": (lambda n: run_monte_carlo(get_layout(3), rates, n, 3, 1), ValueError),
        "run_monte_carlo rounds": (lambda n: run_monte_carlo(get_layout(3), rates, 8, n, 1), ValueError),
    }


def _scalars(value):
    # The value and the type of every field of a result, recursively.
    if is_dataclass(value):
        return [_scalars(getattr(value, f.name)) for f in fields(value)]
    if isinstance(value, tuple):
        return [_scalars(v) for v in value]
    return (value, type(value))


def _probability_entry_points():
    # For each public call that takes a probability, call(p) passing p as
    # that probability and returning what it keeps of it, and the error it
    # raises for a value that is not a number in [0, 1].
    layout = get_layout(3)

    def graphs(p):
        built = matcher.build_graphs(layout.footprints, Rates(0, 0, 0, 0, p), layout)
        return tuple(g.built_for for g in built)

    return {
        "SingleQubitChannel": (lambda p: SingleQubitChannel(py=p), ModelError),
        "FlipChannel": (lambda p: FlipChannel(p), ModelError),
        "TwoQubitChannel": (lambda p: TwoQubitChannel(zx=p), ModelError),
        "SingleQubitChannel.depolarizing": (SingleQubitChannel.depolarizing, ModelError),
        "TwoQubitChannel.depolarizing": (TwoQubitChannel.depolarizing, ModelError),
        "Rates.validate": (lambda p: Rates(0, 0, p, 0, 0).validate(), ModelError),
        "build_graphs": (graphs, ModelError),
        "DbEntry": (lambda p: DbEntry(3, 1.0, 1.0, 1e-3, 0, 0, 0, 0, p, 0.0, False), DbError),
        "DbEntry.seeded": (lambda p: DbEntry.seeded(3, 1.0, 1.0, 1e-3, 1e-4, p), DbError),
    }


@pytest.mark.parametrize("name", list(_probability_entry_points()))
def test_every_probability_entry_point_takes_one_rule(name):
    # One rule, store.check_probability, judges every probability as given:
    # the same values pass everywhere and are kept as their Python floats,
    # and the same values raise, naming the value.
    call, error = _probability_entry_points()[name]
    for good in (0, 1, 0.25, np.float32(0.25), np.int64(0)):
        assert _scalars(call(good)) == _scalars(call(float(good))), (name, good)
    for bad in (True, np.bool_(True), "0.5", None, math.nan, -1e-3, 1.5):
        with pytest.raises(error, match=re.escape(f", got {bad!r}") + "$"):
            call(bad)


@pytest.mark.parametrize("name", list(_integer_entry_points()))
def test_numpy_integers_count_and_bools_never_do(name):
    call, error = _integer_entry_points()[name]
    want = _scalars(call(5))
    for np_int in (np.int64, np.int32, np.uint8):
        assert _scalars(call(np_int(5))) == want, name
    for bad in (True, np.bool_(True), 5.0):
        with pytest.raises(error):
            call(bad)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 10**7), st.integers(1, 600), st.data())
def test_a_run_and_its_entry_report_the_same_rates(shots, rounds, data):
    fails = st.integers(0, min(shots * rounds, 10**6))
    fails_x, fails_z = data.draw(fails), data.draw(fails)
    run = SimResult(shots, rounds, fails_x, fails_z)
    entry = DbEntry.from_counts(3, 1.0, 1.0, 1e-3, shots, rounds, fails_x, fails_z)
    assert (run.p_xl, run.p_zl) == (entry.p_xl, entry.p_zl)
    assert run.stderr_x == per_round_rate(math.sqrt(fails_x), shots, rounds)


@pytest.mark.parametrize("metadata", [
    {"note": "two\nlines"}, {"note": "carriage\rreturn"}, {"note": "end\n"},
    {"note": "form\x0cfeed"}, {"two\nlines": "v"},
    {" k ": "v"}, {"k": " v"}, {"k": "v\t"},
    {"a=b": "c"}, {"": "v"}, {"k": 1}, {2: "v"},
])
def test_save_rejects_metadata_that_cannot_round_trip(tmp_path, metadata):
    path = tmp_path / "rates.csv"
    [key] = metadata
    with pytest.raises(DbError, match=re.escape(f"metadata key {key!r}")):
        RateDatabase(metadata=metadata).save(path)
    assert not path.exists() and not list(tmp_path.iterdir())


def test_save_keeps_metadata_that_round_trips(tmp_path):
    metadata = {"note": "a=b, c = d", "empty": "", "k": "x y"}
    path = tmp_path / "rates.csv"
    RateDatabase(metadata=metadata).save(path)
    assert RateDatabase.load(path).metadata == metadata


def test_load_rejects_a_repeated_metadata_key(tmp_path):
    # A repeated key once loaded as its last value, so generate checked its
    # --seed against the last stamp only.  save writes each key once.
    body = f"# seed=1\n# note=x\n#seed = 2\n{CSV_HEADER}\n"
    with pytest.raises(DbError, match=r"^line 3: metadata key 'seed' repeats$"):
        RateDatabase.load(_write(tmp_path, body))
    body = f"# seed=1\n# note=x\n# Seed=1\n{CSV_HEADER}\n"
    assert RateDatabase.load(_write(tmp_path, body)).metadata == {
        "seed": "1", "note": "x", "Seed": "1"
    }


@pytest.mark.parametrize("line", ["# =x", "#=", "#  = x"])
def test_load_refuses_a_stamp_with_an_empty_key(tmp_path, line):
    # save refuses an empty key, so load does too.
    with pytest.raises(DbError, match=r"^line 1: metadata key '': "):
        RateDatabase.load(_write(tmp_path, f"{line}\n{CSV_HEADER}\n"))


@settings(max_examples=300, deadline=None)
@given(st.text(alphabet="ab =#\t\xa0\u3000", max_size=8))
def test_every_stamp_load_reads_saves_back(text):
    # One stamp-line rule serves both: what load reads from "#text", save
    # writes and load reads back unchanged.
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "db.csv")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(f"#{text}\n{CSV_HEADER}\n")
        try:
            metadata = RateDatabase.load(path).metadata
        except DbError as err:
            assert str(err).startswith("line 1: metadata key '': ")
            return
        RateDatabase(metadata=metadata).save(path)
        assert RateDatabase.load(path).metadata == metadata


def test_load_accepts_blank_lines_and_metadata(tmp_path):
    body = f"# seed=7\n\n{CSV_HEADER}\n\n3,1,1,0.01,1000,5,200,300,0.04,0.06,0\n"
    db = RateDatabase.load(_write(tmp_path, body))
    assert db.metadata == {"seed": "7"}
    assert len(db) == 1


# ---------------------------------------------------------------------------
# Grids and generation
# ---------------------------------------------------------------------------


def test_grid_sizes():
    assert len(GridSpec.full().points()) == 4 * 14 * 7 * 8 == 3136
    assert len(GridSpec.desk().points()) == 4 * 4 * 3 * 4 == 192


def test_grid_from_dict():
    grid = GridSpec.from_dict(
        {"distances": [3, 5], "r0": [1, 2], "r1": [1], "p2": [1e-3]}
    )
    assert grid.distances == (3, 5)
    assert grid.r0_values == (1.0, 2.0)
    assert grid.points() == [
        (3, 1.0, 1.0, 1e-3), (3, 2.0, 1.0, 1e-3),
        (5, 1.0, 1.0, 1e-3), (5, 2.0, 1.0, 1e-3),
    ]
    with pytest.raises(DbError, match="unknown grid spec keys"):
        GridSpec.from_dict({"distances": [3], "r0": [1], "r1": [1], "p2": [1e-3], "d": 1})
    with pytest.raises(DbError, match="missing key"):
        GridSpec.from_dict({"distances": [3], "r0": [1], "r1": [1]})
    with pytest.raises(DbError):
        GridSpec.from_dict({"distances": [7], "r0": [1], "r1": [1], "p2": [1e-3]})
    with pytest.raises(DbError):
        GridSpec.from_dict({"distances": [3], "r0": [0.3], "r1": [1], "p2": [1e-3]})
    with pytest.raises(DbError):
        GridSpec.from_dict({"distances": [3], "r0": [], "r1": [1], "p2": [1e-3]})


@pytest.mark.parametrize("spec", [
    {"distances": [3.9, 5.2], "r0": [1], "r1": [1], "p2": [1e-3]},
    {"distances": "36", "r0": [1], "r1": [1], "p2": [1e-3]},
    {"distances": [3], "r0": "1", "r1": [1], "p2": [1e-3]},
    {"distances": [3], "r0": [True], "r1": [1], "p2": [1e-3]},
], ids=["float_distances", "string_distances", "string_axis", "bool_axis"])
def test_grid_from_dict_rejects_malformed_specs(spec):
    with pytest.raises(DbError):
        GridSpec.from_dict(spec)


@pytest.mark.parametrize("axis", ["r0", "r1", "p2"])
def test_grid_from_dict_takes_axis_values_as_given(axis):
    # A JSON string is no axis value: the spec raises what GridSpec raises.
    spec = {"distances": [3], "r0": [1], "r1": [1], "p2": [1e-3]}
    spec[axis] = ["2"]
    with pytest.raises(DbError) as direct:
        GridSpec(spec["distances"], *(spec[name] for name in AXES))
    with pytest.raises(DbError) as given:
        GridSpec.from_dict(spec)
    assert str(given.value) == str(direct.value) == f"{axis}='2' is not on the 1-2-5 ladder"


@pytest.mark.parametrize("values", [(500.0,), (0.3,), (True,), ()],
                         ids=["above_range", "off_ladder", "bool", "empty"])
@pytest.mark.parametrize("axis", ["r0", "r1", "p2"])
def test_grid_checks_its_axes_when_built(axis, values):
    spec = {"distances": (3,), "r0_values": (1.0,), "r1_values": (1.0,), "p2_values": (1e-3,)}
    spec[f"{axis}_values"] = values
    with pytest.raises(DbError, match=axis):
        GridSpec(**spec)


def test_grid_sorts_and_dedupes_its_values():
    grid = GridSpec(distances=(6, 3, 3), r0_values=(2.0, 1, 1.0), r1_values=(1.0, 0.5),
                    p2_values=(2e-3, 1e-3, 2e-3))
    assert grid == GridSpec((3, 6), (1.0, 2.0), (0.5, 1.0), (1e-3, 2e-3))
    assert all(type(v) is float for v in grid.r0_values)
    points = grid.points()
    assert len(points) == len(set(points)) == 2 * 2 * 2 * 2


def test_choose_rounds_bounds():
    assert choose_rounds(3, 0.0) == 30
    assert choose_rounds(3, 1e-9) == 30
    assert choose_rounds(3, 0.5) == 3
    assert choose_rounds(3, 0.01) == 10
    assert choose_rounds(5, 0.01) == 10
    assert choose_rounds(5, 2e-3) == 50


_TINY = GridSpec(distances=(3,), r0_values=(1.0,), r1_values=(1.0,),
                 p2_values=(1e-2,))


def test_generate_fills_points_deterministically():
    results = []
    for _ in range(2):
        db = RateDatabase()
        added, skipped = generate(db, _TINY, seed=9, target_fails=5,
                                  max_shots=4096)
        assert added == [(3, 1.0, 1.0, 1e-2)]
        assert skipped == []
        results.append(db.entries())
    assert results[0] == results[1]
    entry = results[0][0]
    assert entry.shots > 0 and entry.fails_x >= 5 and entry.fails_z >= 5
    assert entry.p_xl == entry.fails_x / (entry.shots * entry.rounds)


def test_generate_skips_present_and_impossible_points():
    grid = GridSpec(distances=(3,), r0_values=(1.0, 200.0), r1_values=(1.0,),
                    p2_values=(1e-2,))
    db = RateDatabase()
    notes = []
    added, skipped = generate(db, grid, seed=9, target_fails=5,
                              max_shots=4096, progress=notes.append)
    assert added == [(3, 1.0, 1.0, 1e-2)]
    assert skipped == [((3, 200.0, 1.0, 1e-2), "p0 above 1")]
    assert any("exceeds 1" in n for n in notes)

    # a second run over the same grid recomputes nothing
    before = db.entries()
    added2, skipped2 = generate(db, grid, seed=9, target_fails=5,
                                max_shots=4096)
    assert added2 == []
    assert [reason for _, reason in skipped2] == ["already present", "p0 above 1"]
    assert db.entries() == before


def test_generate_rejects_negative_seed():
    with pytest.raises(DbError):
        generate(RateDatabase(), _TINY, seed=-1)


@pytest.mark.parametrize("max_shots", [0, -1])
def test_generate_rejects_nonpositive_max_shots_before_simulating(monkeypatch, max_shots):
    def no_simulation(*args, **kwargs):
        raise AssertionError("run_monte_carlo called")

    monkeypatch.setattr(ratedb, "run_monte_carlo", no_simulation)
    with pytest.raises(DbError, match="max_shots"):
        generate(RateDatabase(), _TINY, seed=1, max_shots=max_shots)


@pytest.mark.parametrize("name, bad", [
    ("target_fails", 0), ("target_fails", -5), ("target_fails", 2.5),
    ("target_fails", True), ("target_fails", "100"),
    ("max_shots", 2.5), ("max_shots", True), ("max_shots", 1e3), ("max_shots", "4096"),
    ("seed", 1.5), ("seed", True), ("seed", "1"), ("seed", -1),
])
def test_generate_rejects_bad_counts_before_simulating(monkeypatch, name, bad):
    def no_simulation(*args, **kwargs):
        raise AssertionError("run_monte_carlo called")

    monkeypatch.setattr(ratedb, "run_monte_carlo", no_simulation)
    counts = {"seed": 1, "target_fails": 5, "max_shots": 4096, name: bad}
    with pytest.raises(DbError, match=name):
        generate(RateDatabase(), _TINY, **counts)


def test_generate_checkpoints_after_each_point():
    grid = GridSpec(distances=(3,), r0_values=(1.0, 2.0), r1_values=(1.0,),
                    p2_values=(1e-2,))
    seen = []
    db = RateDatabase()
    added, _ = generate(db, grid, seed=9, target_fails=5, max_shots=4096,
                        checkpoint=lambda d: seen.append((d, [e.key for e in d.entries()])))
    assert [d for d, _ in seen] == [db, db]
    assert [keys for _, keys in seen] == [added[:1], added]


# At this noise level most decoded rows hold only singletons and linked
# pairs, so the pin covers the flip-only path of the batched decode at scale.
# First recorded with the per-row decoder, before the batched decode, and
# re-recorded with polyest 0.3.0's noise draw.
_LOW_NOISE_CSV_SHA256 = "ddd38b49cf0824b7b9785b89ea689646a8ae0d3cd68a2edac4f79c560943d2cb"


def test_low_noise_generate_csv_is_pinned(tmp_path):
    grid = GridSpec(distances=(3, 4, 5, 6), r0_values=(2.0,), r1_values=(1.0,),
                    p2_values=(2e-4,))
    db = RateDatabase()
    generate(db, grid, seed=11, max_shots=2048)
    db.save(tmp_path / "rates.csv")
    data = (tmp_path / "rates.csv").read_bytes()
    assert hashlib.sha256(data).hexdigest() == _LOW_NOISE_CSV_SHA256, data.decode()
