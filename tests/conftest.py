from itertools import product

import pytest
from hypothesis import settings

from polyest import estimator
from polyest.store import DbEntry, RateDatabase

# Property tests draw their examples from a fixed seed and ignore the
# example database, so every run checks the same inputs.
settings.register_profile("fixed-seed", derandomize=True, database=None)
settings.load_profile("fixed-seed")

# Published logical rates per round for the standard depolarizing benchmark
# at p = 1e-3, distances 3 through 6.
BENCH_X = {3: 1.1e-3, 4: 4.5e-4, 5: 1.0e-4, 6: 3.2e-5}
BENCH_Z = {3: 1.4e-3, 4: 5.8e-4, 5: 1.5e-4, 6: 4.7e-5}


def build_bench_db():
    # The depolarizing model reduces to r0 = 2 on the X side and r0 = 10/3 on
    # the Z side; storing both ladder neighbors with the same values makes
    # every benchmark query exact.
    db = RateDatabase(metadata={"source": "seeded-benchmark"})
    for d, px in BENCH_X.items():
        for r0 in (2.0, 5.0):
            db.add(DbEntry.seeded(d, r0, 1.0, 1e-3, px, BENCH_Z[d]))
    return db


def build_flat_db(r0s, r1s, p2s):
    # Every entry at one distance holds that distance's benchmark rates, so
    # any query inside the grid interpolates between equal corners.
    db = RateDatabase(metadata={"source": "seeded-flat"})
    for d, px in BENCH_X.items():
        for r0, r1, p2 in product(r0s, r1s, p2s):
            db.add(DbEntry.seeded(d, r0, r1, p2, px, BENCH_Z[d]))
    return db


@pytest.fixture()
def bench_db():
    return build_bench_db()


@pytest.fixture()
def bracket_calls(monkeypatch):
    """The axis of every ladder_neighbors call the estimator makes."""
    calls = []
    raw = estimator.ladder_neighbors

    def spy(value, axis):
        calls.append(axis)
        return raw(value, axis)

    monkeypatch.setattr(estimator, "ladder_neighbors", spy)
    return calls


@pytest.fixture()
def evaluate_calls(monkeypatch):
    """The distance of every _evaluate call the estimator makes."""
    calls = []
    raw = estimator._evaluate

    def spy(fit_result, d):
        calls.append(d)
        return raw(fit_result, d)

    monkeypatch.setattr(estimator, "_evaluate", spy)
    return calls
