"""Logical-rate store: axis ladder, database entries and CSV persistence.

Database entries live on a fixed parameter ladder so that files produced by
different runs agree on their grid coordinates exactly.  Ladder values are
1, 2 or 5 times a power of ten; the axes are

* ``r0`` = p0/p2 in [0.01, 200],
* ``r1`` = p1/p2 in [0.01, 1],
* ``p2`` in [1e-4, 2e-2],

plus the code distance d in {3, 4, 5, 6}.  Each entry stores the Monte Carlo
counts it came from together with the derived per-round logical rates, and a
low-confidence flag set whenever either failure count is below 100.  A
database keeps one row per grid point (r0, r1, p2), with a slot for each
distance, so a query reads all four distances of a corner from one lookup.

The CSV format is one header line, one row per entry, with optional leading
``# key=value`` metadata comments.  The column table ``_COLUMNS`` is the
format: it lists the columns in file order, each with the DbEntry field it
holds, its parser and its formatter, and the header, ``save`` and ``load``
all derive from it.  Axis values are serialized canonically (``0.05``,
``2``, ``200``, ``2e-3``) so a parse/format round trip is bit-exact; rates
use repr, which round-trips floats exactly.

This module uses the standard library only, so the query path (estimate,
solve, curve) never loads the simulation stack.
"""

from __future__ import annotations

import bisect
import contextlib
import math
import numbers
import os
from dataclasses import dataclass
from typing import NamedTuple

LADDER_MANTISSAS = (1, 2, 5)
AXES: dict[str, tuple[float, float]] = {
    "r0": (0.01, 200.0),
    "r1": (0.01, 1.0),
    "p2": (1e-4, 0.02),
}
DISTANCES = (3, 4, 5, 6)
LOW_CONFIDENCE_FAILS = 100
# generate's shot budget per grid point.  Its failure target is
# LOW_CONFIDENCE_FAILS, so a point that stops at its target is never flagged.
MAX_SHOTS = 200_000


class DbError(ValueError):
    """Raised for malformed database files, entries or grid specs."""


def is_int(value) -> bool:
    """Whether ``value`` is an integer: numpy integer scalars count, bools never do."""
    if isinstance(value, int):
        return not isinstance(value, bool)
    return isinstance(value, numbers.Integral)


def is_real(value) -> bool:
    """Whether ``value`` is a real number: numpy scalars count, bools never do."""
    if type(value) is float:
        return True
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def check_int(error: type[Exception], name: str, value, low: int) -> int:
    """``value`` as a Python int; raises ``error`` unless it is an integer >= low."""
    if not is_int(value) or value < low:
        raise error(f"{name} must be an integer >= {low}, got {value!r}")
    return int(value)


def check_probability(error: type[Exception], name: str, value) -> float:
    """``value`` as a Python float; raises ``error`` unless it is a real number in [0, 1]."""
    if not is_real(value):
        raise error(f"{name} must be a number, got {value!r}")
    if math.isnan(value) or not 0.0 <= value <= 1.0:
        raise error(f"{name} must lie in [0, 1], got {value!r}")
    return float(value)


def per_round_rate(fails: float, shots: int, rounds: int) -> float:
    """Logical rate per round of ``fails`` in shots of rounds each; 0.0 without shots."""
    return fails / (shots * rounds) if shots else 0.0


def is_low_confidence(fails_x: int, fails_z: int) -> bool:
    """An entry's flag: whether either failure count is below LOW_CONFIDENCE_FAILS."""
    return bool(min(fails_x, fails_z) < LOW_CONFIDENCE_FAILS)


def ladder_decompose(value: float) -> tuple[int, int] | None:
    """Return (mantissa, exponent) if value is exactly on the 1-2-5 ladder."""
    if not is_real(value) or not math.isfinite(value) or value <= 0.0:
        return None
    value = float(value)  # a float32 would compare with each rung in float32
    e0 = round(math.log10(value))
    for e in range(e0 - 1, e0 + 2):
        for m in LADDER_MANTISSAS:
            if float(f"{m}e{e}") == value:
                return m, e
    return None


def format_value(value: float) -> str:
    """Canonical axis serialization; requires an exact ladder value."""
    decomposed = ladder_decompose(value)
    if decomposed is None:
        raise DbError(f"{value!r} is not a 1-2-5 ladder value")
    m, e = decomposed
    if e >= 0:
        return str(m * 10 ** e)
    if e == -1:
        return f"0.{m}"
    if e == -2:
        return f"0.0{m}"
    return f"{m}e{e}"


def ladder_values(lo: float, hi: float) -> list[float]:
    """All ladder values v with lo <= v <= hi, ascending."""
    if not (math.isfinite(lo) and math.isfinite(hi)) or lo <= 0 or hi < lo:
        raise DbError(f"invalid ladder range [{lo!r}, {hi!r}]")
    out = []
    for e in range(math.floor(math.log10(lo)) - 1, math.ceil(math.log10(hi)) + 2):
        for m in LADDER_MANTISSAS:
            v = float(f"{m}e{e}")
            if lo <= v <= hi:
                out.append(v)
    return out


# The rungs of every axis in AXES, ascending, built once.
_AXIS_LADDERS: dict[str, tuple[float, ...]] = {
    axis: tuple(ladder_values(lo, hi)) for axis, (lo, hi) in AXES.items()
}


class LadderBracket(NamedTuple):
    low: float
    high: float
    clamped: bool


SNAP_RELATIVE = 1e-9


def ladder_neighbors(value: float, axis: str) -> LadderBracket:
    """Enclosing ladder bracket for a query on one axis, clamping at the ends.

    A ladder member returns a degenerate bracket (low == high) with clamped
    False; values beyond the axis range return the nearest end with clamped
    True.  Values within SNAP_RELATIVE of a member count as that member, so
    rounding noise in computed rate ratios (for example p1/p2 for a
    depolarizing model landing one ulp past 1.0) cannot push a grid-point
    query off its rung or past an axis end.
    """
    if axis not in AXES:
        raise DbError(f"unknown axis {axis!r}")
    # A float is real; testing its type first spares the query path a call.
    if type(value) is not float:
        if not is_real(value):
            raise DbError(f"axis value must be a number, got {value!r}")
        value = float(value)
    if not math.isfinite(value) or value <= 0.0:
        raise DbError(f"axis {axis} value must be positive and finite, got {value!r}")
    values = _AXIS_LADDERS[axis]
    k = bisect.bisect_left(values, value)  # values[k - 1] < value <= values[k]
    # Rungs lie a factor of 2 or more apart, so only these two can snap.
    for v in values[k - 1 if k else 0:k + 1]:
        if abs(value - v) <= SNAP_RELATIVE * v:
            return LadderBracket(v, v, False)
    if k == 0:
        return LadderBracket(values[0], values[0], True)
    if k == len(values):
        return LadderBracket(values[-1], values[-1], True)
    return LadderBracket(values[k - 1], values[k], False)


def _check_axis(name: str, value: float) -> float:
    if type(value) is float and value in _AXIS_LADDERS[name]:
        return value  # a rung: on the ladder and in range
    if ladder_decompose(value) is None:
        raise DbError(f"{name}={value!r} is not on the 1-2-5 ladder")
    lo, hi = AXES[name]
    if not lo <= value <= hi:
        raise DbError(f"{name}={value!r} outside axis range [{lo}, {hi}]")
    return float(value)


@dataclass(frozen=True)
class DbEntry:
    """One measured grid point.

    Entries built from counts keep p_xl == per_round_rate(fails_x, shots,
    rounds) exactly (checked); seeded entries, used to install externally
    known rates, carry shots == rounds == fails_x == fails_z == 0 (checked)
    and are exempt from the rate and flag consistency checks.  Every
    constructor checks the values as given (axes on the ladder, rates by
    check_probability, a bool flag), raising DbError; numpy scalars are
    stored as Python ints, floats and bools, so save writes what load reads.
    """

    d: int
    r0: float
    r1: float
    p2: float
    shots: int
    rounds: int
    fails_x: int
    fails_z: int
    p_xl: float
    p_zl: float
    low_confidence: bool

    def __post_init__(self):
        if not is_int(self.d) or self.d not in DISTANCES:
            raise DbError(f"d={self.d!r} not in {DISTANCES}")
        object.__setattr__(self, "d", int(self.d))
        for name in ("r0", "r1", "p2"):
            object.__setattr__(self, name, _check_axis(name, getattr(self, name)))
        for name in ("shots", "rounds", "fails_x", "fails_z"):
            object.__setattr__(self, name, check_int(DbError, name, getattr(self, name), 0))
        for name in ("p_xl", "p_zl"):
            object.__setattr__(self, name, check_probability(DbError, name, getattr(self, name)))
        flag = self.low_confidence
        if type(flag) is not bool:  # a numpy bool scalar (dtype kind "b") is stored as a bool
            if getattr(flag, "dtype", None) != bool or flag.ndim:
                raise DbError(f"low_confidence must be a bool, got {flag!r}")
            object.__setattr__(self, "low_confidence", bool(flag))
        if self.shots == 0:
            nonzero = [n for n in ("rounds", "fails_x", "fails_z") if getattr(self, n)]
            if nonzero:
                raise DbError(f"seeded entry (shots=0) has nonzero {', '.join(nonzero)}")
        else:
            if self.rounds == 0:
                raise DbError(f"rounds must be positive when shots={self.shots}")
            for name, fails, p in (
                ("p_xl", self.fails_x, self.p_xl), ("p_zl", self.fails_z, self.p_zl),
            ):
                rate = per_round_rate(fails, self.shots, self.rounds)
                if not math.isclose(p, rate, rel_tol=1e-12, abs_tol=0.0):
                    raise DbError(f"{name}={p!r} inconsistent with {rate!r} from the counts")
            if self.low_confidence != is_low_confidence(self.fails_x, self.fails_z):
                raise DbError("low_confidence flag inconsistent with failure counts")

    @property
    def key(self) -> tuple[int, float, float, float]:
        return (self.d, self.r0, self.r1, self.p2)

    @classmethod
    def from_counts(cls, d, r0, r1, p2, shots, rounds, fails_x, fails_z) -> "DbEntry":
        shots = check_int(DbError, "shots", shots, 1)
        rounds = check_int(DbError, "rounds", rounds, 1)
        fails_x = check_int(DbError, "fails_x", fails_x, 0)
        fails_z = check_int(DbError, "fails_z", fails_z, 0)
        return cls(
            d=d, r0=r0, r1=r1, p2=p2,
            shots=shots, rounds=rounds, fails_x=fails_x, fails_z=fails_z,
            p_xl=per_round_rate(fails_x, shots, rounds),
            p_zl=per_round_rate(fails_z, shots, rounds),
            low_confidence=is_low_confidence(fails_x, fails_z),
        )

    @classmethod
    def seeded(cls, d, r0, r1, p2, p_xl, p_zl, low_confidence=False) -> "DbEntry":
        """Entry holding externally supplied rates instead of measured counts."""
        return cls(
            d=d, r0=r0, r1=r1, p2=p2, shots=0, rounds=0, fails_x=0, fails_z=0,
            p_xl=p_xl, p_zl=p_zl, low_confidence=low_confidence,
        )


def _parse_flag(text: str) -> bool:
    if text == "0":
        return False
    if text == "1":
        return True
    raise DbError(f"low_confidence must be 0 or 1, got {text!r}")


# The CSV columns in file order, which is DbEntry's field order: each
# column's field name, parser and formatter.
_COLUMNS = (
    ("d", int, str),
    ("r0", float, format_value),
    ("r1", float, format_value),
    ("p2", float, format_value),
    ("shots", int, str),
    ("rounds", int, str),
    ("fails_x", int, str),
    ("fails_z", int, str),
    ("p_xl", float, repr),
    ("p_zl", float, repr),
    ("low_confidence", _parse_flag, lambda flag: "1" if flag else "0"),
)
CSV_HEADER = ",".join(name for name, _, _ in _COLUMNS)


def _parse_stamp(line: str) -> tuple[str, str] | None:
    """The (key, value) of a ``# key=value`` comment line; None if it holds no ``=``.

    The key is the text before the first ``=`` and the value the text after
    it, each stripped; an empty key raises DbError.
    """
    body = line[1:].strip()
    if "=" not in body:
        return None
    key, _, value = body.partition("=")
    key = key.strip()
    if not key:
        raise DbError("metadata key '': a key must be non-empty")
    return key, value.strip()


def _stamp_line(key, value) -> str:
    """The ``# key=value`` line save writes; DbError, naming ``key``, unless it loads back."""
    if not (isinstance(key, str) and isinstance(value, str)):
        raise DbError(f"metadata key {key!r}: keys and values must be strings")
    line = f"# {key}={value}"
    try:
        loads_back = line.splitlines() == [line] and _parse_stamp(line) == (key, value)
    except DbError:  # an empty key
        loads_back = False
    if not loads_back:
        raise DbError(f"metadata key {key!r}: {line!r} does not load back as this key and value")
    return line


# The row of a point that holds no entry.
_NO_ROW: tuple[None, ...] = (None,) * len(DISTANCES)


class RateDatabase:
    """In-memory entry store keyed by grid point (r0, r1, p2).

    Each point holds a row: its entries in DISTANCES order, None where a
    distance has none, so one lookup serves all four distances of a point.
    """

    def __init__(self, metadata: dict[str, str] | None = None):
        self._rows: dict[tuple[float, float, float], tuple[DbEntry | None, ...]] = {}
        self.metadata: dict[str, str] = dict(metadata or {})

    def __len__(self) -> int:
        return sum(entry is not None for row in self._rows.values() for entry in row)

    def __contains__(self, key: tuple) -> bool:
        return isinstance(key, tuple) and len(key) == 4 and self.get(*key) is not None

    def add(self, entry: DbEntry) -> None:
        point, slot = (entry.r0, entry.r1, entry.p2), DISTANCES.index(entry.d)
        row = self._rows.get(point, _NO_ROW)
        if row[slot] is not None:
            raise DbError(f"duplicate entry for {entry.key}")
        self._rows[point] = (*row[:slot], entry, *row[slot + 1:])

    def get(self, d: int, r0: float, r1: float, p2: float) -> DbEntry | None:
        row = self._rows.get((r0, r1, p2))
        if row is None or d not in DISTANCES:  # 7, 3.5 or True is no distance
            return None
        return row[DISTANCES.index(d)]

    def row(self, r0: float, r1: float, p2: float) -> tuple[DbEntry | None, ...]:
        """The point's entries in DISTANCES order, None where a distance has none.

        A row is a tuple as of this call: an entry added later goes into a new row.
        """
        return self._rows.get((r0, r1, p2), _NO_ROW)

    def entries(self) -> list[DbEntry]:
        """Every entry, sorted by key: by d, then by point."""
        rows = [self._rows[point] for point in sorted(self._rows)]
        return [entry for column in zip(*rows) for entry in column if entry is not None]

    def save(self, path) -> None:
        """Write the database as CSV to ``path``, replacing it only when complete.

        The text goes to a temporary file in the same directory, which
        os.replace then moves onto ``path``, so a save that fails or is
        interrupted part-way leaves an earlier file intact.  A failed write
        removes its temporary file.  Metadata that would not load back as
        the same keys and values raises DbError before anything is written.
        """
        stamps = {key: _stamp_line(key, value) for key, value in self.metadata.items()}
        lines = [stamps[key] for key in sorted(stamps)]
        lines.append(CSV_HEADER)
        for e in self.entries():
            lines.append(",".join(fmt(getattr(e, name)) for name, _, fmt in _COLUMNS))
        path = os.fspath(path)
        head, name = os.path.split(path)
        tmp = os.path.join(head, f".{name}.{os.getpid()}.tmp")
        try:
            with open(tmp, "w", encoding="utf-8") as fh:
                fh.write("\n".join(lines) + "\n")
            os.replace(tmp, path)
        except BaseException:
            with contextlib.suppress(OSError):
                os.remove(tmp)
            raise

    @classmethod
    def load(cls, path) -> "RateDatabase":
        db = cls()
        with open(path, "r", encoding="utf-8") as fh:
            try:
                raw = fh.read().splitlines()
            except UnicodeDecodeError as err:
                raise DbError(f"database {path}: {err}") from None
        header_seen = False
        for lineno, line in enumerate(raw, 1):
            try:  # every error names its line; the column parsers raise ValueError
                if not line.strip():
                    continue
                if line.startswith("#"):
                    if header_seen:
                        raise DbError("comment after header")
                    stamp = _parse_stamp(line)
                    if stamp is not None:
                        key, value = stamp
                        if key in db.metadata:
                            raise DbError(f"metadata key {key!r} repeats")
                        db.metadata[key] = value
                    continue
                if not header_seen:
                    if line != CSV_HEADER:
                        raise DbError(f"expected header {CSV_HEADER!r}")
                    header_seen = True
                    continue
                texts = line.split(",")
                if len(texts) != len(_COLUMNS):
                    raise DbError(f"expected {len(_COLUMNS)} fields, got {len(texts)}")
                db.add(DbEntry(*[parse(text) for (_, parse, _), text in zip(_COLUMNS, texts)]))
            except ValueError as err:
                raise DbError(f"line {lineno}: {err}") from None
        if not header_seen:
            raise DbError("missing header line")
        return db


@dataclass(frozen=True)
class GridSpec:
    """The set of (d, r0, r1, p2) points one generation run should cover.

    Construction checks every value (each d in DISTANCES, each axis value a
    rung within its AXES range, no axis empty), then sorts and deduplicates.
    """

    distances: tuple[int, ...]
    r0_values: tuple[float, ...]
    r1_values: tuple[float, ...]
    p2_values: tuple[float, ...]

    def __post_init__(self):
        if not self.distances or not all(is_int(d) and d in DISTANCES for d in self.distances):
            raise DbError(f"distances must be a non-empty subset of {DISTANCES}")
        object.__setattr__(self, "distances", tuple(sorted(set(map(int, self.distances)))))
        for name in AXES:
            values = {_check_axis(name, v) for v in getattr(self, f"{name}_values")}
            if not values:
                raise DbError(f"axis {name} has no values")
            object.__setattr__(self, f"{name}_values", tuple(sorted(values)))

    @classmethod
    def full(cls) -> "GridSpec":
        """Every ladder point of every axis; the complete published grid."""
        return cls(DISTANCES, *_AXIS_LADDERS.values())

    @classmethod
    def desk(cls) -> "GridSpec":
        """Reduced grid covering the common operating corner at desk scale."""
        return cls(
            distances=DISTANCES,
            r0_values=(0.5, 1.0, 2.0, 5.0),
            r1_values=(0.2, 0.5, 1.0),
            p2_values=(2e-3, 5e-3, 1e-2, 2e-2),
        )

    @classmethod
    def from_dict(cls, data: dict) -> "GridSpec":
        """The grid a JSON object describes; its arrays go to GridSpec as given."""
        if not isinstance(data, dict):
            raise DbError("grid spec must be a JSON object")
        keys = ("distances", *AXES)
        unknown = set(data) - set(keys)
        if unknown:
            raise DbError(f"unknown grid spec keys: {sorted(unknown)}")
        for key in keys:
            if key not in data:
                raise DbError(f"grid spec missing key {key!r}")
            if not isinstance(data[key], list):
                raise DbError(f"grid spec {key} must be an array, got {data[key]!r}")
        return cls(*(data[key] for key in keys))

    def points(self) -> list[tuple[int, float, float, float]]:
        return [
            (d, r0, r1, p2)
            for d in self.distances
            for r0 in self.r0_values
            for r1 in self.r1_values
            for p2 in self.p2_values
        ]
