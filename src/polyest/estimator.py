"""Logical-rate estimation from a rate database plus a reduced error model.

For distances 3 to 6 the estimate is a trilinear interpolation of database
entries in log10 space over (r0, r1, p2).  ``Query`` is the one reader of a
database: ``estimate``, ``solve_distance``, ``interpolate`` and ``polyest
curve`` all read through it.  The grid corners around a query and their
weights do not depend on the distance, so a Query brackets them once, on its
first read, and fetches each corner's database row, which holds all four
distances, at the same time.  Each distance then indexes into those rows.
Queries landing exactly on a grid point return the stored value
bit-for-bit; queries outside an axis range, a ratio of zero or one that
overflows to infinity included, are clamped to the nearest grid line and
flagged.  Interpolated results are additionally clamped into the
envelope of the participating corner values, so interpolation can never
overshoot its own inputs through rounding.

Beyond distance 6 the four direct values split by parity into two geometric
sequences: with x = p5/p3 and y = p6/p4,

    odd d:   C * x^((d+1)/2)   where C = p3 / x^2
    even d:  D * y^(d/2)       where D = p4 / y^2

A ratio at or above 1 means the rates do not fall with distance (the model
is at or above threshold) and extrapolation refuses to run.

``solve_distance`` finds the first distance whose X and Z rates both meet a
target.  It reads d = 3 to 7 in turn, as every error past 6 arises at 7, then
skips the distances where a parity fit's logarithmic bound keeps a rate above
the target; a fit outside the bound's guard (``_skip_ahead``) skips nothing.
"""

from __future__ import annotations

import math
import operator
import sys
from dataclasses import dataclass
from itertools import product

from .error_model import GateErrorModel, ReducedRates, reduce
from .store import (
    AXES, DISTANCES, RateDatabase, check_int, format_value, is_int, is_real, ladder_neighbors,
)

MAX_SCAN_DISTANCE = 1001
# The largest fit ratio whose logarithmic bound _skip_ahead uses.
_BOUND_RATIO = 1.0 - 2.0 ** -20


class MissingEntryError(LookupError):
    """A required database grid point is absent."""


class ComputationError(RuntimeError):
    """A well-formed query whose answer is undefined or unreachable."""


class AboveThresholdError(ComputationError):
    """Rates do not decrease with distance; no extrapolation exists."""


class FitRangeError(ComputationError):
    """Extrapolation inputs outside the fit's domain (zero rates, ratios too small to square)."""


class UndefinedRatioError(ComputationError):
    """p2 is zero while p0 or p1 is not, so r0 and r1 are undefined."""


class ScanLimitError(ComputationError):
    """No distance up to the scan cap reaches the target rate."""


def _axis_corners(value: float, axis: str, warnings: set[str]) -> list[tuple[float, float]]:
    if axis != "p2" and value in (0.0, math.inf):
        # A zero ratio (a model without idle, or without preparation and
        # measurement noise) lies below the axis like any small ratio, and
        # one that overflows (p0 or p1 over a subnormal p2) above it like any
        # large one.  A zero p2 is not clamped: Query.at answers it without
        # the database.
        value = AXES[axis][0] if value == 0.0 else AXES[axis][1]
        warnings.add("clamped")
    low, high, clamped = ladder_neighbors(value, axis)
    if clamped:
        warnings.add("clamped")
    if low == high:
        return [(low, 1.0)]
    t = (math.log10(value) - math.log10(low)) / (math.log10(high) - math.log10(low))
    return [(low, 1.0 - t), (high, t)]


def interpolate(
    db: RateDatabase,
    d: int,
    r0: float,
    r1: float,
    p2: float,
    kind: str = "x",
    warnings: set[str] | None = None,
) -> float:
    """Trilinear log-space interpolation of the stored rate of one kind.

    One read of a Query, whose warnings go to ``warnings`` when given.  To
    read several distances of one query, read them through one Query, which
    brackets its corners once.
    """
    query = Query(db, kind, r0, r1, p2)
    query.warnings = set() if warnings is None else warnings
    return query.read(d)


@dataclass(frozen=True)
class ExtrapolationFit:
    """Parity-split geometric fit through the four direct distances."""

    direct: tuple[float, float, float, float]  # rates at d = 3, 4, 5, 6
    x: float
    y: float
    coeff_odd: float
    coeff_even: float
    above_threshold: bool


def fit(p3: float, p4: float, p5: float, p6: float) -> ExtrapolationFit:
    """Fit the odd and even geometric decays to the four direct rates."""
    for name, v in zip(("p3", "p4", "p5", "p6"), (p3, p4, p5, p6)):
        if not is_real(v) or not math.isfinite(v) or v <= 0.0:
            raise FitRangeError(f"extrapolation requires positive finite {name}, got {v!r}")
    direct = p3, p4, p5, p6 = tuple(map(float, (p3, p4, p5, p6)))
    x, y = p5 / p3, p6 / p4
    if x * x == 0.0 or y * y == 0.0:
        raise FitRangeError(f"extrapolation ratios square to 0: x = {x!r}, y = {y!r}")
    coeff_odd, coeff_even = p3 / (x * x), p4 / (y * y)
    if max(coeff_odd, coeff_even) == math.inf:
        raise FitRangeError(f"extrapolation coefficients p3/x**2 = {coeff_odd!r} and "
                            f"p4/y**2 = {coeff_even!r} must be finite")
    return ExtrapolationFit(
        direct=direct,
        x=x,
        y=y,
        coeff_odd=coeff_odd,
        coeff_even=coeff_even,
        above_threshold=(x >= 1.0 or y >= 1.0),
    )


def evaluate(fit_result: ExtrapolationFit, d: int) -> float:
    """Rate at distance d: direct through 6, parity extrapolation past it."""
    return _evaluate(fit_result, check_int(ValueError, "distance", d, 3))


def _evaluate(fit_result: ExtrapolationFit, d: int) -> float:
    # evaluate at a checked distance, so a distance scan checks none of its steps.
    if d <= 6:
        return fit_result.direct[d - 3]
    if fit_result.above_threshold:
        raise AboveThresholdError(
            "rates do not decrease with distance (ratio >= 1); cannot extrapolate"
        )
    half = (d + 1) // 2
    if d % 2 == 1:
        return fit_result.coeff_odd * fit_result.x ** half
    return fit_result.coeff_even * fit_result.y ** half


@dataclass(frozen=True)
class Estimate:
    """Instantaneous logical rates of both kinds at one distance."""

    d: int
    p_xl: float
    p_zl: float
    warnings: tuple[str, ...]
    rates: ReducedRates
    fit_x: ExtrapolationFit | None
    fit_z: ExtrapolationFit | None


class Query:
    """The rates of one error type at (r0, r1, p2) in one database: its one reader.

    The grid corners around (r0, r1, p2) do not depend on the distance, so
    they are bracketed once, on the first read, when each corner's row of
    the database (``RateDatabase.row``) is fetched; each distance indexes
    into those rows.  A missing entry or a low-confidence flag counts only
    at a distance read.  ``warnings`` collects the query's
    warning codes, and ``fit`` is its parity fit once a distance past 6 has
    been asked for.
    """

    def __init__(self, db: RateDatabase, kind: str, r0: float, r1: float, p2: float):
        if kind not in ("x", "z"):
            raise ValueError(f"kind must be 'x' or 'z', got {kind!r}")
        self.db, self.kind = db, kind
        self.r0, self.r1, self.p2 = r0, r1, p2
        self.warnings: set[str] = set()
        self.fit: ExtrapolationFit | None = None
        self._corners: list | None = None  # (corner, its row, weight), on the first read
        self._memo: dict[int, float] = {}

    @classmethod
    def of(cls, db: RateDatabase, rr: ReducedRates, kind: str) -> Query:
        """The query of a reduced model's rates of one error type."""
        p0, p1, p2 = (rr.p0x, rr.p1x, rr.p2x) if kind == "x" else (rr.p0z, rr.p1z, rr.p2z)
        if p2 == 0.0:
            query = cls(db, kind, 0.0, 0.0, 0.0)  # a bad kind is refused before the ratio
            if p0 > 0.0 or p1 > 0.0:
                raise UndefinedRatioError(
                    f"p2{kind.upper()} is zero while p0/p1 are not; "
                    "the database ratios r0 and r1 are undefined"
                )
            return query
        return cls(db, kind, p0 / p2, p1 / p2, p2)

    def read(self, d: int) -> float:
        """Distance d's (3 to 6) stored rates at the query's corners, combined in log space."""
        if not is_int(d) or d not in DISTANCES:
            raise ValueError(f"interpolation is defined for d in {DISTANCES}, got {d}")
        return self._read(d)

    def _read(self, d: int) -> float:
        # read at a checked distance, so at and the fit check none of their reads.
        if d in self._memo:
            return self._memo[d]
        corners = self._corners
        if corners is None:
            axes = [_axis_corners(value, axis, self.warnings)
                    for value, axis in zip((self.r0, self.r1, self.p2), AXES)]
            row = self.db.row
            corners = self._corners = [((v0, v1, v2), row(v0, v1, v2), w0 * w1 * w2)
                                       for (v0, w0), (v1, w1), (v2, w2) in product(*axes)]
        slot, x = DISTANCES.index(d), self.kind == "x"
        values, weights = [], []  # of the corners with a positive weight, in corner order
        for point, row, weight in corners:
            entry = row[slot]
            if entry is None:
                raise MissingEntryError("missing database entry (d={}, r0={}, r1={}, p2={})".format(
                    d, *map(format_value, point)))
            if entry.low_confidence:
                self.warnings.add("low_confidence")
            if weight > 0.0:
                values.append(entry.p_xl if x else entry.p_zl)
                weights.append(weight)
        if len(corners) == 1:
            result = values[0]  # bit-exact at grid points
        elif 0.0 in values:
            result = 0.0  # a zero corner pins the geometric mean to zero
        else:
            result = 10.0 ** sum(map(operator.mul, weights, map(math.log10, values)))
            result = min(max(result, min(values)), max(values))  # within the corners' envelope
        self._memo[d] = result
        return result

    def at(self, d: int) -> float:
        """The rate at any d >= 3: read through 6, the parity fit past it, 0.0 at p2 = 0."""
        if type(d) is not int or d < 3:
            d = check_int(ValueError, "distance", d, 3)
        if self.p2 == 0.0:
            return 0.0
        if d <= 6:
            return self._read(d)
        if self.fit is None:
            self.fit = fit(*map(self._read, DISTANCES))
        return _evaluate(self.fit, d)


def _skip_ahead(fits: list[ExtrapolationFit], target: float) -> int:
    """The first distance past 7 that no parity fit rules out for ``target``.

    A parity's rate C * r**h, h = (d+1)//2, is above the target for h below
    log(target/C) / log(r).  The bound counts if the rate two distances back
    is confirmed above the target, r <= _BOUND_RATIO, and C (finite, as fit
    requires) is positive with C * float_info.min <= target: r**h is then a normal float
    there, and at every earlier distance a larger one (each step shrinks it
    by far more than rounding), so every earlier rate is above the target.
    """
    start = [8, 9]  # the first even and odd distance past 7
    for f in fits:
        for parity, ratio, coeff in ((0, f.y, f.coeff_even), (1, f.x, f.coeff_odd)):
            if ratio <= _BOUND_RATIO and 0.0 < coeff and (
                coeff * sys.float_info.min <= target
            ):
                half = math.floor((math.log(target) - math.log(coeff)) / math.log(ratio))
                d = 2 * min(half, MAX_SCAN_DISTANCE // 2 + 1) - parity
                if d > start[parity] and _evaluate(f, d - 2) > target:
                    start[parity] = d
    return min(start)


def _first_meeting(
    db: RateDatabase, model: GateErrorModel, distances: range, target: float
) -> Estimate | None:
    """Estimate at the first of ``distances`` whose X and Z rates reach target."""
    rr = reduce(model)
    query_x, query_z = Query.of(db, rr, "x"), Query.of(db, rr, "z")
    d = distances.start
    while d < distances.stop:
        p_xl = query_x.at(d)
        p_zl = query_z.at(d)
        if p_xl <= target and p_zl <= target:
            return Estimate(
                d=d,
                p_xl=p_xl,
                p_zl=p_zl,
                warnings=tuple(sorted(query_x.warnings.union(query_z.warnings, rr.warnings))),
                rates=rr,
                fit_x=query_x.fit,
                fit_z=query_z.fit,
            )
        if d == 7:
            d = _skip_ahead([q.fit for q in (query_x, query_z) if q.fit is not None], target)
        else:
            d += 1
    return None


def estimate(db: RateDatabase, model: GateErrorModel, d: int) -> Estimate:
    """Logical X and Z rates of a detailed error model at one distance."""
    d = check_int(ValueError, "distance", d, 3)
    return _first_meeting(db, model, range(d, d + 1), math.inf)


def solve_distance(db: RateDatabase, model: GateErrorModel, target: float) -> Estimate:
    """Smallest distance whose X and Z rates both reach the target.

    Reads d = 3 to 7 using interpolation through 6 and the parity
    extrapolation past it, so a database covering only the distances it needs
    is sufficient for targets met early, then skips what the fits rule out
    (_skip_ahead) and steps on up to MAX_SCAN_DISTANCE.  The answer is the
    one a scan of every distance gives.
    """
    if not is_real(target) or not 0.0 < target < 1.0:
        raise ValueError(f"target rate must be a float in (0, 1), got {target!r}")
    target = float(target)
    result = _first_meeting(db, model, range(3, MAX_SCAN_DISTANCE + 1), target)
    if result is None:
        raise ScanLimitError(
            f"no distance up to {MAX_SCAN_DISTANCE} reaches target {target!r}"
        )
    return result
