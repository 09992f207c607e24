"""Independent reference for the query path: reduce, estimate and solve.

Written from the documented semantics (README "How it works", the estimator
module docstring), not from the implementation, and with different float
arithmetic (natural logs, closed-form extrapolation), so it is compared with
a relative tolerance.  Error classes, warnings and solved distances must
match exactly.
"""

from __future__ import annotations

import math

from gen_inputs import DISTANCES, P2_LADDER, PAULIS2, R0_LADDER, R1_LADDER

REL_TOL = 1e-9
SNAP = 1e-9
MAX_SCAN = 1001
LADDERS = {"r0": R0_LADDER, "r1": R1_LADDER, "p2": P2_LADDER}


class OracleError(Exception):
    """Carries the name of the error class the program should raise."""


def _channels(model: dict):
    """(init, meas, {gate: (px, py, pz)}, {pauli: p}) of a model dict."""
    if "depolarizing" in model:
        p = model["depolarizing"]
        meas = model.get("meas")
        single = (p / 3.0, p / 3.0, p / 3.0)
        gates = {g: single for g in ("hadamard", "id_init", "id_had", "id_meas")}
        return p, p if meas is None else meas, gates, {k: p / 15.0 for k in PAULIS2}
    gates = {}
    for g in ("hadamard", "id_init", "id_had", "id_meas"):
        ch = model.get(g, {})
        gates[g] = (ch.get("px", 0.0), ch.get("py", 0.0), ch.get("pz", 0.0))
    cnot = {k: model.get("cnot", {}).get(k, 0.0) for k in PAULIS2}
    return model.get("init", {}).get("flip", 0.0), model.get("meas", {}).get("flip", 0.0), gates, cnot


def reduce_model(model: dict) -> tuple[dict, bool]:
    """Per-kind (p0, p1, p2) rates and whether the CNOT asymmetry exceeds 2."""
    init, meas, gates, cnot = _channels(model)
    px_h, py_h, pz_h = gates["hadamard"]

    def idle(a: int) -> float:
        fold = lambda ch: ch[a] + ch[1]  # noqa: E731  (Y counts on both axes)
        return 0.375 * (fold(gates["id_init"]) + 2 * fold(gates["id_had"]) + fold(gates["id_meas"]))

    rates, asym = {}, []
    for kind, letter, p0, p1 in (
        ("x", "x", init + meas, idle(0)),
        ("z", "z", init + meas + px_h + pz_h + 2 * py_h, idle(2)),
    ):
        hit = (letter, "y")
        target_only = sum(p for k, p in cnot.items() if k[1] in hit and k[0] not in hit)
        control_only = sum(p for k, p in cnot.items() if k[0] in hit and k[1] not in hit)
        both = sum(p for k, p in cnot.items() if k[0] in hit and k[1] in hit)
        m, lo = max(target_only, control_only, both), min(target_only, control_only, both)
        asym.append(1.0 if m == 0 else (math.inf if lo == 0 else m / lo))
        rates[kind] = (p0, p1, 3.75 * m)
    return rates, max(asym) > 2.0


def _corners(value: float, axis: str, warnings: set) -> list[tuple[float, float]]:
    ladder = LADDERS[axis]
    for v in ladder:
        if abs(value - v) <= SNAP * v:
            return [(v, 1.0)]
    if value < ladder[0] or value > ladder[-1]:
        warnings.add("clamped")
        return [(ladder[0] if value < ladder[0] else ladder[-1], 1.0)]
    hi = next(v for v in ladder if v > value)
    lo = ladder[ladder.index(hi) - 1]
    t = math.log(value / lo) / math.log(hi / lo)
    return [(lo, 1.0 - t), (hi, t)]


class Reference:
    """Reference answers over a database given as {(d, r0, r1, p2): row}."""

    def __init__(self, rows: dict):
        self.rows = rows  # key -> (p_xl, p_zl, low_confidence)

    def _direct(self, kind: str, d: int, r: tuple, warnings: set) -> float:
        axes = [_corners(v, a, warnings) for v, a in zip(r, ("r0", "r1", "p2"))]
        log_sum, values = 0.0, []
        for v0, w0 in axes[0]:
            for v1, w1 in axes[1]:
                for v2, w2 in axes[2]:
                    p_x, p_z, low = self.rows[(d, v0, v1, v2)]
                    if low:
                        warnings.add("low_confidence")
                    p = p_x if kind == "x" else p_z
                    log_sum += w0 * w1 * w2 * math.log(p)
                    values.append(p)
        if len(values) == 1:
            return values[0]
        return min(max(math.exp(log_sum), min(values)), max(values))

    def _at(self, kind: str, d: int, r: tuple, warnings: set, memo: dict) -> float:
        if d <= 6:
            if (kind, d) not in memo:
                memo[(kind, d)] = self._direct(kind, d, r, warnings)
            return memo[(kind, d)]
        if kind not in memo:
            p3, p4, p5, p6 = (self._at(kind, dd, r, warnings, memo) for dd in DISTANCES)
            memo[kind] = (p3, p4, p5 / p3, p6 / p4)
        p3, p4, x, y = memo[kind]
        if x >= 1.0 or y >= 1.0:
            raise OracleError("AboveThresholdError")
        return p3 * x ** ((d - 3) / 2) if d % 2 else p4 * y ** ((d - 4) / 2)

    def answer(self, op: str, model: dict, arg) -> tuple:
        """("ok", d, p_xl, p_zl, warnings) or ("error", class name)."""
        rates, asymmetric = reduce_model(model)
        warnings = {"asymmetric_cnot"} if asymmetric else set()
        r = {k: (p0 / p2, p1 / p2, p2) for k, (p0, p1, p2) in rates.items()}
        memo: dict = {}
        try:
            if op == "estimate":
                d = arg
                px = self._at("x", d, r["x"], warnings, memo)
                pz = self._at("z", d, r["z"], warnings, memo)
                return ("ok", d, px, pz, tuple(sorted(warnings)))
            for d in range(3, MAX_SCAN + 1):
                px = self._at("x", d, r["x"], warnings, memo)
                pz = self._at("z", d, r["z"], warnings, memo)
                if px <= arg and pz <= arg:
                    return ("ok", d, px, pz, tuple(sorted(warnings)))
            raise OracleError("ScanLimitError")
        except OracleError as err:
            return ("error", str(err))


def agrees(expected: tuple, got: tuple) -> bool:
    if expected[0] != got[0] or expected[1] != got[1]:
        return False
    if expected[0] == "error":
        return True
    return (
        expected[4] == got[4]
        and math.isclose(expected[2], got[2], rel_tol=REL_TOL, abs_tol=0.0)
        and math.isclose(expected[3], got[3], rel_tol=REL_TOL, abs_tol=0.0)
    )
