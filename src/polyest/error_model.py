"""Per-gate error channels and their reduction to six scalar rates.

A detailed error model assigns a channel to each of the eight gate kinds used
by the syndrome extraction cycle (initialization, measurement, Hadamard, CNOT
and the four identity paddings).  ``reduce`` folds such a model down to the
six rates that drive simulation and lookup:

* ``p0x`` / ``p0z`` -- classical syndrome-outcome flip probability per cycle
  for X-error detection (Z stabilizers) and Z-error detection (X stabilizers),
* ``p1x`` / ``p1z`` -- depolarizing-equivalent data-qubit idle rate per slot,
* ``p2x`` / ``p2z`` -- balanced two-qubit depolarizing rate per CNOT.

Folding treats Y as both X and Z, so the X reduction never looks at pure-Z
entries and vice versa.  CNOT channels whose derived one-sided rates are
unbalanced are raised to their maximum before scaling, which overestimates;
the asymmetry ratio of each axis is reported, and a ratio above
``ASYMMETRY_THRESHOLD`` adds the ``asymmetric_cnot`` warning to the reduction
and to every answer built on it.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, fields

from .store import check_probability

# Absorbs float dust when checking that probabilities sum to at most 1.
_SUM_TOL = 1e-9

#: The CNOT asymmetry ratio above which a reduction warns.
ASYMMETRY_THRESHOLD = 2.0


class ModelError(ValueError):
    """Raised for out-of-range probabilities or malformed model input."""


def _check_sum(name: str, total: float) -> None:
    if total > 1.0 + _SUM_TOL:
        raise ModelError(f"{name} probabilities sum to {total!r} > 1")


@dataclass(frozen=True)
class SingleQubitChannel:
    """Asymmetric single-qubit Pauli channel (pX, pY, pZ)."""

    px: float = 0.0
    py: float = 0.0
    pz: float = 0.0

    def __post_init__(self) -> None:
        for name in ("px", "py", "pz"):
            value = check_probability(ModelError, name, getattr(self, name))
            object.__setattr__(self, name, value)
        _check_sum("single-qubit channel", self.px + self.py + self.pz)

    @classmethod
    def depolarizing(cls, p: float) -> "SingleQubitChannel":
        p = check_probability(ModelError, "depolarizing rate", p)
        return cls(p / 3.0, p / 3.0, p / 3.0)


@dataclass(frozen=True)
class FlipChannel:
    """Classical bit-flip channel for initialization and measurement."""

    flip: float = 0.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "flip", check_probability(ModelError, "flip", self.flip))


@dataclass(frozen=True)
class TwoQubitChannel:
    """Two-qubit Pauli channel over the 15 nontrivial Paulis, control first."""

    ix: float = 0.0
    iy: float = 0.0
    iz: float = 0.0
    xi: float = 0.0
    xx: float = 0.0
    xy: float = 0.0
    xz: float = 0.0
    yi: float = 0.0
    yx: float = 0.0
    yy: float = 0.0
    yz: float = 0.0
    zi: float = 0.0
    zx: float = 0.0
    zy: float = 0.0
    zz: float = 0.0

    def __post_init__(self) -> None:
        total = 0.0
        for f in fields(self):
            value = check_probability(ModelError, f.name, getattr(self, f.name))
            object.__setattr__(self, f.name, value)
            total += value
        _check_sum("two-qubit channel", total)

    def __getitem__(self, pauli: str) -> float:
        if pauli not in TWO_QUBIT_PAULIS:
            raise KeyError(pauli)
        return getattr(self, pauli)

    @classmethod
    def depolarizing(cls, p: float) -> "TwoQubitChannel":
        p = check_probability(ModelError, "depolarizing rate", p)
        return cls(**{name: p / 15.0 for name in TWO_QUBIT_PAULIS})


#: The 15 nontrivial two-qubit Pauli labels, control letter first.
TWO_QUBIT_PAULIS = tuple(f.name for f in fields(TwoQubitChannel))


@dataclass(frozen=True)
class GateErrorModel:
    """Channels for every gate kind appearing in one extraction cycle.

    ``id_cnot`` (data qubits idling at lattice boundaries during CNOT steps)
    is carried for completeness but does not enter the reduction; its
    influence is negligible and the simulation injects nothing there.
    """

    init: FlipChannel = FlipChannel()
    meas: FlipChannel = FlipChannel()
    hadamard: SingleQubitChannel = SingleQubitChannel()
    id_init: SingleQubitChannel = SingleQubitChannel()
    id_had: SingleQubitChannel = SingleQubitChannel()
    id_meas: SingleQubitChannel = SingleQubitChannel()
    id_cnot: SingleQubitChannel = SingleQubitChannel()
    cnot: TwoQubitChannel = TwoQubitChannel()


@dataclass(frozen=True)
class ReducedRates:
    """The six reduced rates plus CNOT asymmetry diagnostics.

    ``asym_x`` / ``asym_z`` are the max/min ratios of the derived CNOT rate
    triples (1.0 for a fully balanced or fully zero triple, ``inf`` when the
    maximum is positive but the minimum is zero).  ``asymmetry_warning`` is
    set when either ratio exceeds ``ASYMMETRY_THRESHOLD``, and
    ``warnings`` lists the codes every answer built on these rates carries.
    """

    p0x: float
    p0z: float
    p1x: float
    p1z: float
    p2x: float
    p2z: float
    asym_x: float = 1.0
    asym_z: float = 1.0
    asymmetry_warning: bool = False

    @property
    def warnings(self) -> tuple[str, ...]:
        return ("asymmetric_cnot",) if self.asymmetry_warning else ()


def fold_single(channel: SingleQubitChannel) -> tuple[float, float]:
    """Fold Y into both axes: returns (pX + pY, pZ + pY)."""
    return channel.px + channel.py, channel.pz + channel.py


# Per axis, the Paulis of each derived-triple member (only-target, only-control,
# both) in TWO_QUBIT_PAULIS order.  A Pauli letter acts on the axis if it is the
# axis letter itself or Y.
_TRIPLE_NAMES = {
    axis: tuple(
        tuple(p for p in TWO_QUBIT_PAULIS if (p[0] in (axis, "y"), p[1] in (axis, "y")) == side)
        for side in ((False, True), (True, False), (True, True))
    )
    for axis in ("x", "z")
}


def _derived_triple(channel: TwoQubitChannel, axis: str) -> tuple[float, float, float]:
    # Each member is summed from 0.0 in TWO_QUBIT_PAULIS order.
    probabilities = vars(channel)
    triple = []
    for names in _TRIPLE_NAMES[axis]:
        total = 0.0
        for name in names:
            total += probabilities[name]
        triple.append(total)
    return tuple(triple)


def reduce_cnot(channel: TwoQubitChannel) -> tuple[float, float, float, float]:
    """Reduce a CNOT channel to balanced (p2x, p2z, asym_x, asym_z).

    Each axis folds the 15 entries into a derived triple (target-only,
    control-only, both); the triple is balanced by raising the two lower
    members to the maximum m, and the balanced uniform depolarizing rate is
    15*m/4 (so a uniform p/15 channel maps back to exactly p).
    """
    out = []
    for axis in ("x", "z"):
        triple = _derived_triple(channel, axis)
        m = max(triple)
        lo = min(triple)
        if m == 0.0:
            asym = 1.0
        elif lo == 0.0:
            asym = math.inf
        else:
            asym = m / lo
        out.append((15.0 * m / 4.0, asym))
    (p2x, asym_x), (p2z, asym_z) = out
    return p2x, p2z, asym_x, asym_z


def reduce_data_idle(model: GateErrorModel) -> tuple[float, float]:
    """Depolarizing-equivalent per-slot idle rates (p1x, p1z).

    Data qubits idle through four slots per cycle: one of initialization
    duration, two of Hadamard duration and one of measurement duration.  The
    3/8 factor is 3/2 (folded single-axis rate to depolarizing rate) times
    1/4 (per-cycle total to per-slot).
    """
    xi, zi = fold_single(model.id_init)
    xh, zh = fold_single(model.id_had)
    xm, zm = fold_single(model.id_meas)
    p1x = 3.0 * (xi + 2.0 * xh + xm) / 8.0
    p1z = 3.0 * (zi + 2.0 * zh + zm) / 8.0
    return p1x, p1z


def reduce_syndrome(model: GateErrorModel) -> tuple[float, float]:
    """Per-cycle outcome flip rates (p0x, p0z).

    Z-stabilizer syndrome qubits run init-CNOTs-measure, so only the init and
    measurement flips contribute.  X-stabilizer syndrome qubits additionally
    pass through two Hadamards whose X and Z components both flip the final
    Z-basis readout (one directly, one after basis exchange).
    """
    base = model.init.flip + model.meas.flip
    hx, hz = fold_single(model.hadamard)
    return base, base + hx + hz


def reduce(model: GateErrorModel) -> ReducedRates:
    """Reduce a full gate error model to the six scalar rates."""
    p0x, p0z = reduce_syndrome(model)
    p1x, p1z = reduce_data_idle(model)
    p2x, p2z, asym_x, asym_z = reduce_cnot(model.cnot)
    return ReducedRates(
        p0x=p0x, p0z=p0z, p1x=p1x, p1z=p1z, p2x=p2x, p2z=p2z,
        asym_x=asym_x, asym_z=asym_z,
        asymmetry_warning=max(asym_x, asym_z) > ASYMMETRY_THRESHOLD,
    )


def depolarizing_model(p: float, meas: float | None = None) -> GateErrorModel:
    """Standard benchmark model: every gate depolarizing at rate p.

    Initialization and measurement flip with probability p (``meas``
    overrides the measurement flip when given, e.g. for slow readout).
    """
    single = SingleQubitChannel.depolarizing(p)
    return GateErrorModel(
        init=FlipChannel(p),
        meas=FlipChannel(p if meas is None else meas),
        hadamard=single,
        id_init=single,
        id_had=single,
        id_meas=single,
        id_cnot=single,
        cnot=TwoQubitChannel.depolarizing(p),
    )


# ---------------------------------------------------------------------------
# JSON model files
# ---------------------------------------------------------------------------


def model_from_dict(data: dict) -> GateErrorModel:
    """Build a model from its JSON dict form.

    Two forms are accepted: the full form with per-gate channel objects
    (omitted gates and omitted Pauli entries default to zero), and the
    shorthand ``{"depolarizing": p}`` with an optional ``"meas"`` override.
    In the full form the gate keys are the fields of GateErrorModel and each
    gate's keys the fields of its channel class.
    """
    if not isinstance(data, dict):
        raise ModelError("model must be a JSON object")
    if "depolarizing" in data:
        extra = set(data) - {"depolarizing", "meas"}
        if extra:
            raise ModelError(f"unknown keys with depolarizing shorthand: {sorted(extra)}")
        return depolarizing_model(data["depolarizing"], data.get("meas"))

    gates = fields(GateErrorModel)
    unknown = set(data) - {gate.name for gate in gates}
    if unknown:
        raise ModelError(f"unknown model keys: {sorted(unknown)}")
    channels = {}
    for gate in gates:
        entry = data.get(gate.name, {})
        if not isinstance(entry, dict):
            raise ModelError(f"{gate.name} must be a JSON object, got {entry!r}")
        # gate.type is a string under postponed annotations; the default is
        # an instance of the channel class.
        channel = type(gate.default)
        extra = set(entry) - {f.name for f in fields(channel)}
        if extra:
            raise ModelError(f"unknown {gate.name} keys: {sorted(extra)}")
        channels[gate.name] = channel(**entry)
    return GateErrorModel(**channels)


def model_to_dict(model: GateErrorModel) -> dict:
    """Full JSON dict form of a model (zero entries omitted)."""
    out: dict = {}
    for gate, channel in asdict(model).items():
        entry = {k: v for k, v in channel.items() if v}
        if entry:
            out[gate] = entry
    return out


def load_model(path: str) -> GateErrorModel:
    """Load a model from a JSON file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ModelError(f"cannot read model file {path}: {exc}") from exc
    except ValueError as exc:  # a JSONDecodeError, or a UnicodeDecodeError
        raise ModelError(f"model file {path} is not valid JSON: {exc}") from exc
    return model_from_dict(data)
