"""Planar surface code lattice, extraction cycle and Pauli-frame Monte Carlo.

Lattice convention, on a (2d-1) x (2d-1) grid of rows i (0 = north edge) and
columns j (0 = west edge):

* data qubits sit at i + j even (d^2 + (d-1)^2 of them);
* X stabilizers at odd i / even j, weight 3 on the west and east columns;
* Z stabilizers at even i / odd j, weight 3 on the north and south rows;
* the logical X operator is the horizontal data chain of row 0, the logical
  Z operator the vertical data chain of column 0 (they intersect only at the
  northwest corner, so they anticommute; each commutes with every stabilizer).

One extraction cycle runs eight steps: syndrome initialization, a Hadamard on
X-stabilizer syndromes, four CNOT steps in N, W, E, S order from the
syndrome's point of view, a second Hadamard, and syndrome measurement.
Z-stabilizer circuits use the data qubit as CNOT control, X-stabilizer
circuits the syndrome qubit.  A missing neighbor leaves an identity of CNOT
duration in the slot.  Because every syndrome reaches in the same compass
direction per step, each data qubit meets its adjacent syndromes in the
complementary order and no qubit is touched twice in one step.  _Compiled
(the CNOT slots) and _run_cycle (the step order) are the one definition of
this cycle.

The simulator tracks X/Z Pauli frames only (CNOT propagates control-X onto
the target and target-Z onto the control; Hadamard exchanges the two bits).
Errors injected per the reduced six-rate model:

* a uniform 15-way two-qubit depolarizing flip of probability p2 after every
  executed CNOT;
* independent X and Z flips of probability 2*p1A/3 at each of the four data
  idle slots (the depolarizing-equivalent marginal of the folded idle rate);
* a classical outcome flip of probability p0X (Z stabilizers) or p0Z
  (X stabilizers) per measurement.

One noiseless readout round is appended after the noisy rounds so that every
error chain terminates in a detection event or boundary.

Frames are propagated once per distance, fault by fault, to build the
single-fault table: each elementary fault's detection events (within one
round of its cycle) and logical flip.  Frames are linear over GF(2), so a
Monte Carlo shot never propagates a frame: its detection events are the
XOR of its faults' footprints, shifted to the faults' cycles, and its actual
logical flip is the parity of their flip bits.  Only shots with events are
decoded.  A shot's faults are drawn by count: a binomial number of hits per
fault class, placed on distinct uniformly random sites.  That is the
independent per-site draw in distribution, at a cost that grows with the
faults a shot holds rather than with its sites.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .error_model import TWO_QUBIT_PAULIS

Coord = tuple[int, int]

DIRECTIONS = ("n", "w", "e", "s")
_OFFSETS = {"n": (-1, 0), "w": (0, -1), "e": (0, 1), "s": (1, 0)}
# Cycle step index of each data idle slot, in injection order.
IDLE_STEPS = (0, 1, 6, 7)
# Shots whose faults are drawn and XORed together in run_monte_carlo.
_BATCH_SHOTS = 256


class LayoutError(ValueError):
    """Raised for invalid code distances or a qubit given two CNOTs in one step."""


class Rates(NamedTuple):
    """Reduced per-cycle error rates driving one simulation."""

    p0x: float
    p0z: float
    p1x: float
    p1z: float
    p2: float

    def validate(self) -> None:
        for name, value in zip(self._fields, self):
            if math.isnan(value) or not 0.0 <= value <= 1.0:
                raise ValueError(f"rate {name} must lie in [0, 1], got {value!r}")


class Layout:
    """Qubit coordinates, stabilizer supports and logical operators.

    Qubit ids are assigned data qubits first, then Z-stabilizer syndromes,
    then X-stabilizer syndromes, each block in sorted coordinate order.
    """

    def __init__(self, d: int):
        if not isinstance(d, int) or isinstance(d, bool) or d < 3:
            raise LayoutError(f"code distance must be an integer >= 3, got {d!r}")
        self.d = d
        self.size = 2 * d - 1
        span = range(self.size)
        self.data: tuple[Coord, ...] = tuple(
            (i, j) for i in span for j in span if (i + j) % 2 == 0
        )
        self.z_stabs: tuple[Coord, ...] = tuple(
            (i, j) for i in span for j in span if i % 2 == 0 and j % 2 == 1
        )
        self.x_stabs: tuple[Coord, ...] = tuple(
            (i, j) for i in span for j in span if i % 2 == 1 and j % 2 == 0
        )

        self.n_data = len(self.data)
        self.n_z = len(self.z_stabs)
        self.n_x = len(self.x_stabs)
        self.n_qubits = self.n_data + self.n_z + self.n_x

        self.qubit_id: dict[Coord, int] = {}
        for coord in (*self.data, *self.z_stabs, *self.x_stabs):
            self.qubit_id[coord] = len(self.qubit_id)

        self.data_ids = np.arange(self.n_data)
        self.zsyn_ids = np.arange(self.n_data, self.n_data + self.n_z)
        self.xsyn_ids = np.arange(self.n_data + self.n_z, self.n_qubits)
        self.syn_ids = np.concatenate([self.zsyn_ids, self.xsyn_ids])

        self.z_neighbors = tuple(self._neighbors(c) for c in self.z_stabs)
        self.x_neighbors = tuple(self._neighbors(c) for c in self.x_stabs)

        self.logical_x_support: tuple[Coord, ...] = tuple(
            (0, j) for j in range(0, self.size, 2)
        )
        self.logical_z_support: tuple[Coord, ...] = tuple(
            (i, 0) for i in range(0, self.size, 2)
        )
        self.logical_x_ids = np.array([self.qubit_id[c] for c in self.logical_x_support])
        self.logical_z_ids = np.array([self.qubit_id[c] for c in self.logical_z_support])

    def _neighbors(self, coord: Coord) -> tuple[Coord | None, ...]:
        i, j = coord
        out = []
        for direction in DIRECTIONS:
            di, dj = _OFFSETS[direction]
            ni, nj = i + di, j + dj
            out.append((ni, nj) if 0 <= ni < self.size and 0 <= nj < self.size else None)
        return tuple(out)


def get_layout(d: int) -> Layout:
    """Shared layout instance per distance; layouts are immutable in practice."""
    return _compiled(d).layout


class _Footprints(NamedTuple):
    """Footprints of every fault of the fault table on one detection graph.

    Fault f produces the events (site[k], cycle + offset[k]) for k in
    ptr[f]:ptr[f+1], a compressed sparse row layout, and flips the stored
    logical qubit where flip[f] is set.
    """

    n_sites: int
    ptr: np.ndarray
    site: np.ndarray
    offset: np.ndarray
    flip: np.ndarray


class _Compiled:
    """Everything the simulator keeps per distance, cached by _compiled.

    Holds the layout, the CNOT slots of the four CNOT steps and, once
    enumerated, the single-fault table with its X- and Z-graph footprints.
    The slots of each step are built from the stabilizer neighbors in that
    step's direction, Z stabilizers first, then X stabilizers.  A fault id
    is a row of the fault table: CNOT faults (slot * 15 + Pauli index) from
    0, idle faults (idle slot, data qubit, X|Z) from ``idle0``, outcome
    flips (Z stabilizers, then X stabilizers) from ``flip0``.
    """

    def __init__(self, d: int):
        self.layout = layout = Layout(d)
        self.faults: tuple[FaultEffect, ...] | None = None
        self.footprints: tuple[_Footprints, _Footprints] | None = None
        qid = layout.qubit_id
        self.cnot_ctrl: list[np.ndarray] = []
        self.cnot_tgt: list[np.ndarray] = []
        self.slot_meta: list[tuple[int, str, int, str]] = []  # (step, stab type, stab idx, direction)
        self.slot_offsets = [0]
        for k, direction in enumerate(DIRECTIONS):
            ctrl, tgt = [], []
            for stab, coords, nbrs in (
                ("z", layout.z_stabs, layout.z_neighbors),
                ("x", layout.x_stabs, layout.x_neighbors),
            ):
                for idx, coord in enumerate(coords):
                    nbr = nbrs[idx][k]
                    if nbr is None:
                        continue
                    s, q = qid[coord], qid[nbr]
                    # Z-stabilizer circuits: data controls; X-stabilizer: syndrome.
                    c, t = (q, s) if stab == "z" else (s, q)
                    ctrl.append(c)
                    tgt.append(t)
                    self.slot_meta.append((2 + k, stab, idx, direction))
            if len(set(ctrl + tgt)) != 2 * len(ctrl):
                raise LayoutError(f"a qubit takes two CNOTs in step cnot_{direction}")
            self.cnot_ctrl.append(np.array(ctrl))
            self.cnot_tgt.append(np.array(tgt))
            self.slot_offsets.append(len(self.slot_meta))
        self.n_slots = len(self.slot_meta)
        self.idle0 = 15 * self.n_slots
        self.flip0 = self.idle0 + 8 * layout.n_data

        # Pauli component tables aligned with TWO_QUBIT_PAULIS.
        self.xc = np.array([p[0] in "xy" for p in TWO_QUBIT_PAULIS])
        self.zc = np.array([p[0] in "yz" for p in TWO_QUBIT_PAULIS])
        self.xt = np.array([p[1] in "xy" for p in TWO_QUBIT_PAULIS])
        self.zt = np.array([p[1] in "yz" for p in TWO_QUBIT_PAULIS])

    def noise_arrays(self, b: int, R: int) -> dict:
        """Zeroed noise for ``b`` realizations of ``R`` noisy cycles.

        The one noise layout _run_cycle reads, per realization and cycle: X
        and Z flips of the data qubits at each of the four idle slots, an
        occurrence flag and a TWO_QUBIT_PAULIS index per CNOT slot, and the
        outcome flips of the Z- and X-stabilizer measurements.
        """
        layout = self.layout
        nd, c = layout.n_data, self.n_slots
        return {
            "idle_x": np.zeros((b, R, 4, nd), dtype=bool),
            "idle_z": np.zeros((b, R, 4, nd), dtype=bool),
            "occ": np.zeros((b, R, c), dtype=bool),
            "kk": np.zeros((b, R, c), dtype=np.uint8),
            "flip_z": np.zeros((b, R, layout.n_z), dtype=bool),
            "flip_x": np.zeros((b, R, layout.n_x), dtype=bool),
        }


_cache: dict[int, _Compiled] = {}


def _compiled(d: int) -> _Compiled:
    comp = _cache.get(d)
    if comp is None:
        comp = _cache.setdefault(d, _Compiled(d))
    return comp


@dataclass(frozen=True)
class FaultEffect:
    """Detection footprint of one elementary fault within a single cycle.

    Round offsets are relative to the cycle in which the fault occurs;
    translation along the time axis is the graph builder's job.  ``events_x``
    lists (Z-stabilizer index, offset) pairs (X-error detection), ``events_z``
    the analogous X-stabilizer pairs.  ``flip_x`` / ``flip_z`` say whether the
    residual data error anticommutes with the logical Z / logical X operator,
    i.e. whether the fault alone flips the stored logical qubit.
    """

    kind: str        # 'cnot' | 'idle' | 'flip'
    rate_kind: str   # 'p2' | 'idle_x' | 'idle_z' | 'flip_x' | 'flip_z'
    step: int
    site: tuple
    pauli: str
    events_x: tuple[tuple[int, int], ...]
    events_z: tuple[tuple[int, int], ...]
    flip_x: bool
    flip_z: bool

    def probability(self, rates: Rates) -> float:
        if self.rate_kind == "p2":
            return rates.p2 / 15.0
        if self.rate_kind == "idle_x":
            return 2.0 * rates.p1x / 3.0
        if self.rate_kind == "idle_z":
            return 2.0 * rates.p1z / 3.0
        if self.rate_kind == "flip_x":
            return rates.p0x
        return rates.p0z


def enumerate_single_faults(layout: Layout) -> tuple[FaultEffect, ...]:
    """Propagate every elementary fault of one cycle in isolation.

    Each fault becomes a one-hot noise realization of a single noisy cycle,
    in the _Compiled.noise_arrays layout, and runs through the frame
    simulator followed by two noiseless cycles.  Residual data errors are static after the faulty
    cycle, so all detection events land within a one-round offset
    (checked).  The table, and the footprint tables that Monte Carlo XORs
    (_Compiled.footprints), are computed once per distance.
    """
    comp = _compiled(layout.d)
    if comp.faults is not None:
        return comp.faults
    nd, nz, nx = layout.n_data, layout.n_z, layout.n_x
    noise = comp.noise_arrays(comp.flip0 + nz + nx, 1)
    sites: list[tuple] = []  # (kind, rate_kind, step, site, pauli) per row
    for slot, (step, stab, idx, direction) in enumerate(comp.slot_meta):
        for pi, pauli in enumerate(TWO_QUBIT_PAULIS):
            noise["occ"][len(sites), 0, slot] = True
            noise["kk"][len(sites), 0, slot] = pi
            sites.append(("cnot", "p2", step, (stab, idx, direction), pauli))
    for slot_k, step in enumerate(IDLE_STEPS):
        for di in range(nd):
            for pauli in ("x", "z"):
                noise[f"idle_{pauli}"][len(sites), 0, slot_k, di] = True
                sites.append(("idle", f"idle_{pauli}", step, ("data", di, slot_k), pauli))
    # Z-stabilizer outcomes are flipped at rate p0x, X-stabilizer ones at p0z.
    for stab, count, rate_kind in (("z", nz, "flip_x"), ("x", nx, "flip_z")):
        for idx in range(count):
            noise[f"flip_{stab}"][len(sites), 0, idx] = True
            sites.append(("flip", rate_kind, 7, (stab, idx), "flip"))

    det_x, det_z, flips_x, flips_z = _simulate_batch(comp, noise, tail=2)
    footprints, events = [], []
    for det, flips in ((det_x, flips_x), (det_z, flips_z)):
        rows, offset, site = np.nonzero(det)  # sorted by row, then offset, then site
        ptr = np.searchsorted(rows, np.arange(len(sites) + 1))
        footprints.append(_Footprints(det.shape[2], ptr, site, offset, flips))
        pairs = list(zip(site.tolist(), offset.tolist()))
        bounds = ptr.tolist()
        events.append([tuple(pairs[lo:hi]) for lo, hi in zip(bounds, bounds[1:])])
    faults = []
    for row, (kind, rate_kind, step, site, pauli) in enumerate(sites):
        evx, evz = events[0][row], events[1][row]
        for ev in (evx, evz):
            if len(ev) > 2 or any(t > 1 for _, t in ev):
                raise RuntimeError(f"fault {site} {pauli} produced {ev}")
        if (flips_x[row] or flips_z[row]) and not (evx or evz):
            raise RuntimeError(f"undetected logical fault at {site}")
        faults.append(FaultEffect(
            kind=kind, rate_kind=rate_kind, step=step, site=site, pauli=pauli,
            events_x=evx, events_z=evz,
            flip_x=bool(flips_x[row]), flip_z=bool(flips_z[row]),
        ))
    comp.faults = tuple(faults)
    comp.footprints = tuple(footprints)
    return comp.faults


def _run_cycle(comp, fx, fz, meas_z, meas_x, noise, t):
    """Advance frames through one extraction cycle, recording outcome flips.

    The eight steps of the module docstring run in order.  With ``noise``
    (arrays laid out by _Compiled.noise_arrays), the flips of cycle ``t``
    strike after the faulty operation: data idle flips at steps 0, 1, 6 and
    7, a two-qubit Pauli after each CNOT, and classical flips on the
    recorded outcomes.  With ``noise`` None the cycle is noiseless.
    """
    layout = comp.layout
    data = layout.data_ids
    xsyn = layout.xsyn_ids
    syn = layout.syn_ids

    def idle(slot):
        if noise is not None:
            fx[:, data] ^= noise["idle_x"][:, t, slot]
            fz[:, data] ^= noise["idle_z"][:, t, slot]

    def swap_had():
        tmp = fx[:, xsyn].copy()
        fx[:, xsyn] = fz[:, xsyn]
        fz[:, xsyn] = tmp

    # step 0: syndrome init, data idle slot 0
    fx[:, syn] = False
    fz[:, syn] = False
    idle(0)
    # step 1: Hadamard on X syndromes, data idle slot 1
    swap_had()
    idle(1)
    # steps 2..5: CNOT sweeps
    for k in range(4):
        c = comp.cnot_ctrl[k]
        tg = comp.cnot_tgt[k]
        fx[:, tg] = fx[:, tg] ^ fx[:, c]
        fz[:, c] = fz[:, c] ^ fz[:, tg]
        if noise is not None:
            lo, hi = comp.slot_offsets[k], comp.slot_offsets[k + 1]
            occ = noise["occ"][:, t, lo:hi]
            kk = noise["kk"][:, t, lo:hi]
            fx[:, c] = fx[:, c] ^ (occ & comp.xc[kk])
            fz[:, c] = fz[:, c] ^ (occ & comp.zc[kk])
            fx[:, tg] = fx[:, tg] ^ (occ & comp.xt[kk])
            fz[:, tg] = fz[:, tg] ^ (occ & comp.zt[kk])
    # step 6: second Hadamard, data idle slot 2
    swap_had()
    idle(2)
    # step 7: data idle slot 3, measurement
    idle(3)
    meas_z[:] = fx[:, layout.zsyn_ids]
    meas_x[:] = fx[:, xsyn]
    if noise is not None:
        meas_z ^= noise["flip_z"][:, t]
        meas_x ^= noise["flip_x"][:, t]


@dataclass(frozen=True)
class SimResult:
    """Logical failure counts from one Monte Carlo run."""

    shots: int
    rounds: int
    fails_x: int
    fails_z: int

    @property
    def p_xl(self) -> float:
        return self.fails_x / (self.shots * self.rounds) if self.shots else 0.0

    @property
    def p_zl(self) -> float:
        return self.fails_z / (self.shots * self.rounds) if self.shots else 0.0

    @property
    def stderr_x(self) -> float:
        return math.sqrt(self.fails_x) / (self.shots * self.rounds) if self.shots else 0.0

    @property
    def stderr_z(self) -> float:
        return math.sqrt(self.fails_z) / (self.shots * self.rounds) if self.shots else 0.0

    def merged(self, other: "SimResult") -> "SimResult":
        if other.rounds != self.rounds:
            raise ValueError("cannot merge runs with different rounds per shot")
        return SimResult(
            shots=self.shots + other.shots,
            rounds=self.rounds,
            fails_x=self.fails_x + other.fails_x,
            fails_z=self.fails_z + other.fails_z,
        )


def _fault_classes(comp: _Compiled, R: int, rates: Rates) -> tuple[tuple, ...]:
    """The five independent fault classes of ``R`` noisy cycles, in draw order.

    Per class: (sites, rate per site, Pauli picks per hit, sites per cycle,
    first fault id, fault id stride).  Site s of a class lies in cycle
    s // (sites per cycle); its remainder r gives fault id first + stride * r
    + Pauli index.  The classes are the CNOT slots (a uniform 15-way Pauli per
    hit), the idle X and idle Z flips (ids interleaved X, Z per idle slot and
    data qubit) and the Z- and X-stabilizer outcome flips.
    """
    layout = comp.layout
    nd, c, nz, nx = layout.n_data, comp.n_slots, layout.n_z, layout.n_x
    return (
        (R * c, rates.p2, 15, c, 0, 15),
        (R * 4 * nd, 2.0 * rates.p1x / 3.0, 1, 4 * nd, comp.idle0, 2),
        (R * 4 * nd, 2.0 * rates.p1z / 3.0, 1, 4 * nd, comp.idle0 + 1, 2),
        (R * nz, rates.p0x, 1, nz, comp.flip0, 1),
        (R * nx, rates.p0z, 1, nx, comp.flip0 + nz, 1),
    )


def _draw_noise(
    seed: int, shot_indices: range, R: int, comp: _Compiled, rates: Rates
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Draw every fault of a batch of shots as (row, cycle, fault id) hits.

    Each shot owns a counter-based substream keyed by (seed, shot index), so
    results are independent of batch partitioning.  A shot draws its faults
    by count, so its cost grows with the faults it holds, not with the
    number of sites: first the hit count k ~ Binomial(sites, rate) of each
    class of _fault_classes, in class order, then one block of uniforms that
    Floyd's algorithm turns into k distinct sites per class, each CNOT hit
    also taking a uniform Pauli index from its uniform.  In distribution this
    is one independent Bernoulli draw per site (up to the 2**-53 resolution
    of a double, as for a direct per-site draw); a class at rate 0 has no
    hits, and one at rate 1 hits every site.  Fault ids are the rows of the
    fault table (see _Compiled).
    """
    classes = _fault_classes(comp, R, rates)
    rows, cycles, fids = [], [], []
    for row, shot in enumerate(shot_indices):
        g = np.random.Generator(np.random.Philox(np.random.SeedSequence((seed, shot))))
        counts = [g.binomial(n, q) for n, q, *_ in classes]
        total = sum(counts)
        if not total:
            continue
        uniforms = iter(g.random(total).tolist())
        for (n, _, width, per_cycle, first, stride), k in zip(classes, counts):
            # Floyd: for j = n-k .. n-1 take t uniform in 0..j, or j if t is
            # taken; the width-way Pauli index rides in the same uniform.
            hit: dict[int, int] = {}
            for j in range(n - k, n):
                t, pauli = divmod(int(next(uniforms) * ((j + 1) * width)), width)
                hit[j if t in hit else t] = pauli
            for t, pauli in hit.items():
                cycle, r = divmod(t, per_cycle)
                rows.append(row)
                cycles.append(cycle)
                fids.append(first + stride * r + pauli)
    return tuple(np.array(a, dtype=np.int64) for a in (rows, cycles, fids))


def _detection_events(comp: _Compiled, hits, b: int, R: int) -> list[tuple[dict, np.ndarray]]:
    """Detection events and actual logical flips of a batch, by footprint XOR.

    ``hits`` are _draw_noise's (row, cycle, fault id) arrays for ``b`` shots
    of ``R`` noisy cycles followed by one noiseless readout round.  A
    detection event is a (row, cycle + offset, site) that the hit faults'
    footprints produce an odd number of times; a row's actual flip is the
    parity of its faults' flip bits.  Exact because every footprint lies
    within one round of its cycle and the readout round catches the last.
    Per graph (X, then Z) returns a dict from each row with events to its
    (site, round) list, ordered by round then site, and the actual flips of
    all ``b`` rows.
    """
    row, cycle, fid = hits
    out = []
    for fp in comp.footprints:
        # k runs over the footprint events of every hit, hit by hit.
        n = fp.ptr[fid + 1] - fp.ptr[fid]
        k = np.repeat(fp.ptr[fid] - (np.cumsum(n) - n), n) + np.arange(n.sum())
        row_round = np.repeat(row * (R + 1) + cycle, n) + fp.offset[k]
        keys, counts = np.unique(row_round * fp.n_sites + fp.site[k], return_counts=True)
        row_round, site = np.divmod(keys[counts % 2 == 1], fp.n_sites)
        event_row, rnd = np.divmod(row_round, R + 1)
        pairs = list(zip(site.tolist(), rnd.tolist()))
        rows, first = np.unique(event_row, return_index=True)
        bounds = [*first.tolist(), len(pairs)]
        events = {r: pairs[lo:hi] for r, lo, hi in zip(rows.tolist(), bounds, bounds[1:])}
        actual = np.bincount(row[fp.flip[fid]], minlength=b) % 2 == 1
        out.append((events, actual))
    return out


def _simulate_batch(comp: _Compiled, noise: dict, tail: int):
    """Propagate a batch of noise realizations from clean frames.

    ``noise`` holds one row per realization of R noisy cycles, laid out by
    _Compiled.noise_arrays (R is the second axis of each array); ``tail``
    noiseless cycles follow, so that every error chain terminates in a
    detection event or the boundary.  Returns the detection events of each of the R + tail
    cycles, (row, cycle, site) per graph, and the actual logical flips of
    the residual frames.
    """
    layout = comp.layout
    b, R = noise["occ"].shape[:2]
    fx = np.zeros((b, layout.n_qubits), dtype=bool)
    fz = np.zeros((b, layout.n_qubits), dtype=bool)
    det_x = np.zeros((b, R + tail, layout.n_z), dtype=bool)
    det_z = np.zeros((b, R + tail, layout.n_x), dtype=bool)
    prev_z = np.zeros((b, layout.n_z), dtype=bool)
    prev_x = np.zeros((b, layout.n_x), dtype=bool)
    out_z = np.empty_like(prev_z)
    out_x = np.empty_like(prev_x)
    for t in range(R + tail):
        _run_cycle(comp, fx, fz, out_z, out_x, noise if t < R else None, t)
        det_x[:, t] = out_z ^ prev_z
        det_z[:, t] = out_x ^ prev_x
        prev_z, out_z = out_z, prev_z
        prev_x, out_x = out_x, prev_x
    actual_x = np.logical_xor.reduce(fx[:, layout.logical_z_ids], axis=1)
    actual_z = np.logical_xor.reduce(fz[:, layout.logical_x_ids], axis=1)
    return det_x, det_z, actual_x, actual_z


def check_run_args(shots, rounds, seed, first_shot_index=0) -> None:
    """Raise ValueError unless the run_monte_carlo counts are integers in range."""
    for name, value, low in (
        ("shots", shots, 0), ("rounds", rounds, 1),
        ("seed", seed, 0), ("first_shot_index", first_shot_index, 0),
    ):
        if not isinstance(value, (int, np.integer)) or isinstance(value, bool) or value < low:
            raise ValueError(f"{name} must be an integer >= {low}, got {value!r}")


def run_monte_carlo(
    layout: Layout,
    rates: Rates,
    shots: int,
    rounds: int,
    seed: int,
    *,
    graphs=None,
    first_shot_index: int = 0,
) -> SimResult:
    """Estimate per-round logical X/Z failure rates by direct simulation.

    Each shot runs ``rounds`` noisy cycles plus one noiseless readout round,
    decodes both detection graphs by minimum-weight perfect matching, and
    counts a type-A failure when the correction parity disagrees with the
    accumulated frame parity across the logical-A reference cut.  A shot
    without events on a graph fails there exactly when its frame parity is
    set.  Shot i draws from its own substream of ``seed``, so a run split
    into chunks through ``first_shot_index`` and joined with
    SimResult.merged gives the counts of the whole run.
    """
    rates = Rates(*rates)
    rates.validate()
    check_run_args(shots, rounds, seed, first_shot_index)
    comp = _compiled(layout.d)
    faults = enumerate_single_faults(layout)
    if graphs is None:
        from . import matcher

        graphs = matcher.build_graphs(faults, rates, layout)
    for graph in graphs:
        graph.prepare(rounds)

    from .matcher import min_weight_perfect_matching

    fails = [0, 0]
    done = 0
    while done < shots:
        b = min(_BATCH_SHOTS, shots - done)
        lo = first_shot_index + done
        hits = _draw_noise(seed, range(lo, lo + b), rounds, comp, rates)
        for k, (graph, (events, actual)) in enumerate(
            zip(graphs, _detection_events(comp, hits, b, rounds))
        ):
            for row, row_events in events.items():
                actual[row] ^= min_weight_perfect_matching(graph, row_events).correction_flip
            fails[k] += int(np.count_nonzero(actual))
        done += b
    return SimResult(shots=shots, rounds=rounds, fails_x=fails[0], fails_z=fails[1])
