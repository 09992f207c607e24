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
complementary order and no qubit is touched twice in one step.  Layout
(the CNOT slots) and _run_cycle (the step order) are the one definition of
this cycle.

The simulator tracks X/Z Pauli frames only (CNOT propagates control-X onto
the target and target-Z onto the control; Hadamard exchanges the two bits).
Errors follow the reduced six-rate model as five independent fault classes
per cycle (Layout.classes), each striking just after a step of the cycle:

* a uniform 15-way two-qubit depolarizing flip of probability p2 after every
  executed CNOT;
* independent X and Z flips of probability 2*p1A/3 at each of the four data
  idle slots (the depolarizing-equivalent marginal of the folded idle rate);
* a classical outcome flip of probability p0X (Z stabilizers) or p0Z
  (X stabilizers) per measurement, applied as an X on the syndrome qubit
  just before it is measured (the next initialization clears it).

Every elementary fault of a cycle has a fault id, its row in the single-fault
table, and fault ids are the simulator's only noise encoding: the faults of
a run are (row, cycle, fault id) hits.  One noiseless readout round is
appended after the noisy rounds so that every error chain terminates in a
detection event or boundary.

Frames are propagated once per distance, one fault id per row, to build the
single-fault table (Layout.footprints): each elementary fault's detection
events (within one round of its cycle) and logical flip.  Frames are linear
over GF(2), so a Monte Carlo shot never propagates a frame: its detection
events are the XOR of its faults' footprints, shifted to the faults' cycles,
and its actual logical flip is the parity of their flip bits.  Only shots
with events are decoded.  A shot's faults are drawn by count: a binomial
number of hits per fault class, placed on distinct uniformly random sites.
That is the independent per-site draw in distribution, at a cost that grows
with the faults a shot holds rather than with its sites.  The draw is
defined here: its doubles are raw Philox4x64-10 words (Salmon et al.,
SC'11) under one key hashed from the seed, shot i reading the counter blocks
(j, i), so one array evaluation of Philox gives a whole batch its doubles.
A count is the inversion of its class's binomial CDF, a table built here,
and Floyd's algorithm places the hits (see _draw_noise).

A Layout holds all of this for one distance, built once by its constructor.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .error_model import TWO_QUBIT_PAULIS, ModelError
from .store import check_int, check_probability, per_round_rate

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

    def validate(self) -> "Rates":
        """These rates as Python floats; ModelError unless each lies in [0, 1]."""
        return Rates(*(
            check_probability(ModelError, f"rate {name}", v) for name, v in zip(self._fields, self)
        ))


class Layout:
    """Everything the simulator keeps per distance, built once.

    The lattice: qubit coordinates, stabilizer supports and logical
    operators, with qubit ids assigned data qubits first, then Z-stabilizer
    syndromes, then X-stabilizer syndromes, each block in sorted coordinate
    order.  The cycle: the CNOT slots of each CNOT step, built from the
    stabilizer neighbors in its direction, Z stabilizers first, and the
    fault classes placed on this distance's sites.  A fault id is a row of
    the fault table: CNOT faults (slot * 15 + Pauli index) from 0, idle
    faults (idle slot, data qubit, X|Z) next, then the outcome flips of Z
    and of X stabilizers.  ``by_id`` gives each fault id's (class, site,
    choice); the strike tables give its step, its two qubits and the X and
    Z bits it leaves on each.  Last, the one single-fault table:
    ``footprints``, an X- and a Z-graph table whose row f holds fault id f's
    events and logical flip, labelled by ``by_id`` and ``classes``; Monte
    Carlo XORs it and matcher.build_graphs sums it.  get_layout shares one
    layout per distance; a layout built directly has its own, equal tables.
    """

    def __init__(self, d: int):
        self.d = d = check_int(LayoutError, "code distance", d, 3)
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

        qid = self.qubit_id
        self.cnot_ctrl: list[np.ndarray] = []
        self.cnot_tgt: list[np.ndarray] = []
        cnot_sites = []
        for k, direction in enumerate(DIRECTIONS):
            ctrl, tgt = [], []
            for stab, coords, nbrs in (
                ("z", self.z_stabs, self.z_neighbors),
                ("x", self.x_stabs, self.x_neighbors),
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
                    cnot_sites.append(((stab, idx, direction), 2 + k, (c, t)))
            if len(set(ctrl + tgt)) != 2 * len(ctrl):
                raise LayoutError(f"a qubit takes two CNOTs in step cnot_{direction}")
            self.cnot_ctrl.append(np.array(ctrl))
            self.cnot_tgt.append(np.array(tgt))
        idle_sites = tuple(
            (("data", di, slot), step, (di, di))
            for slot, step in enumerate(IDLE_STEPS) for di in range(self.n_data)
        )
        z_flips, x_flips = (
            tuple(((stab, idx), 7, (q, q)) for idx, q in enumerate(ids.tolist()))
            for stab, ids in (("z", self.zsyn_ids), ("x", self.xsyn_ids))
        )
        idle0 = 15 * len(cnot_sites)
        flip0 = idle0 + 2 * len(idle_sites)
        cnot, idle_x, idle_z, flip_x, flip_z = _CLASSES
        # Z-stabilizer outcomes are flipped at rate p0x, X-stabilizer ones at p0z.
        self.classes = (
            cnot._replace(first=0, stride=15, sites=tuple(cnot_sites)),
            idle_x._replace(first=idle0, stride=2, sites=idle_sites),
            idle_z._replace(first=idle0 + 1, stride=2, sites=idle_sites),
            flip_x._replace(first=flip0, stride=1, sites=z_flips),
            flip_z._replace(first=flip0 + self.n_z, stride=1, sites=x_flips),
        )

        self.by_id: list = [None] * sum(len(c.sites) * len(c.paulis) for c in self.classes)
        for cls in self.classes:
            for s, site in enumerate(cls.sites):
                for k in range(len(cls.paulis)):
                    self.by_id[cls.first + cls.stride * s + k] = (cls, site, k)
        self.strike_step = np.array([site[1] for _, site, _ in self.by_id])
        self.strike_qubit = np.array([site[2] for _, site, _ in self.by_id])
        self.strike_x, self.strike_z = (
            np.array([[p in letters for p in cls.strikes[k]] for cls, _, k in self.by_id])
            for letters in ("xy", "yz")
        )

        self.footprints = _single_faults(self)

    def _neighbors(self, coord: Coord) -> tuple[Coord | None, ...]:
        i, j = coord
        out = []
        for direction in DIRECTIONS:
            di, dj = _OFFSETS[direction]
            ni, nj = i + di, j + dj
            out.append((ni, nj) if 0 <= ni < self.size and 0 <= nj < self.size else None)
        return tuple(out)


_layouts: dict[int, Layout] = {}


def get_layout(d: int) -> Layout:
    """Shared layout instance per distance; layouts are immutable in practice."""
    d = check_int(LayoutError, "code distance", d, 3)
    layout = _layouts.get(d)
    if layout is None:
        layout = _layouts.setdefault(d, Layout(d))
    return layout


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


class _FaultClass(NamedTuple):
    """One independent fault class of the extraction cycle.

    Each site is hit at ``site_rate(rates)`` per cycle, and a hit takes one
    of ``paulis`` (its fault-table labels) uniformly, so one fault has
    probability site_rate / len(paulis); choice k leaves ``strikes[k]``, a
    Pauli letter per qubit of the site.  Layout places the class: per
    site, ``sites`` holds its label (("z", 4) is Z stabilizer 4's outcome),
    the step it strikes after and its two qubits (a one-qubit site names its
    qubit twice and strikes I on the second); choice k at site s is fault id
    first + stride * s + k.
    """

    kind: str
    rate_kind: str
    site_rate: Callable[[Rates], float]
    paulis: tuple[str, ...]
    strikes: tuple[str, ...]
    first: int = 0
    stride: int = 0
    sites: tuple = ()


# The five fault classes, in draw order, before Layout places them.
_CLASSES = (
    _FaultClass("cnot", "p2", lambda r: r.p2, TWO_QUBIT_PAULIS, TWO_QUBIT_PAULIS),
    _FaultClass("idle", "idle_x", lambda r: 2.0 * r.p1x / 3.0, ("x",), ("xi",)),
    _FaultClass("idle", "idle_z", lambda r: 2.0 * r.p1z / 3.0, ("z",), ("zi",)),
    _FaultClass("flip", "flip_x", lambda r: r.p0x, ("flip",), ("xi",)),
    _FaultClass("flip", "flip_z", lambda r: r.p0z, ("flip",), ("xi",)),
)


def enumerate_single_faults(layout: Layout) -> tuple[_Footprints, ...]:
    """``layout.footprints``, the layout's one single-fault table (see Layout)."""
    return layout.footprints


def _single_faults(layout: Layout) -> tuple[_Footprints, ...]:
    """Propagate every elementary fault of one cycle in isolation.

    Fault id f runs alone in frame row f of one noisy cycle, followed by two
    noiseless cycles.  Each footprint holds at most two events per graph,
    within a one-round offset (residual data errors are static after the
    faulty cycle), and one at least where it flips the logical (checked).
    Returns the X- and Z-graph footprint tables, which Monte Carlo XORs and
    build_graphs sums, for the Layout constructor to store.
    """
    n = len(layout.by_id)
    ids = np.arange(n)
    det_x, det_z, flips_x, flips_z = _simulate_batch(layout, (ids, np.zeros_like(ids), ids), n, 3)
    footprints = []
    for kind, det, flips in (("x", det_x, flips_x), ("z", det_z, flips_z)):
        rows, offset, site = np.nonzero(det)  # sorted by row, then offset, then site
        ptr = np.searchsorted(rows, np.arange(n + 1))
        count = np.diff(ptr)
        unseen_flip = flips & (count == 0)
        bad = np.concatenate([rows[offset > 1], np.flatnonzero((count > 2) | unseen_flip)])
        if bad.size:
            cls, (label, _, _), k = layout.by_id[bad.min()]
            raise RuntimeError(f"fault {label} {cls.paulis[k]} breaks the {kind} footprint rules")
        footprints.append(_Footprints(det.shape[2], ptr, site, offset, flips))
    return tuple(footprints)


def _run_cycle(layout, fx, fz, meas_z, meas_x, row, fid):
    """Advance frames through one extraction cycle, recording its outcomes.

    The eight steps of the module docstring run in order.  ``row`` and
    ``fid`` are the (frame row, fault id) hits of this cycle: after each
    step, the hits whose site strikes after it XOR their bits from the
    layout's strike tables into the frames (with bitwise_xor.at, as an idle
    X and an idle Z may hit one qubit in the same step).  An outcome flip is
    an X on the syndrome qubit after step 7, just before it is measured.
    """
    xsyn = layout.xsyn_ids
    syn = layout.syn_ids
    step_of = layout.strike_step[fid]

    def strike(step):
        at = step_of == step
        f = fid[at]
        index = (row[at, None], layout.strike_qubit[f])
        np.bitwise_xor.at(fx, index, layout.strike_x[f])
        np.bitwise_xor.at(fz, index, layout.strike_z[f])

    def swap_had():
        tmp = fx[:, xsyn].copy()
        fx[:, xsyn] = fz[:, xsyn]
        fz[:, xsyn] = tmp

    # step 0: syndrome init
    fx[:, syn] = False
    fz[:, syn] = False
    strike(0)
    # step 1: Hadamard on X syndromes
    swap_had()
    strike(1)
    # steps 2..5: CNOT sweeps
    for k in range(4):
        c = layout.cnot_ctrl[k]
        tg = layout.cnot_tgt[k]
        fx[:, tg] = fx[:, tg] ^ fx[:, c]
        fz[:, c] = fz[:, c] ^ fz[:, tg]
        strike(2 + k)
    # step 6: second Hadamard
    swap_had()
    strike(6)
    # step 7: measurement
    strike(7)
    meas_z[:] = fx[:, layout.zsyn_ids]
    meas_x[:] = fx[:, xsyn]


@dataclass(frozen=True)
class SimResult:
    """Logical failure counts from one Monte Carlo run."""

    shots: int
    rounds: int
    fails_x: int
    fails_z: int

    @property
    def p_xl(self) -> float:
        return per_round_rate(self.fails_x, self.shots, self.rounds)

    @property
    def p_zl(self) -> float:
        return per_round_rate(self.fails_z, self.shots, self.rounds)

    @property
    def stderr_x(self) -> float:
        return per_round_rate(math.sqrt(self.fails_x), self.shots, self.rounds)

    @property
    def stderr_z(self) -> float:
        return per_round_rate(math.sqrt(self.fails_z), self.shots, self.rounds)

    def merged(self, other: "SimResult") -> "SimResult":
        if other.rounds != self.rounds:
            raise ValueError("cannot merge runs with different rounds per shot")
        return SimResult(
            shots=self.shots + other.shots,
            rounds=self.rounds,
            fails_x=self.fails_x + other.fails_x,
            fails_z=self.fails_z + other.fails_z,
        )


# Philox4x64-10 (Salmon et al., SC'11): the multipliers of counter words 0
# and 2, and the key increments: round r runs under key + r * (_W0, _W1).
# The tables are built from Python ints, since a numpy operation at import
# would page in ufunc code that the query path never runs.
_M0, _M1 = 0xD2E7470EE14C6C93, 0xCA5A826395121157
_W0, _W1 = 0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B
_PHILOX_M = np.array([[_M0], [_M1]], dtype=np.uint64)
_PHILOX_M_LO = np.array([[_M0 & 0xFFFFFFFF], [_M1 & 0xFFFFFFFF]], dtype=np.uint64)
_PHILOX_M_HI = np.array([[_M0 >> 32], [_M1 >> 32]], dtype=np.uint64)
_PHILOX_BUMPS = np.array(
    [[[r * _W0 % 2**64], [r * _W1 % 2**64]] for r in range(10)], dtype=np.uint64
)
# A shot index fills counter words 1 and 2, so a run's shots end by 2**128.
SHOT_LIMIT = 2**128


def _philox(counter: np.ndarray, key: np.ndarray) -> np.ndarray:
    """Philox4x64-10 of each column of a (4, N) uint64 counter array under ``key``.

    Returns the (4, N) output words, the block numpy's Philox gives for
    that key at that counter (numpy steps its counter before each block).
    Each round multiplies counter words 0 and 2 by the multipliers: the
    low halves of the 128-bit products become words 3 and 1, and their high
    halves, xored with words 3 and 1 and the round key, words 2 and 0.  A
    high half comes from 32-bit limbs, as uint64 products wrap.
    """
    low, half = np.uint64(0xFFFFFFFF), np.uint64(32)
    even, odd = counter[0::2], counter[1::2]
    for round_key in key.reshape(2, 1) + _PHILOX_BUMPS:
        x_lo, x_hi = even & low, even >> half
        t = x_hi * _PHILOX_M_LO + ((x_lo * _PHILOX_M_LO) >> half)
        w = x_lo * _PHILOX_M_HI + (t & low)
        hi = x_hi * _PHILOX_M_HI + (t >> half) + (w >> half)
        even, odd = hi[::-1] ^ odd ^ round_key, (even * _PHILOX_M)[::-1]
    out = np.empty_like(counter)
    out[0::2], out[1::2] = even, odd
    return out


def _doubles(key: np.ndarray, shots: np.ndarray, blocks: range) -> np.ndarray:
    """Counter blocks ``blocks`` of each shot's stream, as doubles in [0, 1).

    ``shots`` holds counter words 1 and 2 of each shot, a (2, b) uint64
    array; block j of a shot is Philox at counter (j, words 1 and 2, 0).
    Row r of the (b, 4 * len(blocks)) result holds shot r's blocks in
    order, each word w read as (w >> 11) * 2**-53.
    """
    b = shots.shape[1]
    counter = np.zeros((4, b, len(blocks)), dtype=np.uint64)
    counter[0] = blocks
    counter[1:3] = shots[:, :, None]
    words = _philox(counter.reshape(4, -1), key)
    return (words.T.reshape(b, 4 * len(blocks)) >> np.uint64(11)) * 2.0**-53


@functools.lru_cache(maxsize=64)
def _binomial_cdf(n: int, q: float) -> np.ndarray:
    """P(X <= k) for X ~ Binomial(n, q), k = 0, 1, ..., as far as a double tells it from 1.

    Entry k adds P(X = k) to entry k - 1: the exp of log C(n, k) + k log q
    + (n - k) log(1 - q), with log C(n, k) summed as log((n - j + 1) / j)
    over j = 1..k.  The table stops at k = n, at the first sum that reaches
    1, or past the mean before the first P(X = k) that no longer changes
    the sum, and its last entry is then set to 1: a double u in [0, 1)
    counts the entries at or below it, at most the last k.  The mass that
    moves onto the last k is of the order of the sums' rounding.
    """
    log_q = math.log(q)
    log_r = math.log1p(-q) if q < 1.0 else -math.inf
    log_choose, total, table = 0.0, 0.0, []
    for k in range(n + 1):
        if k:
            log_choose += math.log((n - k + 1) / k)
        rest = (n - k) * log_r if k < n else 0.0
        pmf = math.exp(log_choose + k * log_q + rest)
        if k > n * q and total + pmf == total:
            break
        total += pmf
        table.append(total)
        if total >= 1.0:
            break
    table[-1] = 1.0
    cdf = np.array(table)
    cdf.flags.writeable = False  # shared by every call at this (n, q)
    return cdf


def _floyd(uniforms: list[float], n: int, width: int) -> dict[int, int]:
    """Floyd's k = len(uniforms) distinct sites of 0..n-1, each with a Pauli index.

    For j = n-k .. n-1 take t uniform in 0..j, or j if t is taken; the
    width-way Pauli index rides in the same uniform.  Returns site -> Pauli
    index in pick order.
    """
    hit: dict[int, int] = {}
    for j, u in zip(range(n - len(uniforms), n), uniforms):
        t, pauli = divmod(int(u * ((j + 1) * width)), width)
        hit[j if t in hit else t] = pauli
    return hit


def _block_hits(block: np.ndarray, counts: np.ndarray, n: np.ndarray, paulis: np.ndarray):
    """The (row, class, site, Pauli index) hits of a batch whose counts are drawn.

    Row r of ``block`` holds shot r's first doubles, at least as many as it
    reads: one per class, which gave counts[r], then the uniforms of its
    sites, class by class; class c has n[c] sites and paulis[c] Pauli
    choices.  Each Floyd pick is one array expression over all hits.  A
    pick that repeats an earlier pick or an earlier j needs the sequential
    rule; only a group with two equal picks can hold one, and such a group
    runs _floyd on its own uniforms.
    """
    n_cls = counts.shape[1]
    k = counts.ravel()
    totals = counts.sum(axis=1)
    uniforms = block[:, n_cls:][np.arange(block.shape[1] - n_cls) < totals[:, None]]
    group = np.repeat(np.arange(k.size), k)
    cls = group % n_cls
    choices = paulis[cls]
    # Group g's hits end at top[g]; its picks j = n-k .. n-1 take j + 1 here.
    top = np.cumsum(k)
    j1 = n[cls] - top[group] + np.arange(1, group.size + 1)
    site, pauli = np.divmod((uniforms * (j1 * choices)).astype(np.int64), choices)
    span = int(n.max())
    picks = np.sort(group * span + site)
    for grp in set((picks[1:][picks[1:] == picks[:-1]] // span).tolist()):
        at = slice(top[grp] - k[grp], top[grp])
        c = grp % n_cls
        site[at] = list(_floyd(uniforms[at].tolist(), int(n[c]), int(paulis[c])))
    return group // n_cls, cls, site, pauli


def _draw_noise(
    seed: int, shot_indices: range, R: int, layout: Layout, rates: Rates
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Draw every fault of a batch of shots as (row, cycle, fault id) hits.

    Each shot reads its own stream, addressed by counter, so results are
    independent of batch partitioning.  The seed is hashed once into the
    key SeedSequence(seed).generate_state(2, uint64); block j of shot i is
    Philox4x64-10 under that key at counter (j, i mod 2**64, i >> 64, 0),
    and its four words, in order, give the doubles (w >> 11) * 2**-53.  A
    shot draws its faults by count, so its cost grows with the faults it
    holds, not with the number of sites.  It reads one double per class of
    layout.classes with a nonzero rate, in class order, and counts its k
    hits by inversion of the Binomial(sites, rate) CDF (_binomial_cdf).
    Then one double per hit, class by class, that Floyd's algorithm turns
    into k distinct sites of the class, each CNOT hit also taking a uniform
    Pauli index from its double (_floyd).  In distribution this is one
    independent Bernoulli draw per site (up to the 2**-53 resolution of a
    double, as for a direct per-site draw); a class at rate 0 has no hits
    and reads nothing, and one at rate 1 hits every site.  Fault ids are
    the rows of the fault table (see Layout).

    A batch is drawn with array operations only.  One Philox call gives
    every row its first blocks, enough for most rows; the rows whose counts
    need more get their further blocks from a second call.  _block_hits
    turns the doubles into sites.
    """
    # Per class with a nonzero rate: sites, rate per site, Pauli choices,
    # sites per cycle, first fault id, fault id stride.
    classes = [
        (R * len(c.sites), q, len(c.paulis), len(c.sites), c.first, c.stride)
        for c in layout.classes if (q := float(c.site_rate(rates)))
    ]
    if not classes:
        return tuple(np.zeros(0, dtype=np.int64) for _ in range(3))
    sites, paulis, per_cycle, first, stride = (
        np.array(classes).T[[0, 2, 3, 4, 5]].astype(np.int64)
    )
    key = np.random.SeedSequence(seed).generate_state(2, np.uint64)
    start, b = shot_indices.start, len(shot_indices)
    word1 = np.uint64(start % 2**64) + np.arange(b, dtype=np.uint64)
    word2 = (word1 < np.uint64(start % 2**64)).astype(np.uint64) + np.uint64(start >> 64)
    shots = np.stack([word1, word2])
    # Every row's first blocks hold its counts' doubles and, for most rows,
    # its sites'; the rows that read more get their further blocks next.
    n_cls = len(classes)
    mean = sum(n * q for n, q, *_ in classes)
    blocks = -(-(n_cls + int(mean + 4.0 * math.sqrt(mean)) + 4) // 4)
    block = _doubles(key, shots, range(blocks))
    counts = np.stack([
        np.searchsorted(_binomial_cdf(n, q), block[:, c], side="right")
        for c, (n, q, *_) in enumerate(classes)
    ], axis=1)
    need = -(-(n_cls + counts.sum(axis=1)) // 4)
    if need.max(initial=0) > blocks:
        more = np.flatnonzero(need > blocks)
        further = _doubles(key, shots[:, more], range(blocks, need.max()))
        block = np.pad(block, ((0, 0), (0, further.shape[1])))
        block[more, 4 * blocks:] = further
    row, cls, site, pauli = _block_hits(block, counts, sites, paulis)
    cycle, r = np.divmod(site, per_cycle[cls])
    return row, cycle, first[cls] + stride[cls] * r + pauli


def _detection_events(layout: Layout, hits, b: int, R: int) -> list[tuple[tuple, np.ndarray]]:
    """Detection events and actual logical flips of a batch, by footprint XOR.

    ``hits`` are _draw_noise's (row, cycle, fault id) arrays for ``b`` shots
    of ``R`` noisy cycles followed by one noiseless readout round.  A
    detection event is a (row, cycle + offset, site) that the hit faults'
    footprints produce an odd number of times; a row's actual flip is the
    parity of its faults' flip bits.  Exact because every footprint lies
    within one round of its cycle and the readout round catches the last.
    Per graph (X, then Z) returns the events as (row, site, round) arrays,
    sorted by row, then round, then site, and the actual flips of all ``b``
    rows.
    """
    row, cycle, fid = hits
    out = []
    for fp in layout.footprints:
        # k runs over the footprint events of every hit, hit by hit.
        n = fp.ptr[fid + 1] - fp.ptr[fid]
        k = np.repeat(fp.ptr[fid] - (np.cumsum(n) - n), n) + np.arange(n.sum())
        row_round = np.repeat(row * (R + 1) + cycle, n) + fp.offset[k]
        keys, counts = np.unique(row_round * fp.n_sites + fp.site[k], return_counts=True)
        row_round, site = np.divmod(keys[counts % 2 == 1], fp.n_sites)
        event_row, rnd = np.divmod(row_round, R + 1)
        actual = np.bincount(row[fp.flip[fid]], minlength=b) % 2 == 1
        out.append(((event_row, site, rnd), actual))
    return out


def _simulate_batch(layout: Layout, hits, b: int, cycles: int):
    """Propagate ``b`` frame rows from clean frames through ``cycles`` cycles.

    ``hits`` are (row, cycle, fault id) arrays as _draw_noise returns them;
    cycles after the last hit are noiseless, so that every error chain
    terminates in a detection event or the boundary.  Returns the detection
    events of each cycle, (row, cycle, site) per graph, and the actual
    logical flips of the residual frames.
    """
    row, cycle, fid = hits
    fx = np.zeros((b, layout.n_qubits), dtype=bool)
    fz = np.zeros((b, layout.n_qubits), dtype=bool)
    det_x = np.zeros((b, cycles, layout.n_z), dtype=bool)
    det_z = np.zeros((b, cycles, layout.n_x), dtype=bool)
    prev_z = np.zeros((b, layout.n_z), dtype=bool)
    prev_x = np.zeros((b, layout.n_x), dtype=bool)
    out_z = np.empty_like(prev_z)
    out_x = np.empty_like(prev_x)
    for t in range(cycles):
        at = cycle == t
        _run_cycle(layout, fx, fz, out_z, out_x, row[at], fid[at])
        det_x[:, t] = out_z ^ prev_z
        det_z[:, t] = out_x ^ prev_x
        prev_z, out_z = out_z, prev_z
        prev_x, out_x = out_x, prev_x
    actual_x = np.logical_xor.reduce(fx[:, layout.logical_z_ids], axis=1)
    actual_z = np.logical_xor.reduce(fz[:, layout.logical_x_ids], axis=1)
    return det_x, det_z, actual_x, actual_z


def check_run_args(shots, rounds, seed, first_shot_index=0) -> list[int]:
    """The run_monte_carlo counts as Python ints; ValueError unless in range.

    Shot indices address Philox counters (see _draw_noise), so a run's
    shots must end by SHOT_LIMIT.
    """
    counts = [check_int(ValueError, *check) for check in (
        ("shots", shots, 0), ("rounds", rounds, 1),
        ("seed", seed, 0), ("first_shot_index", first_shot_index, 0),
    )]
    if counts[3] + counts[0] > SHOT_LIMIT:
        raise ValueError("first_shot_index + shots must be at most 2**128, "
                         f"got {counts[3] + counts[0]}")
    return counts


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
    set.  Shots are drawn and decoded in batches: matcher.decode_batch
    gives the correction flips of a whole batch per graph, the same flips
    that min_weight_perfect_matching gives shot by shot.  Shot i draws from
    its own counter blocks of ``seed``'s stream: Philox4x64-10 under the key
    SeedSequence(seed).generate_state(2, uint64), at counters (j, i mod
    2**64, i >> 64, 0), whatever the batching (see _draw_noise); its index
    must lie below SHOT_LIMIT = 2**128.  So a run split into chunks through
    ``first_shot_index`` and joined with SimResult.merged gives the counts
    of the whole run.  ``graphs``, when given, must be the pair that
    matcher.build_graphs built from ``layout.footprints`` at these rates
    (ValueError otherwise); without it they are built here.
    """
    rates = Rates(*rates).validate()
    shots, rounds, seed, first_shot_index = check_run_args(shots, rounds, seed, first_shot_index)
    from . import matcher

    if graphs is None:
        graphs = matcher.build_graphs(layout.footprints, rates, layout)
    elif any(graph.built_for != (layout.d, rates) for graph in graphs):
        raise ValueError(f"graphs were not built by build_graphs for d={layout.d} and {rates} "
                         "from layout.footprints")
    fails = [0, 0]
    done = 0
    while done < shots:
        b = min(_BATCH_SHOTS, shots - done)
        lo = first_shot_index + done
        hits = _draw_noise(seed, range(lo, lo + b), rounds, layout, rates)
        for k, (graph, (events, actual)) in enumerate(
            zip(graphs, _detection_events(layout, hits, b, rounds))
        ):
            matcher.decode_batch(graph, *events, actual)
            fails[k] += int(np.count_nonzero(actual))
        done += b
    return SimResult(shots, rounds, *fails)
