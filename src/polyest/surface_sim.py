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
with the faults a shot holds rather than with its sites.  A batch is drawn
with array operations: each shot only rekeys its generator and fills a row
of doubles, and whole-batch arithmetic turns the rows into counts and sites.
The hits are those of the per-shot draw, because the binomial's inversion
reads the same doubles and the arithmetic repeats numpy's operations in
numpy's order; where numpy would leave its inversion regime, and where a
Floyd pick may repeat, the sequential rule runs (see _draw_noise).

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


# numpy's SeedSequence hash (numpy/random/bit_generator.pyx): its pool size
# and the constants of its hashmix, mix and generate_state steps.
_SEED_POOL = 4
_SEED_INIT_A, _SEED_MULT_A = 0x43B0D7E5, 0x931E8875
_SEED_INIT_B, _SEED_MULT_B = 0x8B51F9DD, 0x58F38DED
_SEED_MIX_L, _SEED_MIX_R = 0xCA01F9DD, 0x4973F715
_MASK32 = 0xFFFFFFFF


def _powers(first: int, mult: int, count: int) -> np.ndarray:
    """first * mult**k mod 2**32 for k = 0..count, as uint32."""
    out = [first]
    for _ in range(count):
        out.append(out[-1] * mult & _MASK32)
    return np.array(out, dtype=np.uint32)


def _seed_sequence_keys(entropy: np.ndarray) -> np.ndarray:
    """SeedSequence(row).generate_state(2, uint64) of each row of ``entropy``.

    ``entropy`` is a (sequences, words) uint32 array, one row of entropy
    words per sequence, as SeedSequence assembles them from its entropy.
    SeedSequence's algorithm runs on uint32 columns, so the arithmetic wraps
    as its C code does: hash the words into a pool of four, mix every pool
    word into every other, mix in the words past the pool, then hash the
    pool out into four words, read in little-endian pairs.  Its hash
    constants do not depend on the data: hashmix call k xors with
    INIT_A * MULT_A**k and multiplies by INIT_A * MULT_A**(k + 1).  So each
    step hashes all the pool words it touches at once.
    """
    n, words = entropy.shape
    consts = _powers(_SEED_INIT_A, _SEED_MULT_A, _SEED_POOL * max(words, _SEED_POOL))
    calls = 0

    def hashmix(value, count):
        # The next ``count`` hashmix calls, one per column, on ``value``
        # broadcast to ``count`` columns.
        nonlocal calls
        value = (value ^ consts[calls : calls + count]) * consts[calls + 1 : calls + count + 1]
        calls += count
        return value ^ (value >> np.uint32(16))

    def mix(x, y):
        value = np.uint32(_SEED_MIX_L) * x - np.uint32(_SEED_MIX_R) * y
        return value ^ (value >> np.uint32(16))

    pool = np.zeros((n, _SEED_POOL), dtype=np.uint32)
    pool[:, : min(words, _SEED_POOL)] = entropy[:, :_SEED_POOL]
    pool = hashmix(pool, _SEED_POOL)
    for src in range(_SEED_POOL):
        dst = [i for i in range(_SEED_POOL) if i != src]
        pool[:, dst] = mix(pool[:, dst], hashmix(pool[:, src : src + 1], len(dst)))
    for src in range(_SEED_POOL, words):
        pool = mix(pool, hashmix(entropy[:, src : src + 1], _SEED_POOL))
    consts = _powers(_SEED_INIT_B, _SEED_MULT_B, _SEED_POOL)
    state = (pool ^ consts[:-1]) * consts[1:]
    state ^= state >> np.uint32(16)
    return state.astype("<u4").view("<u8").astype(np.uint64)


def _word_count(n: int) -> int:
    """The 32-bit words SeedSequence splits an integer >= 0 into (one for 0)."""
    return max(1, -(-n.bit_length() // 32))


def _shot_keys(seed: int, shots: range) -> np.ndarray:
    """Philox key of each shot: SeedSequence((seed, shot)).generate_state(2, uint64).

    Returns a (len(shots), 2) uint64 array.  SeedSequence splits each
    integer into its 32-bit words, low word first (one word for 0), so the
    shots are hashed in runs of equal word count: the runs break where a
    shot index reaches 2**32, 2**64 and so on.
    """
    seed = int(seed)
    seed_words = [(seed >> (32 * j)) & _MASK32 for j in range(_word_count(seed))]
    keys = np.empty((len(shots), 2), dtype=np.uint64)
    start = shots.start
    while start < shots.stop:
        width = _word_count(start)
        stop = min(shots.stop, 1 << (32 * width))
        values = np.arange(start, stop, dtype=object)
        entropy = np.empty((stop - start, len(seed_words) + width), dtype=np.uint32)
        entropy[:, : len(seed_words)] = seed_words
        for j in range(width):
            entropy[:, len(seed_words) + j] = (values >> (32 * j)) & _MASK32
        keys[start - shots.start : stop - shots.start] = _seed_sequence_keys(entropy)
        start = stop
    return keys


@functools.lru_cache(maxsize=64)
def _inversion_tables(draws: tuple[tuple[int, float], ...]) -> np.ndarray | None:
    """numpy's binomial inversion tables for the (n, p) of each class, or None.

    numpy's random_binomial draws a count by inversion when p <= 0.5 and
    p * n <= 30, and by BTPE otherwise (None here).  Inversion takes one
    next_double U_0 and returns the first x <= bound with U_x <= px[x],
    where U_x = U_{x-1} - px[x-1], or starts over with a fresh double past
    bound.  px is built by numpy's C arithmetic operation for operation,
    with the C library's exp, log and sqrt as math calls them, so it holds
    the same doubles.  Column c of the result holds class c's px[0 ..
    bound-1], then zeros: past its table a lane that has not stopped
    (U_x > 0) never stops, so it is left to the per-shot rule, and so is a
    lane that gets as far as bound.  Neither a restart nor a bound computed
    one off (by an FMA contraction in numpy's build, say) can change a count.
    """
    tables = []
    for n, p in draws:
        if p > 0.5 or p * n > 30.0:
            return None
        q = 1.0 - p
        mean = n * p
        bound = int(min(n, mean + 10.0 * math.sqrt(mean * q + 1)))
        table = [math.exp(n * math.log(q))]
        for x in range(1, bound):
            table.append((n - x + 1) * p * table[-1] / (x * q))
        tables.append(table)
    px = np.zeros((max(map(len, tables)), len(tables)))
    for c, table in enumerate(tables):
        px[: len(table), c] = table
    px.flags.writeable = False  # shared by every call with these draws
    return px


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


def _shot_hits(g: np.random.Generator, classes) -> list[tuple[int, int, int]]:
    """One shot's (class, site, Pauli index) hits by the per-shot rule.

    The hit count of each class in turn by ``g.binomial``, then one block of
    uniforms that _floyd turns into each class's sites, in class order.
    """
    counts = [g.binomial(n, q) for n, q, *_ in classes]
    total = sum(counts)
    uniforms = g.random(total).tolist() if total else []
    hits = []
    for c, ((n, _, width, *_), k) in enumerate(zip(classes, counts)):
        hits += ((c, t, pauli) for t, pauli in _floyd(uniforms[:k], n, width).items())
        del uniforms[:k]
    return hits


def _block_hits(block: np.ndarray, n: np.ndarray, paulis: np.ndarray, px: np.ndarray):
    """The (row, class, site, Pauli index) hits ``block`` settles, and the rows it leaves.

    Row r of ``block`` holds the first doubles of shot r's stream, those its
    binomial and random calls would take in turn; class c has n[c] sites,
    paulis[c] Pauli choices and inversion table px[:, c].  Class c's count
    is numpy's inversion loop on double c, run on every lane (row, class)
    at once by the same subtractions in the same order: once U_x <= px[x],
    U stays at or below px, so a lane's count is the steps it stays above.
    The sites' uniforms follow, class by class, and each Floyd pick is one
    array expression over all hits.  A pick that repeats an earlier pick or
    an earlier j needs the sequential rule; only a group with two equal
    picks can hold one, and such a group runs _floyd on its own uniforms.
    Rows whose counts the tables do not settle, or that need more doubles
    than the block holds, are left to the per-shot rule.
    """
    b, width = block.shape
    n_cls = len(n)
    u = block[:, :n_cls].copy()
    counts = np.zeros((b, n_cls), dtype=np.int64)
    for row in px:
        above = u > row
        if not above.any():
            break
        counts += above
        u -= row
    totals = counts.sum(axis=1)
    ok = (counts < len(px)).all(axis=1) & (totals <= width - n_cls)
    counts[~ok] = 0

    k = counts.ravel()
    uniforms = block[:, n_cls:][np.arange(width - n_cls) < (totals * ok)[:, None]]
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
    return (group // n_cls, cls, site, pauli), np.flatnonzero(~ok).tolist()


def _draw_noise(
    seed: int, shot_indices: range, R: int, layout: Layout, rates: Rates
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Draw every fault of a batch of shots as (row, cycle, fault id) hits.

    Each shot owns a counter-based substream keyed by (seed, shot index), so
    results are independent of batch partitioning: shot i draws from Philox
    keyed by SeedSequence((seed, i)).generate_state(2, uint64), starting at
    counter 0, whatever batch it is drawn in.  A shot draws its faults by
    count, so its cost grows with the faults it holds, not with the number
    of sites: first the hit count k ~ Binomial(sites, rate) of each class of
    layout.classes with a nonzero rate, in class order, then one block of
    uniforms that Floyd's algorithm turns into k distinct sites per class,
    each CNOT hit also taking a uniform Pauli index from its uniform
    (_shot_hits, the per-shot rule).  In distribution this is one
    independent Bernoulli draw per site (up to the 2**-53 resolution of a
    double, as for a direct per-site draw); a class at rate 0 has no hits
    and draws nothing, and one at rate 1 hits every site.  Fault ids are the
    rows of the fault table (see Layout).

    The batch takes the per-shot rule's hits without running it per shot.
    The keys are hashed at once (_shot_keys); each shot rekeys one Philox
    and fills a row of a block with its first doubles, and _block_hits
    settles the rows by whole-batch arithmetic.  That is the same draw
    because numpy's binomial takes the same next_double as random, one per
    count while it stays in its inversion regime and short of bound, and
    _block_hits repeats numpy's IEEE operations in numpy's order.  Rows it
    leaves run the per-shot rule, as does every row of a batch in which a
    class falls outside the inversion regime (_inversion_tables).
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
    keys = _shot_keys(seed, shot_indices).tolist()
    bit_gen = np.random.Philox(key=0)
    g = np.random.Generator(bit_gen)
    # A fresh stream: counter 0, empty output buffer; the key is set per
    # shot.  Philox's state setter reads these element by element, which
    # is quicker from Python ints than from uint64 arrays.
    state = {
        "bit_generator": "Philox",
        "state": {"counter": (0, 0, 0, 0), "key": None},
        "buffer": (0, 0, 0, 0),
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    px = _inversion_tables(tuple((n, q) for n, q, *_ in classes))
    if px is None:
        hits, slow = (np.zeros(0, dtype=np.int64),) * 4, range(len(keys))
    else:
        # The counts' doubles, then the sites' with room for most rows.
        mean = sum(n * q for n, q, *_ in classes)
        block = np.empty((len(keys), len(classes) + int(mean + 4.0 * math.sqrt(mean)) + 4))
        for key, out in zip(keys, block):
            state["state"]["key"] = key
            bit_gen.state = state
            g.random(out=out)
        hits, slow = _block_hits(block, sites, paulis, px)
    more = []
    for row in slow:
        state["state"]["key"] = keys[row]
        bit_gen.state = state
        more += ((row, *hit) for hit in _shot_hits(g, classes))
    if more:
        hits = [np.concatenate(pair) for pair in zip(hits, np.array(more, dtype=np.int64).T)]
        order = np.argsort(hits[0], kind="stable")
        hits = [h[order] for h in hits]
    row, cls, site, pauli = hits
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
    """The run_monte_carlo counts as Python ints; ValueError unless in range."""
    return [check_int(ValueError, *check) for check in (
        ("shots", shots, 0), ("rounds", rounds, 1),
        ("seed", seed, 0), ("first_shot_index", first_shot_index, 0),
    )]


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
    its own substream of ``seed``: Philox keyed by SeedSequence((seed,
    i)).generate_state(2, uint64), starting at counter 0, whatever the
    batching (see _draw_noise).  So a run split into chunks through
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
