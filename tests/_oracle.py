"""Scalar reference propagator used to cross-check the vectorized simulator.

Builds its own extraction circuit from the layout's qubit coordinates (its
own compass offsets, none of the package's neighbor lists or CNOT arrays)
and walks it one operation at a time with set-based Pauli frames, no numpy
and no shared propagation code, so agreement with the package's batched
implementation checks the package's circuit as well as its propagation.
Injections are Pauli bits applied after a given step of a given cycle,
mirroring the convention that errors strike after the faulty operation.

The second half is a frozen decoder: the per-row cluster split and twin-graph
build of polyest 0.2.0 (``solve_matching``, ``_blossom_cluster``, ``_find``
and ``_linked``, copied verbatim), with ``oracle_batch_flips`` running it row
by row as that version's ``min_weight_perfect_matching`` did.  The package
now builds every cluster of a batch at once, for its batch and one-row
decodes alike, so comparing those with each other checks nothing
independent; this copy is the reference for both.  Only the blossom itself
(``_max_weight_matching``) and ``MatchingError`` come from the package.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from polyest.matcher import MatchingError, _max_weight_matching

# Where a syndrome reaches in each of the four CNOT steps (steps 2..5).
_REACH = {"n": (-1, 0), "w": (0, -1), "e": (0, 1), "s": (1, 0)}


@functools.cache
def cycle_ops(layout):
    """The eight steps of one cycle as tuples of (gate, qubits) operations.

    Steps: syndrome init, Hadamard on X syndromes, CNOTs towards N, W, E, S,
    second Hadamard, syndrome measurement.  A Z-stabilizer CNOT has the data
    qubit as control, an X-stabilizer CNOT the syndrome.  Idle qubits get no
    operation.
    """
    qid = layout.qubit_id
    data = set(layout.data)
    z_ids = [qid[c] for c in layout.z_stabs]
    x_ids = [qid[c] for c in layout.x_stabs]
    hadamards = [("h", (q,)) for q in x_ids]
    steps = [[("init", (q,)) for q in z_ids + x_ids], hadamards]
    for di, dj in _REACH.values():
        ops = []
        for stabs, z_type in ((layout.z_stabs, True), (layout.x_stabs, False)):
            for i, j in stabs:
                nbr = (i + di, j + dj)
                if nbr in data:
                    s, q = qid[(i, j)], qid[nbr]
                    ops.append(("cnot", (q, s) if z_type else (s, q)))
        steps.append(ops)
    steps += [hadamards, [("meas", (q,)) for q in z_ids + x_ids]]
    return tuple(tuple(ops) for ops in steps)


def _toggle(frame: set, q: int) -> None:
    if q in frame:
        frame.remove(q)
    else:
        frame.add(q)


def propagate(layout, injections, cycles=3):
    """Run ``cycles`` noiseless cycles with explicit fault injections.

    ``injections`` is a list of (cycle, step_index, bits) with bits a list of
    (qubit_id, axis) pairs, axis "x" or "z".  Returns (outcomes, x_frame,
    z_frame): outcomes[c] maps syndrome qubit id to the measured flip of
    cycle c, the frames are the residual data error supports.
    """
    steps = cycle_ops(layout)
    x: set[int] = set()
    z: set[int] = set()
    outcomes = []
    for c in range(cycles):
        cycle_out: dict[int, bool] = {}
        for k, ops in enumerate(steps):
            for gate, qubits in ops:
                if gate == "init":
                    x.discard(qubits[0])
                    z.discard(qubits[0])
                elif gate == "h":
                    q = qubits[0]
                    had_x, had_z = q in x, q in z
                    (x.add(q) if had_z else x.discard(q))
                    (z.add(q) if had_x else z.discard(q))
                elif gate == "cnot":
                    ctrl, tgt = qubits
                    if ctrl in x:
                        _toggle(x, tgt)
                    if tgt in z:
                        _toggle(z, ctrl)
                elif gate == "meas":
                    cycle_out[qubits[0]] = qubits[0] in x
            for cyc, stp, bits in injections:
                if cyc == c and stp == k:
                    for q, axis in bits:
                        _toggle(x if axis == "x" else z, q)
        outcomes.append(cycle_out)
    return outcomes, x, z


def footprint(layout, injections, outcome_flips=(), cycles=3):
    """Detection events and logical flips for a set of injected fault bits.

    ``outcome_flips`` lists (cycle, syndrome_qubit_id) classical flips.
    Returns (events_x, events_z, flip_x, flip_z) in the package's
    conventions: events_x on Z-stabilizer indices, events_z on X-stabilizer
    indices, rounds relative to cycle 0.
    """
    outcomes, x, z = propagate(layout, injections, cycles)
    for cyc, q in outcome_flips:
        outcomes[cyc][q] = not outcomes[cyc][q]
    z_ids = [layout.qubit_id[c] for c in layout.z_stabs]
    x_ids = [layout.qubit_id[c] for c in layout.x_stabs]
    events_x = []
    events_z = []
    for events, ids in ((events_x, z_ids), (events_z, x_ids)):
        for idx, q in enumerate(ids):
            prev = False
            for c in range(cycles):
                cur = outcomes[c][q]
                if cur != prev:
                    events.append((idx, c))
                prev = cur
    flip_x = len(x & {layout.qubit_id[c] for c in layout.logical_z_support}) % 2 == 1
    flip_z = len(z & {layout.qubit_id[c] for c in layout.logical_x_support}) % 2 == 1
    return sorted(events_x), sorted(events_z), flip_x, flip_z


def fault_injection(layout, fault):
    """Translate a package FaultEffect site back into oracle injections.

    Returns (injections, outcome_flips) reproducing the same physical fault,
    derived from cycle_ops rather than the package's compiled arrays.
    """
    if fault.kind == "flip":
        stab, idx = fault.site
        coords = layout.z_stabs if stab == "z" else layout.x_stabs
        return [], [(0, layout.qubit_id[coords[idx]])]
    if fault.kind == "idle":
        _, data_idx, slot = fault.site
        step = (0, 1, 6, 7)[slot]
        q = layout.qubit_id[layout.data[data_idx]]
        return [(0, step, [(q, fault.pauli)])], []
    stab, idx, direction = fault.site
    step = 2 + list(_REACH).index(direction)
    coords = (layout.z_stabs if stab == "z" else layout.x_stabs)[idx]
    syn = layout.qubit_id[coords]
    ctrl = tgt = None
    for gate, qubits in cycle_ops(layout)[step]:
        if gate == "cnot" and syn in qubits:
            ctrl, tgt = qubits
    assert ctrl is not None, "fault site not found in the oracle's circuit"
    bits = []
    c_letter, t_letter = fault.pauli
    if c_letter in "xy":
        bits.append((ctrl, "x"))
    if c_letter in "yz":
        bits.append((ctrl, "z"))
    if t_letter in "xy":
        bits.append((tgt, "x"))
    if t_letter in "yz":
        bits.append((tgt, "z"))
    return [(0, step, bits)], []


# ---------------------------------------------------------------------------
# Frozen decoder of polyest 0.2.0
# ---------------------------------------------------------------------------


def _find(parent: list[int], i: int) -> int:
    while parent[i] != i:
        parent[i] = parent[parent[i]]
        i = parent[i]
    return i


def _linked(w, b_a, b_b):
    """Whether a direct pair of weight ``w`` beats its events' boundary legs.

    The one rule by which decoding splits events into clusters: a pair that
    does not beat routing both of its events to the boundary (a tie does
    not) never needs matching to each other.  solve_matching and
    decode_batch both call it, so the two decode alike.
    """
    return w < b_a + b_b


def _blossom_cluster(members, W, B):
    """Exact minimum-weight matching of one cluster on its sparse twin graph.

    Events are vertices 0..k-1 and their boundary twins k..2k-1, with the
    edges the module docstring lists; a tie between a direct pair and two
    boundary legs keeps the pair.  Weights are flipped against one more than
    the largest finite weight, so the maximum-cardinality max-weight
    matching is the minimum-weight perfect one.
    """
    k = len(members)
    m = np.asarray(members)
    Bc = B[m]
    ia, ib = np.triu_indices(k, 1)
    Wp, Sp = W[m[ia], m[ib]], Bc[ia] + Bc[ib]
    costs = np.concatenate((Bc, np.minimum(Wp, Sp)))
    big = float(costs[np.isfinite(costs)].max()) + 1.0
    to_twin = np.flatnonzero(np.isfinite(Bc))
    keep = np.isfinite(Wp) & (Wp <= Sp)
    ia, ib = ia[keep].tolist(), ib[keep].tolist()
    edges = list(zip(to_twin.tolist(), (to_twin + k).tolist(), (big - Bc[to_twin]).tolist()))
    edges += zip(ia, ib, (big - Wp[keep]).tolist())
    edges += ((k + a, k + b, big) for a, b in zip(ia, ib))
    mate = _max_weight_matching(2 * k, edges)
    if -1 in mate:
        raise MatchingError("cluster admits no perfect matching")
    atoms = []
    for a in range(k):
        b = mate[a]
        if b == a + k:
            atoms.append(("boundary", members[a]))
        elif a < b:
            atoms.append(("pair", members[a], members[b]))
    return atoms


def solve_matching(weights, boundary) -> tuple[list[tuple], float]:
    """Minimum-weight matching of n events given direct and boundary weights.

    ``weights`` is a symmetric (n, n) matrix of direct pair weights and
    ``boundary`` a length-n vector; math.inf marks unusable routes.  Every
    event must end up paired with exactly one partner or with the boundary.
    Returns (atoms, total): atoms are ("pair", i, j) and ("boundary", i)
    records, total the exact fsum of the chosen weights.
    """
    W = np.asarray(weights, dtype=float)
    B = np.asarray(boundary, dtype=float)
    n = B.shape[0]
    if W.shape != (n, n):
        raise ValueError("weights matrix shape does not match boundary vector")
    if n == 0:
        return [], 0.0
    # A direct pairing can only be optimal where it beats two boundary legs,
    # so connected components under that relation decode independently.
    parent = list(range(n))
    for i, j in np.argwhere(_linked(W, B[:, None], B[None, :])):
        if i < j:
            ri, rj = _find(parent, int(i)), _find(parent, int(j))
            if ri != rj:
                parent[max(ri, rj)] = min(ri, rj)
    clusters: dict[int, list[int]] = {}
    for i in range(n):
        clusters.setdefault(_find(parent, i), []).append(i)
    atoms: list[tuple] = []
    for root in sorted(clusters):
        members = clusters[root]
        if len(members) == 1:
            i = members[0]
            if not math.isfinite(B[i]):
                raise MatchingError(
                    f"event {i} has no usable edge to any partner or boundary"
                )
            atoms.append(("boundary", i))
        elif len(members) == 2:
            i, j = members
            atoms.append(("pair", i, j))
        else:
            atoms.extend(_blossom_cluster(members, W, B))
    chosen = [W[a[1], a[2]] if a[0] == "pair" else B[a[1]] for a in atoms]
    return atoms, math.fsum(sorted(chosen))


def oracle_batch_flips(graph, row, site, rnd, b):
    """Correction flip of each of ``b`` rows, decoding one row at a time.

    Event arrays as for ``decode_batch``.  Each row's weights are built as
    polyest 0.2.0's ``min_weight_perfect_matching`` built them; the first
    row that fails raises its MatchingError.
    """
    flips = np.zeros(b, dtype=bool)
    for r in np.unique(row).tolist():
        at = row == r
        ss, tt = site[at], rnd[at]
        dt = tt[None, :] - tt[:, None]
        i_early = (dt > 0) | ((dt == 0) & (ss[:, None] <= ss[None, :]))
        sa = np.where(i_early, ss[:, None], ss[None, :])
        sb = np.where(i_early, ss[None, :], ss[:, None])
        W = graph.pair_distances(sa, sb, np.abs(dt))
        np.fill_diagonal(W, np.inf)
        atoms, _ = solve_matching(W, graph.B[ss])
        flips[r] = sum(bool(graph.BM[ss[atom[1]]]) for atom in atoms if atom[0] == "boundary") % 2
    return flips
