"""Scalar reference propagator used to cross-check the vectorized simulator.

Builds its own extraction circuit from the layout's qubit coordinates (its
own compass offsets, none of the package's neighbor lists or CNOT arrays)
and walks it one operation at a time with set-based Pauli frames, no numpy
and no shared propagation code, so agreement with the package's batched
implementation checks the package's circuit as well as its propagation.
Injections are Pauli bits applied after a given step of a given cycle,
mirroring the convention that errors strike after the faulty operation.
"""

from __future__ import annotations

import functools

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
