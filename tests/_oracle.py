"""Scalar reference propagator used to cross-check the vectorized simulator.

Builds its own extraction circuit from the layout's qubit coordinates (its
own compass offsets, none of the package's neighbor lists or CNOT arrays)
and walks it one operation at a time with set-based Pauli frames, no numpy
and no shared propagation code, so agreement with the package's batched
implementation checks the package's circuit as well as its propagation.
Injections are Pauli bits applied after a given step of a given cycle,
mirroring the convention that errors strike after the faulty operation.
``fault_effects`` reads the package's one single-fault table,
``layout.footprints``, back as one ``FaultEffect`` per fault id, the view
the package built alongside that table until it dropped it; the tests
compare those rows with this propagator and pin their bytes.

The second half is a frozen decoder: the per-row cluster split and twin-graph
build of polyest 0.2.0 (``solve_matching``, ``_blossom_cluster``, ``_find``
and ``_linked``, copied verbatim), with ``oracle_batch_flips`` running it row
by row as that version's ``min_weight_perfect_matching`` did.  The package
now builds every cluster of a batch at once, for its batch and one-row
decodes alike, so comparing those with each other checks nothing
independent; this copy is the reference for both.  Its blossom
(``_max_weight_matching``) is the plain port of mwmatching.py that polyest
0.2.0 shipped, also copied verbatim: the package's blossom skips work that
this one does, so the two are compared mate for mate.  Only
``MatchingError`` comes from the package.

Last, ``draw_noise`` is polyest 0.2.0's noise draw as it first shipped,
building one Generator per shot and calling its binomial and random per
shot.  The package now hashes the shot keys of a whole batch at once,
rekeys one Philox per shot only to fill a row of doubles, and turns the
rows into counts and sites by whole-batch arithmetic that repeats numpy's
binomial inversion and this Floyd loop; it keeps a per-shot draw for the
rows that arithmetic leaves.  It must draw exactly these hits.

Then ``build_graphs`` as it stood when it walked the FaultEffect table, one
Python ``add`` per fault and graph; it now walks ``fault_effects(layout)``.
The package now sums the footprint arrays that its shots XOR with array
operations; it must build exactly these graphs from ``layout.footprints``.

The last part is the query path of polyest 0.2.0 as it stood before a
query found its grid corners once per error type: ``interpolate`` (which
brackets (r0, r1, p2) on every call), ``_KindQuery`` calling it once per
distance, ``estimate`` and ``solve_distance`` over them (reading every
distance from 3 up), ``reduce`` with the ``_derived_triple`` that walks all
15 CNOT entries per axis, and ``ladder_neighbors``, the bracket rule that
walks every rung of an axis, and ``fit`` as it stood before it refused a
ratio whose square underflows or a coefficient that is not finite.  The
package must answer every query exactly as these do, float for float,
warning for warning and error for error, except where this ``fit`` gives
a coefficient that is not finite: there the package raises FitRangeError.
The unchanged pieces (``_evaluate``, the reductions of the single-qubit
channels, the axis ladders, the result classes and the errors) come from
the package.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from itertools import product

import numpy as np

from polyest.error_model import (
    TWO_QUBIT_PAULIS, ModelError, ReducedRates, reduce_data_idle, reduce_syndrome,
)
from polyest.estimator import (
    MAX_SCAN_DISTANCE, Estimate, ExtrapolationFit, FitRangeError, MissingEntryError,
    ScanLimitError, UndefinedRatioError, _evaluate,
)
from polyest.matcher import _P_FLOOR, MatchingError, MatchingGraph
from polyest.store import (
    AXES, DISTANCES, SNAP_RELATIVE, DbError, LadderBracket, check_int, format_value, is_int,
    is_real, ladder_values,
)
from polyest.surface_sim import Rates

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


@dataclass(frozen=True)
class FaultEffect:
    """Detection footprint of one elementary fault within a single cycle.

    Round offsets are relative to the cycle in which the fault occurs.
    ``events_x`` lists (Z-stabilizer index, offset) pairs (X-error
    detection), ``events_z`` the analogous X-stabilizer pairs.  ``flip_x`` /
    ``flip_z`` say whether the fault alone flips the stored logical qubit.
    The name, fields and field order are those of the package's former
    view, so its repr, which the fault-table pins hash, is unchanged.
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


def fault_effects(layout):
    """One FaultEffect per fault id, read from ``layout.footprints`` and ``layout.by_id``."""
    events, flips = [], []
    for fp in layout.footprints:
        pairs = list(zip(fp.site.tolist(), fp.offset.tolist()))
        bounds = fp.ptr.tolist()
        events.append([tuple(pairs[lo:hi]) for lo, hi in zip(bounds, bounds[1:])])
        flips.append(fp.flip.tolist())
    return tuple(
        FaultEffect(kind=cls.kind, rate_kind=cls.rate_kind, step=step, site=site,
                    pauli=cls.paulis[k], events_x=evx, events_z=evz, flip_x=fx, flip_z=fz)
        for (cls, (site, step, _), k), evx, evz, fx, fz in zip(layout.by_id, *events, *flips)
    )


def fault_injection(layout, fault):
    """Translate a FaultEffect site back into oracle injections.

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


def _max_weight_matching(n: int, edges: list[tuple[int, int, float]]) -> list[int]:
    """Maximum-cardinality matching of greatest weight on vertices 0..n-1.

    A list-based port of the O(n^3) primal-dual blossom algorithm in Galil's
    formulation, after van Rantwijk's mwmatching.py, always in its
    maximum-cardinality mode.  Edge k joins endpoint[2k] and endpoint[2k+1];
    a matched vertex v holds in mate[v] the endpoint index p of its partner
    endpoint[p].  Blossoms are numbered n..2n-1.  Vertex duals are stored
    doubled, so an edge's slack is dual[i] + dual[j] - 2w.  Labels are 0
    (free), 1 (S), 2 (T) and 5 (S, marked while tracing).  Returns each
    vertex's partner, or -1 where it stays single.
    """
    endpoint = [v for i, j, _ in edges for v in (i, j)]
    w2 = [2.0 * w for _, _, w in edges]
    neighbend: list[list[int]] = [[] for _ in range(n)]
    for k, (i, j, _) in enumerate(edges):
        neighbend[i].append(2 * k + 1)
        neighbend[j].append(2 * k)
    # Per vertex or blossom b: labelend[b] is the endpoint through which b
    # got its label; inblossom[v] is v's top-level blossom; bparent, bchilds
    # and bbase give the blossom tree, bchilds[b] running round the blossom
    # from its base with bendps[b][i] the endpoint joining child i to child
    # i+1; bestedge[b] is the least-slack edge towards another S-blossom (or,
    # for a free vertex, from an S-vertex) and bestedges[b] an S-blossom's
    # list of such edges; allowed[k] marks edges known to be tight.
    mate = [-1] * n
    label = [0] * (2 * n)
    labelend = [-1] * (2 * n)
    inblossom = list(range(n))
    bparent = [-1] * (2 * n)
    bchilds: list = [None] * (2 * n)
    bbase = list(range(n)) + [-1] * n
    bendps: list = [None] * (2 * n)
    bestedge = [-1] * (2 * n)
    bestedges: list = [None] * (2 * n)
    unused = list(range(n, 2 * n))
    dual = [max([0.0] + [w for _, _, w in edges])] * n + [0.0] * n
    allowed = [False] * len(edges)
    queue: list[int] = []

    def slack(k):
        return dual[endpoint[2 * k]] + dual[endpoint[2 * k + 1]] - w2[k]

    def leaves(b):
        if b < n:
            return [b]
        out, stack = [], [b]
        while stack:
            t = stack.pop()
            if t < n:
                out.append(t)
            else:
                stack.extend(reversed(bchilds[t]))
        return out

    def assign_label(w, t, p):
        b = inblossom[w]
        label[w] = label[b] = t
        labelend[w] = labelend[b] = p
        bestedge[w] = bestedge[b] = -1
        if t == 1:
            queue.extend(leaves(b))
        else:
            m = mate[bbase[b]]
            assign_label(endpoint[m], 1, m ^ 1)

    def scan_blossom(v, w):
        # Trace back from v and w alternately; the first marked blossom met
        # is the base of a new blossom, none means an augmenting path.
        path, found = [], -1
        while v != -1 or w != -1:
            b = inblossom[v]
            if label[b] & 4:
                found = bbase[b]
                break
            path.append(b)
            label[b] = 5
            if labelend[b] == -1:
                v = -1
            else:
                v = endpoint[labelend[inblossom[endpoint[labelend[b]]]]]
            if w != -1:
                v, w = w, v
        for b in path:
            label[b] = 1
        return found

    def add_blossom(base, k):
        bb = inblossom[base]
        bv, bw = inblossom[endpoint[2 * k]], inblossom[endpoint[2 * k + 1]]
        b = unused.pop()
        bbase[b], bparent[b], bparent[bb] = base, -1, b
        path, ends = [], []
        while bv != bb:
            bparent[bv] = b
            path.append(bv)
            ends.append(labelend[bv])
            bv = inblossom[endpoint[labelend[bv]]]
        path.append(bb)
        path.reverse()
        ends.reverse()
        ends.append(2 * k)
        while bw != bb:
            bparent[bw] = b
            path.append(bw)
            ends.append(labelend[bw] ^ 1)
            bw = inblossom[endpoint[labelend[bw]]]
        bchilds[b], bendps[b] = path, ends
        label[b], labelend[b], dual[b] = 1, labelend[bb], 0.0
        for v in leaves(b):
            if label[inblossom[v]] == 2:
                queue.append(v)
            inblossom[v] = b
        # Least-slack edges from the new blossom to each other S-blossom.
        bestto = [-1] * (2 * n)
        for bv in path:
            if bestedges[bv] is None:
                candidates = [p >> 1 for v in leaves(bv) for p in neighbend[v]]
            else:
                candidates = bestedges[bv]
            for k in candidates:
                bj = inblossom[endpoint[2 * k + 1]]
                if bj == b:
                    bj = inblossom[endpoint[2 * k]]
                if bj != b and label[bj] == 1 and (
                    bestto[bj] == -1 or slack(k) < slack(bestto[bj])
                ):
                    bestto[bj] = k
            bestedges[bv], bestedge[bv] = None, -1
        bestedges[b] = [k for k in bestto if k != -1]
        best = -1
        for k in bestedges[b]:
            if best == -1 or slack(k) < slack(best):
                best = k
        bestedge[b] = best

    def expand_blossom(b, endstage):
        for s in bchilds[b]:
            bparent[s] = -1
            if s < n:
                inblossom[s] = s
            elif endstage and dual[s] == 0:
                expand_blossom(s, endstage)
            else:
                for v in leaves(s):
                    inblossom[v] = s
        if not endstage and label[b] == 2:
            # Relabel the sub-blossoms of an expanding T-blossom along the
            # even-length path from its entry child to its base.
            ch, ends = bchilds[b], bendps[b]
            entry = inblossom[endpoint[labelend[b] ^ 1]]
            j = ch.index(entry)
            if j & 1:
                j, jstep, trick = j - len(ch), 1, 0
            else:
                jstep, trick = -1, 1
            p = labelend[b]
            while j != 0:
                label[endpoint[p ^ 1]] = 0
                label[endpoint[ends[j - trick] ^ trick ^ 1]] = 0
                assign_label(endpoint[p ^ 1], 2, p)
                allowed[ends[j - trick] >> 1] = True
                j += jstep
                p = ends[j - trick] ^ trick
                allowed[p >> 1] = True
                j += jstep
            bv = ch[j]
            label[endpoint[p ^ 1]] = label[bv] = 2
            labelend[endpoint[p ^ 1]] = labelend[bv] = p
            bestedge[bv] = -1
            j += jstep
            while ch[j] != entry:
                bv = ch[j]
                j += jstep
                if label[bv] == 1:
                    continue
                for v in leaves(bv):
                    if label[v] != 0:
                        label[v] = 0
                        label[endpoint[mate[bbase[bv]]]] = 0
                        assign_label(v, 2, labelend[v])
                        break
        label[b] = labelend[b] = bbase[b] = bestedge[b] = -1
        bchilds[b] = bendps[b] = bestedges[b] = None
        unused.append(b)

    def augment_blossom(b, v):
        # Swap matched and unmatched edges along the even path from v to the
        # base of b, then make v's sub-blossom the base.
        t = v
        while bparent[t] != b:
            t = bparent[t]
        if t >= n:
            augment_blossom(t, v)
        ch, ends = bchilds[b], bendps[b]
        i = j = ch.index(t)
        if i & 1:
            j, jstep, trick = j - len(ch), 1, 0
        else:
            jstep, trick = -1, 1
        while j != 0:
            j += jstep
            p = ends[j - trick] ^ trick
            if ch[j] >= n:
                augment_blossom(ch[j], endpoint[p])
            j += jstep
            if ch[j] >= n:
                augment_blossom(ch[j], endpoint[p ^ 1])
            mate[endpoint[p]], mate[endpoint[p ^ 1]] = p ^ 1, p
        bchilds[b], bendps[b] = ch[i:] + ch[:i], ends[i:] + ends[:i]
        bbase[b] = bbase[bchilds[b][0]]

    def augment_matching(k):
        for s, p in ((endpoint[2 * k], 2 * k + 1), (endpoint[2 * k + 1], 2 * k)):
            while True:
                bs = inblossom[s]
                if bs >= n:
                    augment_blossom(bs, s)
                mate[s] = p
                if labelend[bs] == -1:
                    break
                bt = inblossom[endpoint[labelend[bs]]]
                s, j = endpoint[labelend[bt]], endpoint[labelend[bt] ^ 1]
                if bt >= n:
                    augment_blossom(bt, j)
                mate[j] = labelend[bt]
                p = labelend[bt] ^ 1

    for _ in range(n):
        # One stage: grow alternating trees from every single vertex until
        # an augmenting path is found, adjusting duals when none is tight.
        label[:] = [0] * (2 * n)
        bestedge[:] = [-1] * (2 * n)
        bestedges[n:] = [None] * n
        allowed[:] = [False] * len(edges)
        queue.clear()
        for v in range(n):
            if mate[v] == -1 and label[inblossom[v]] == 0:
                assign_label(v, 1, -1)
        augmented = False
        while True:
            while queue and not augmented:
                v = queue.pop()
                for p in neighbend[v]:
                    k, w = p >> 1, endpoint[p]
                    if inblossom[v] == inblossom[w]:
                        continue
                    if not allowed[k]:
                        kslack = dual[v] + dual[w] - w2[k]
                        if kslack <= 0:
                            allowed[k] = True
                    if allowed[k]:
                        lw = label[inblossom[w]]
                        if lw == 0:
                            assign_label(w, 2, p ^ 1)
                        elif lw == 1:
                            base = scan_blossom(v, w)
                            if base >= 0:
                                add_blossom(base, k)
                            else:
                                augment_matching(k)
                                augmented = True
                                break
                        elif label[w] == 0:
                            label[w], labelend[w] = 2, p ^ 1
                    elif label[inblossom[w]] == 1:
                        b = inblossom[v]
                        if bestedge[b] == -1 or kslack < slack(bestedge[b]):
                            bestedge[b] = k
                    elif label[w] == 0:
                        if bestedge[w] == -1 or kslack < slack(bestedge[w]):
                            bestedge[w] = k
            if augmented:
                break
            deltatype, delta, at = -1, 0.0, -1
            for v in range(n):
                if label[inblossom[v]] == 0 and bestedge[v] != -1:
                    d = slack(bestedge[v])
                    if deltatype == -1 or d < delta:
                        deltatype, delta, at = 2, d, bestedge[v]
            for b in range(2 * n):
                if bparent[b] == -1 and label[b] == 1 and bestedge[b] != -1:
                    d = slack(bestedge[b]) / 2
                    if deltatype == -1 or d < delta:
                        deltatype, delta, at = 3, d, bestedge[b]
            for b in range(n, 2 * n):
                if (bbase[b] >= 0 and bparent[b] == -1 and label[b] == 2
                        and (deltatype == -1 or dual[b] < delta)):
                    deltatype, delta, at = 4, dual[b], b
            if deltatype == -1:
                break  # no augmenting path left: the cardinality is maximum
            for v in range(n):
                if label[inblossom[v]] == 1:
                    dual[v] -= delta
                elif label[inblossom[v]] == 2:
                    dual[v] += delta
            for b in range(n, 2 * n):
                if bbase[b] >= 0 and bparent[b] == -1:
                    if label[b] == 1:
                        dual[b] += delta
                    elif label[b] == 2:
                        dual[b] -= delta
            if deltatype == 4:
                expand_blossom(at, False)
            else:
                allowed[at] = True
                i = endpoint[2 * at]
                if label[inblossom[i]] == 0:
                    i = endpoint[2 * at + 1]
                queue.append(i)
        if not augmented:
            break
        for b in range(n, 2 * n):
            if (bparent[b] == -1 and bbase[b] >= 0 and label[b] == 1
                    and dual[b] == 0):
                expand_blossom(b, True)
    return [endpoint[p] if p >= 0 else -1 for p in mate]


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


def draw_noise(seed, shot_indices, R, layout, rates):
    """polyest 0.2.0's ``_draw_noise``, one Generator built per shot.

    The body is the package's as it shipped before the shot keys were
    hashed for a whole batch at once: the package must draw exactly these
    (row, cycle, fault id) hits.
    """
    # Per class: sites, rate per site, Pauli choices, sites per cycle, first
    # fault id, fault id stride.
    classes = [
        (R * len(c.sites), c.site_rate(rates), len(c.paulis), len(c.sites), c.first, c.stride)
        for c in layout.classes
    ]
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


# ---------------------------------------------------------------------------
# Frozen graph builder
# ---------------------------------------------------------------------------


def build_graphs(faults, rates, layout):
    """``build_graphs`` as it stood when it walked the FaultEffect table.

    The body is the package's before it summed the footprint arrays: one
    Python ``add`` per fault and graph, in fault-table order.  The package
    must build exactly these graphs from ``layout.footprints``.  Graphs
    built from ``fault_effects(layout)``, the layout's whole table, carry
    ``built_for`` as the package's do.
    """
    rates = Rates(*rates).validate()
    # A fault's probability is its class's per-site rate over its Pauli choices.
    fault_rate = {c.rate_kind: c.site_rate(rates) / len(c.paulis) for c in layout.classes}
    # Per graph: edge and boundary classes as [probability sum, mask].
    acc = (({}, {}), ({}, {}))

    def add(sums, events, p, flip):
        edges, boundary = sums
        if len(events) == 1:
            slot = boundary.setdefault(events[0][0], [0.0, flip])
        else:
            (s1, t1), (s2, t2) = events
            if (t1, s1) > (t2, s2):
                s1, t1, s2, t2 = s2, t2, s1, t1
            slot = edges.setdefault((s1, s2, t2 - t1), [0.0, flip])
        if slot[1] != flip:
            raise RuntimeError(f"faults with events {events} disagree on the logical flip")
        slot[0] += p

    for fault in faults:
        p = fault_rate[fault.rate_kind]
        if p <= 0.0:
            continue
        if fault.events_x:
            add(acc[0], fault.events_x, p, fault.flip_x)
        if fault.events_z:
            add(acc[1], fault.events_z, p, fault.flip_z)

    def classes(sums):
        out = {}
        for key in sorted(sums):
            p_sum, mask = sums[key]
            p = min(p_sum, 1.0)
            out[key] = (p, -math.log(max(p, _P_FLOOR)), mask)
        return out

    graphs = tuple(
        MatchingGraph(kind, fp.n_sites, classes(edges), classes(boundary))
        for kind, fp, (edges, boundary) in zip("xz", layout.footprints, acc)
    )
    if faults == fault_effects(layout):
        for graph in graphs:
            graph.built_for = (layout.d, rates)
    return graphs


# ---------------------------------------------------------------------------
# Frozen query path of polyest 0.2.0
# ---------------------------------------------------------------------------


def _derived_triple(channel, axis):
    hit = {axis, "y"}
    only_target = only_control = both = 0.0
    for pauli in TWO_QUBIT_PAULIS:
        c, t = pauli
        p = channel[pauli]
        if c in hit and t in hit:
            both += p
        elif c in hit:
            only_control += p
        elif t in hit:
            only_target += p
    return only_target, only_control, both


def reduce_cnot(channel):
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


def reduce(model, asymmetry_threshold=2.0):
    if not is_real(asymmetry_threshold) or not asymmetry_threshold >= 1.0:
        raise ModelError("asymmetry threshold must be >= 1")
    p0x, p0z = reduce_syndrome(model)
    p1x, p1z = reduce_data_idle(model)
    p2x, p2z, asym_x, asym_z = reduce_cnot(model.cnot)
    return ReducedRates(
        p0x=p0x, p0z=p0z, p1x=p1x, p1z=p1z, p2x=p2x, p2z=p2z,
        asym_x=asym_x, asym_z=asym_z,
        asymmetry_warning=max(asym_x, asym_z) > asymmetry_threshold,
    )


_AXIS_LADDERS = {axis: tuple(ladder_values(lo, hi)) for axis, (lo, hi) in AXES.items()}


def ladder_neighbors(value, axis):
    if axis not in AXES:
        raise DbError(f"unknown axis {axis!r}")
    if type(value) is not float:
        if not is_real(value):
            raise DbError(f"axis value must be a number, got {value!r}")
        value = float(value)
    if not math.isfinite(value) or value <= 0.0:
        raise DbError(f"axis {axis} value must be positive and finite, got {value!r}")
    values = _AXIS_LADDERS[axis]
    for v in values:
        if abs(value - v) <= SNAP_RELATIVE * v:
            return LadderBracket(v, v, False)
    if value < values[0]:
        return LadderBracket(values[0], values[0], True)
    if value > values[-1]:
        return LadderBracket(values[-1], values[-1], True)
    for k, v in enumerate(values):
        if v > value:
            return LadderBracket(values[k - 1], v, False)
    raise AssertionError("unreachable")


def _axis_corners(value, axis, warnings):
    if value == 0.0 and axis != "p2":
        value = AXES[axis][0]
        warnings.add("clamped")
    bracket = ladder_neighbors(value, axis)
    if bracket.clamped:
        warnings.add("clamped")
    if bracket.low == bracket.high:
        return [(bracket.low, 1.0)]
    t = (math.log10(value) - math.log10(bracket.low)) / (
        math.log10(bracket.high) - math.log10(bracket.low)
    )
    return [(bracket.low, 1.0 - t), (bracket.high, t)]


def fit(p3, p4, p5, p6):
    for name, v in zip(("p3", "p4", "p5", "p6"), (p3, p4, p5, p6)):
        if not is_real(v) or not math.isfinite(v) or v <= 0.0:
            raise FitRangeError(f"extrapolation requires positive finite {name}, got {v!r}")
    direct = p3, p4, p5, p6 = tuple(map(float, (p3, p4, p5, p6)))
    x = p5 / p3
    y = p6 / p4
    return ExtrapolationFit(
        direct=direct,
        x=x,
        y=y,
        coeff_odd=p3 / (x * x),
        coeff_even=p4 / (y * y),
        above_threshold=(x >= 1.0 or y >= 1.0),
    )


def interpolate(db, d, r0, r1, p2, kind="x", warnings=None):
    if d not in DISTANCES or type(d) is not int and not is_int(d):
        raise ValueError(f"interpolation is defined for d in {DISTANCES}, got {d}")
    if kind not in ("x", "z"):
        raise ValueError(f"kind must be 'x' or 'z', got {kind!r}")
    if warnings is None:
        warnings = set()
    axes = [
        _axis_corners(r0, "r0", warnings),
        _axis_corners(r1, "r1", warnings),
        _axis_corners(p2, "p2", warnings),
    ]
    corners = []
    for (v0, w0), (v1, w1), (v2, w2) in product(*axes):
        entry = db.get(d, v0, v1, v2)
        if entry is None:
            raise MissingEntryError(
                "missing database entry "
                f"(d={d}, r0={format_value(v0)}, r1={format_value(v1)}, "
                f"p2={format_value(v2)})"
            )
        if entry.low_confidence:
            warnings.add("low_confidence")
        corners.append((entry.p_xl if kind == "x" else entry.p_zl, w0 * w1 * w2))
    if len(corners) == 1:
        return corners[0][0]
    used = [(v, w) for v, w in corners if w > 0.0]
    if any(v == 0.0 for v, _ in used):
        return 0.0
    acc = sum(w * math.log10(v) for v, w in used)
    result = 10.0 ** acc
    lo = min(v for v, _ in used)
    hi = max(v for v, _ in used)
    return min(max(result, lo), hi)


class _KindQuery:
    def __init__(self, rr, kind):
        self.kind = kind
        p0 = rr.p0x if kind == "x" else rr.p0z
        p1 = rr.p1x if kind == "x" else rr.p1z
        p2 = rr.p2x if kind == "x" else rr.p2z
        if p2 == 0.0:
            if p0 > 0.0 or p1 > 0.0:
                raise UndefinedRatioError(
                    f"p2{kind.upper()} is zero while p0/p1 are not; "
                    "the database ratios r0 and r1 are undefined"
                )
            self.trivial = True
            self.r0 = self.r1 = self.p2 = 0.0
        else:
            self.trivial = False
            self.r0 = p0 / p2
            self.r1 = p1 / p2
            self.p2 = p2
        self._direct = {}
        self._fit: ExtrapolationFit | None = None

    def direct(self, db, d, warnings):
        if d not in self._direct:
            self._direct[d] = interpolate(
                db, d, self.r0, self.r1, self.p2, self.kind, warnings
            )
        return self._direct[d]

    def fitted(self, db, warnings):
        if self._fit is None:
            self._fit = fit(*(self.direct(db, dd, warnings) for dd in DISTANCES))
        return self._fit

    def at(self, db, d, warnings):
        if self.trivial:
            return 0.0
        if d <= 6:
            return self.direct(db, d, warnings)
        return _evaluate(self.fitted(db, warnings), d)


def _first_meeting(db, model, distances, target, asymmetry_threshold):
    rr = reduce(model, asymmetry_threshold=asymmetry_threshold)
    warnings = set()
    if rr.asymmetry_warning:
        warnings.add("asymmetric_cnot")
    query_x, query_z = _KindQuery(rr, "x"), _KindQuery(rr, "z")
    for d in distances:
        p_xl = query_x.at(db, d, warnings)
        p_zl = query_z.at(db, d, warnings)
        if p_xl <= target and p_zl <= target:
            return Estimate(
                d=d,
                p_xl=p_xl,
                p_zl=p_zl,
                warnings=tuple(sorted(warnings)),
                rates=rr,
                fit_x=query_x._fit,
                fit_z=query_z._fit,
            )
    return None


def estimate(db, model, d, *, asymmetry_threshold=2.0):
    distances = (check_int(ValueError, "distance", d, 3),)
    return _first_meeting(db, model, distances, math.inf, asymmetry_threshold)


def solve_distance(db, model, target, *, asymmetry_threshold=2.0):
    if not isinstance(target, float) or not 0.0 < target < 1.0:
        raise ValueError(f"target rate must be a float in (0, 1), got {target!r}")
    result = _first_meeting(
        db, model, range(3, MAX_SCAN_DISTANCE + 1), target, asymmetry_threshold
    )
    if result is None:
        raise ScanLimitError(
            f"no distance up to {MAX_SCAN_DISTANCE} reaches target {target!r}"
        )
    return result
