"""Minimum-weight perfect matching decoder on fault-derived detection graphs.

The space-time detection graph for one error type has nodes (site, round),
where a site is a stabilizer index of the type that detects the error: X
errors flip Z-stabilizer outcomes, Z errors flip X-stabilizer outcomes.
Every elementary fault contributes its probability to the edge class joining
the one or two detection events it produces; one-event faults feed per-site
boundary classes; build_graphs sums them from the footprint arrays that
Monte Carlo XORs, so graphs and shots read one single-fault table.  Edge
classes are time-translation invariant, keyed (site_a, site_b, dt) with the
earlier event first and dt in {0, 1}, so the graph is described by a
constant-size table regardless of the round count.

Edge weights are -ln(p) of the accumulated class probability (summed over
contributing faults, clamped to at most 1).  Each class carries a mask bit,
the logical flip shared by all of its contributors (building a graph raises
RuntimeError if two contributors disagree).  Only boundary classes may carry
a set mask: the logical reference cuts run along a boundary, so no fault
with two events flips the logical, and a graph rejects a masked pair class.
A correction's parity is therefore the parity of the boundary masks it
uses.

Decoding a syndrome:

* every table a decode reads is built once, when the graph is built, and
  never changes after, so a decode depends on the graph and the events only.
  Pairwise distances D[a][b][dt] come from one relaxation of all source
  sites at once on a fixed window of rounds around the sources; its fixed
  point is the per-source Dijkstra result bit for bit
  (MatchingGraph._pair_tables says why, and why the window is wide enough).
  A graph without boundary classes has only same-site time edges, and its
  pair distances have a closed form instead.  Per-site boundary distances
  B[s] and their masks BM[s] come from one heap search: shortest paths to
  any boundary class in the site graph with time offsets dropped (every
  round reaches the boundary alike, so no window is needed);
* the effective pair weight is min(direct, B[a] + B[b]); a pair that does
  not beat its two boundary legs (_linked: a tie does not) never needs its
  events matched to each other, so the linked pairs split the events into
  independent clusters.  A decode reads the weight of every within-row
  pair at once and finds the clusters of all rows in one vectorized pass
  (min-label propagation), each cluster numbered after its least event;
* singleton clusters go to the boundary and two-event clusters pair
  directly (the pair beats its two boundary legs).  decode_batch needs a
  larger cluster's flip only.  Where the cluster's boundary legs are all
  finite and every cheapest way to pair its events or send them to the
  boundary gives the same flip, it settles that flip without matching
  (_settle_flips): when the events share one boundary mask, or when there
  are at most eight and the cheapest configurations of the two parities
  differ by more than a margin far above float rounding.  A tie is left
  to the blossom, so the flip is the blossom's in every case.
  The other clusters are solved exactly on a sparse twin graph: events are
  vertices 0..k-1 in ascending order and their boundary twins k..2k-1.
  An event meets its twin where its boundary weight is finite, another
  event only where the direct weight is finite and at most the two legs
  (_kept: a tie keeps the pair), and each kept pair comes with a free edge
  between the two twins.  A dominated pair is rerouted through the twins
  at the same cost, so the sparse optimum equals the complete graph's.
  Weights are flipped against one more than the cluster's largest finite
  boundary leg or min(direct, two legs), so the maximum-cardinality
  max-weight matching is the minimum-weight perfect one;
* the twin graphs of all clusters of a batch are built by whole-array
  operations: per cluster the event-twin edges by event, the kept pairs in
  (a, b) order, then their twin-twin edges, with weights from the same
  float64 subtractions.  Each cluster's blossom input is therefore exactly
  the one a build for that cluster alone gives, vertex numbers, edge
  order and weights alike, so every mate and tie-break is too;
* the matcher is an in-repo port of the O(n^3) primal-dual blossom
  algorithm (Galil's formulation, after van Rantwijk's mwmatching.py), run
  once per cluster of three or more events that solve_matching decodes or
  decode_batch does not settle.  It makes every decision of the plain
  port, which tests/_oracle.py keeps, so the mates are the same; it only
  skips work whose result is known (_max_weight_matching lists what).
  Each cluster's endpoint, doubled-weight and neighbour lists are slices
  of lists built once per batch by array operations.

The reported total weight is the exact sum (math.fsum) of the chosen pair
and boundary weights, so equal-weight solutions compare bit-identically.

Monte Carlo needs each shot's correction flip only: decode_batch gives it
for a whole batch of shots (rows) at once, as the parity of BM over the
events that go to the boundary.  solve_matching (and so
min_weight_perfect_matching, which sorts its events into the batch's
round-then-site order) runs the same core on one row, so the two cluster,
tie-break and raise alike: the first failing cluster in row order, then
event order, raises MatchingError.
"""

from __future__ import annotations

import functools
import heapq
import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .store import is_int
from .surface_sim import Layout, Rates

_P_FLOOR = 1e-300
_T_CAP = 64
# The flip certificate (_settle_flips): the largest cluster it enumerates,
# its margin relative to the blossom's weight scale, and the most
# configuration costs one block of its enumeration holds.
_SETTLE_MAX = 8
_SETTLE_MARGIN = 1e-9
_SETTLE_BLOCK = 1 << 14


class MatchingError(RuntimeError):
    """Raised when a detection-event set cannot be decoded."""


@dataclass(frozen=True)
class Matching:
    """Chosen correction: event pairs, boundary legs and their total weight.

    ``pairs`` holds ((site, round), (site, round)) tuples for matched event
    pairs and ((site, round), None) for events routed to the boundary.
    ``correction_flip`` is whether the correction crosses the logical
    reference cut an odd number of times: the parity of the boundary masks
    of the events routed to the boundary, as pair paths carry no flip.
    """

    pairs: tuple[tuple[tuple[int, int], tuple[int, int] | None], ...]
    total_weight: float
    correction_flip: bool


class MatchingGraph:
    """Edge classes and the distance tables of one detection graph.

    ``edges`` maps (site_a, site_b, dt) and ``boundary`` maps a site to the
    (probability, weight, mask) of each class.  Every site must be an
    integer in 0..n_sites-1, every dt 0 or 1, every weight >= 0 and an edge
    class's mask False (ValueError otherwise).  The boundary distances B, BM
    and the pair table D on time offsets 0..T are built here, once, and
    nothing changes them after: decoding only reads them.
    ``built_for`` is the (distance, rates) that build_graphs built the graph
    for (None for a graph built directly), which run_monte_carlo checks
    against its own.
    """

    built_for: tuple[int, Rates] | None = None

    def __init__(self, kind: str, n_sites: int, edges: dict, boundary: dict):
        if any(m for _, _, m in edges.values()):
            raise ValueError("an edge class has its mask set: pair classes cannot flip the logical")
        for name, table in (("edge", edges), ("boundary", boundary)):
            for key, (_, w, _) in table.items():
                sites, dt = (key[:2], key[2]) if name == "edge" else ((key,), 0)
                if not (is_int(dt) and dt in (0, 1)):
                    raise ValueError(f"{kind}-graph edge class {key!r} has dt {dt!r}, not 0 or 1")
                for s in sites:
                    if not (is_int(s) and 0 <= s < n_sites):
                        raise ValueError(f"{kind}-graph {name} class {key!r} has site {s!r}, "
                                         f"not an integer in 0..{n_sites - 1}")
                if not w >= 0.0:  # a NaN fails too
                    raise ValueError(
                        f"{kind}-graph {name} class {key!r} has weight {w!r}, not >= 0")
        self.kind = kind
        self.n_sites = n_sites
        self.edges: dict[tuple[int, int, int], tuple[float, float, bool]] = edges
        self.boundary: dict[int, tuple[float, float, bool]] = boundary
        self.B, self.BM = self._boundary_distances()
        # The pair tables are exact only where a boundary bounds the useful
        # paths, and the closed form of pair_distances only on bare time lines.
        if any(not math.isfinite(self.B[sa]) and (boundary or sa != sb) for sa, sb, _ in edges):
            raise ValueError("edges that reach no boundary must be same-site time edges "
                             "of a graph without boundary classes")
        self._t_safe = self._safe_span()
        # Without a boundary, T = 1 keeps each site's one time edge, which
        # pair_distances repeats.
        self.T = 1 if self._t_safe is None else min(self._t_safe, _T_CAP)
        self.D = self._pair_tables(self.T)

    def _adjacency(self) -> list[list[tuple[int, int, float]]]:
        adj: list[list[tuple[int, int, float]]] = [[] for _ in range(self.n_sites)]
        for (sa, sb, dt) in sorted(self.edges):
            w = self.edges[(sa, sb, dt)][1]
            adj[sa].append((sb, dt, w))
            adj[sb].append((sa, -dt, w))
        return adj

    def _boundary_distances(self) -> tuple[np.ndarray, np.ndarray]:
        """Per-site distance and mask to the nearest boundary class.

        The boundary is reachable from every round and the graph is
        invariant under shifts in time, so a site's boundary distance is its
        shortest path in the site graph with the time offsets dropped.  This
        stays a heap search: equally far boundaries can carry different
        masks (the centre column at d=4), and the heap's tie order picks one.
        """
        adj = self._adjacency()
        dist = [math.inf] * self.n_sites
        mask = [False] * self.n_sites
        heap = []
        for s, (_, w, m) in sorted(self.boundary.items()):
            dist[s], mask[s] = w, m
            heapq.heappush(heap, (w, s, m))
        while heap:
            d, s, m = heapq.heappop(heap)
            if d > dist[s]:
                continue
            for s2, _, w2 in adj[s]:
                nd = d + w2
                if nd < dist[s2]:
                    dist[s2] = nd
                    mask[s2] = m
                    heapq.heappush(heap, (nd, s2, m))
        return np.array(dist), np.array(mask, dtype=bool)

    def _safe_span(self) -> int | None:
        w1 = min((w for (_, _, dt), (_, w, _) in self.edges.items() if dt == 1), default=None)
        finite = self.B[np.isfinite(self.B)]
        if w1 is None:
            # No time-advancing edges: rounds decouple, pairs at dt > 0 can
            # only reach each other through the boundary.
            return 0
        if finite.size == 0:
            return None  # no boundary: direct paths needed at any span
        return math.ceil(2.0 * float(finite.max()) / max(w1, 1e-12)) + 2

    def _pair_tables(self, t: int) -> np.ndarray:
        """Pair table D on a window of 2t+1 rounds, sources in the middle.

        D[a, b, dt] is the shortest distance from (a, t) to (b, t + dt) over
        paths that stay in the window.  All sources relax at once: dist is a
        (row, site, source) array, and each in-edge slot (one in-edge per
        site, all with the same time step) gathers whole source rows, adds
        the edge weights and keeps the sums that are strictly smaller.
        Sweeps repeat until nothing improves, each one relaxing only from
        rows that changed in the previous sweep, so a path along time costs
        a row per sweep and not the whole window.

        The tables equal a per-source Dijkstra search bit for bit.  Weights
        are >= 0 and float addition is monotone, so a node's minimum over
        its paths' left-to-right sums is the one fixed point that Dijkstra
        and any relaxation order both reach.

        Pair paths carry no logical flip, so there is no mask table.  The
        constructor admits no masked edge class, as no fault with two events
        on one graph flips the logical: the layouts' reference cuts run
        along a boundary, and a fault that crosses one has its other event
        beyond that boundary.  Only boundary classes carry a flip.

        Why the window t = _safe_span() suffices: a direct weight can change
        a decode only if it is at most B[a] + B[b] <= 2 max B (ties count,
        as a twin graph keeps a tied pair); a larger one loses to the
        two boundary legs whatever its value.  (Every site with an edge
        reaches the boundary, which the constructor checks.)  A path from
        round 0 that reaches round -k or dt + k on its way to round dt uses
        at least dt + 2k time edges, each weighing at least the lightest
        one, w1.  With t * w1 >= 2 max B + 2 w1, every path that leaves the
        window, and every pair with dt > t, weighs more than 2 max B, so
        every usable weight is the exact one on the unbounded time strip.
        The window is capped at _T_CAP rounds, which takes time edges far
        lighter than the boundary legs: on the full grid only outcome flips
        of probability 1 (weight 0) reach it.  Past the cap, pairs further
        apart than _T_CAP count as unusable.
        """
        n = self.n_sites
        rows = 2 * t + 1
        # The graph is undirected, so a site's in-edges with time step dr
        # are its adjacency entries with step -dr; slot k holds each site's
        # k-th one, padded with infinite weight.
        adj = self._adjacency()
        slots = []
        for dr in sorted({e[1] for row in adj for e in row}):
            ins = [[(s, w) for s, back, w in row if back == -dr] for row in adj]
            for k in range(max(map(len, ins))):
                edge = [e[k] if k < len(e) else (0, math.inf) for e in ins]
                src, w = (np.array(col) for col in zip(*edge))
                slots.append((dr, src, w[:, None]))
        dist = np.full((rows, n, n), np.inf)
        dist[t, np.arange(n), np.arange(n)] = 0.0
        changed = np.zeros(rows, dtype=bool)
        changed[t] = True
        while changed.any():
            # Half-open runs of consecutive changed rows.
            cuts = np.flatnonzero(np.diff(changed, prepend=False, append=False)).tolist()
            runs = list(zip(cuts[::2], cuts[1::2]))
            changed[:] = False
            for dr, src, w in slots:
                for lo, hi in runs:
                    lo, hi = max(lo, -dr), min(hi, rows - dr)
                    if lo >= hi:
                        continue
                    rs, rt = slice(lo, hi), slice(lo + dr, hi + dr)
                    cand = np.take(dist[rs], src, axis=1)
                    cand += w
                    better = cand < dist[rt]
                    if better.any():
                        np.copyto(dist[rt], cand, where=better)
                        changed[rt] = True
        return np.ascontiguousarray(dist[t:].transpose(2, 1, 0))

    def pair_distances(self, sa, sb, dt) -> np.ndarray:
        """Direct weights from (sa, r) to (sb, r + dt), for dt >= 0.

        The three index arrays broadcast together.  Pairs further apart than
        T are unusable (infinite weight), except in a graph without boundary
        classes: there every edge is a same-site time edge, so the one path
        from (s, r) to (s, r + dt) is dt copies of that edge, at any span.
        Its weight is their left-to-right sum, as a search adds them.
        """
        if self._t_safe is None:
            steps = np.zeros((self.n_sites, int(np.max(dt, initial=0)) + 1))
            steps[:, 1:] = np.diagonal(self.D[:, :, 1])[:, None]
            return np.where(sa == sb, np.add.accumulate(steps, axis=1)[sa, dt], np.inf)
        return np.where(dt > self.T, np.inf, self.D[sa, sb, np.minimum(dt, self.T)])

    def prepare(self, rounds: int) -> None:
        """Build nothing; kept for callers of polyest 0.2.

        The tables are complete from construction for syndromes of any span,
        so ``rounds`` is ignored.
        """


def build_graphs(faults, rates: Rates, layout: Layout) -> tuple[MatchingGraph, MatchingGraph]:
    """Sum ``layout.footprints`` into the X and Z graphs; rates pass Rates.validate.

    ``faults`` must be ``layout.footprints`` itself (ValueError otherwise),
    the table enumerate_single_faults returns.  Each class sums its faults'
    probabilities one by one, in fault-id order.
    """
    if faults is not layout.footprints:
        raise ValueError("build_graphs takes the layout's own fault table, layout.footprints")
    rates = Rates(*rates).validate()
    # A fault's probability is its class's per-site rate over its Pauli choices.
    p = np.zeros(len(layout.by_id))
    for c in layout.classes:
        ids = c.first + c.stride * np.arange(len(c.sites))[:, None] + np.arange(len(c.paulis))
        p[ids] = c.site_rate(rates) / len(c.paulis)
    graphs = []
    for kind, fp in zip("xz", layout.footprints):
        n, count = fp.n_sites, np.diff(fp.ptr)
        used = np.flatnonzero((p > 0.0) & (count > 0))
        a, b = fp.ptr[used], fp.ptr[used + 1] - 1  # first, last event by (offset, site)
        # Class codes: (s1 * n + s2) * 2 + dt for a pair, n_pair + site for a boundary.
        n_pair = 2 * n * n
        code = np.where(a == b, n_pair + fp.site[a],
                        (fp.site[a] * n + fp.site[b]) * 2 + fp.offset[b] - fp.offset[a])
        sums = np.bincount(code, p[used], n_pair + n).tolist()
        hits = np.bincount(code, None, n_pair + n).tolist()
        flips = np.bincount(code[fp.flip[used]], None, n_pair + n).tolist()
        classes = ({}, {})  # edges, boundary
        for c in np.flatnonzero(hits).tolist():
            key = (c // (2 * n), c // 2 % n, c % 2) if c < n_pair else c - n_pair
            if 0 < flips[c] < hits[c]:
                raise RuntimeError(
                    f"faults of {kind}-graph class {key!r} disagree on the logical flip")
            prob = min(sums[c], 1.0)
            classes[c >= n_pair][key] = (prob, -math.log(max(prob, _P_FLOOR)), flips[c] > 0)
        graphs.append(MatchingGraph(kind, n, *classes))
        graphs[-1].built_for = (layout.d, rates)
    return tuple(graphs)


def _max_weight_matching(n: int, endpoint: list[int], w2: list[float],
                         nb: list[list[tuple[int, int, float]]]) -> list[int]:
    """Maximum-cardinality matching of greatest weight on vertices 0..n-1.

    A list-based port of the O(n^3) primal-dual blossom algorithm in Galil's
    formulation, after van Rantwijk's mwmatching.py, always in its
    maximum-cardinality mode.  Edge k joins endpoint[2k] and endpoint[2k+1],
    w2[k] is twice its weight, and nb[v] lists (w, k, w2[k]) for each edge k
    joining v to w, by k.  A matched vertex v holds in mate[v] the endpoint
    index p of its partner endpoint[p].  Blossoms are numbered n..2n-1.
    Vertex duals are stored doubled, so an edge's slack is
    dual[i] + dual[j] - w2[k].  Labels are 0 (free), 1 (S), 2 (T) and 5 (S,
    marked while tracing).  Returns each vertex's partner, or -1 where it
    stays single.

    Every decision is the plain port's (tests/_oracle.py keeps it): the same
    scan order, the same first least delta and the same float sums for
    slacks and duals, so the mates are the same.  What it skips is work
    whose result is known:

    * a stage starts by copying a label list with 1 at each single vertex
      and queues them all at once: a single vertex is labelled only there,
      so its labelend stays -1.  Only when a single vertex lies in a blossom
      does the stage label that blossom and queue its vertices one by one;
    * a stage lists the vertices it gives a least-slack edge and the
      top-level vertices and blossoms it labels S or T, and the delta scans
      and dual updates visit those instead of all 3n.  The first least delta
      in number order is the least (delta, number), so the lists need no
      sorting;
    * each least-slack edge keeps its slack, recomputed after a dual step,
      so a scan compares stored values instead of summing duals again;
    * each blossom keeps its list of vertices, rebuilt when its children
      rotate, instead of walking its tree, and a new blossom collects its
      least-slack edges in a dict by blossom instead of a 2n-entry list.
    """
    # Per vertex or blossom b: labelend[b] is the endpoint through which b
    # got its label; inblossom[v] is v's top-level blossom; bparent, bchilds
    # and bbase give the blossom tree, bchilds[b] running round the blossom
    # from its base with bendps[b][i] the endpoint joining child i to child
    # i+1, and leaves[b] lists b's vertices in that order; bestedge[b] is the
    # least-slack edge towards another S-blossom (or, for a free vertex, from
    # an S-vertex), bestslk[b] its slack, and bestedges[b] an S-blossom's
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
    bestslk = [0.0] * (2 * n)
    bestedges: list = [None] * (2 * n)
    leaves: list = [[v] for v in range(n)] + [None] * n
    unused = list(range(n, 2 * n))
    # max(w2) / 2 is exactly the largest weight: w2 holds doubled weights.
    dual = [max([0.0, *w2]) / 2] * n + [0.0] * n
    allowed = [False] * len(w2)
    no_edge, no_edges, none_allowed = [-1] * (2 * n), [None] * n, allowed[:]
    single = list(range(n))
    single_label = [1] * n + [0] * n
    queue: list[int] = []
    # Per stage: vertices given a least-slack edge, and the top-level
    # vertices and blossoms labelled S or T (supersets, filtered on use).
    vert_best: list[int] = []
    s_list: list[int] = []
    t_list: list[int] = []

    def label_s(w, p):
        b = inblossom[w]
        label[w] = label[b] = 1
        labelend[w] = labelend[b] = p
        bestedge[w] = bestedge[b] = -1
        queue.extend(leaves[b])
        s_list.append(b)

    def label_t(w, p):
        b = inblossom[w]
        label[w] = label[b] = 2
        labelend[w] = labelend[b] = p
        bestedge[w] = bestedge[b] = -1
        t_list.append(b)
        m = mate[bbase[b]]
        label_s(endpoint[m], m ^ 1)

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
        leaves[b] = [v for c in path for v in leaves[c]]
        label[b], labelend[b], dual[b] = 1, labelend[bb], 0.0
        s_list.append(b)
        for v in leaves[b]:
            if label[inblossom[v]] == 2:
                queue.append(v)
            inblossom[v] = b
        # Least-slack edges from the new blossom to each other S-blossom.
        bestto: dict[int, tuple[int, float]] = {}
        for bv in path:
            if bestedges[bv] is None:
                # Every edge of the sub-blossom, by vertex, then by edge.
                for i in leaves[bv]:
                    di = dual[i]
                    for j, k, wk in nb[i]:
                        bj = inblossom[j]
                        if bj != b and label[bj] == 1:
                            s = di + dual[j] - wk
                            if bj not in bestto or s < bestto[bj][1]:
                                bestto[bj] = (k, s)
            else:
                for k in bestedges[bv]:
                    i, j = endpoint[2 * k], endpoint[2 * k + 1]
                    bj = inblossom[j]
                    if bj == b:
                        bj = inblossom[i]
                    if bj != b and label[bj] == 1:
                        s = dual[i] + dual[j] - w2[k]
                        if bj not in bestto or s < bestto[bj][1]:
                            bestto[bj] = (k, s)
            bestedges[bv], bestedge[bv] = None, -1
        best, best_s, ks = -1, 0.0, []
        for bj in sorted(bestto):
            k, s = bestto[bj]
            ks.append(k)
            if best == -1 or s < best_s:
                best, best_s = k, s
        bestedges[b], bestedge[b], bestslk[b] = ks, best, best_s

    def expand_blossom(b, endstage):
        for s in bchilds[b]:
            bparent[s] = -1
            if s < n:
                inblossom[s] = s
            elif endstage and dual[s] == 0:
                expand_blossom(s, endstage)
            else:
                for v in leaves[s]:
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
                label_t(endpoint[p ^ 1], p)
                allowed[ends[j - trick] >> 1] = True
                j += jstep
                p = ends[j - trick] ^ trick
                allowed[p >> 1] = True
                j += jstep
            bv = ch[j]
            label[endpoint[p ^ 1]] = label[bv] = 2
            labelend[endpoint[p ^ 1]] = labelend[bv] = p
            bestedge[bv] = -1
            t_list.append(bv)
            j += jstep
            while ch[j] != entry:
                bv = ch[j]
                j += jstep
                if label[bv] == 1:
                    continue
                for v in leaves[bv]:
                    if label[v] != 0:
                        label[v] = 0
                        label[endpoint[mate[bbase[bv]]]] = 0
                        label_t(v, labelend[v])
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
        leaves[b] = [v for c in bchilds[b] for v in leaves[c]]

    def augment_matching(k):
        for s, p in ((endpoint[2 * k], 2 * k + 1), (endpoint[2 * k + 1], 2 * k)):
            while True:
                bs = inblossom[s]
                if labelend[bs] == -1:
                    # The root of this side's tree: its base was single.
                    single.remove(bbase[bs])
                    single_label[bbase[bs]] = 0
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

    single_in_blossom = False
    for _ in range(n):
        # One stage: grow alternating trees from every single vertex until
        # an augmenting path is found, adjusting duals when none is tight.
        label[:] = single_label
        bestedge[:] = no_edge
        bestedges[n:] = no_edges
        allowed[:] = none_allowed
        queue.clear()
        vert_best.clear()
        s_list[:] = single
        t_list.clear()
        if single_in_blossom:
            for v in single:
                b = inblossom[v]
                if b == v:
                    queue.append(v)
                else:
                    label[b], labelend[b] = 1, -1
                    queue.extend(leaves[b])
                    s_list.append(b)
        else:
            queue.extend(single)
        augmented = False
        while True:
            while queue and not augmented:
                v = queue.pop()
                bv, dv = inblossom[v], dual[v]
                for w, k, wk in nb[v]:
                    bw = inblossom[w]
                    if bv == bw:
                        continue
                    lw = label[bw]
                    if not allowed[k]:
                        kslack = dv + dual[w] - wk
                        if kslack > 0:
                            if lw == 1:
                                if bestedge[bv] == -1 or kslack < bestslk[bv]:
                                    bestedge[bv], bestslk[bv] = k, kslack
                            elif label[w] == 0:
                                if bestedge[w] == -1 or kslack < bestslk[w]:
                                    bestedge[w], bestslk[w] = k, kslack
                                    vert_best.append(w)
                            continue
                        allowed[k] = True
                    p = 2 * k if endpoint[2 * k] == w else 2 * k + 1
                    if lw == 0:
                        label_t(w, p ^ 1)
                    elif lw == 1:
                        base = scan_blossom(v, w)
                        if base >= 0:
                            add_blossom(base, k)
                            bv = inblossom[v]
                        else:
                            augment_matching(k)
                            augmented = True
                            break
                    elif label[w] == 0:
                        label[w], labelend[w] = 2, p ^ 1
            if augmented:
                break
            # The first least delta in the plain port's order (free vertices,
            # S-blossoms, T-blossoms, each by number): within a type, equal
            # deltas resolve to the lower number.
            deltatype, delta, at, by = -1, 0.0, -1, -1
            for v in vert_best:
                if bestedge[v] != -1 and label[inblossom[v]] == 0:
                    d = bestslk[v]
                    if deltatype == -1 or d < delta or (d == delta and v < by):
                        deltatype, delta, at, by = 2, d, bestedge[v], v
            for b in s_list:
                if bestedge[b] != -1 and bparent[b] == -1 and label[b] == 1:
                    d = bestslk[b] / 2
                    if (deltatype == -1 or d < delta
                            or (deltatype == 3 and d == delta and b < by)):
                        deltatype, delta, at, by = 3, d, bestedge[b], b
            for b in t_list:
                if b >= n and bparent[b] == -1 and label[b] == 2 and bbase[b] >= 0:
                    d = dual[b]
                    if (deltatype == -1 or d < delta
                            or (deltatype == 4 and d == delta and b < at)):
                        deltatype, delta, at = 4, d, b
            if deltatype == -1:
                break  # no augmenting path left: the cardinality is maximum
            for b in set(s_list):
                if bparent[b] == -1 and label[b] == 1:
                    if b >= n:
                        dual[b] += delta
                    for v in leaves[b]:
                        dual[v] -= delta
            for b in set(t_list):
                if bparent[b] == -1 and label[b] == 2 and bbase[b] >= 0:
                    if b >= n:
                        dual[b] -= delta
                    for v in leaves[b]:
                        dual[v] += delta
            for x in vert_best + s_list:
                k = bestedge[x]
                if k != -1:
                    bestslk[x] = dual[endpoint[2 * k]] + dual[endpoint[2 * k + 1]] - w2[k]
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
        if len(unused) < n:
            for b in sorted({b for b in s_list if b >= n}):
                if (bparent[b] == -1 and bbase[b] >= 0 and label[b] == 1
                        and dual[b] == 0):
                    expand_blossom(b, True)
            single_in_blossom = any(inblossom[v] != v for v in single)
        else:
            single_in_blossom = False
    return [endpoint[p] if p >= 0 else -1 for p in mate]


def _linked(w, b_a, b_b):
    """Whether a direct pair of weight ``w`` beats its events' boundary legs.

    The one rule by which decoding splits events into clusters: a pair that
    does not beat routing both of its events to the boundary (a tie does
    not) never needs matching to each other.
    """
    return w < b_a + b_b


def _kept(w, b_a, b_b):
    """Whether a pair of weight ``w`` may be matched directly in its cluster.

    The one rule for the pairs of the twin graph and of _settle_flips: a
    finite weight at most the two boundary legs (a tie keeps the pair).
    """
    return np.isfinite(w) & (w <= b_a + b_b)


def _components(n: int, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Each of n events' least event in its component under the edges (a, b).

    Min-label propagation with pointer jumping: a label only falls, always
    to an event of the same component, so at the fixed point every event
    holds its component's least event.
    """
    root = np.arange(n)
    while a.size:
        low = np.minimum(root[a], root[b])
        new = root.copy()
        np.minimum.at(new, a, low)
        np.minimum.at(new, b, low)
        new = new[new]
        if np.array_equal(new, root):
            break
        root = new
    return root


@functools.cache
def _configurations(k: int) -> np.ndarray:
    """Every way to pair some of k events and send the rest to the boundary.

    items[j, c] is configuration c's j-th term, as a column of a cluster's
    term row: its k(k-1)/2 pairs in np.triu_indices(k, 1) order, then its k
    boundary legs, then a zero term that pads every configuration to k.
    There are 4, 10, 26, 76, 232 and 764 configurations for k = 3..8; each
    size's table is built on its first use, not at import.
    """
    col = {pair: i for i, pair in enumerate(itertools.combinations(range(k), 2))}
    pad = len(col) + k
    rows = []

    def walk(free, terms):
        if not free:
            rows.append(terms + [pad] * (k - len(terms)))
            return
        e, rest = free[0], free[1:]
        walk(rest, terms + [len(col) + e])
        for f in rest:
            walk([x for x in rest if x != f], terms + [col[e, f]])

    walk(list(range(k)), [])
    items = np.array(rows).T.copy()
    items.setflags(write=False)
    return items


def _settle_flips(root, size, B, BM, a, b, W) -> tuple[np.ndarray, np.ndarray]:
    """The flips of clusters that every minimum-weight matching agrees on.

    Arguments as for _match_clusters, with root and size its clusters and
    BM each event's boundary mask.  Only clusters of three or more events
    whose boundary legs are all finite are looked at.  Each has a perfect
    twin matching (every event to its twin), and its perfect twin matchings
    are exactly its configurations: every event paired with another over a
    pair that _kept keeps, the twin graph's own rule, or sent to
    the boundary, at the cost of those pair weights and legs.  A dominated
    pair never beats its two legs, so the blossom returns a configuration
    of least cost, and the flip is the parity of BM over its boundary
    events.  The cluster's flip is settled where the cheapest configurations
    of the two parities differ by more than the margin:

    * if all of the cluster's events share one BM, every configuration has
      the parity of k BM (k minus its boundary events is even), at any k;
    * otherwise clusters of up to _SETTLE_MAX events are enumerated, all
      clusters of one size at once (_configurations), in blocks of at most
      _SETTLE_BLOCK configuration costs.  At k = 8 a cluster has 764
      configurations and its enumeration costs a fraction of a blossom
      run; past that their number (2620 at k = 9, 9496 at k = 10) soon
      costs more than the blossom.

    The margin is _SETTLE_MARGIN times k (1 + 2 max leg).  The blossom's
    weights are at most one more than twice the largest leg and its totals
    are sums of k of them, so its float rounding, and that of the sums
    here, are of order k 2**-52 times that scale: far below the margin.
    A cluster whose parities come closer is not settled, and the blossom's
    tie-breaking decides it exactly as without this certificate.

    Returns (settled, odd) per event: settled[e] where e's cluster's flip
    is settled, odd[e] at the root of each settled cluster whose flip is 1.
    """
    n = B.size
    finite = np.ones(n, dtype=bool)
    finite[root[~np.isfinite(B)]] = False
    ok = (size >= 3) & finite[root]
    ones = np.bincount(root[BM], minlength=n)[root]
    settled = ok & ((ones == 0) | (ones == size))
    odd = settled & (root == np.arange(n)) & (size % 2 == 1) & BM
    enum = ok & ~settled & (size <= _SETTLE_MAX)
    if not enum.any():
        return settled, odd
    # Each size's clusters by root, each cluster's events ascending and its
    # pairs in (a, b) order, which is np.triu_indices order: a row lists
    # every pair of its events.
    ev = np.flatnonzero(enum)
    ev = ev[np.lexsort((root[ev], size[ev]))]
    p = np.flatnonzero(enum[a] & (root[a] == root[b]))
    p = p[np.lexsort((root[a[p]], size[a[p]]))]
    pa, pb = a[p], b[p]
    kept = np.where(_kept(W[p], B[pa], B[pb]), W[p], np.inf)
    # (np.unique would import numpy.ma, a megabyte of resident memory.)
    for k in np.flatnonzero(np.bincount(size[ev])).tolist():
        items = _configurations(k)
        clusters = ev[size[ev] == k].reshape(-1, k)
        pairs = kept[size[pa] == k].reshape(len(clusters), -1)
        step = max(1, _SETTLE_BLOCK // items.shape[1])
        for lo in range(0, len(clusters), step):
            e, w = clusters[lo:lo + step], pairs[lo:lo + step]
            terms = np.concatenate((w, B[e], np.zeros((len(e), 1))), axis=1)
            # Whether each term is a boundary leg whose mask is set.
            flags = np.zeros(terms.shape, dtype=bool)
            flags[:, w.shape[1]:-1] = BM[e]
            cost, parity = np.take(terms, items[0], axis=1), np.take(flags, items[0], axis=1)
            for column in items[1:]:
                cost += np.take(terms, column, axis=1)
                parity ^= np.take(flags, column, axis=1)
            c0 = np.where(parity, np.inf, cost).min(axis=1)
            c1 = np.where(parity, cost, np.inf).min(axis=1)
            sure = np.abs(c0 - c1) > _SETTLE_MARGIN * k * (1.0 + 2.0 * B[e].max(axis=1))
            settled[e[sure]] = True
            odd[e[sure, 0]] = c1[sure] < c0[sure]
    return settled, odd


def _match_clusters(row, B, a, b, W, BM=None):
    """Decode events cluster by cluster: each event's cluster and partner.

    ``row`` gives each event's row (sorted) and ``B`` its boundary weight;
    ``a``, ``b`` and ``W`` list every pair a < b of events in one row with
    its direct weight, by a, then b.  Returns (root, mate, flip): root[e]
    is the least event of e's cluster, mate[e] the event that e pairs with,
    or -1 where e goes to the boundary.  The clusters of three or more
    events are solved on twin graphs built for all of them at once (the
    module docstring says why each equals its own per-cluster build).
    Raises MatchingError for the first failing cluster by root: a lone
    event without a boundary route, or a cluster with no perfect matching.

    Given the events' boundary masks ``BM`` (decode_batch, which needs only
    flips), a cluster whose flip _settle_flips settles gets no twin graph
    and no blossom run, and its events mate -2; flip[e] is then whether e
    adds to its row's flip: a matched event sent to the boundary with its
    mask set, or the root of a settled cluster whose flip is 1.  Without
    ``BM``, flip is None.
    """
    n = B.size
    link = _linked(W, B[a], B[b])
    la, lb = a[link], b[link]
    root = _components(n, la, lb)
    size = np.bincount(root, minlength=n)[root]
    mate = np.full(n, -1)
    two = size[la] == 2
    mate[la[two]], mate[lb[two]] = lb[two], la[two]
    stuck = np.flatnonzero((size == 1) & ~np.isfinite(B))
    first_stuck = int(stuck[0]) if stuck.size else n
    blossom = size >= 3
    if BM is not None:
        settled, odd = _settle_flips(root, size, B, BM, a, b, W)
        mate[settled] = -2
        blossom &= ~settled
    ev = np.flatnonzero(blossom)
    if ev.size:
        # Cluster c holds events ev[start[c]:start[c] + k[c]], in ascending
        # order, and clusters run in root order; local[e] is e's vertex.
        ev = ev[np.argsort(root[ev], kind="stable")]
        start = np.flatnonzero(np.diff(root[ev], prepend=-1))
        k = np.diff(start, append=ev.size)
        roots = ev[start]
        cid = np.repeat(np.arange(k.size), k)
        local = np.zeros(n, dtype=np.int64)
        local[ev] = np.arange(ev.size) - start[cid]
        # Every pair within a cluster, each cluster's in triu order.
        same = blossom[a] & (root[a] == root[b])
        pa, pb, pw = a[same], b[same], W[same]
        ps = B[pa] + B[pb]
        pc = np.searchsorted(roots, root[pa])
        # big: one more than the cluster's largest finite weight, boundary
        # leg or min(pair, two legs); weights are flipped against it.
        Be = B[ev]
        twin = np.isfinite(Be)
        big = np.full(k.size, -np.inf)
        np.maximum.at(big, cid[twin], Be[twin])
        cost = np.minimum(pw, ps)
        usable = np.isfinite(cost)
        np.maximum.at(big, pc[usable], cost[usable])
        big += 1.0
        keep = _kept(pw, B[pa], B[pb])
        tc, kc = cid[twin], pc[keep]
        tu, ku, kv = local[ev[twin]], local[pa[keep]], local[pb[keep]]
        # Per cluster: event-twin edges, kept pairs, then their twin-twin edges.
        c = np.concatenate((tc, kc, kc))
        u = np.concatenate((tu, ku, ku + k[kc]))
        v = np.concatenate((tu + k[tc], kv, kv + k[kc]))
        w = np.concatenate((big[tc] - Be[twin], big[kc] - pw[keep], big[kc]))
        order = np.argsort(3 * c + np.repeat([0, 1, 2], (tc.size, kc.size, kc.size)),
                           kind="stable")
        # Doubling a float is exact, so w2 holds the same weights.
        c, u, v, w2 = c[order], u[order], v[order], 2.0 * w[order]
        ne = np.bincount(c, minlength=k.size)
        ke = np.arange(c.size) - (np.cumsum(ne) - ne)[c]
        # Each edge at both of its ends, by vertex (cluster c's vertices
        # numbered from 2 start[c] on), then by edge.
        gv, ke = np.concatenate((u, v)) + np.tile(2 * start[c], 2), np.tile(ke, 2)
        by = np.lexsort((ke, gv))
        flat = list(zip(np.concatenate((v, u))[by].tolist(), ke[by].tolist(),
                        np.tile(w2, 2)[by].tolist()))
        voff = np.searchsorted(gv[by], np.arange(2 * ev.size + 1)).tolist()
        endpoint = np.stack((u, v), axis=1).ravel().tolist()
        w2 = w2.tolist()
        ends = np.cumsum(ne).tolist()
        mates: list[int] = []
        lo = 0
        for r, s0, kr, hi in zip(roots.tolist(), start.tolist(), k.tolist(), ends):
            if r > first_stuck:
                break  # the lone event's error comes first
            o = voff[2 * s0:2 * (s0 + kr) + 1]
            nb = [flat[o[x]:o[x + 1]] for x in range(2 * kr)]
            m = _max_weight_matching(2 * kr, endpoint[2 * lo:2 * hi], w2[lo:hi], nb)
            if -1 in m:
                raise MatchingError("cluster admits no perfect matching")
            mates += m[:kr]
            lo = hi
        m = np.array(mates, dtype=np.int64)
        at = cid[:m.size]
        to_twin = m >= k[at]
        mate[ev[:m.size]] = np.where(to_twin, -1, ev[start[at] + np.where(to_twin, 0, m)])
    if first_stuck < n:
        i = first_stuck - int(np.searchsorted(row, row[first_stuck]))
        raise MatchingError(f"event {i} has no usable edge to any partner or boundary")
    if BM is None:
        return root, mate, None
    return root, mate, odd | ((mate == -1) & BM)


def solve_matching(weights, boundary) -> tuple[list[tuple], float]:
    """Minimum-weight matching of n events given direct and boundary weights.

    ``weights`` is a symmetric (n, n) matrix of direct pair weights and
    ``boundary`` a length-n vector; math.inf marks unusable routes, and NaN,
    -inf or an asymmetric matrix raises ValueError.  Every event must end up
    paired with exactly one partner or with the boundary.  Returns (atoms,
    total): atoms are ("pair", i, j) and ("boundary", i) records, cluster by
    cluster in the order of their least events, total the exact fsum of the
    chosen weights.  This is decode_batch's core on one row.
    """
    W = np.asarray(weights, dtype=float)
    B = np.asarray(boundary, dtype=float)
    n = B.shape[0]
    if W.shape != (n, n):
        raise ValueError("weights matrix shape does not match boundary vector")
    if not ((W > -np.inf).all() and (B > -np.inf).all()):
        raise ValueError("weights and boundary must not hold NaN or -inf")
    if not np.array_equal(W, W.T):
        raise ValueError("weights matrix must be symmetric")
    if n == 0:
        return [], 0.0
    a, b = np.triu_indices(n, 1)
    root, mate, _ = _match_clusters(np.zeros(n, dtype=np.int64), B, a, b, W[a, b])
    order = np.argsort(root, kind="stable")
    atoms: list[tuple] = []
    for i, j in zip(order.tolist(), mate[order].tolist()):
        if j < 0:
            atoms.append(("boundary", i))
        elif i < j:
            atoms.append(("pair", i, j))
    chosen = [W[t[1], t[2]] if t[0] == "pair" else B[t[1]] for t in atoms]
    return atoms, math.fsum(sorted(chosen))


def min_weight_perfect_matching(
    graph: MatchingGraph, events: Sequence[tuple[int, int]]
) -> Matching:
    """Decode a set of (site, round) detection events against one graph.

    Events are decoded by round, then site, as decode_batch orders them, so
    the Matching does not depend on the order they are listed in.
    """
    seen = set()
    for s, t in events:
        if not (is_int(s) and is_int(t) and 0 <= s < graph.n_sites and t >= 0):
            raise MatchingError(f"event {(s, t)!r} needs an integer site in "
                                f"0..{graph.n_sites - 1} and an integer round >= 0")
        if (s, t) in seen:
            raise MatchingError(f"duplicate detection event ({s}, {t})")
        seen.add((s, t))
    n = len(events)
    if n == 0:
        return Matching((), 0.0, False)
    tt, ss = np.array(sorted((t, s) for s, t in events), dtype=int).T
    W = np.full((n, n), np.inf)
    a, b = np.triu_indices(n, 1)
    W[a, b] = W[b, a] = graph.pair_distances(ss[a], ss[b], tt[b] - tt[a])
    atoms, total = solve_matching(W, graph.B[ss])
    nodes = list(zip(ss.tolist(), tt.tolist()))
    pairs = tuple((nodes[t[1]], nodes[t[2]] if t[0] == "pair" else None) for t in atoms)
    legs = [t[1] for t in atoms if t[0] == "boundary"]
    return Matching(pairs, total, bool(np.count_nonzero(graph.BM[ss[legs]]) % 2))


def decode_batch(graph: MatchingGraph, row, site, rnd, actual: np.ndarray) -> None:
    """XOR the correction flip of every row of a batch into ``actual``.

    ``row``, ``site`` and ``rnd`` are integer arrays of the batch's detection
    events, sorted by row, then round, then site, with none repeated;
    ``actual`` holds one flip per row.  A row's flip is the one
    min_weight_perfect_matching gives for its events: all rows' clusters
    are decoded in one pass (see the module docstring), and the flip is the
    parity of BM over the row's events that go to the boundary.  Raises the
    MatchingError of the first row that cannot be decoded.
    """
    row, site, rnd = (np.asarray(a) for a in (row, site, rnd))
    n = row.size
    if not all(a.dtype.kind == "i" and a.shape == (n,) for a in (site, rnd, row)):
        raise MatchingError("events need signed integer row, site and round arrays of one length")
    if n == 0:
        return
    if (site.min() < 0 or site.max() >= graph.n_sites or rnd.min() < 0
            or row.min() < 0 or row.max() >= actual.size):
        raise MatchingError(f"events need sites in 0..{graph.n_sites - 1}, rounds >= 0 "
                            f"and rows in 0..{actual.size - 1}")
    dr, dt, ds = np.diff(row), np.diff(rnd), np.diff(site)
    if np.any((dr < 0) | ((dr == 0) & ((dt < 0) | ((dt == 0) & (ds <= 0))))):
        raise MatchingError("events must be sorted by row, round and site, without repeats")
    # Every pair (a, b), a < b, of events in one row: pair k of event a's
    # m[a] pairs has b = a + 1 + k, so a row's pairs are contiguous.
    end = np.searchsorted(row, row, side="right")
    m = end - np.arange(n) - 1
    first_pair = np.cumsum(m) - m
    a = np.repeat(np.arange(n), m)
    b = a + 1 + np.arange(a.size) - np.repeat(first_pair, m)
    W = graph.pair_distances(site[a], site[b], rnd[b] - rnd[a])
    _, _, flip = _match_clusters(row, graph.B[site], a, b, W, graph.BM[site])
    actual ^= np.bincount(row[flip], minlength=actual.size) % 2 == 1


def dump_edge_classes(graph: MatchingGraph) -> list[tuple[str, str, float, int]]:
    """Edge classes as (node_a, node_b, weight, mask) rows for inspection."""
    rows = []
    for (sa, sb, dt) in sorted(graph.edges):
        _, w, m = graph.edges[(sa, sb, dt)]
        rows.append((f"{graph.kind}:s{sa}:t0", f"{graph.kind}:s{sb}:t{dt}", w, int(m)))
    for s in sorted(graph.boundary):
        _, w, m = graph.boundary[s]
        rows.append((f"{graph.kind}:s{s}:t0", "boundary", w, int(m)))
    return rows
