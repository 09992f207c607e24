"""Minimum-weight perfect matching decoder on fault-derived detection graphs.

The space-time detection graph for one error type has nodes (site, round),
where a site is a stabilizer index of the type that detects the error: X
errors flip Z-stabilizer outcomes, Z errors flip X-stabilizer outcomes.
Every elementary fault contributes its probability to the edge class joining
the one or two detection events it produces; one-event faults feed per-site
boundary classes.  Edge classes are time-translation invariant, keyed
(site_a, site_b, dt) with the earlier event first and dt in {0, 1}, so the
graph is described by a constant-size table regardless of the round count.

Edge weights are -ln(p) of the accumulated class probability (summed over
contributing faults, clamped to at most 1).  Each class carries a mask bit,
the logical flip shared by all of its contributors (building a graph raises
RuntimeError if two contributors disagree), used to turn a matching into a
correction parity.

Decoding a syndrome:

* pairwise distances come from Dijkstra tables computed once per graph on a
  time-translation-invariant window, giving D[a][b][dt] plus path masks, and
  per-site boundary distances B[s], shortest paths to any boundary class in
  the site graph with time offsets dropped (every round reaches the boundary
  alike, so no window is needed);
* the effective pair weight is min(direct, B[a] + B[b]); pairs where no
  direct path can beat two boundary routes never need to be matched to each
  other, which splits the events into independent clusters;
* singleton clusters go to the boundary, two-event clusters pair directly,
  and larger clusters are solved exactly by blossom matching over the events
  plus one virtual boundary node per event.

The reported total weight is the exact sum (math.fsum) of the chosen pair
and boundary weights, so equal-weight solutions compare bit-identically.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .surface_sim import FaultEffect, Layout, Rates

_P_FLOOR = 1e-300
_T_CAP = 4096


class MatchingError(RuntimeError):
    """Raised when a detection-event set cannot be decoded."""


@dataclass(frozen=True)
class Matching:
    """Chosen correction: event pairs, boundary legs and their total weight.

    ``pairs`` holds ((site, round), (site, round)) tuples for matched event
    pairs and ((site, round), None) for events routed to the boundary.
    ``correction_flip`` is the parity of mask bits along all chosen paths,
    i.e. whether the correction crosses the logical reference cut an odd
    number of times.
    """

    pairs: tuple[tuple[tuple[int, int], tuple[int, int] | None], ...]
    total_weight: float
    correction_flip: bool


class MatchingGraph:
    """Edge classes and cached distance tables for one detection graph."""

    def __init__(self, kind: str, n_sites: int):
        if kind not in ("x", "z"):
            raise ValueError("graph kind must be 'x' or 'z'")
        self.kind = kind
        self.n_sites = n_sites
        self._acc: dict[tuple[int, int, int], list] = {}
        self._acc_boundary: dict[int, list] = {}
        self.edges: dict[tuple[int, int, int], tuple[float, float, bool]] = {}
        self.boundary: dict[int, tuple[float, float, bool]] = {}
        self.T = -1
        self.D: np.ndarray | None = None
        self.DM: np.ndarray | None = None
        self.B: np.ndarray | None = None
        self.BM: np.ndarray | None = None
        self._t_safe: int | None = None
        self._finalized = False

    def _add(self, events: tuple[tuple[int, int], ...], p: float, flip: bool) -> None:
        if self._finalized:
            raise RuntimeError("graph already finalized")
        if len(events) == 1:
            s, _ = events[0]
            slot = self._acc_boundary.setdefault(s, [0.0, flip])
        else:
            (s1, t1), (s2, t2) = events
            if (t1, s1) > (t2, s2):
                s1, t1, s2, t2 = s2, t2, s1, t1
            slot = self._acc.setdefault((s1, s2, t2 - t1), [0.0, flip])
        if slot[1] != flip:
            raise RuntimeError(f"faults with events {events} disagree on the logical flip")
        slot[0] += p

    def _finalize(self) -> None:
        for acc, out in ((self._acc, self.edges), (self._acc_boundary, self.boundary)):
            for key in sorted(acc):
                p_sum, mask = acc[key]
                p = min(p_sum, 1.0)
                weight = -math.log(max(p, _P_FLOOR))
                out[key] = (p, weight, mask)
        self._finalized = True

    def _adjacency(self) -> list[list[tuple[int, int, float, bool]]]:
        adj: list[list[tuple[int, int, float, bool]]] = [[] for _ in range(self.n_sites)]
        for (sa, sb, dt) in sorted(self.edges):
            _, w, m = self.edges[(sa, sb, dt)]
            adj[sa].append((sb, dt, w, m))
            adj[sb].append((sa, -dt, w, m))
        return adj

    def _dijkstra(self, adj, half: int, seeds) -> tuple[np.ndarray, np.ndarray]:
        """Shortest paths on a (2*half+1)-row window; seeds are (w, row, site, mask)."""
        rows = 2 * half + 1
        dist = np.full((rows, self.n_sites), np.inf)
        mask = np.zeros((rows, self.n_sites), dtype=bool)
        heap = []
        for w, r, s, m in seeds:
            if w < dist[r, s]:
                dist[r, s] = w
                mask[r, s] = m
                heapq.heappush(heap, (w, r, s, m))
        while heap:
            d, r, s, m = heapq.heappop(heap)
            if d > dist[r, s]:
                continue
            for s2, dr, w2, m2 in adj[s]:
                r2 = r + dr
                if not 0 <= r2 < rows:
                    continue
                nd = d + w2
                if nd < dist[r2, s2]:
                    dist[r2, s2] = nd
                    mask[r2, s2] = m ^ m2
                    heapq.heappush(heap, (nd, r2, s2, m ^ m2))
        return dist, mask

    def _compute_boundary(self) -> None:
        # The boundary is reachable from every round and the graph is
        # invariant under shifts in time, so a site's boundary distance is
        # its shortest path in the site graph with the time offsets dropped.
        adj = [[(s2, 0, w, m) for s2, _, w, m in row] for row in self._adjacency()]
        seeds = [(w, 0, s, m) for s, (_, w, m) in sorted(self.boundary.items())]
        dist, mask = self._dijkstra(adj, 0, seeds)
        self.B, self.BM = dist[0], mask[0]

    def _compute_t_safe(self) -> None:
        w1 = min((w for (_, _, dt), (_, w, _) in self.edges.items() if dt == 1), default=None)
        finite = self.B[np.isfinite(self.B)]
        if w1 is None:
            # No time-advancing edges: rounds decouple, pairs at dt > 0 can
            # only reach each other through the boundary.
            self._t_safe = 0
        elif finite.size == 0:
            self._t_safe = None  # no boundary: direct paths needed at any span
        else:
            bmax = float(finite.max())
            self._t_safe = math.ceil(2.0 * bmax / max(w1, 1e-12)) + 2

    def _ensure_tables(self, t_req: int) -> None:
        if self.B is None:
            self._compute_boundary()
            self._compute_t_safe()
        t_target = t_req if self._t_safe is None else min(t_req, self._t_safe)
        t_target = max(0, min(int(t_target), _T_CAP))
        if self.D is not None and self.T >= t_target:
            return
        adj = self._adjacency()
        half = t_target
        rows = 2 * half + 1
        n = self.n_sites
        D = np.full((n, n, t_target + 1), np.inf)
        DM = np.zeros((n, n, t_target + 1), dtype=bool)
        for src in range(n):
            dist, mask = self._dijkstra(adj, half, [(0.0, half, src, False)])
            D[src] = dist[half:half + t_target + 1].T
            DM[src] = mask[half:half + t_target + 1].T
        self.D, self.DM, self.T = D, DM, t_target

    def prepare(self, rounds: int) -> None:
        """Precompute distance tables for syndromes spanning up to ``rounds``."""
        self._ensure_tables(int(rounds))


def build_graphs(
    faults: Iterable[FaultEffect], rates: Rates, layout: Layout
) -> tuple[MatchingGraph, MatchingGraph]:
    """Aggregate single-fault footprints into the X and Z detection graphs."""
    rates = Rates(*rates)
    graph_x = MatchingGraph("x", layout.n_z)
    graph_z = MatchingGraph("z", layout.n_x)
    for fault in faults:
        p = fault.probability(rates)
        if p <= 0.0:
            continue
        if fault.events_x:
            graph_x._add(fault.events_x, p, fault.flip_x)
        if fault.events_z:
            graph_z._add(fault.events_z, p, fault.flip_z)
    graph_x._finalize()
    graph_z._finalize()
    return graph_x, graph_z


def _find(parent: list[int], i: int) -> int:
    while parent[i] != i:
        parent[i] = parent[parent[i]]
        i = parent[i]
    return i


def _blossom_cluster(members, W, B, bsum):
    """Exact minimum-weight matching of one cluster via blossom.

    Each event gets a virtual boundary twin; virtual-virtual edges are free,
    so unpaired virtuals never distort the optimum.  Minimization is mapped
    to networkx's max-weight matching by flipping weights against a constant.
    """
    import networkx as nx

    k = len(members)
    finite: list[float] = []
    for a in range(k):
        i = members[a]
        if math.isfinite(B[i]):
            finite.append(B[i])
        for b in range(a + 1, k):
            j = members[b]
            w = min(W[i, j], bsum[i, j])
            if math.isfinite(w):
                finite.append(w)
    big = max(finite) + 1.0
    g = nx.Graph()
    g.add_nodes_from(("e", a) for a in range(k))
    g.add_nodes_from(("v", a) for a in range(k))
    for a in range(k):
        i = members[a]
        if math.isfinite(B[i]):
            g.add_edge(("e", a), ("v", a), weight=big - B[i])
        for b in range(a + 1, k):
            j = members[b]
            w = min(W[i, j], bsum[i, j])
            if math.isfinite(w):
                g.add_edge(("e", a), ("e", b), weight=big - w)
        for b in range(a + 1, k):
            g.add_edge(("v", a), ("v", b), weight=big)
    matching = nx.max_weight_matching(g, maxcardinality=True)
    if len(matching) != k:
        raise MatchingError("cluster admits no perfect matching")
    atoms = []
    for u, v in sorted(matching):
        if u[0] == "v" and v[0] == "v":
            continue
        if u[0] == "e" and v[0] == "e":
            i, j = members[u[1]], members[v[1]]
            if W[i, j] <= bsum[i, j]:
                atoms.append(("pair", min(i, j), max(i, j)))
            else:
                atoms.append(("boundary", i))
                atoms.append(("boundary", j))
        else:
            a = u[1] if u[0] == "e" else v[1]
            atoms.append(("boundary", members[a]))
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
    bsum = B[:, None] + B[None, :]
    # A direct pairing can only be optimal where it beats two boundary legs,
    # so connected components under that relation decode independently.
    parent = list(range(n))
    for i, j in np.argwhere(W < bsum):
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
            atoms.extend(_blossom_cluster(members, W, B, bsum))
    chosen = [W[a[1], a[2]] if a[0] == "pair" else B[a[1]] for a in atoms]
    return atoms, math.fsum(sorted(chosen))


def min_weight_perfect_matching(
    graph: MatchingGraph, events: Sequence[tuple[int, int]]
) -> Matching:
    """Decode a set of (site, round) detection events against one graph."""
    seen = set()
    for s, t in events:
        if not 0 <= s < graph.n_sites:
            raise MatchingError(f"event site {s} outside graph with {graph.n_sites} sites")
        if t < 0:
            raise MatchingError(f"event round {t} is negative")
        if (s, t) in seen:
            raise MatchingError(f"duplicate detection event ({s}, {t})")
        seen.add((s, t))
    n = len(events)
    if n == 0:
        return Matching((), 0.0, False)
    ss = np.array([s for s, _ in events], dtype=int)
    tt = np.array([t for _, t in events], dtype=int)
    graph._ensure_tables(int(tt.max() - tt.min()) if n > 1 else 0)
    T = graph.T
    dt = tt[None, :] - tt[:, None]
    i_early = (dt > 0) | ((dt == 0) & (ss[:, None] <= ss[None, :]))
    sa = np.where(i_early, ss[:, None], ss[None, :])
    sb = np.where(i_early, ss[None, :], ss[:, None])
    adt = np.abs(dt)
    idx = np.minimum(adt, T)
    W = graph.D[sa, sb, idx]
    WM = graph.DM[sa, sb, idx]
    W = np.where(adt > T, np.inf, W)
    np.fill_diagonal(W, np.inf)
    Bv = graph.B[ss]
    BMv = graph.BM[ss]
    atoms, total = solve_matching(W, Bv)
    flip = False
    pairs = []
    for atom in atoms:
        if atom[0] == "pair":
            i, j = atom[1], atom[2]
            flip ^= bool(WM[i, j])
            pairs.append((
                (int(ss[i]), int(tt[i])), (int(ss[j]), int(tt[j])),
            ))
        else:
            i = atom[1]
            flip ^= bool(BMv[i])
            pairs.append(((int(ss[i]), int(tt[i])), None))
    return Matching(tuple(pairs), total, flip)


def apply_correction(matching: Matching, actual_flip: bool) -> bool:
    """Residual logical flip after applying the matched correction."""
    return bool(matching.correction_flip) ^ bool(actual_flip)


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
