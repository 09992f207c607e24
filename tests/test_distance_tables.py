"""Distance tables against a copy of the per-source windowed Dijkstra search.

``WindowedDijkstra`` is the table search of polyest 0.2.0, copied verbatim
(``_adjacency``, ``_dijkstra``, ``_boundary_distances``, ``_safe_span`` and
the ``_ensure_tables`` loop): one heap search per source site on the
2T+1-row window.  A graph's tables are built once, on the window
min(safe span, cap); they must equal the search's on that window byte for
byte, and every weight a decode can use must equal the search's on a window
three times as wide.  Graphs without boundary classes use a closed form,
checked against the search on span-sized windows.
"""

import heapq
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from polyest import matcher
from polyest.matcher import MatchingGraph, build_graphs
from polyest.surface_sim import Rates, enumerate_single_faults, get_layout

_T_CAP = 4096


class WindowedDijkstra:
    """Reference pair and boundary tables for one graph's edge classes."""

    def __init__(self, graph):
        self.n_sites = graph.n_sites
        self.edges = graph.edges
        self.boundary = graph.boundary
        self.T = -1
        self.D = None
        self.DM = None
        self.B, self.BM = self._boundary_distances()
        self._t_safe = self._safe_span()

    def _adjacency(self) -> list[list[tuple[int, int, float, bool]]]:
        adj: list[list[tuple[int, int, float, bool]]] = [[] for _ in range(self.n_sites)]
        for (sa, sb, dt) in sorted(self.edges):
            _, w, m = self.edges[(sa, sb, dt)]
            adj[sa].append((sb, dt, w, m))
            adj[sb].append((sa, -dt, w, m))
        return adj

    def _dijkstra(self, adj, half: int, seeds) -> tuple[np.ndarray, np.ndarray]:
        """Shortest paths on a (2*half+1)-row window; seeds are (w, row, site, mask).

        The search keeps distances and masks in flat lists indexed
        row * n_sites + site and converts them to arrays once at the end.
        """
        n = self.n_sites
        rows = 2 * half + 1
        dist = [math.inf] * (rows * n)
        mask = [False] * (rows * n)
        heap = []
        for w, r, s, m in seeds:
            if w < dist[r * n + s]:
                dist[r * n + s] = w
                mask[r * n + s] = m
                heapq.heappush(heap, (w, r, s, m))
        while heap:
            d, r, s, m = heapq.heappop(heap)
            if d > dist[r * n + s]:
                continue
            for s2, dr, w2, m2 in adj[s]:
                r2 = r + dr
                if not 0 <= r2 < rows:
                    continue
                i2 = r2 * n + s2
                nd = d + w2
                if nd < dist[i2]:
                    dist[i2] = nd
                    mask[i2] = m ^ m2
                    heapq.heappush(heap, (nd, r2, s2, m ^ m2))
        shape = (rows, n)
        return np.array(dist).reshape(shape), np.array(mask, dtype=bool).reshape(shape)

    def _boundary_distances(self) -> tuple[np.ndarray, np.ndarray]:
        # The boundary is reachable from every round and the graph is
        # invariant under shifts in time, so a site's boundary distance is
        # its shortest path in the site graph with the time offsets dropped.
        adj = [[(s2, 0, w, m) for s2, _, w, m in row] for row in self._adjacency()]
        seeds = [(w, 0, s, m) for s, (_, w, m) in sorted(self.boundary.items())]
        dist, mask = self._dijkstra(adj, 0, seeds)
        return dist[0], mask[0]

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

    def _ensure_tables(self, t_req: int) -> None:
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


def _random_rates(rng) -> Rates:
    # Per-kind rates around a random p2: outcome flips up to 20 p2 (cheap
    # time edges), idles up to 5 p2, X and Z sides drawn independently, and
    # each rate zero with probability 1/4.
    p2 = 10.0 ** rng.uniform(-4.0, -2.0)
    scale = (20.0, 20.0, 5.0, 5.0, 1.0)
    return Rates(*(
        0.0 if rng.random() < 0.25 else float(rng.uniform(0.0, s) * p2)
        for s in scale
    ))


def _assert_same_tables(graph, ref):
    # Pair paths carry no logical flip, so the search's path masks are all
    # False and the graph keeps no table of them.
    assert graph.T == ref.T
    assert graph._t_safe == ref._t_safe
    assert not ref.DM.any()
    for name in ("D", "B", "BM"):
        ours, theirs = getattr(graph, name), getattr(ref, name)
        assert ours.dtype == theirs.dtype and ours.shape == theirs.shape, name
        assert np.ascontiguousarray(ours).tobytes() == np.ascontiguousarray(theirs).tobytes(), name


def _pair_grid(graph, span):
    """pair_distances for every (site_a, site_b, dt) with dt <= span."""
    sites = np.arange(graph.n_sites)
    return graph.pair_distances(
        sites[:, None, None], sites[None, :, None], np.arange(span + 1)[None, None, :]
    )


def _check_built_window(graph):
    ref = WindowedDijkstra(graph)
    assert graph.T == min(ref._t_safe, matcher._T_CAP)
    ref._ensure_tables(graph.T)
    _assert_same_tables(graph, ref)


def _check_usable_weights_exact(graph):
    # A decode uses a direct weight only if it is at most B[a] + B[b]; each
    # such weight on a window of 3T + 10 rounds must be the table's, and no
    # pair further apart than T may have one.
    wide = WindowedDijkstra(graph)
    wide._t_safe = None  # lifts the search's own safe-span limit on its window
    wide._ensure_tables(3 * graph.T + 10)
    W = _pair_grid(graph, wide.T)
    bsum = (graph.B[:, None] + graph.B[None, :])[:, :, None]
    usable = np.isfinite(wide.D) & (wide.D <= bsum)
    assert not usable[:, :, graph.T + 1:].any()
    assert np.isinf(W[:, :, graph.T + 1:]).all()
    assert W[usable].tobytes() == wide.D[usable].tobytes()
    assert not wide.DM.any()


def _check_closed_form(graph, spans):
    # A graph without boundary classes has no window: its pair weights must
    # equal the search's on windows as wide as the span.
    assert graph._t_safe is None
    for span in spans:
        ref = WindowedDijkstra(graph)
        ref._ensure_tables(span)
        W = _pair_grid(graph, span)
        assert W.tobytes() == ref.D.tobytes()
        assert not ref.DM.any()


def _check_graphs(layout, rates):
    for graph in build_graphs(enumerate_single_faults(layout), rates, layout):
        if graph._t_safe is None:
            _check_closed_form(graph, (layout.d, 10 * layout.d))
        else:
            _check_built_window(graph)
            _check_usable_weights_exact(graph)


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("d", [3, 4, 5, 6])
def test_tables_match_windowed_dijkstra(d, seed):
    rng = np.random.default_rng([d, seed])
    _check_graphs(get_layout(d), _random_rates(rng))


@pytest.mark.parametrize("d", [4, 6])
def test_cheap_time_edges_match_windowed_dijkstra(d):
    # Outcome flips at 20 p2 make time edges cheap, so the safe span and the
    # window are wide.
    _check_graphs(get_layout(d), Rates(0.2, 0.2, 1e-3, 1e-3, 1e-2))


def test_weightless_time_edges_cap_the_window():
    # An outcome flip of probability 1 gives a time edge of weight 0, so the
    # safe span is unbounded in practice and the window stops at the cap.
    layout = get_layout(6)
    for graph in build_graphs(enumerate_single_faults(layout), Rates(1, 1, 2e-2, 2e-2, 2e-2), layout):
        assert graph._t_safe > matcher._T_CAP
        assert graph.T == matcher._T_CAP
        _check_built_window(graph)


@pytest.mark.parametrize("d", [3, 4, 5, 6])
def test_boundaryless_tables_match_windowed_dijkstra(d):
    # Outcome flips only: every edge is a same-site time edge and no site
    # reaches a boundary, so pair weights are needed at any span.  A time
    # edge with a mask would flip the logical, which no pair class may do.
    layout = get_layout(d)
    faults = enumerate_single_faults(layout)
    for rates in (Rates(3e-3, 1e-3, 0.0, 0.0, 0.0), Rates(1.0, 1.0, 0.0, 0.0, 0.0)):
        for graph in build_graphs(faults, rates, layout):
            _check_closed_form(graph, (d, 3 * d))
            masked = {key: (p, w, key[0] % 2 == 1) for key, (p, w, _) in graph.edges.items()}
            with pytest.raises(ValueError, match="pair classes cannot flip the logical"):
                MatchingGraph(graph.kind, graph.n_sites, masked, {})


def test_edges_out_of_boundary_reach_must_be_time_lines():
    layout = get_layout(3)
    x_graph, _ = build_graphs(enumerate_single_faults(layout), Rates(*(1e-3,) * 5), layout)
    space = {key: cls for key, cls in x_graph.edges.items() if key[0] != key[1]}
    with pytest.raises(ValueError, match="same-site"):
        MatchingGraph("x", x_graph.n_sites, space, {})
    # A graph with a boundary may not hold a site cut off from it either.
    edges = {**x_graph.edges, (x_graph.n_sites, x_graph.n_sites, 1): (0.1, 2.3, False)}
    with pytest.raises(ValueError, match="same-site"):
        MatchingGraph("x", x_graph.n_sites + 1, edges, x_graph.boundary)


@pytest.mark.parametrize("args, message", [
    pytest.param("'x', 1, {(0, 0, 1): (2.0, -math.log(2.0), False)}, "
                 "{0: (0.5, math.log(2.0), False)}",
                 "x-graph edge class (0, 0, 1) has weight -0.6931471805599453, not >= 0",
                 id="negative-edge"),
    pytest.param("'x', 1, {(0, 0, 1): (0.5, math.nan, False)}, {0: (0.5, math.log(2.0), False)}",
                 "x-graph edge class (0, 0, 1) has weight nan, not >= 0", id="nan-edge"),
    pytest.param("'z', 2, {}, {0: (0.5, -1.0, False), 1: (1.0, 0.0, False)}",
                 "z-graph boundary class 0 has weight -1.0, not >= 0", id="negative-boundary"),
    pytest.param("'x', 2, {(0, 1, 2): (0.5, 1.0, False)}, {0: (0.5, 1.0, False)}",
                 "x-graph edge class (0, 1, 2) has dt 2, not 0 or 1", id="dt-2"),
    pytest.param("'x', 2, {(0, 1, -1): (0.5, 1.0, False)}, {0: (0.5, 1.0, False)}",
                 "x-graph edge class (0, 1, -1) has dt -1, not 0 or 1", id="dt-negative"),
    pytest.param("'x', 1, {}, {3: (0.5, 1.0, False)}",
                 "x-graph boundary class 3 has site 3, not an integer in 0..0",
                 id="boundary-site-out-of-range"),
    pytest.param("'z', 2, {(0, 5, 0): (0.5, 1.0, False)}, {0: (0.5, 1.0, False)}",
                 "z-graph edge class (0, 5, 0) has site 5, not an integer in 0..1",
                 id="edge-site-out-of-range"),
    pytest.param("'z', 2, {}, {0: (0.5, 1.0, False), 1.5: (0.5, 1.0, False)}",
                 "z-graph boundary class 1.5 has site 1.5, not an integer in 0..1",
                 id="boundary-site-not-integer"),
])
def test_graph_refuses_negative_and_nan_weights(args, message):
    # The table searches assume weights >= 0.  A negative edge is a negative
    # cycle of the undirected graph, on which the boundary heap search once
    # never returned; a NaN edge failed later with an unrelated error, and a
    # negative boundary weight gave B = [-1, 0].  They also assume a class
    # key's dt is 0 or 1 and its sites lie in 0..n_sites-1: an edge with dt 2
    # or -1 was once dropped from the tables without a word (dt = 2 left
    # T = 0, so its two events went to the boundary at 3.0 and not to each
    # other at 1.0), and a site out of range failed with a bare IndexError.
    # Each graph is built in a child process under a timeout, so a search
    # that never returns fails this test instead of stalling the suite.
    src = os.path.dirname(os.path.dirname(os.path.abspath(matcher.__file__)))
    code = ("import math\n"
            "from polyest.matcher import MatchingGraph\n"
            "try:\n"
            f"    MatchingGraph({args})\n"
            "except ValueError as error:\n"
            "    print(error)\n")
    try:
        out = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
                             capture_output=True, text=True, timeout=30)
    except subprocess.TimeoutExpired:
        pytest.fail(f"MatchingGraph({args}) did not return within 30 s")
    assert (out.returncode, out.stdout) == (0, f"{message}\n"), out.stderr


@pytest.mark.parametrize("d", [3, 5])
def test_bulk_masks_match_windowed_dijkstra(d):
    # The layouts' logical reference cuts run along a boundary, so no edge
    # class of a built graph carries a mask.  A graph with a cut through the
    # bulk (site potential f, every time step flipping) is rejected, as the
    # tables keep no pair masks.
    layout = get_layout(d)
    rng = np.random.default_rng(d)
    for built in build_graphs(enumerate_single_faults(layout), Rates(*(1e-3,) * 5), layout):
        f = rng.integers(0, 2, built.n_sites).astype(bool)
        edges = {
            (sa, sb, dt): (p, w, bool(f[sa] ^ f[sb] ^ (dt == 1)))
            for (sa, sb, dt), (p, w, _) in built.edges.items()
        }
        with pytest.raises(ValueError, match="pair classes cannot flip the logical"):
            MatchingGraph(built.kind, built.n_sites, edges, built.boundary)
        assert any(m for _, _, m in built.boundary.values())


def test_random_rates_cover_the_hard_cases():
    # The seeded draws above include zero rates, cheap time edges and
    # asymmetric X/Z sides; this pins that they do.  The search's own cap
    # must never bind below the package's.
    drawn = [_random_rates(np.random.default_rng([d, s])) for d in range(3, 7) for s in range(3)]
    assert any(0.0 in r for r in drawn)
    assert any(max(r.p0x, r.p0z) > 10.0 * r.p2 > 0.0 for r in drawn)
    assert any(r.p0x != r.p0z and r.p1x != r.p1z for r in drawn)
    assert matcher._T_CAP <= _T_CAP
