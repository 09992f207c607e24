import collections
import heapq
import itertools
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracle import _max_weight_matching as oracle_blossom
from _oracle import build_graphs as oracle_build_graphs
from _oracle import fault_effects
from _oracle import oracle_batch_flips, solve_matching as oracle_solve
from polyest.matcher import (
    Matching,
    MatchingError,
    MatchingGraph,
    build_graphs,
    decode_batch,
    dump_edge_classes,
    min_weight_perfect_matching,
    solve_matching,
)
from polyest import matcher, surface_sim
from polyest.error_model import ModelError
from polyest.surface_sim import (
    Layout,
    Rates,
    enumerate_single_faults,
    get_layout,
    run_monte_carlo,
)


# ---------------------------------------------------------------------------
# Reference implementation: explicit space-time graph expansion, stdlib
# Dijkstra and exhaustive enumeration of pairings.  Shares no shortest-path
# or matching code with the package.
# ---------------------------------------------------------------------------


def _expanded_adjacency(graph, n_rows, with_boundary):
    adj = {}

    def add(a, b, w):
        adj.setdefault(a, []).append((b, w))
        adj.setdefault(b, []).append((a, w))

    for (sa, sb, dt), (_, w, _mask) in graph.edges.items():
        for t in range(n_rows):
            if 0 <= t + dt < n_rows:
                add((sa, t), (sb, t + dt), w)
    if with_boundary:
        for s, (_, w, _mask) in graph.boundary.items():
            for t in range(n_rows):
                add("V", (s, t), w)
    return adj


def _dijkstra(adj, src):
    dist = {src: 0.0}
    counter = itertools.count()
    heap = [(0.0, next(counter), src)]
    while heap:
        d, _, u = heapq.heappop(heap)
        if d > dist.get(u, math.inf):
            continue
        for v, w in adj.get(u, ()):
            nd = d + w
            if nd < dist.get(v, math.inf):
                dist[v] = nd
                heapq.heappush(heap, (nd, next(counter), v))
    return dist


class OracleTables:
    """Translation-invariant pair and boundary distances for one graph."""

    def __init__(self, graph, max_dt):
        self.max_dt = max_dt
        for half in (max_dt + 16, 2 * (max_dt + 16)):
            mid = half
            n_rows = 2 * half + 1
            direct = _expanded_adjacency(graph, n_rows, with_boundary=False)
            pair = {
                s: _dijkstra(direct, (s, mid)) for s in range(graph.n_sites)
            }
            full = _expanded_adjacency(graph, n_rows, with_boundary=True)
            bdist = _dijkstra(full, "V")
            boundary = [
                bdist.get((s, mid), math.inf) for s in range(graph.n_sites)
            ]
            probe = (
                [
                    pair[s].get((s2, mid + dt), math.inf)
                    for s in pair
                    for s2 in range(len(boundary))
                    for dt in range(-max_dt, max_dt + 1)
                ],
                boundary,
            )
            if hasattr(self, "_probe") and probe == self._probe:
                break
            self._probe = probe
            self._pair, self._boundary, self._mid = pair, boundary, mid
        else:
            raise AssertionError("oracle distances did not stabilize")

    def pair_weight(self, a, b):
        (sa, ta), (sb, tb) = a, b
        assert abs(tb - ta) <= self.max_dt
        return self._pair[sa].get((sb, self._mid + tb - ta), math.inf)

    def boundary_weight(self, a):
        return self._boundary[a[0]]


def _structures(indices, W, B):
    # every way to split the events into boundary legs and disjoint pairs
    if not indices:
        yield ()
        return
    i, rest = indices[0], indices[1:]
    if math.isfinite(B[i]):
        for tail in _structures(rest, W, B):
            yield (B[i],) + tail
    for k, j in enumerate(rest):
        if math.isfinite(W[i][j]):
            rem = rest[:k] + rest[k + 1 :]
            for tail in _structures(rem, W, B):
                yield (W[i][j],) + tail


def brute_force_total(events, tables):
    n = len(events)
    W = [[tables.pair_weight(events[i], events[j]) for j in range(n)] for i in range(n)]
    B = [tables.boundary_weight(e) for e in events]
    best = None
    for chosen in _structures(tuple(range(n)), W, B):
        total = math.fsum(sorted(chosen))
        if best is None or total < best:
            best = total
    return best


# ---------------------------------------------------------------------------
# Graph construction
# ---------------------------------------------------------------------------


def _graphs(rates):
    layout = get_layout(3)
    return build_graphs(enumerate_single_faults(layout), rates, layout)


def test_flip_only_graph_has_only_vertical_edges():
    graph_x, graph_z = _graphs(Rates(0.01, 0.02, 0, 0, 0))
    assert set(graph_x.edges) == {(s, s, 1) for s in range(graph_x.n_sites)}
    assert graph_x.boundary == {}
    for _, (p, w, mask) in graph_x.edges.items():
        assert p == 0.01
        assert w == -math.log(0.01)
        assert mask is False
    assert all(p == 0.02 for p, _, _ in graph_z.edges.values())

    m = min_weight_perfect_matching(graph_x, [(3, 1), (3, 2)])
    assert m == Matching((((3, 1), (3, 2)),), -math.log(0.01), False)

    # without boundary edges a lone event cannot be decoded
    with pytest.raises(MatchingError):
        min_weight_perfect_matching(graph_x, [(3, 1)])
    with pytest.raises(MatchingError):
        min_weight_perfect_matching(graph_x, [(0, 0), (1, 5)])


def test_zero_rates_give_empty_graphs():
    graph_x, graph_z = _graphs(Rates(0, 0, 0, 0, 0))
    for g in (graph_x, graph_z):
        assert g.edges == {} and g.boundary == {}
        assert min_weight_perfect_matching(g, []) == Matching((), 0.0, False)
        with pytest.raises(MatchingError):
            min_weight_perfect_matching(g, [(0, 0)])


def test_event_validation():
    graph_x, _ = _graphs(Rates(1e-3, 1e-3, 1e-3, 1e-3, 1e-2))
    with pytest.raises(MatchingError):
        min_weight_perfect_matching(graph_x, [(graph_x.n_sites, 0)])
    with pytest.raises(MatchingError):
        min_weight_perfect_matching(graph_x, [(-1, 0)])
    with pytest.raises(MatchingError):
        min_weight_perfect_matching(graph_x, [(0, -1)])
    with pytest.raises(MatchingError):
        min_weight_perfect_matching(graph_x, [(0, 1), (0, 1)])
    # Sites and rounds must be integers (numpy integers count, bools do
    # not); a float or a bool is not truncated to a node.
    for events in ([(0.7, 0), (1, 2.9)], [(1, 2.9)], [(True, 0)], [(0, np.float64(1.0))]):
        with pytest.raises(MatchingError, match="needs an integer site"):
            min_weight_perfect_matching(graph_x, events)
    numpy_events = [(np.int64(0), np.int32(0)), (np.int64(1), np.int64(2))]
    assert (min_weight_perfect_matching(graph_x, numpy_events)
            == min_weight_perfect_matching(graph_x, [(0, 0), (1, 2)]))


def test_edge_probabilities_accumulate_across_faults():
    # the vertical class of a Z stabilizer collects the outcome flip and all
    # other faults with the same footprint, so its probability exceeds p0x
    graph_x, _ = _graphs(Rates(1e-3, 1e-3, 1e-3, 1e-3, 1e-2))
    for s in range(graph_x.n_sites):
        p, w, _ = graph_x.edges[(s, s, 1)]
        assert p > 1e-3
        assert w == -math.log(p)


@pytest.mark.parametrize("kind, rates, p", [
    ("p2", Rates(0, 0, 0, 0, 1.5e-2), 1.5e-2 / 15),
    ("idle_x", Rates(0, 0, 3e-3, 0, 0), 2 * 3e-3 / 3),
    ("idle_z", Rates(0, 0, 0, 4e-3, 0), 2 * 4e-3 / 3),
    ("flip_x", Rates(1e-3, 0, 0, 0, 0), 1e-3),
    ("flip_z", Rates(0, 2e-3, 0, 0, 0), 2e-3),
])
@pytest.mark.parametrize("d", [3, 4])
def test_single_class_graph_probabilities_sum_their_faults(d, kind, rates, p):
    # With one fault class at a nonzero rate, each graph class holds the sum,
    # in fault-table order, of that class's per-fault probability over the
    # faults of the class whose events it joins, and no other class exists.
    layout = get_layout(d)
    want = ({}, {})
    for fault in fault_effects(layout):
        if fault.rate_kind != kind:
            continue
        for sums, events in zip(want, (fault.events_x, fault.events_z)):
            if len(events) == 1:
                key = ("boundary", events[0][0])
            elif events:
                (s1, t1), (s2, t2) = sorted(events, key=lambda e: (e[1], e[0]))
                key = (s1, s2, t2 - t1)
            else:
                continue
            sums[key] = sums.get(key, 0.0) + p
    assert want[0] or want[1]
    for graph, sums in zip(build_graphs(enumerate_single_faults(layout), rates, layout), want):
        got = {key: cls[0] for key, cls in graph.edges.items()}
        got.update((("boundary", s), cls[0]) for s, cls in graph.boundary.items())
        assert got == sums


@pytest.mark.parametrize("events", [("pair", 2), ("boundary", 1)])
def test_contributors_disagreeing_on_the_logical_flip_are_rejected(events):
    # An edge or boundary class has one mask bit, so every fault feeding it
    # must flip the logical qubit alike.  In a private layout, one of two
    # idle X faults with the same X-graph events gets the other's flip
    # inverted in the footprint table that build_graphs reads.
    _, n_events = events
    layout = Layout(3)
    same_events = collections.defaultdict(list)
    for f, fault in enumerate(fault_effects(layout)):
        if fault.rate_kind == "idle_x" and len(fault.events_x) == n_events:
            same_events[fault.events_x].append(f)
    shared, (first, second, *_) = next(
        (ev, fs) for ev, fs in same_events.items() if len(fs) > 1
    )
    flips = layout.footprints[0].flip
    assert flips[first] == flips[second]
    flips[second] = not flips[first]
    if n_events == 1:
        key = shared[0][0]
    else:
        (s1, t1), (s2, t2) = shared
        key = (s1, s2, t2 - t1)
    with pytest.raises(RuntimeError, match=re.escape(f"x-graph class {key!r} disagree")):
        build_graphs(layout.footprints, Rates(0, 0, 1e-3, 1e-3, 0), layout)


# Rates of the frozen-builder comparison: zeros, ones, float32 values, and
# all-ones rates, where an outcome flip of probability 1 and the CNOT faults
# that feed the same time edge sum past 1 and the class is clamped.
_BUILD_RATES = (
    Rates(0, 0, 0, 0, 0),
    Rates(1, 1, 1, 1, 1),
    Rates(1, 0, 0, 1, 0),
    Rates(*(np.float32(3e-3),) * 5),
    Rates(np.float32(0.3), 1e-4, np.float32(1e-2), 0, 1),
) + tuple(
    Rates(*values) for values in np.random.default_rng(27).choice(
        [0, 1e-4, 3e-3, 1e-2, 0.3, 1], size=(6, 5)
    ).tolist()
)


def _exact(classes):
    """Rows of (key, [(value, type, sign)]); equal rows hold equal bits and types."""
    return [
        (key, [(v, type(v), math.copysign(1.0, v)) for v in cls]) for key, cls in classes.items()
    ]


@pytest.mark.parametrize("d", [3, 4, 5, 6])
def test_build_graphs_sums_as_the_frozen_fault_loop(d):
    # build_graphs sums the footprint arrays with array operations; the
    # frozen builder walks fault_effects(layout) one fault at a time.  Both
    # must give the same classes in the same order, float for float and
    # type for type, and so the same distance tables.
    layout = get_layout(d)
    effects = fault_effects(layout)
    for rates in _BUILD_RATES:
        got = build_graphs(layout.footprints, rates, layout)
        want = oracle_build_graphs(effects, rates, layout)
        for g, w in zip(got, want):
            assert _exact(g.edges) == _exact(w.edges), (d, rates, g.kind)
            assert _exact(g.boundary) == _exact(w.boundary), (d, rates, g.kind)
            assert all(type(k) is int for k in g.boundary)
            assert all(type(v) is int for key in g.edges for v in key)
            for table in ("B", "BM", "D"):
                a, b = getattr(g, table), getattr(w, table)
                assert a.dtype == b.dtype and a.shape == b.shape, (d, rates, table)
                assert a.tobytes() == b.tobytes(), (d, rates, table)
            assert g.built_for == w.built_for == (d, Rates(*map(float, rates)))
    ones_x, _ = build_graphs(layout.footprints, Rates(1, 1, 1, 1, 1), layout)
    assert {s: ones_x.edges[(s, s, 1)][0] for s in range(ones_x.n_sites)} == dict.fromkeys(
        range(ones_x.n_sites), 1.0)


@pytest.mark.parametrize("p2", [7, -0.5, True, math.nan])
def test_build_graphs_checks_rates_as_a_run_does(p2):
    # build_graphs once took any rate: p2 = 7 made every boundary weight
    # -0.0, -0.5 and True built graphs, and NaN failed converting to int.
    layout = get_layout(3)
    rates = Rates(1e-3, 1e-3, 1e-3, 1e-3, p2)
    with pytest.raises(ModelError) as run_error:
        run_monte_carlo(layout, rates, 1, 1, 0)
    with pytest.raises(ModelError) as build_error:
        build_graphs(layout.footprints, rates, layout)
    assert str(build_error.value) == str(run_error.value)
    assert str(build_error.value).startswith("rate p2 must ")


def test_float32_rates_build_the_graphs_of_their_floats():
    # Graphs once summed float32 fault rates in float32: at d = 3 and every
    # rate float32(3e-3), 20 of the 22 X-edge weights differed from the
    # graphs a run builds for itself, yet a run accepted them.
    layout = get_layout(3)
    f32 = Rates(*(np.float32(3e-3),) * 5)
    floats = Rates(*map(float, f32))
    for got, want in zip(build_graphs(layout.footprints, f32, layout),
                         build_graphs(layout.footprints, floats, layout)):
        assert (got.edges, got.boundary) == (want.edges, want.boundary)
        assert got.built_for == want.built_for == (3, floats)
        assert all(type(v) is float for v in got.built_for[1])


def test_dump_edge_classes_shape():
    graph_x, _ = _graphs(Rates(1e-3, 1e-3, 1e-3, 1e-3, 1e-2))
    rows = dump_edge_classes(graph_x)
    assert len(rows) == len(graph_x.edges) + len(graph_x.boundary)
    for a, b, w, mask in rows:
        assert a.startswith("x:s")
        assert b == "boundary" or b.startswith("x:s")
        assert w > 0 and mask in (0, 1)


# ---------------------------------------------------------------------------
# solve_matching on synthetic inputs
# ---------------------------------------------------------------------------


def test_solve_matching_prefers_cheap_pairs():
    inf = math.inf
    W = np.full((4, 4), inf)
    for i, j, w in ((0, 1, 3.0), (1, 2, 3.5), (2, 3, 3.0)):
        W[i, j] = W[j, i] = w
    B = np.array([5.0, 5.0, 5.0, 5.0])
    atoms, total = solve_matching(W, B)
    assert sorted(atoms) == [("pair", 0, 1), ("pair", 2, 3)]
    assert total == math.fsum([3.0, 3.0])


def test_solve_matching_odd_cluster_uses_one_boundary_leg():
    inf = math.inf
    W = np.full((3, 3), inf)
    W[0, 1] = W[1, 0] = 3.0
    W[1, 2] = W[2, 1] = 3.5
    B = np.array([4.0, 9.0, 5.0])
    atoms, total = solve_matching(W, B)
    # pairing (1, 2) and sending 0 alone beats pairing (0, 1)
    assert sorted(atoms) == [("boundary", 0), ("pair", 1, 2)]
    assert total == math.fsum(sorted([3.5, 4.0]))


def test_solve_matching_boundary_cheaper_than_bad_pair():
    W = np.full((2, 2), 30.0)
    np.fill_diagonal(W, math.inf)
    B = np.array([1.0, 2.0])
    atoms, total = solve_matching(W, B)
    assert sorted(atoms) == [("boundary", 0), ("boundary", 1)]
    assert total == math.fsum(sorted([1.0, 2.0]))


def test_solve_matching_isolated_event_without_boundary_fails():
    W = np.full((1, 1), math.inf)
    with pytest.raises(MatchingError):
        solve_matching(W, np.array([math.inf]))


def test_solve_matching_rejects_nan_weights():
    inf, nan = math.inf, math.nan
    # A NaN pair weight once read as an unusable route (two boundary legs).
    with pytest.raises(ValueError, match="NaN"):
        solve_matching([[inf, nan], [nan, inf]], [1.0, 1.0])
    with pytest.raises(ValueError, match="NaN"):
        solve_matching([[inf, 1.0], [1.0, inf]], [1.0, nan])
    with pytest.raises(ValueError, match="NaN"):
        solve_matching([[nan, 1.0], [1.0, inf]], [1.0, 1.0])


def test_solve_matching_rejects_negative_infinite_weights():
    inf = math.inf
    # A -inf pair weight once read as an unusable route: this input gave
    # ([("boundary", 0), ("pair", 1, 2)], 2.5).
    W = [[inf, -inf, inf], [-inf, inf, 1.5], [inf, 1.5, inf]]
    with pytest.raises(ValueError, match="-inf"):
        solve_matching(W, [1.0, 1.0, 1.0])
    # A -inf boundary leg once raised MatchingError: "event 1 has no usable edge".
    with pytest.raises(ValueError, match="-inf"):
        solve_matching([[inf, 1.0], [1.0, inf]], [1.0, -inf])
    with pytest.raises(ValueError, match="-inf"):
        solve_matching([[-inf, 1.0], [1.0, inf]], [1.0, 1.0])


def test_solve_matching_rejects_an_asymmetric_matrix():
    inf = math.inf
    # Once read from its upper triangle only, pairing (0, 1) at weight 1.
    with pytest.raises(ValueError, match="symmetric"):
        solve_matching([[inf, 1, 1], [3, inf, 1], [1, 1, inf]], [5.0, 5.0, 5.0])
    with pytest.raises(ValueError, match="symmetric"):
        solve_matching([[inf, inf], [2.0, inf]], [1.0, 1.0])
    # A symmetric matrix with a zero diagonal is fine: the diagonal is never read.
    atoms, total = solve_matching([[0.0, inf], [inf, 0.0]], [1.0, 2.0])
    assert atoms == [("boundary", 0), ("boundary", 1)] and total == 3.0


# ---------------------------------------------------------------------------
# Randomized instances against the reference implementation
# ---------------------------------------------------------------------------

_RATE_DRAWS = (
    Rates(2e-3, 2e-3, 2e-3, 2e-3, 8e-3),   # generic mixed noise
    Rates(1e-2, 1e-3, 0.0, 5e-3, 2e-3),    # lopsided outcome flips
    Rates(0.0, 0.0, 0.0, 0.0, 1.5e-2),     # pure two-qubit noise
    Rates(0.0, 0.0, 6e-3, 6e-3, 0.0),      # idle only, no time-like edges
    Rates(5e-2, 5e-2, 1e-2, 1e-2, 5e-2),   # heavy noise, short weights
)

_ROUNDS = 8


def _instances(seed, graph, count):
    rng = np.random.default_rng(seed)
    nodes = [(s, t) for s in range(graph.n_sites) for t in range(_ROUNDS + 1)]
    for _ in range(count):
        n = int(rng.integers(1, 11))
        picks = rng.choice(len(nodes), size=n, replace=False)
        yield [nodes[i] for i in picks]


@pytest.mark.parametrize("draw", range(len(_RATE_DRAWS)))
def test_decoder_total_weight_matches_brute_force(draw):
    rates = _RATE_DRAWS[draw]
    graphs = _graphs(rates)
    for kind, graph in zip("xz", graphs):
        if not graph.boundary:
            continue
        tables = OracleTables(graph, _ROUNDS)
        for events in _instances(1000 * draw + ord(kind), graph, 110):
            matching = min_weight_perfect_matching(graph, events)
            expected = brute_force_total(events, tables)
            assert matching.total_weight == expected, (rates, kind, events)
            decoded = [e for pair in matching.pairs for e in pair if e is not None]
            assert sorted(decoded) == sorted(events)


def test_boundary_distances_match_expanded_graph():
    # At d = 4 the centre column is equally far from both boundaries.
    for d in (3, 4):
        layout = get_layout(d)
        faults = enumerate_single_faults(layout)
        for rates in _RATE_DRAWS:
            for graph in build_graphs(faults, rates, layout):
                expected = OracleTables(graph, 0)._boundary
                assert list(graph.B) == expected, (d, rates, graph.kind)


def test_decode_does_not_depend_on_earlier_decodes():
    # Cheap time edges: at d = 3 under these rates the shortest path between
    # (1, 0) and (2, 0) leaves their round (6.791, against 8.558 inside it),
    # so two boundary legs (7.865) beat the pair only on a too-narrow table.
    # Each decode must equal the brute force on a fresh graph and again
    # after a decode of a syndrome that spans many rounds and a prepare call
    # (a no-op kept for older callers).
    rates = Rates(0.2, 0.2, 1e-3, 1e-3, 1e-2)
    syndromes = [
        [(1, 0), (2, 0)],
        [(0, 0), (3, 0)],
        [(0, 2), (1, 2), (2, 2), (3, 2)],
        [(1, 0), (2, 1)],
        [(0, 1), (2, 1), (3, 3)],
    ]
    wide = [(0, 0), (0, 8)]
    for kind in range(2):
        tables = OracleTables(_graphs(rates)[kind], 3)
        for events in syndromes:
            graph = _graphs(rates)[kind]
            first = min_weight_perfect_matching(graph, events)
            assert first.total_weight == brute_force_total(events, tables), (kind, events)
            min_weight_perfect_matching(graph, wide)
            graph.prepare(100)
            assert min_weight_perfect_matching(graph, events) == first, (kind, events)


def test_decoder_is_deterministic_across_rebuilds():
    events = [(0, 0), (3, 2), (4, 2), (5, 7)]
    results = []
    for _ in range(2):
        graph_x, _ = _graphs(Rates(2e-3, 2e-3, 2e-3, 2e-3, 8e-3))
        results.append(min_weight_perfect_matching(graph_x, events))
    assert results[0] == results[1]


# ---------------------------------------------------------------------------
# Clusters above the brute-force range against networkx's blossom
# ---------------------------------------------------------------------------


def _networkx_total(W, B):
    """Reference total: networkx on the complete event/boundary-twin graph.

    Every event pair gets an edge at min(direct, two boundary legs) and every
    twin pair a free edge; minimization maps to maximum-cardinality
    max-weight matching with weights flipped against a constant.  Returns
    None where no perfect matching exists.
    """
    nx = pytest.importorskip("networkx")
    n = len(B)
    eff = {
        (i, j): min(W[i, j], B[i] + B[j]) for i in range(n) for j in range(i + 1, n)
    }
    finite = [w for w in list(B) + list(eff.values()) if math.isfinite(w)]
    big = max(finite) + 1.0
    g = nx.Graph()
    g.add_nodes_from(("e", i) for i in range(n))
    g.add_nodes_from(("v", i) for i in range(n))
    for i in range(n):
        if math.isfinite(B[i]):
            g.add_edge(("e", i), ("v", i), weight=big - B[i])
    for (i, j), w in eff.items():
        if math.isfinite(w):
            g.add_edge(("e", i), ("e", j), weight=big - w)
        g.add_edge(("v", i), ("v", j), weight=big)
    matching = nx.max_weight_matching(g, maxcardinality=True)
    if len(matching) != n:
        return None
    chosen = []
    for (ku, a), (kv, b) in matching:
        if ku == kv == "e":
            i, j = min(a, b), max(a, b)
            chosen.extend([W[i, j]] if W[i, j] <= B[i] + B[j] else [B[i], B[j]])
        elif ku != kv:
            chosen.append(B[a if ku == "e" else b])
    return math.fsum(sorted(chosen))


def _synthetic_instance(rng, n):
    # Events in a 6x6x6 box: pair weights grow with distance, boundary
    # weights with the distance to the nearer wall.  Weights are multiples of
    # 1/2, so equal-weight optima are common; some instances cut pair routes
    # or close boundary routes (all of them, in some).
    pos = rng.integers(0, 6, size=(n, 3))
    W = (np.abs(pos[:, None, :] - pos[None, :, :]).sum(-1) + 1) * rng.choice([0.5, 1.0, 1.5])
    B = np.minimum(pos[:, 0], 5 - pos[:, 0]) + 1.0
    cut = np.triu(rng.random((n, n)) < rng.choice([0.0, 0.2]), 1)
    W[cut | cut.T] = math.inf
    np.fill_diagonal(W, math.inf)
    B[rng.random(n) < rng.choice([0.0, 0.3, 1.0])] = math.inf
    return W, B


def _largest_cluster(W, B):
    # size of the largest component under "a direct pair beats two boundary
    # legs", the relation solve_matching splits clusters by
    linked = W < B[:, None] + B[None, :]
    seen, best = set(), 0
    for start in range(len(B)):
        if start in seen:
            continue
        seen.add(start)
        stack, size = [start], 0
        while stack:
            i = stack.pop()
            size += 1
            for j in np.flatnonzero(linked[i]).tolist():
                if j not in seen:
                    seen.add(j)
                    stack.append(j)
        best = max(best, size)
    return best


def _check_cover(atoms, total, W, B):
    covered = [i for atom in atoms for i in atom[1:]]
    assert sorted(covered) == list(range(len(B)))
    chosen = [W[a[1], a[2]] if a[0] == "pair" else B[a[1]] for a in atoms]
    assert all(math.isfinite(w) for w in chosen)
    assert total == math.fsum(sorted(chosen))


def test_large_clusters_match_networkx():
    rng = np.random.default_rng(2026)
    large = infeasible = 0
    for _ in range(80):
        n = int(rng.integers(11, 61))
        W, B = _synthetic_instance(rng, n)
        large += _largest_cluster(W, B) > 10
        expected = _networkx_total(W, B)
        if expected is None:
            infeasible += 1
            with pytest.raises(MatchingError):
                solve_matching(W, B)
            continue
        atoms, total = solve_matching(W, B)
        assert total == expected, (n, W.tolist(), B.tolist())
        _check_cover(atoms, total, W, B)
    assert large >= 60 and infeasible >= 4


_WEIGHTS = st.sampled_from([0.5, 1.0, 1.5, 2.0, 3.0, math.inf])


@st.composite
def _matching_inputs(draw):
    n = draw(st.integers(3, 14))
    W = np.full((n, n), math.inf)
    for i in range(n):
        for j in range(i + 1, n):
            W[i, j] = W[j, i] = draw(_WEIGHTS)
    B = np.array([draw(_WEIGHTS) for _ in range(n)])
    return W, B, draw(st.permutations(range(n)))


def _total_or_none(W, B):
    try:
        return solve_matching(W, B)[1]
    except MatchingError:
        return None


@settings(max_examples=200, deadline=None)
@given(_matching_inputs())
def test_total_is_bounded_and_permutation_invariant(inputs):
    W, B, perm = inputs
    total = _total_or_none(W, B)
    if np.isfinite(B).all():
        assert total is not None
        assert total <= math.fsum(sorted(B))
    p = np.array(perm)
    assert _total_or_none(W[np.ix_(p, p)], B[p]) == total


# ---------------------------------------------------------------------------
# Decoding against the frozen per-row decoder of 0.2.0
#
# solve_matching and decode_batch share one core that splits all rows of a
# batch into clusters and builds their twin graphs at once, so comparing
# them with each other checks nothing independent.  _oracle holds the
# one-cluster-at-a-time decoder of 0.2.0; both hand the same blossom the
# same vertex numbers, edge order and weights, so atoms and their order,
# the total weight bit for bit, the flips and the errors must all agree.
# ---------------------------------------------------------------------------


def _outcome(fn, *args):
    # The result, or the MatchingError's text.
    try:
        return fn(*args)
    except MatchingError as err:
        return str(err)


def _same_solution(W, B):
    # Whether (W, B) decodes, after checking that it decodes (or fails)
    # exactly as the frozen decoder does.
    want, got = _outcome(oracle_solve, W, B), _outcome(solve_matching, W, B)
    if isinstance(want, str):
        assert got == want
        return False
    assert got[0] == want[0] and got[1].hex() == want[1].hex()
    return True


def test_solve_matching_equals_the_frozen_decoder():
    rng = np.random.default_rng(15)
    ties = no_route = solved = 0
    errors = set()
    for _ in range(400):
        W, B = _synthetic_instance(rng, int(rng.integers(1, 13)))
        ties += int(np.triu(np.isfinite(W) & (W == B[:, None] + B[None, :]), 1).sum())
        no_route += int((~np.isfinite(B)).sum())
        if _same_solution(W, B):
            solved += 1
        else:
            errors.add(_outcome(solve_matching, W, B).split()[0])
    assert ties > 200 and no_route > 500 and solved > 250
    assert errors == {"cluster", "event"}


def _batch_flips(graph, row, site, rnd, b):
    flips = np.zeros(b, dtype=bool)
    decode_batch(graph, row, site, rnd, flips)
    return flips


def _rows_of(row, site, rnd):
    return [list(zip(site[row == r].tolist(), rnd[row == r].tolist()))
            for r in np.unique(row).tolist()]


def _sorted_events(rows):
    # Per row a set of (site, round) events; returns the batch's event
    # arrays sorted by row, round and site.
    keys = sorted((r, t, s) for r, events in enumerate(rows) for s, t in events)
    row, rnd, site = (np.array([k[c] for k in keys], dtype=np.int64) for c in range(3))
    return row, site, rnd


def _pair_matrix(graph, events):
    # Direct weights between (site, round) events, the earlier one first.
    n = len(events)
    W = np.full((n, n), math.inf)
    for i, j in itertools.combinations(range(n), 2):
        (sa, ta), (sb, tb) = sorted((events[i], events[j]), key=lambda e: (e[1], e[0]))
        W[i, j] = W[j, i] = float(graph.pair_distances(sa, sb, tb - ta))
    return W


def _line_graph(rng, n_sites):
    # Sites on a line, boundary classes at both ends and at random inner
    # sites.  Weights are multiples of 1/2, so a pair weight equals two
    # boundary legs exactly in many syndromes; heavy time edges keep T short
    # against the round span of the syndromes.
    w = [0.5, 1.0, 1.5, 2.0, 4.0]
    edges = {(s, s + 1, 0): (0.1, float(rng.choice(w)), False) for s in range(n_sites - 1)}
    edges.update({(s, s, 1): (0.1, float(rng.choice(w[2:])), False) for s in range(n_sites)})
    if rng.random() < 0.5:
        edges.update({(s, s + 1, 1): (0.1, float(rng.choice(w)), False)
                      for s in range(n_sites - 1)})
    ends = {0, n_sites - 1} | set(rng.choice(n_sites, size=2).tolist())
    boundary = {s: (0.1, float(rng.choice(w[:3])), bool(rng.random() < 0.5)) for s in ends}
    return MatchingGraph("x", n_sites, edges, boundary)


@pytest.fixture()
def certified(monkeypatch):
    """Counts of the clusters of three or more events that decode_batch sees.

    "settled": its flip settled without the blossom; "handed": sent to the
    blossom; "tied": sent to the blossom although the certificate looked at
    it (all legs finite, at most _SETTLE_MAX events), as its two parities
    came within the margin.
    """
    counts = collections.Counter()
    raw = matcher._settle_flips

    def spy(root, size, B, BM, a, b, W):
        settled, odd = raw(root, size, B, BM, a, b, W)
        n = B.size
        roots = (root == np.arange(n)) & (size >= 3)
        finite = np.bincount(root, weights=~np.isfinite(B), minlength=n) == 0
        handed = roots & ~settled
        counts["settled"] += int((roots & settled).sum())
        counts["handed"] += int(handed.sum())
        counts["tied"] += int((handed & finite & (size <= matcher._SETTLE_MAX)).sum())
        return settled, odd

    monkeypatch.setattr(matcher, "_settle_flips", spy)
    return counts


def test_batch_decode_equals_per_row_decode_on_synthetic_graphs(certified):
    rng = np.random.default_rng(14)
    ties = far = hard = easy = 0
    for _ in range(40):
        graph = _line_graph(rng, int(rng.integers(3, 8)))
        nodes = [(s, t) for s in range(graph.n_sites) for t in range(12)]
        rows = [{nodes[i] for i in rng.choice(len(nodes), size=int(rng.integers(0, 8)),
                                              replace=False).tolist()} for _ in range(24)]
        row, site, rnd = _sorted_events(rows)
        assert (_batch_flips(graph, row, site, rnd, 24)
                == oracle_batch_flips(graph, row, site, rnd, 24)).all()
        for events in _rows_of(row, site, rnd):
            W, B = _pair_matrix(graph, events), graph.B[[s for s, _ in events]]
            assert _same_solution(W, B)
            bsum = B[:, None] + B[None, :]
            ties += int(np.triu(np.isfinite(W) & (W == bsum)).sum())
            far += sum(abs(ta - tb) > graph.T for (_, ta), (_, tb)
                       in itertools.combinations(events, 2))
            large = _largest_cluster(W, B) > 2
            hard += large
            easy += not large
    assert ties > 100 and far > 100 and hard > 50 and easy > 100
    # Both of the certificate's outcomes occur, ties among them.
    assert certified["settled"] > 50 and certified["tied"] > 0


def test_batch_decode_on_a_graph_without_boundary():
    # Outcome flips only: every boundary weight is infinite and events pair
    # along their site's time line, at any span.
    graph_x, _ = _graphs(Rates(0.01, 0.02, 0, 0, 0))
    assert not graph_x.boundary and not np.isfinite(graph_x.B).any()
    rows = [set(), {(2, 0), (2, 9)}, {(1, 3), (1, 4), (1, 80), (1, 200)}, {(0, 1), (0, 2)}]
    row, site, rnd = _sorted_events(rows)
    assert not _batch_flips(graph_x, row, site, rnd, 4).any()
    assert not oracle_batch_flips(graph_x, row, site, rnd, 4).any()
    # A batch with no events, and one whose rows hold one event each, which
    # has no pairs: the lone events have no route, as per row.
    empty = np.zeros(0, dtype=np.int64)
    assert not _batch_flips(graph_x, empty, empty, empty, 3).any()
    row, site, rnd = _sorted_events([set(), {(4, 2)}, {(1, 0)}])
    with pytest.raises(MatchingError) as per_row:
        oracle_batch_flips(graph_x, row, site, rnd, 3)
    with pytest.raises(MatchingError) as batch:
        _batch_flips(graph_x, row, site, rnd, 3)
    assert str(batch.value) == str(per_row.value)


def test_batch_decode_raises_the_per_row_error_for_a_lone_event():
    # Site 3 has no edge and no boundary class: an event there has no route.
    line = _line_graph(np.random.default_rng(5), 3)
    graph = MatchingGraph("x", 4, line.edges, line.boundary)
    assert not math.isfinite(graph.B[3])
    rows = [{(0, 0), (1, 0)}, {(0, 1)}, {(0, 0), (3, 2), (2, 5)}, {(3, 0)}]
    row, site, rnd = _sorted_events(rows)
    with pytest.raises(MatchingError) as per_row:
        oracle_batch_flips(graph, row, site, rnd, 4)
    with pytest.raises(MatchingError) as batch:
        _batch_flips(graph, row, site, rnd, 4)
    assert str(batch.value) == str(per_row.value) == (
        "event 1 has no usable edge to any partner or boundary")


def test_batch_decode_validates_events():
    graph_x, _ = _graphs(Rates(1e-3, 1e-3, 1e-3, 1e-3, 1e-2))
    n = graph_x.n_sites
    ok = (np.array([0, 0, 1]), np.array([1, 0, 2]), np.array([0, 1, 1]))
    assert _batch_flips(graph_x, *ok, 2).shape == (2,)
    for row, site, rnd in (
        ([0], [n], [0]), ([0], [-1], [0]), ([0], [0], [-1]), ([2], [0], [0]),
        ([0, 0], [1, 1], [3, 3]),          # a repeated event
        ([0, 0], [1, 0], [2, 2]),          # sites out of order in a round
        ([0, 0], [0, 0], [3, 2]),          # rounds out of order
        ([1, 0], [0, 0], [0, 0]),          # rows out of order
    ):
        with pytest.raises(MatchingError):
            _batch_flips(graph_x, np.array(row), np.array(site), np.array(rnd), 2)
    for bad in (np.array([0.0, 0.0, 1.0]), np.array([True, False, True]), np.array([0, 0]),
                np.array([1, 0, 2], dtype=np.uint64)):
        with pytest.raises(MatchingError, match="integer"):
            _batch_flips(graph_x, ok[0], bad, ok[2], 2)


@pytest.mark.parametrize("d, rates, rounds, min_easy", [
    # d=4 at p2=2e-4, r0=2, r1=1 and d=6 at p2=1e-4, r0=0.5, r1=0.2 (low
    # noise, mostly rows of singletons and pairs), then d=5 at p=3e-3.
    (4, Rates(4e-4, 4e-4, 2e-4, 2e-4, 2e-4), 40, 0.8),
    (6, Rates(5e-5, 5e-5, 2e-5, 2e-5, 1e-4), 60, 0.8),
    (5, Rates(3e-3, 3e-3, 3e-3, 3e-3, 3e-3), 25, 0.0),
])
def test_batch_decode_equals_per_row_decode_on_simulated_batches(d, rates, rounds, min_easy,
                                                                  certified):
    layout = get_layout(d)
    graphs = build_graphs(enumerate_single_faults(layout), rates, layout)
    b = 256
    hits = surface_sim._draw_noise(d, range(b), rounds, layout, rates)
    for graph, ((row, site, rnd), _) in zip(
        graphs, surface_sim._detection_events(layout, hits, b, rounds)
    ):
        assert (_batch_flips(graph, row, site, rnd, b)
                == oracle_batch_flips(graph, row, site, rnd, b)).all()
        rows = _rows_of(row, site, rnd)
        hard = 0
        for events in rows:
            W, B = _pair_matrix(graph, events), graph.B[[s for s, _ in events]]
            if _largest_cluster(W, B) > 2:
                hard += 1
                assert _same_solution(W, B)
        assert len(rows) > 100 and hard > 0
        assert len(rows) - hard >= min_easy * len(rows)
    assert certified["settled"] > 0
    if d == 5:
        assert certified["handed"] > 0  # clusters larger than _SETTLE_MAX


@pytest.mark.parametrize("d, p", [(3, 1e-2), (4, 8e-3), (5, 5e-3)])
def test_decode_does_not_depend_on_the_order_events_are_listed(d, p):
    # Simulated rows of three or more events, each relisted in random
    # orders: the same Matching every time, with decode_batch's flip.
    layout = get_layout(d)
    rates = Rates(*(p,) * 5)
    graphs = build_graphs(enumerate_single_faults(layout), rates, layout)
    b, rounds = 128, 10
    hits = surface_sim._draw_noise(7, range(b), rounds, layout, rates)
    rng = np.random.default_rng(7)
    for graph, ((row, site, rnd), _) in zip(
        graphs, surface_sim._detection_events(layout, hits, b, rounds)
    ):
        flips = _batch_flips(graph, row, site, rnd, b)
        for r, events in zip(np.unique(row).tolist(), _rows_of(row, site, rnd)):
            if len(events) < 3:
                continue
            listed = min_weight_perfect_matching(graph, events)
            assert listed.correction_flip == flips[r]
            for _ in range(3):
                relisted = [events[i] for i in rng.permutation(len(events))]
                assert min_weight_perfect_matching(graph, relisted) == listed


@pytest.mark.parametrize("rows, message", [
    # Rows 1 and 2 fail, each its own way: row 1's error is raised.
    ([{(0, 1), (0, 2)}, {(1, 0), (1, 1), (1, 2)}, {(2, 0)}],
     "cluster admits no perfect matching"),
    ([{(0, 1), (0, 2)}, {(2, 4), (0, 0), (0, 3)}, {(1, 0), (1, 1), (1, 2)}],
     "event 2 has no usable edge to any partner or boundary"),
    # Both in one row: the failing cluster whose least event comes first.
    ([set(), {(0, 0), (1, 3), (1, 4), (1, 5)}],
     "event 0 has no usable edge to any partner or boundary"),
    ([set(), {(1, 0), (1, 1), (1, 2), (0, 5)}],
     "cluster admits no perfect matching"),
])
def test_batch_decode_raises_the_first_failing_rows_error(rows, message):
    # Outcome flips only: no boundary, so a lone event has no route and
    # three events on one site's time line have no perfect matching.
    graph_x, _ = _graphs(Rates(0.01, 0.02, 0, 0, 0))
    row, site, rnd = _sorted_events(rows + [{(2, 0), (2, 3)}])
    b = len(rows) + 1
    assert _outcome(oracle_batch_flips, graph_x, row, site, rnd, b) == message
    assert _outcome(_batch_flips, graph_x, row, site, rnd, b) == message


# ---------------------------------------------------------------------------
# The flip certificate against brute force
#
# decode_batch settles a cluster's flip without the blossom where the
# cheapest configurations of its two parities differ by more than a margin.
# With weights in multiples of 1/2 every sum is exact, so a settled flip
# must be the parity of every configuration of least cost.
# ---------------------------------------------------------------------------


def _cheapest_parities(W, B, BM):
    # The parities of the least-cost ways to pair some of a cluster's events
    # over finite direct weights and send the rest to the boundary.
    best, parities = math.inf, set()

    def walk(free, cost, parity):
        nonlocal best, parities
        if not free:
            if cost < best:
                best, parities = cost, {parity}
            elif cost == best:
                parities.add(parity)
            return
        e, rest = free[0], free[1:]
        walk(rest, cost + B[e], parity ^ BM[e])
        for f in rest:
            if math.isfinite(W[e, f]):
                walk([x for x in rest if x != f], cost + W[e, f], parity)

    walk(list(range(len(B))), 0.0, 0)
    return parities


def _certificate_inputs(rng, per_size):
    # per_size clusters of each size 3..8 with weights in multiples of 1/2,
    # some with one mask for all events and some with an infinite leg.
    # Three clusters share each row, their events interleaved, and the row
    # lists every pair of its events, as decode_batch does.
    clusters = []
    for k in range(3, 9):
        for _ in range(per_size):
            W = rng.choice([0.5, 1.0, 1.5, 2.0, 3.0, 4.0, math.inf], size=(k, k))
            W = np.triu(W, 1) + np.triu(W, 1).T
            B = rng.choice([0.5, 1.0, 1.5, 2.0], size=k)
            if rng.random() < 0.1:
                B[rng.integers(k)] = math.inf
            BM = np.full(k, rng.random() < 0.5) if rng.random() < 0.2 else rng.random(k) < 0.5
            clusters.append((W, B, BM))
    order = rng.permutation(len(clusters)).tolist()
    n = sum(len(c[1]) for c in clusters)
    root, size = np.zeros(n, dtype=np.int64), np.zeros(n, dtype=np.int64)
    B, BM = np.zeros(n), np.zeros(n, dtype=bool)
    Wg, members, a, b, start = {}, {}, [], [], 0
    for r in range(0, len(order), 3):
        group = order[r:r + 3]
        owner = [c for c in group for _ in range(len(clusters[c][1]))]
        events = start + rng.permutation(len(owner))
        for c in group:
            at = events[[i for i, o in enumerate(owner) if o == c]]
            at.sort()
            members[c] = at
            Wc, Bc, Mc = clusters[c]
            root[at], size[at], B[at], BM[at] = at[0], len(at), Bc, Mc
            for i, j in itertools.combinations(range(len(at)), 2):
                Wg[int(at[i]), int(at[j])] = Wc[i, j]
        for i, j in itertools.combinations(range(start, start + len(owner)), 2):
            a.append(i)
            b.append(j)
        start += len(owner)
    a, b = np.array(a), np.array(b)
    W = np.array([Wg.get(pair, 1.0) for pair in zip(a.tolist(), b.tolist())])
    return clusters, members, (root, size, B, BM, a, b, W)


def test_settled_flips_are_the_parity_of_every_cheapest_configuration():
    rng = np.random.default_rng(23)
    # 60 clusters of 8 events take two blocks of the enumeration.
    clusters, members, args = _certificate_inputs(rng, 60)
    settled, odd = matcher._settle_flips(*args)
    root = args[0]
    outcomes = collections.Counter()
    for c, (W, B, BM) in enumerate(clusters):
        at = members[c]
        assert settled[at].all() or not settled[at].any()
        assert not odd[at[1:]].any()
        parities = _cheapest_parities(W, B, BM.astype(int))
        if not np.isfinite(B).all():
            assert not settled[at].any()
            outcomes["infinite leg"] += 1
        elif settled[at[0]]:
            assert parities == {int(odd[at[0]])}
            outcomes["settled"] += 1
        else:
            assert not odd[at[0]] and parities == {0, 1}
            outcomes["tied"] += 1
    assert root.size > 1000
    assert outcomes["settled"] > 200 and outcomes["tied"] > 20 and outcomes["infinite leg"] > 20


def test_a_cluster_with_an_infinite_leg_still_raises_the_per_row_error(certified):
    # Outcome flips only: every leg is infinite and every mask clear, so the
    # three events on one site's time line share one mask, yet they have no
    # perfect matching and must reach the blossom to raise.
    graph_x, _ = _graphs(Rates(0.01, 0.02, 0, 0, 0))
    row, site, rnd = _sorted_events([{(0, 0), (0, 1)}, {(1, 0), (1, 1), (1, 2)}])
    message = "cluster admits no perfect matching"
    assert _outcome(oracle_batch_flips, graph_x, row, site, rnd, 2) == message
    assert _outcome(_batch_flips, graph_x, row, site, rnd, 2) == message
    assert certified["settled"] == 0 and certified["handed"] == 1


# ---------------------------------------------------------------------------
# The blossom against the plain port of 0.2.0
#
# The package's _max_weight_matching skips work whose outcome is known, but
# it must make every decision that the plain port in _oracle makes, so the
# two are compared mate for mate: on every blossom input of a seeded Monte
# Carlo run, and on general graphs where ties are common.
# ---------------------------------------------------------------------------


def _blossom_args(n, edges):
    # The package blossom's arguments for a list of (i, j, weight) edges.
    endpoint = [v for i, j, _ in edges for v in (i, j)]
    w2 = [2.0 * w for _, _, w in edges]
    nb = [[] for _ in range(n)]
    for k, (i, j, _) in enumerate(edges):
        nb[i].append((j, k, w2[k]))
        nb[j].append((i, k, w2[k]))
    return n, endpoint, w2, nb


def test_blossom_mates_equal_the_plain_port_on_a_recorded_run(monkeypatch):
    # d=5, p=3e-3, 25 rounds: every blossom input of the run.  decode_batch
    # settles the flips of smaller clusters without the blossom, so these
    # are clusters of nine to a few dozen events.  The neighbour lists that
    # decode_batch builds for a whole batch must also be the ones the edges
    # give.
    calls = []
    blossom = matcher._max_weight_matching

    def record(*args):
        mates = blossom(*args)
        calls.append((args, mates))
        return mates

    monkeypatch.setattr(matcher, "_max_weight_matching", record)
    run_monte_carlo(get_layout(5), Rates(*(3e-3,) * 5), 600, 25, 5)
    assert len(calls) >= 1000
    assert max(args[0] for args, _ in calls) >= 50
    for args, mates in calls:
        n, endpoint, w2, _ = args
        # Halving a doubled weight is exact.
        edges = [(endpoint[2 * k], endpoint[2 * k + 1], w / 2) for k, w in enumerate(w2)]
        assert _blossom_args(n, edges) == args
        assert mates == oracle_blossom(n, edges)


@st.composite
def _general_graphs(draw):
    # Up to 16 vertices with small-integer weights, either endpoint first;
    # odd or sparse graphs have no perfect matching.
    n = draw(st.integers(0, 16))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=40)) if pairs else []
    edges = []
    for i, j in chosen:
        if draw(st.booleans()):
            i, j = j, i
        edges.append((i, j, float(draw(st.integers(0, 4)))))
    return n, edges


@settings(max_examples=500, deadline=None)
@given(_general_graphs())
def test_blossom_mates_equal_the_plain_port_on_general_graphs(graph):
    n, edges = graph
    assert matcher._max_weight_matching(*_blossom_args(n, edges)) == oracle_blossom(n, edges)
