import collections
import functools
import hashlib
import math
import os
import pickle
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from _oracle import draw_noise, fault_effects, fault_injection, footprint
from polyest import matcher, ratedb, surface_sim
from polyest.error_model import FlipChannel, ModelError
from polyest.surface_sim import (
    IDLE_STEPS,
    Layout,
    LayoutError,
    Rates,
    SimResult,
    check_run_args,
    enumerate_single_faults,
    get_layout,
    run_monte_carlo,
)


@pytest.mark.parametrize("d", [3, 4, 5])
def test_layout_counts(d):
    layout = get_layout(d)
    assert layout.n_data == 2 * d * d - 2 * d + 1
    assert layout.n_z == d * (d - 1)
    assert layout.n_x == d * (d - 1)
    assert layout.n_qubits == (2 * d - 1) ** 2
    assert all((i + j) % 2 == 0 for i, j in layout.data)
    assert all(i % 2 == 0 and j % 2 == 1 for i, j in layout.z_stabs)
    assert all(i % 2 == 1 and j % 2 == 0 for i, j in layout.x_stabs)
    assert len(layout.logical_x_support) == d
    assert len(layout.logical_z_support) == d
    assert all(i == 0 for i, _ in layout.logical_x_support)
    assert all(j == 0 for _, j in layout.logical_z_support)


@pytest.mark.parametrize("d", [3, 4])
def test_layout_neighbors_are_data_qubits(d):
    layout = get_layout(d)
    data = set(layout.data)
    for nbrs in (*layout.z_neighbors, *layout.x_neighbors):
        present = [c for c in nbrs if c is not None]
        assert 2 <= len(present) <= 4
        assert all(c in data for c in present)


@pytest.mark.parametrize("bad", [2, 1, 0, -3, 3.0, "3", True])
def test_layout_rejects_bad_distance(bad):
    with pytest.raises(LayoutError):
        Layout(bad)


def test_layout_accepts_numpy_distance():
    layout = get_layout(np.int64(3))
    assert type(layout.d) is int and layout.d == 3
    assert layout is get_layout(3)
    assert Layout(np.int32(4)).size == 7
    with pytest.raises(LayoutError, match="^code distance must be an integer >= 3, got "):
        Layout(np.int64(2))


@pytest.mark.parametrize("d", [3, 4])
def test_schedule_structure(d):
    layout = get_layout(d)
    assert IDLE_STEPS == (0, 1, 6, 7)
    for ctrl, tgt in zip(layout.cnot_ctrl, layout.cnot_tgt):
        touched = [int(q) for q in (*ctrl, *tgt)]
        assert len(touched) == len(set(touched))

    cnots = [
        (int(c), int(t))
        for ctrl, tgt in zip(layout.cnot_ctrl, layout.cnot_tgt)
        for c, t in zip(ctrl, tgt)
    ]
    assert len(cnots) == len(layout.classes[0].sites) == 4 * (d - 1) * (2 * d - 1)

    # orientation: data controls Z-stabilizer circuits, syndrome controls X
    zsyn = set(int(q) for q in layout.zsyn_ids)
    xsyn = set(int(q) for q in layout.xsyn_ids)
    for c, t in cnots:
        if t in zsyn:
            assert c < layout.n_data
        else:
            assert c in xsyn and t < layout.n_data


_FAULT_TABLE_SHA256 = {
    3: "6ad1425ae341cfb8037b808ad5cdecb90508ce61333680739eaef473cb10fddb",
    4: "06d02f71d1c48af192da7f297ed9493825f7284cdba2aa0d63645ed40249d01c",
    5: "84352ce1bc6ce5e47819bffba6da0de1ca10c75621a141e3d2491714f5888754",
    6: "5bf0d46c3eec53f8fa559968b087e81838202a4f5886b99b618d010f20cfc2de",
}


@pytest.mark.parametrize("d, make", [
    *(pytest.param(d, get_layout, id=str(d)) for d in sorted(_FAULT_TABLE_SHA256)),
    # A Layout built directly holds tables of its own, equal to the shared ones.
    *(pytest.param(d, Layout, id=f"direct-{d}") for d in sorted(_FAULT_TABLE_SHA256)),
])
def test_fault_table_is_pinned(d, make):
    # The single-fault table (sites, slot order, footprints) defines every
    # detection graph; any change to the cycle or its slot order shows here.
    # enumerate_single_faults hands out the layout's own table, which the
    # pin reads as one FaultEffect row per fault id.
    layout = make(d)
    assert enumerate_single_faults(layout) is layout.footprints
    table = repr(fault_effects(layout)).encode()
    assert hashlib.sha256(table).hexdigest() == _FAULT_TABLE_SHA256[d]


_RATE_MIXES = {
    "depol": Rates(1e-3, 1e-3, 1e-3, 1e-3, 1e-3),
    "asym": Rates(2e-3, 5e-4, 1e-3, 3e-4, 4e-3),
    "sparse": Rates(5e-5, 5e-5, 2e-5, 2e-5, 1e-4),
}
# Per (d, mix): the X graph's and the Z graph's hash.
_DISTANCE_TABLE_SHA256 = {
    (3, "depol"): (
        "7088ce66ae5820184288ba7d6e2b14ba59bdca2342ad9681a2dc2a5ed39a00d3",
        "c91d3bf9c27b300956b1658d70326e6a5a8af32d1f1df9cda8cb237054b90fe1",
    ),
    (3, "asym"): (
        "4e7e88aa8162a7f9de15714738f9522d764ef2ab063f8443d6d1e2762707bf2c",
        "2ebd0d4b81262de9bc365a01650a9df02ae6c4ec813b39124e3490fdd64ce552",
    ),
    (3, "sparse"): (
        "679fe6d23b226e4c14203069fe2226c966a2063ccf3b3e40fee3770731960172",
        "6c1e995b626c4315eb5bf99d966b734f73980fc0603d9ab09dd6df524a27e225",
    ),
    (4, "depol"): (
        "5820d061ac06ff7071437c2f0fb1aa429a60846ed60087230e9b327e64236374",
        "0b528806ea9f8ba4daea45344a8a92e27d50f86c0837b9f72fc1675a108107af",
    ),
    (4, "asym"): (
        "b61d5e7e6d97db7af3a2b154e13c63cc08a785121f779ccbbcb4a4c3f29a2792",
        "a08b92c0ca12f10fbc2af99939aba8b069c947f96053987ca8f5d2748d4aad04",
    ),
    (4, "sparse"): (
        "a6b88590564e237ddc08afdfb9b933bf26bbe68ebacb83c0f13ac0b1710a9eaf",
        "98aeb37ca626ffc81f184b71b065b220a0af69e2a3f4c3958de459399b26c65b",
    ),
    (5, "depol"): (
        "2fd2e0a995b2da46951a857b79f16fba44cd6f773c76fde8a0a7ba3100080062",
        "87396e58e41e97baf69a62b81d28275e00a5dc827fc817795f3c6c8f46ade06f",
    ),
    (5, "asym"): (
        "47d6a6626544ba766757606f400efe1d0702b848ccf482b1902210af997c2f4b",
        "6cefae2acc8d4a9e8b9510fcba1d13bf2b2631c41af30a5b127895afbab01339",
    ),
    (5, "sparse"): (
        "19b54d36b61a0507a6121aee7306389360832036f3256512516a5a07609601c5",
        "8daa679abf978e81e1ed4123257afa89f616a66a62bdf302e6f12a1b39560728",
    ),
    (6, "depol"): (
        "20543cadb887f5d4b7f498a942e8efafeab7aadbd21adff0052b6b5a738399a3",
        "8ef218c0f23fba625b5f2640b1755263f99f97c0b39eabec5568b2fb7cf93470",
    ),
    (6, "asym"): (
        "755e6d1df22866ec7f5caa36182d3b3e9869a922841775e66573832239db4aa5",
        "2333c0aab86ef3be18e5b8d677bf66d34d1ee81828c676120e5b8cb675504456",
    ),
    (6, "sparse"): (
        "8d27806cd6ab929a06b73a4baf58417c615a0df0cfc182c9c24ee4d8fea0a754",
        "9b215e63299e6ca29eb101f1a3d4b1bd1c2e2f50558ff9ebab686bea9678cbcd",
    ),
}


@pytest.mark.parametrize("d, mix", sorted(_DISTANCE_TABLE_SHA256))
def test_distance_tables_are_pinned(d, mix):
    # D, B, BM and T of each graph as built: the tables are fixed at
    # construction, so any change to the table search or its window shows here.
    # The all-False block stands where the pair-mask table was hashed before
    # pair classes lost their masks, which keeps the pins unchanged.
    layout = get_layout(d)
    graphs = matcher.build_graphs(enumerate_single_faults(layout), _RATE_MIXES[mix], layout)
    digests = []
    for graph in graphs:
        digest = hashlib.sha256()
        for table in (graph.D, np.zeros_like(graph.D, dtype=bool), graph.B, graph.BM):
            digest.update(np.ascontiguousarray(table).tobytes())
        digest.update(repr(graph.T).encode())
        digests.append(digest.hexdigest())
    assert tuple(digests) == _DISTANCE_TABLE_SHA256[(d, mix)]


@pytest.mark.parametrize("d", range(3, 9))
def test_only_one_event_faults_flip_the_logical(d):
    # The logical reference cuts run along a boundary, so on each graph a
    # fault that flips the logical has exactly one event: its edge class is
    # a boundary class.  MatchingGraph relies on this to keep no pair masks.
    faults = fault_effects(get_layout(d))
    for side in ("x", "z"):
        flips = [len(getattr(f, f"events_{side}")) for f in faults if getattr(f, f"flip_{side}")]
        assert flips and set(flips) == {1}, side


def test_fault_census_d3():
    faults = fault_effects(get_layout(3))
    assert len(faults) == 716
    by_kind = {}
    for f in faults:
        by_kind[f.kind] = by_kind.get(f.kind, 0) + 1
    assert by_kind == {"cnot": 600, "idle": 104, "flip": 12}
    for f in faults:
        for events in (f.events_x, f.events_z):
            assert len(events) <= 2
            assert all(offset in (0, 1) for _, offset in events)


def test_fault_probabilities_follow_rate_kinds():
    # A fault's probability is its class's per-site rate over the class's
    # Pauli choices: p2/15 per CNOT Pauli, 2 p1/3 per idle flip, p0 per
    # outcome flip.
    layout = get_layout(3)
    rates = Rates(p0x=1e-3, p0z=2e-3, p1x=3e-3, p1z=4e-3, p2=1.5e-2)
    expected = {
        "p2": 1.5e-2 / 15,
        "idle_x": 2 * 3e-3 / 3,
        "idle_z": 2 * 4e-3 / 3,
        "flip_x": 1e-3,
        "flip_z": 2e-3,
    }
    assert {f.rate_kind for f in fault_effects(layout)} == set(expected)
    assert [c.rate_kind for c in layout.classes] == list(expected)
    for c in layout.classes:
        p = c.site_rate(rates) / len(c.paulis)
        assert p == expected[c.rate_kind]
        assert p == _class_rates(rates)[c.rate_kind] / len(c.paulis)


@pytest.mark.parametrize("d", [3, 4, 5, 6])
def test_fault_classes_cover_the_fault_table(d):
    # The class table is the one source of fault ids and rates: its ids
    # cover the fault table exactly once, each id's class has the row's rate
    # kind, and the class's per-site rate is _class_rates's, bit for bit.
    layout = get_layout(d)
    faults = fault_effects(layout)
    rates = Rates(p0x=1e-3, p0z=2e-3, p1x=3e-3, p1z=4e-3, p2=1.5e-2)
    ids = []
    for c in layout.classes:
        q = _class_rates(rates)[c.rate_kind]
        assert c.site_rate(rates) == q
        assert c.site_rate(rates) / len(c.paulis) == q / len(c.paulis)
        for s in range(len(c.sites)):
            for k in range(len(c.paulis)):
                f = c.first + c.stride * s + k
                ids.append(f)
                assert faults[f].rate_kind == c.rate_kind
    assert sorted(ids) == list(range(len(faults)))


@pytest.mark.parametrize("d", [3, 4, 5, 6])
def test_every_single_fault_matches_scalar_oracle(d):
    layout = get_layout(d)
    for fault in fault_effects(layout):
        injections, flips = fault_injection(layout, fault)
        events_x, events_z, flip_x, flip_z = footprint(layout, injections, flips)
        got = (sorted(fault.events_x), sorted(fault.events_z), fault.flip_x, fault.flip_z)
        assert got == (events_x, events_z, flip_x, flip_z), fault


@pytest.mark.parametrize("seed", range(30))
def test_multi_fault_footprints_combine_linearly(seed):
    # Pauli frames are linear over GF(2), so a joint run must equal the XOR
    # of the single-fault footprints.
    rng = np.random.default_rng(seed)
    d = 3 if seed % 3 else 4
    layout = get_layout(d)
    faults = fault_effects(layout)
    picks = rng.choice(len(faults), size=int(rng.integers(2, 7)), replace=False)

    injections, flips = [], []
    want_x, want_z = set(), set()
    want_fx = want_fz = False
    for i in picks:
        fault = faults[i]
        inj, fl = fault_injection(layout, fault)
        injections.extend(inj)
        flips.extend(fl)
        want_x ^= set(fault.events_x)
        want_z ^= set(fault.events_z)
        want_fx ^= fault.flip_x
        want_fz ^= fault.flip_z

    events_x, events_z, flip_x, flip_z = footprint(layout, injections, flips)
    assert events_x == sorted(want_x)
    assert events_z == sorted(want_z)
    assert (flip_x, flip_z) == (want_fx, want_fz)


def _fault_by_site(faults, kind, site, pauli):
    hits = [f for f in faults if f.kind == kind and f.site == site and f.pauli == pauli]
    assert len(hits) == 1
    return hits[0]


def test_known_footprints_d3():
    layout = get_layout(3)
    faults = fault_effects(layout)
    corner = layout.data.index((0, 0))
    interior = layout.data.index((2, 2))

    # X on a corner data qubit before extraction: one adjacent Z stabilizer,
    # and the qubit sits on the logical Z reference column.
    f = _fault_by_site(faults, "idle", ("data", corner, 0), "x")
    assert f.events_x == ((layout.z_stabs.index((0, 1)), 0),)
    assert f.events_z == ()
    assert f.flip_x and not f.flip_z

    # the same error after measurement is only seen one round later
    f = _fault_by_site(faults, "idle", ("data", corner, 3), "x")
    assert f.events_x == ((layout.z_stabs.index((0, 1)), 1),)
    assert f.flip_x and not f.flip_z

    # X in the bulk: two adjacent Z stabilizers, no logical flip
    f = _fault_by_site(faults, "idle", ("data", interior, 0), "x")
    assert f.events_x == (
        (layout.z_stabs.index((2, 1)), 0),
        (layout.z_stabs.index((2, 3)), 0),
    )
    assert not f.flip_x and not f.flip_z

    # a classical outcome flip is seen now and contradicted next round
    f = _fault_by_site(faults, "flip", ("z", 4), "flip")
    assert f.events_x == ((4, 0), (4, 1))
    assert f.events_z == ()
    assert not f.flip_x and not f.flip_z


def _class_rates(rates):
    """Per-site rate of each fault class, keyed by its rate kind."""
    return {
        "p2": rates.p2,
        "idle_x": 2.0 * rates.p1x / 3.0,
        "idle_z": 2.0 * rates.p1z / 3.0,
        "flip_x": rates.p0x,
        "flip_z": rates.p0z,
    }


def _dense_zeros(layout, b, R):
    """Zeroed dense noise: per fault class, hit flags and Pauli choices.

    One (hit, pauli) pair of (b, R, sites per cycle) arrays per class of
    layout.classes, in class order.
    """
    shape = [(b, R, len(c.sites)) for c in layout.classes]
    return [(np.zeros(n, dtype=bool), np.zeros(n, dtype=np.uint8)) for n in shape]


def _dense_draw(seed, shot_indices, R, layout, rates):
    """Per-shot noise as dense arrays, one Bernoulli draw per site.

    The direct draw that _draw_noise must match in distribution: every site
    of every cycle is hit independently at its class's rate, and every site
    carries a uniform Pauli choice, read only where the site is hit.
    """
    noise = _dense_zeros(layout, len(shot_indices), R)
    for row, shot in enumerate(shot_indices):
        g = np.random.Generator(np.random.Philox(np.random.SeedSequence((seed, shot))))
        for c, (hit, pauli) in zip(layout.classes, noise):
            hit[row] = g.random(hit.shape[1:]) < _class_rates(rates)[c.rate_kind]
            pauli[row] = g.integers(0, len(c.paulis), size=hit.shape[1:])
    return noise


def _noise_from_hits(layout, hits, b, R):
    """Dense noise arrays holding the faults of _draw_noise's hits.

    Checks that every fault id lies in exactly one class's id range (site s,
    choice k of a class is id first + stride * s + k) and that no class has
    a (row, cycle, site) twice.
    """
    row, t, fid = hits
    owners = np.zeros(fid.size, dtype=int)
    noise = _dense_zeros(layout, b, R)
    for c, (hit, pauli) in zip(layout.classes, noise):
        site, k = np.divmod(fid - c.first, c.stride)
        mine = (fid >= c.first) & (site < len(c.sites)) & (k < len(c.paulis))
        owners += mine
        hit[row[mine], t[mine], site[mine]] = True
        pauli[row[mine], t[mine], site[mine]] = k[mine]
        assert hit.sum() == mine.sum(), c.rate_kind
    assert (owners == 1).all()
    return noise


_EDGE_RATES = (
    Rates(0.0, 0.0, 0.0, 0.0, 0.0),
    Rates(1.0, 1.0, 1.0, 1.0, 1.0),
    Rates(0.0, 1.0, 0.05, 0.0, 0.3),
    Rates(0.1, 0.02, 1.0, 0.2, 0.0),
)


@pytest.mark.parametrize("seed", range(16))
def test_footprint_xor_matches_frame_simulation(seed):
    # The hits must be valid fault sets (rate 0: no hits, rate 1: every
    # site, no site twice), and XORing their footprints must give the
    # detection events and logical flips of propagating frames through the
    # same faults.
    rng = np.random.default_rng(seed)
    d = (3, 4, 5)[seed % 3]
    R, b = int(rng.integers(1, 9)), int(rng.integers(1, 7))
    first = int(rng.integers(1, 10**6))
    shots = range(first, first + b)
    if seed < len(_EDGE_RATES):
        rates = _EDGE_RATES[seed]
    else:
        rates = Rates(*rng.uniform(0.0, 0.05, 5) * rng.uniform(0.0, 1.0, 5))
    layout = get_layout(d)

    hits = surface_sim._draw_noise(seed, shots, R, layout, rates)
    assert all(h.dtype == np.int64 and h.shape == hits[0].shape for h in hits)
    assert all(0 <= row < b for row in hits[0].tolist())
    assert all(0 <= t < R for t in hits[1].tolist())
    for c, (hit, _) in zip(layout.classes, _noise_from_hits(layout, hits, b, R)):
        q = _class_rates(rates)[c.rate_kind]
        if q == 0.0:
            assert not hit.any(), c.rate_kind
        if q == 1.0:
            assert hit.all(), c.rate_kind

    det_x, det_z, actual_x, actual_z = surface_sim._simulate_batch(layout, hits, b, R + 1)
    got = surface_sim._detection_events(layout, hits, b, R)
    for ((rows, sites, rnds), actual), det, want_actual in zip(
        got, (det_x, det_z), (actual_x, actual_z)
    ):
        events = {}
        for r, s, t in zip(rows.tolist(), sites.tolist(), rnds.tolist()):
            events.setdefault(r, []).append((s, t))
        assert events == {
            row: [(int(s), int(t)) for t, s in np.argwhere(det[row])]
            for row in range(b) if det[row].any()
        }
        np.testing.assert_array_equal(actual, want_actual)


def _chi2_critical(df):
    """Upper 1e-5 quantile of chi-square with df degrees of freedom.

    Wilson-Hilferty approximation, which errs high (conservative) for small
    df: 24.7 against the exact 23.0 at df = 2, 49.3 against 48.7 at 14.
    """
    z = 4.2649
    return df * (1.0 - 2.0 / (9.0 * df) + z * math.sqrt(2.0 / (9.0 * df))) ** 3


def _binomial_chi2(counts, trials, q):
    """Pearson statistic of counts that are independent Binomial(trials, q)."""
    counts = np.asarray(counts, dtype=float).ravel()
    stat = float(((counts - trials * q) ** 2).sum() / (trials * q * (1.0 - q)))
    return stat, counts.size


_DRAW_MIXES = {
    "low": Rates(0.02, 0.05, 0.03, 0.06, 0.04),
    "high": Rates(0.5, 0.8, 0.6, 0.9, 0.7),
}


@pytest.mark.parametrize("mix", sorted(_DRAW_MIXES))
def test_sparse_draw_matches_bernoulli_distribution(mix):
    # Drawing each class's faults by count must reproduce the per-site
    # Bernoulli draw: per class, the mean hits per shot agree with N q and
    # with the dense oracle, and hits spread over cycles, sites and CNOT
    # Pauli indices as independent per-site draws do.  Both draws are
    # tested, so a miscalibrated statistic shows on the oracle too.
    rates, shots, R = _DRAW_MIXES[mix], 2000, 2
    layout = get_layout(3)
    sparse = _noise_from_hits(
        layout, surface_sim._draw_noise(101, range(shots), R, layout, rates), shots, R
    )
    dense = _dense_draw(202, range(shots), R, layout, rates)
    for i, c in enumerate(layout.classes):
        key, q = c.rate_kind, _class_rates(rates)[c.rate_kind]
        per_cycle = len(c.sites)
        n = R * per_cycle  # sites of the class in R cycles
        sigma = math.sqrt(n * q * (1.0 - q) / shots)
        means = [draw[i][0].sum() / shots for draw in (sparse, dense)]
        assert abs(means[0] - n * q) <= 5.0 * sigma, (key, means, n * q)
        assert abs(means[0] - means[1]) <= 5.0 * math.sqrt(2.0) * sigma, (key, means)
        for name, draw in (("sparse", sparse), ("dense", dense)):
            hits = draw[i][0]
            for axis, counts, trials in (
                ("cycle", hits.sum(axis=(0, 2)), shots * per_cycle),
                ("site", hits.sum(axis=0), shots),
            ):
                stat, df = _binomial_chi2(counts, trials, q)
                assert stat < _chi2_critical(df), (name, key, axis, stat, df)
    assert layout.classes[0].rate_kind == "p2"
    for name, draw in (("sparse", sparse), ("dense", dense)):
        hit, pauli = draw[0]
        paulis = np.bincount(pauli[hit], minlength=15)
        expected = paulis.sum() / 15.0
        stat = float(((paulis - expected) ** 2).sum() / expected)
        assert paulis.size == 15 and stat < _chi2_critical(14), (name, stat)


# Edges of the cases' first shots: 2**32 fills counter word 1's high 32-bit
# limb, and at 2**64 a shot index carries into counter word 2.
_WORD_BOUNDARIES = (2**32, 2**64)


# Cases that each take one path of _draw_noise, named as draw_paths counts
# them: (id, d, R, shots, seed, rates, path).
_PATH_CASES = (
    # gen_sparse's d=6 point: every row's first blocks hold all it reads.
    ("lanes", 6, 60, range(256), 1, Rates(4e-4, 4e-4, 2e-4, 2e-4, 2e-4), "lanes"),
    # mc_dense's point: a few percent of rows hold a Floyd group with two
    # equal picks.
    ("floyd-group", 5, 25, range(256), 1, Rates(*(3e-3,) * 5), "group"),
    # Every class at p*n = 30: shot 96875 reads more doubles than its first
    # blocks hold, so it gets further blocks.
    ("outrun", 3, 60, range(96870, 96880), 0, Rates(0.083, 0.083, 0.0144, 0.0144, 0.0125),
     "more"),
    # A rate above one half, and two classes at p*n = 60: past where
    # binomial samplers commonly leave inversion, which the one CDF table
    # covers at any rate.
    ("rate-above-half", 4, 3, range(40), 5, Rates(0.7, 1e-3, 1e-3, 1e-3, 1e-3), "lanes"),
    ("btpe", 3, 200, range(16), 1, Rates(0.05, 0.05, 1e-3, 1e-3, 1e-3), "lanes"),
    ("empty", 5, 25, range(0), 1, Rates(*(3e-3,) * 5), "empty"),
)


def _oracle_draw_cases():
    # (d, R, shots, seed, rates, path): every d, R from 1 to 60, batches of
    # 1 to 256 shots, 64-bit point seeds, and first shots of 0, just before
    # an edge of _WORD_BOUNDARIES, or just before the last shot index,
    # 2**128 - 1.  At the edge rates every site of a rate-1 class is hit, so
    # those batches stay small.  Then _PATH_CASES, which check that their
    # path is taken.
    rng = np.random.default_rng(2024)
    cases = [(3, 1, 1, 0, _EDGE_RATES[3]), (6, 60, 256, 0, None)]
    for i in range(16):
        if i < len(_EDGE_RATES):
            R, b = int(rng.integers(1, 5)), int(rng.integers(1, 9))
        else:
            R, b = int(rng.integers(1, 61)), int(rng.integers(2, 257))
        back = int(rng.integers(b // 2, b))  # at least 1 when b > 1: the batch straddles
        first = (0, *(edge - back for edge in _WORD_BOUNDARIES))[i % 3]
        rates = _EDGE_RATES[i] if i < len(_EDGE_RATES) else None
        cases.append((3 + i % 4, R, b, first, rates))
    limit = surface_sim.SHOT_LIMIT
    cases += [(4, 7, 64, limit - 64, None), (3, 2, 5, limit - 5, _EDGE_RATES[0])]
    params = []
    for i, (d, R, b, first, rates) in enumerate(cases):
        if rates is None:
            rates = Rates(*10.0 ** rng.uniform(-4.0, -2.0, 5))
        seed = ratedb._point_seeds(i, d, 2.0, 1.0, 1e-3)[i % 2]
        params.append(pytest.param(
            d, R, range(first, first + b), seed, rates, None, id=f"d{d}-R{R}-b{b}-first{first}"
        ))
    params += (pytest.param(*case[1:], id=f"path-{case[0]}") for case in _PATH_CASES)
    return params


@pytest.fixture
def draw_paths(monkeypatch):
    """Counts of the paths _draw_noise takes, by spying on its helpers.

    ``lanes``: rows whose first blocks hold every double they read;
    ``more``: rows given further blocks; ``group``: Floyd groups resolved by
    the sequential rule.
    """
    paths = collections.Counter()
    doubles, floyd = surface_sim._doubles, surface_sim._floyd

    def spy_doubles(key, shots, blocks):
        rows = shots.shape[1]
        if blocks.start:
            paths["lanes"] -= rows
            paths["more"] += rows
        else:
            paths["lanes"] += rows
        return doubles(key, shots, blocks)

    def spy_floyd(*args):
        paths["group"] += 1
        return floyd(*args)

    monkeypatch.setattr(surface_sim, "_doubles", spy_doubles)
    monkeypatch.setattr(surface_sim, "_floyd", spy_floyd)
    return paths


def _assert_oracle_hits(seed, shots, R, layout, rates):
    got = surface_sim._draw_noise(seed, shots, R, layout, rates)
    want = draw_noise(seed, shots, R, layout, rates)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype
        np.testing.assert_array_equal(g, w)


@pytest.mark.parametrize("d, R, shots, seed, rates, path", _oracle_draw_cases())
def test_draw_noise_matches_frozen_per_shot_draw(d, R, shots, seed, rates, path, draw_paths):
    # Drawing a batch by whole-batch arithmetic must draw exactly the hits
    # of the oracle's scalar per-shot rule, which reads numpy's own Philox.
    _assert_oracle_hits(seed, shots, R, get_layout(d), rates)
    if path == "empty":
        assert not any(draw_paths.values()), draw_paths
    elif path is not None:
        assert draw_paths[path] > 0, draw_paths


@settings(max_examples=40, deadline=None)
@given(
    d=st.sampled_from((3, 4)),
    R=st.integers(1, 60),
    scale=st.sampled_from((1e-3, 1e-2, 0.1, 1.0)),
    fractions=st.lists(st.floats(0.0, 1.0), min_size=5, max_size=5),
    seed=st.one_of(st.integers(0, 2**64 - 1), st.integers(2**64, 2**200)),
    start=st.one_of(
        st.integers(0, 2**20),
        st.builds(
            lambda edge, back: edge - back, st.sampled_from(_WORD_BOUNDARIES), st.integers(-64, 64)
        ),
        st.integers(surface_sim.SHOT_LIMIT - 128, surface_sim.SHOT_LIMIT - 64),
    ),
    n=st.integers(0, 64),
)
@example(d=3, R=5, scale=1e-2, fractions=[1.0] * 5, seed=2**64, start=2**64 - 9, n=20)
def test_draw_noise_matches_frozen_draw_at_any_rates(d, R, scale, fractions, seed, start, n):
    # Rates anywhere in [0, 1], seeds of any size, and shots on either side
    # of a counter word's carry, up to the last shot index.
    rates = Rates(*(scale * f for f in fractions))
    _assert_oracle_hits(seed, range(start, start + n), R, get_layout(d), rates)


@pytest.mark.parametrize("first", [0, 2**64 - 20, surface_sim.SHOT_LIMIT - 40])
def test_draw_noise_is_independent_of_batch_splits(first):
    # Each shot draws the hits the scalar rule gives it, whatever batch it
    # is drawn in: the batches of a split, relabelled to rows of the whole
    # run, are the oracle's hits of the run.
    layout, rates, seed, R = get_layout(4), Rates(5e-3, 2e-3, 4e-3, 1e-3, 6e-3), 2**70 + 3, 9
    want = draw_noise(seed, range(first, first + 40), R, layout, rates)
    for size in (1, 3, 7, 16, 40):
        parts = []
        for lo in range(0, 40, size):
            row, cycle, fid = surface_sim._draw_noise(
                seed, range(first + lo, first + min(lo + size, 40)), R, layout, rates
            )
            parts.append((row + lo, cycle, fid))
        for got, w in zip(zip(*parts), want):
            np.testing.assert_array_equal(np.concatenate(got), w)


@pytest.mark.parametrize("n, q", [
    (1, 1.0), (5, 1.0), (7, 0.5), (60, 0.05), (200, 0.7), (500, 0.083), (3600, 3e-3),
    (13200, 2e-4),
])
def test_binomial_cdf_table_is_the_binomial_cdf(n, q):
    # Entry k is P(X <= k) to within 1e-12 of the exact sum, the entries
    # never fall, and the last is exactly 1, so every double below 1 counts
    # at most the table's last k, and at most n.
    cdf = surface_sim._binomial_cdf(n, q)
    assert 1 <= len(cdf) <= n + 1 and cdf[-1] == 1.0 and (np.diff(cdf) >= 0).all()
    # q = a / den exactly, so P(X <= k) is an integer sum over den**n.
    a, den = q.as_integer_ratio()
    exact = 0
    for k, got in enumerate(cdf.tolist()):
        exact += math.comb(n, k) * a**k * (den - a) ** (n - k)
        if k < len(cdf) - 1:
            assert abs(got - exact / den**n) <= 1e-12, (k, got)
    assert 1 - exact / den**n <= 1e-12
    u = np.array([0.0, 0.5, 1.0 - 2.0**-53])
    assert np.searchsorted(cdf, u, side="right").max() == len(cdf) - 1


_MASK64 = 2**64 - 1


@settings(max_examples=60, deadline=None)
@given(
    key=st.integers(0, 2**128 - 1),
    counter=st.one_of(
        st.integers(0, 2**256 - 1),
        # Just below a carry out of counter word 0, 1 or 2, or the top.
        st.builds(lambda word, back: (1 << (64 * word)) - back,
                  st.sampled_from((1, 2, 3, 4)), st.integers(1, 3)),
    ),
)
@example(key=0, counter=0)
@example(key=2**128 - 1, counter=2**64 - 2)
@example(key=1, counter=2**192 - 1)
def test_philox_equals_numpy_raw_stream(key, counter):
    # numpy's Philox steps its 256-bit counter before each block, so the
    # blocks it gives after counter c - 1 are the package's at c, c + 1, ...,
    # and its carries run from word 0 up.
    blocks = 4
    want = np.random.Philox(counter=(counter - 1) % 2**256, key=key).random_raw(
        4 * blocks
    ).reshape(blocks, 4)
    counters = [(counter + j) % 2**256 for j in range(blocks)]
    words = np.array(
        [[(c >> (64 * w)) & _MASK64 for c in counters] for w in range(4)], dtype=np.uint64
    )
    got = surface_sim._philox(words, np.array([key & _MASK64, key >> 64], dtype=np.uint64))
    assert got.dtype == np.uint64
    np.testing.assert_array_equal(got.T, want)


# (d, rates, shots, rounds, seed, first_shot_index) -> (fails_x, fails_z),
# recorded with the by-count fault draw (binomial hit counts per class, then
# Floyd's algorithm for the sites) and footprint XOR of this version.
_PINNED_COUNTS = [
    ((3, Rates(1e-2, 1e-2, 1e-2, 1e-2, 1e-2), 300, 3, 7, 0), (35, 34)),
    ((5, Rates(3e-3, 3e-3, 3e-3, 3e-3, 3e-3), 300, 5, 7, 0), (1, 3)),
    ((4, Rates(2e-3, 5e-4, 1e-3, 3e-4, 6e-3), 200, 8, 5, 1000), (9, 4)),
    ((6, Rates(4e-3, 4e-3, 4e-3, 4e-3, 1e-2), 64, 12, 3, 0), (17, 10)),
    ((3, Rates(2e-2, 1e-2, 5e-3, 5e-3, 0.0), 100, 10, 11, 17), (11, 6)),
    ((3, Rates(1e-3, 1e-3, 1e-3, 1e-3, 2e-3), 600, 6, 2, 300), (7, 6)),
    # Large clusters: blossom inputs of up to 122 events.
    ((6, Rates(5e-3, 5e-3, 5e-3, 5e-3, 5e-3), 64, 30, 1, 0), (17, 11)),
    # Shot indices that cross 2**64, where a shot index carries into the
    # next counter word.
    ((3, Rates(1e-2, 1e-2, 1e-2, 1e-2, 1e-2), 300, 3, 7, 2**64 - 150), (34, 36)),
]


@pytest.mark.parametrize("config, counts, make", [
    *(pytest.param(*pin, get_layout, id=f"config{i}-counts{i}")
      for i, pin in enumerate(_PINNED_COUNTS)),
    # run_monte_carlo reads the layout it is given, here one of its own.
    pytest.param(*_PINNED_COUNTS[2], Layout, id="direct-config2-counts2"),
])
def test_monte_carlo_counts_are_pinned(config, counts, make):
    d, rates, shots, rounds, seed, first = config
    result = run_monte_carlo(
        make(d), rates, shots, rounds, seed, first_shot_index=first
    )
    assert (result.fails_x, result.fails_z) == counts


def test_rates_validation():
    with pytest.raises(ValueError):
        Rates(-1e-3, 0, 0, 0, 0).validate()
    with pytest.raises(ValueError):
        Rates(0, 0, 0, 0, 1.5).validate()
    with pytest.raises(ValueError):
        Rates(0, 0, float("nan"), 0, 0).validate()
    Rates(0, 0, 0, 0, 0).validate()


def test_rates_take_the_model_probability_check():
    # The one probability check of error_model: a bool is not a rate.
    for bad in (True, "0.1", None):
        with pytest.raises(ModelError, match="^flip must be a number"):
            FlipChannel(bad)
        with pytest.raises(ModelError, match="^rate p1z must be a number"):
            Rates(0, 0, 0, bad, 0).validate()
    with pytest.raises(ModelError, match=r"^rate p2 must lie in \[0, 1\], got 1.5$"):
        Rates(0, 0, 0, 0, 1.5).validate()


def test_rates_run_as_python_floats():
    # validate returns the rates as Python floats, and run_monte_carlo draws
    # and decodes with those: float32 rates count as their float values.
    f32 = np.float32
    rates = Rates(f32(2e-3), f32(2e-3), np.int64(0), f32(1e-3), f32(1e-2))
    checked = rates.validate()
    assert all(type(v) is float for v in checked) and checked == rates
    layout = get_layout(3)
    want = run_monte_carlo(layout, Rates(*map(float, rates)), 64, 3, 7)
    assert run_monte_carlo(layout, rates, 64, 3, 7) == want


def test_run_monte_carlo_input_validation():
    layout = get_layout(3)
    ok = Rates(0, 0, 0, 0, 1e-3)
    with pytest.raises(ValueError):
        run_monte_carlo(layout, ok, shots=-1, rounds=3, seed=0)
    with pytest.raises(ValueError):
        run_monte_carlo(layout, ok, shots=1, rounds=0, seed=0)
    with pytest.raises(ValueError):
        run_monte_carlo(layout, ok, shots=1, rounds=3, seed=-1)
    with pytest.raises(ValueError, match="first_shot_index"):
        run_monte_carlo(layout, ok, shots=1, rounds=3, seed=0, first_shot_index=-3)
    with pytest.raises(ValueError):
        run_monte_carlo(layout, Rates(0, 0, 0, 0, 2.0), shots=1, rounds=3, seed=0)
    counts = {"shots": 1, "rounds": 3, "seed": 0, "first_shot_index": 0}
    for name, bad in (
        ("shots", 2.5), ("shots", True), ("rounds", 2.0), ("rounds", "3"),
        ("seed", 1.5), ("seed", False), ("first_shot_index", 2.0),
        ("first_shot_index", True),
    ):
        with pytest.raises(ValueError, match=name):
            run_monte_carlo(layout, ok, **{**counts, name: bad})
    result = run_monte_carlo(
        layout, ok, shots=np.int64(2), rounds=np.int32(3), seed=np.uint64(0)
    )
    assert (type(result.shots), type(result.rounds)) == (int, int)
    assert (result.shots, result.rounds) == (2, 3)


def test_monte_carlo_with_graphs_built_in_another_process(tmp_path):
    # A fresh process that is handed pickled graphs has enumerated no faults
    # for that distance; the run must still find the footprint tables.
    layout = get_layout(3)
    rates = Rates(2e-3, 3e-3, 1e-3, 1e-3, 1e-2)
    graphs = matcher.build_graphs(enumerate_single_faults(layout), rates, layout)
    path = tmp_path / "graphs.pkl"
    path.write_bytes(pickle.dumps(graphs))
    src = os.path.dirname(os.path.dirname(os.path.abspath(surface_sim.__file__)))
    out = subprocess.run(
        [sys.executable, "-c",
         "import pickle, sys\n"
         "from polyest.surface_sim import Rates, get_layout, run_monte_carlo\n"
         "with open(sys.argv[1], 'rb') as fh:\n"
         "    graphs = pickle.load(fh)\n"
         f"print(run_monte_carlo(get_layout(3), Rates{tuple(rates)!r}, 60, 4, 11,"
         " graphs=graphs))",
         str(path)],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True, text=True, check=True,
    )
    expected = run_monte_carlo(layout, rates, shots=60, rounds=4, seed=11)
    assert expected.fails_x + expected.fails_z > 0
    assert out.stdout == f"{expected!r}\n"


def test_monte_carlo_rejects_graphs_built_for_another_point():
    # Graphs of another distance or other rates would decode every shot
    # against the wrong weights (with polyest 0.2.0's draw, d=5 graphs at
    # d=3 gave 16/12 fails where the run's own gave 1/3), so a run refuses
    # them, also once pickled.
    layout = get_layout(3)
    rates = Rates(*(3e-3,) * 5)
    d5 = matcher.build_graphs(enumerate_single_faults(get_layout(5)), rates, get_layout(5))
    other = matcher.build_graphs(enumerate_single_faults(layout), Rates(*(2e-3,) * 5), layout)
    own = pickle.loads(pickle.dumps(
        matcher.build_graphs(enumerate_single_faults(layout), rates, layout)))
    assert [g.built_for for g in own] == [(3, rates)] * 2
    for graphs in (d5, other, pickle.loads(pickle.dumps(d5)), (own[0], other[1])):
        with pytest.raises(ValueError, match="build_graphs for d=3"):
            run_monte_carlo(layout, rates, 64, 5, 1, graphs=graphs)
    result = run_monte_carlo(layout, rates, 64, 5, 1, graphs=own)
    assert result == run_monte_carlo(layout, rates, 64, 5, 1)
    assert (result.fails_x, result.fails_z) == (1, 1)


def test_monte_carlo_rejects_graphs_built_from_part_of_the_fault_table():
    # Graphs built from the CNOT faults alone once passed a run's check,
    # because build_graphs stamped them for the layout whatever faults it was
    # given: at all rates 1e-2 they gave 254/205 fails over 2000 shots of 3
    # rounds (seed 5) where the layout's own graphs give 242/201.  Later
    # they were built but left unstamped; now build_graphs refuses any fault
    # table but the layout's own, even a copy of it or an equal table.
    layout = get_layout(3)
    rates = Rates(*(1e-2,) * 5)
    cnot = layout.classes[0]
    n_cnot = len(cnot.sites) * len(cnot.paulis)
    assert cnot.rate_kind == "p2" and cnot.first == 0 and 0 < n_cnot < len(layout.by_id)
    # The CNOT faults' rows of each graph's table.
    part = tuple(
        fp._replace(ptr=fp.ptr[: n_cnot + 1], site=fp.site[: fp.ptr[n_cnot]],
                    offset=fp.offset[: fp.ptr[n_cnot]], flip=fp.flip[:n_cnot])
        for fp in layout.footprints
    )
    other = Layout(3).footprints
    assert other is not layout.footprints
    assert all(
        np.array_equal(a, b) for mine, theirs in zip(layout.footprints, other, strict=True)
        for a, b in zip(mine, theirs, strict=True)
    )
    for faults in (part, list(layout.footprints), other, get_layout(4).footprints):
        with pytest.raises(ValueError, match="layout.footprints"):
            matcher.build_graphs(faults, rates, layout)
    own = matcher.build_graphs(enumerate_single_faults(layout), rates, layout)
    assert [g.built_for for g in own] == [(3, rates)] * 2
    # A graph built directly carries no stamp, so a run cannot tell what it
    # was built from and refuses it.
    unstamped = tuple(matcher.MatchingGraph(g.kind, g.n_sites, g.edges, g.boundary) for g in own)
    assert [g.built_for for g in unstamped] == [None, None]
    with pytest.raises(ValueError, match="build_graphs for d=3"):
        run_monte_carlo(layout, rates, 64, 3, 5, graphs=unstamped)
    assert run_monte_carlo(layout, rates, 64, 3, 5, graphs=own) == run_monte_carlo(
        layout, rates, 64, 3, 5)


def test_single_fault_table_refuses_footprints_outside_its_rules(monkeypatch):
    # Every graph class joins one or two events at most one round apart, and
    # a fault that flips the logical must be seen on that graph; the table
    # is checked on the footprint arrays that graphs and shots both read.
    real = surface_sim._simulate_batch
    n_faults = len(get_layout(3).by_id)

    def doctored(edit):
        def run(*args):
            det_x, det_z, flips_x, flips_z = real(*args)
            if args[2] == n_faults:  # the single-fault propagation
                edit(det_x, flips_x)
            return det_x, det_z, flips_x, flips_z
        return run

    def unseen(det, flips):
        return np.flatnonzero(~det.any(axis=(1, 2)) & ~flips)[0]

    def late_event(det, flips):
        det[unseen(det, flips), 2, 0] = True

    def three_events(det, flips):
        det[unseen(det, flips), 0, :3] = True

    def unseen_flip(det, flips):
        flips[unseen(det, flips)] = True

    for edit in (late_event, three_events, unseen_flip):
        monkeypatch.setattr(surface_sim, "_simulate_batch", doctored(edit))
        with pytest.raises(RuntimeError, match="breaks the x footprint rules"):
            Layout(3)
    monkeypatch.setattr(surface_sim, "_simulate_batch", real)
    assert fault_effects(Layout(3)) == fault_effects(get_layout(3))


def test_zero_rates_never_fail():
    result = run_monte_carlo(
        get_layout(3), Rates(0, 0, 0, 0, 0), shots=50, rounds=3, seed=7
    )
    assert (result.fails_x, result.fails_z) == (0, 0)
    assert result.p_xl == 0.0 and result.p_zl == 0.0


def test_outcome_flips_alone_never_fail():
    # Isolated vertical event pairs decode to the identity correction.  At
    # flip probability 1 every site's pair spans all 100 rounds, past any
    # table window: boundary-less graphs must pair them at any span.
    for rates, rounds in ((Rates(0.05, 0.05, 0, 0, 0), 5), (Rates(1, 1, 0, 0, 0), 100)):
        result = run_monte_carlo(get_layout(3), rates, shots=50, rounds=rounds, seed=3)
        assert (result.fails_x, result.fails_z) == (0, 0)


def test_monte_carlo_is_deterministic_and_batch_independent():
    layout = get_layout(3)
    rates = Rates(2e-3, 3e-3, 1e-3, 1e-3, 1e-2)
    a = run_monte_carlo(layout, rates, shots=60, rounds=4, seed=11)
    chunks = [
        run_monte_carlo(
            layout, rates, shots=min(7, 60 - lo), rounds=4, seed=11,
            first_shot_index=lo,
        )
        for lo in range(0, 60, 7)
    ]
    assert a == functools.reduce(SimResult.merged, chunks)
    assert a.fails_x + a.fails_z > 0  # rates chosen high enough to exercise decoding


def test_monte_carlo_chunks_across_a_key_word_boundary_merge_to_the_run():
    # Shot indices address Philox counters: a run across 2**64, where a
    # shot index carries into the next counter word, and a run that ends at
    # the last shot index each merge from two chunks split at the edge.
    layout = get_layout(3)
    rates = Rates(1e-2, 1e-2, 1e-2, 1e-2, 1e-2)
    for edge in (2**64, surface_sim.SHOT_LIMIT - 150):
        full = run_monte_carlo(layout, rates, 300, 3, 7, first_shot_index=edge - 150)
        chunks = [
            run_monte_carlo(layout, rates, 150, 3, 7, first_shot_index=first)
            for first in (edge - 150, edge)
        ]
        assert chunks[0].merged(chunks[1]) == full


def test_run_monte_carlo_refuses_shots_past_the_counter_space():
    # A shot index fills two 64-bit counter words, so the last shot is
    # 2**128 - 1; seeds of any size hash to a key.
    layout, rates = get_layout(3), Rates(1e-2, 1e-2, 1e-2, 1e-2, 1e-2)
    limit = surface_sim.SHOT_LIMIT
    assert run_monte_carlo(layout, rates, 2, 2, 2**300, first_shot_index=limit - 2).shots == 2
    assert run_monte_carlo(layout, rates, 0, 2, 7, first_shot_index=limit).shots == 0
    refusal = r"first_shot_index \+ shots must be at most 2\*\*128"
    for first, shots in ((limit - 1, 2), (limit, 1), (2**130, 0)):
        with pytest.raises(ValueError, match=refusal):
            run_monte_carlo(layout, rates, shots, 2, 7, first_shot_index=first)
        with pytest.raises(ValueError, match=refusal):
            check_run_args(shots, 2, 7, first)


def test_monte_carlo_split_accumulation_matches_single_run():
    layout = get_layout(3)
    rates = Rates(2e-3, 3e-3, 1e-3, 1e-3, 1e-2)
    full = run_monte_carlo(layout, rates, shots=40, rounds=4, seed=11)
    head = run_monte_carlo(layout, rates, shots=25, rounds=4, seed=11)
    tail = run_monte_carlo(
        layout, rates, shots=15, rounds=4, seed=11, first_shot_index=25
    )
    assert head.merged(tail) == full


def test_sim_result_accounting():
    r = SimResult(shots=1000, rounds=5, fails_x=120, fails_z=80)
    assert r.p_xl == 120 / 5000
    assert r.p_zl == 80 / 5000
    assert r.stderr_x == pytest.approx(120**0.5 / 5000)
    with pytest.raises(ValueError):
        r.merged(SimResult(10, 4, 0, 0))
    merged = r.merged(SimResult(500, 5, 30, 40))
    assert merged == SimResult(1500, 5, 150, 120)
