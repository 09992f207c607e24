import functools
import hashlib

import numpy as np
import pytest

from _oracle import fault_injection, footprint
from polyest import surface_sim
from polyest.surface_sim import (
    IDLE_STEPS,
    Layout,
    LayoutError,
    Rates,
    SimResult,
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


@pytest.mark.parametrize("d", [3, 4])
def test_schedule_structure(d):
    comp = surface_sim._compiled(d)
    layout = comp.layout
    assert IDLE_STEPS == (0, 1, 6, 7)
    for ctrl, tgt in zip(comp.cnot_ctrl, comp.cnot_tgt):
        touched = [int(q) for q in (*ctrl, *tgt)]
        assert len(touched) == len(set(touched))

    cnots = [
        (int(c), int(t))
        for ctrl, tgt in zip(comp.cnot_ctrl, comp.cnot_tgt)
        for c, t in zip(ctrl, tgt)
    ]
    assert len(cnots) == comp.n_slots == 4 * (d - 1) * (2 * d - 1)

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


@pytest.mark.parametrize("d", sorted(_FAULT_TABLE_SHA256))
def test_fault_table_is_pinned(d):
    # The single-fault table (sites, slot order, footprints) defines every
    # detection graph; any change to the cycle or its slot order shows here.
    table = repr(enumerate_single_faults(get_layout(d))).encode()
    assert hashlib.sha256(table).hexdigest() == _FAULT_TABLE_SHA256[d]


def test_fault_census_d3():
    faults = enumerate_single_faults(get_layout(3))
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
    faults = enumerate_single_faults(get_layout(3))
    rates = Rates(p0x=1e-3, p0z=2e-3, p1x=3e-3, p1z=4e-3, p2=1.5e-2)
    expected = {
        "p2": 1.5e-2 / 15,
        "idle_x": 2 * 3e-3 / 3,
        "idle_z": 2 * 4e-3 / 3,
        "flip_x": 1e-3,
        "flip_z": 2e-3,
    }
    seen = {f.rate_kind for f in faults}
    assert seen == set(expected)
    for f in faults:
        assert f.probability(rates) == expected[f.rate_kind]


@pytest.mark.parametrize("d", [3, 4, 5, 6])
def test_every_single_fault_matches_scalar_oracle(d):
    layout = get_layout(d)
    for fault in enumerate_single_faults(layout):
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
    faults = enumerate_single_faults(layout)
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
    faults = enumerate_single_faults(layout)
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


def test_rates_validation():
    with pytest.raises(ValueError):
        Rates(-1e-3, 0, 0, 0, 0).validate()
    with pytest.raises(ValueError):
        Rates(0, 0, 0, 0, 1.5).validate()
    with pytest.raises(ValueError):
        Rates(0, 0, float("nan"), 0, 0).validate()
    Rates(0, 0, 0, 0, 0).validate()


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


def test_zero_rates_never_fail():
    result = run_monte_carlo(
        get_layout(3), Rates(0, 0, 0, 0, 0), shots=50, rounds=3, seed=7
    )
    assert (result.fails_x, result.fails_z) == (0, 0)
    assert result.p_xl == 0.0 and result.p_zl == 0.0


def test_outcome_flips_alone_never_fail():
    # isolated vertical event pairs decode to the identity correction
    result = run_monte_carlo(
        get_layout(3), Rates(0.05, 0.05, 0, 0, 0), shots=50, rounds=5, seed=3
    )
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
