import json
import math
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import build_flat_db
from polyest.cli import main
from polyest.error_model import (
    ASYMMETRY_THRESHOLD,
    GateErrorModel,
    ModelError,
    SingleQubitChannel,
    TwoQubitChannel,
    FlipChannel,
    TWO_QUBIT_PAULIS,
    depolarizing_model,
    fold_single,
    load_model,
    model_from_dict,
    model_to_dict,
    reduce,
    reduce_cnot,
)


def rel_err(a, b):
    return abs(a - b) / max(abs(b), 1e-300)


@pytest.mark.parametrize("p", [1e-4, 1e-3, 1e-2])
def test_depolarizing_fixed_point(p):
    rr = reduce(depolarizing_model(p))
    assert rel_err(rr.p2x, p) <= 1e-12
    assert rel_err(rr.p2z, p) <= 1e-12
    assert rel_err(rr.p1x, p) <= 1e-12
    assert rel_err(rr.p1z, p) <= 1e-12
    assert rel_err(rr.p0x, 2 * p) <= 1e-12
    assert rel_err(rr.p0z, 2 * p + 4 * p / 3) <= 1e-12
    assert rr.asym_x == 1.0 and rr.asym_z == 1.0
    assert not rr.asymmetry_warning


def test_fold_single_merges_y_into_both_axes():
    assert fold_single(SingleQubitChannel(1e-3, 1e-3, 1e-3)) == (2e-3, 2e-3)
    assert fold_single(SingleQubitChannel(1e-3, 0.0, 2e-3)) == (1e-3, 2e-3)
    assert fold_single(SingleQubitChannel(0.0, 0.0, 0.0)) == (0.0, 0.0)


def test_asymmetric_cnot_balances_to_dominant_rate():
    channel = TwoQubitChannel(ix=1e-4, xi=1e-5, xx=1e-6)
    p2x, p2z, asym_x, asym_z = reduce_cnot(channel)
    assert p2x == 15 * 1e-4 / 4
    assert rel_err(asym_x, 100.0) <= 1e-12
    assert p2z == 0.0
    assert asym_z == 1.0


def test_cnot_asymmetry_unbounded_when_a_triple_rate_is_zero():
    channel = TwoQubitChannel(ix=1e-4, xi=1e-5)
    _, _, asym_x, _ = reduce_cnot(channel)
    assert asym_x == math.inf


def test_asymmetry_warning_respects_threshold(capsys, tmp_path):
    # ASYMMETRY_THRESHOLD is the one cut-off.  An x triple (2e-4, 1e-4, 1e-4)
    # has a ratio of exactly 2 and warns nowhere; one just above 2 adds the
    # asymmetric_cnot line, and nothing else, to the warnings of reduce,
    # estimate, solve and curve --model alike.
    assert ASYMMETRY_THRESHOLD == 2.0
    db = tmp_path / "flat.csv"
    build_flat_db((0.01,), (0.01,), (5e-4, 1e-3)).save(db)
    commands = {
        "reduce": [],
        "estimate": ["--db", str(db), "--distance", "5"],
        "solve": ["--db", str(db), "--target", "1e-4"],
        "curve": ["--db", str(db), "--p2-min", "5e-4", "--p2-max", "5e-4"],
    }
    err = {}
    for ix, ratio in ((2e-4, 2.0), (2.000001e-4, 2.0000009999999997)):
        channel = {"ix": ix, "xi": 1e-4, "xx": 1e-4}
        rr = reduce(GateErrorModel(cnot=TwoQubitChannel(**channel)))
        assert (rr.asym_x, rr.asym_z) == (ratio, 1.0)
        assert rr.asymmetry_warning is (ratio > 2.0)
        path = tmp_path / "model.json"
        path.write_text(json.dumps({"cnot": channel}))
        for command, extra in commands.items():
            assert main([command, "--model", str(path), *extra]) == 0
            err[ratio, command] = capsys.readouterr().err
    line = ("warning: asymmetric_cnot: "
            "cnot channel asymmetry exceeds the threshold; rates were balanced\n")
    for command in commands:
        assert "asymmetric_cnot" not in err[2.0, command]
        assert err[2.0000009999999997, command] == line + err[2.0, command]


def test_measurement_flip_feeds_both_syndrome_rates():
    rr = reduce(depolarizing_model(1e-3, meas=0.1))
    assert rel_err(rr.p0x, 0.101) <= 1e-12
    assert rel_err(rr.p0z, 0.101 + 4e-3 / 3) <= 1e-12
    # ratios against the balanced CNOT rate used by the database axes
    assert rel_err(rr.p0x / rr.p2x, 101.0) <= 1e-12


def test_derived_triples_cover_the_documented_pauli_groups():
    # one unit of probability in each contributing entry, nothing else
    x_target = TwoQubitChannel(ix=0.01, iy=0.01, zx=0.01, zy=0.01)
    p2x, _, asym_x, _ = reduce_cnot(x_target)
    assert p2x == 15 * 0.04 / 4
    assert asym_x == math.inf  # other two triple rates are zero

    both = TwoQubitChannel(xx=0.01, xy=0.01, yx=0.01, yy=0.01)
    p2x_b, p2z_b, _, asym_z_b = reduce_cnot(both)
    assert p2x_b == 15 * 0.04 / 4
    # on the Z side these spread one 0.01 into each group, a balanced triple
    assert p2z_b == 15 * 0.01 / 4
    assert asym_z_b == 1.0


@pytest.mark.parametrize("bad", [-1e-3, 1.5, float("nan")])
def test_channel_probability_validation(bad):
    with pytest.raises(ModelError):
        SingleQubitChannel(bad, 0.0, 0.0)
    with pytest.raises(ModelError):
        FlipChannel(bad)
    with pytest.raises(ModelError):
        TwoQubitChannel(ix=bad)


def test_channels_store_numpy_scalars_as_floats():
    # A numpy scalar is a number like any other: each channel stores the
    # Python float of its value, so no float32 reaches the arithmetic.
    for value in (np.float32(1e-3), np.int64(0), np.float64(2e-3), 1):
        for channel, field in ((FlipChannel(value), "flip"), (SingleQubitChannel(px=value), "px"),
                               (TwoQubitChannel(xz=value), "xz")):
            stored = getattr(channel, field)
            assert type(stored) is float and stored == float(value), (channel, field)
    p = np.float32(3e-3)
    assert SingleQubitChannel.depolarizing(p) == SingleQubitChannel.depolarizing(float(p))
    assert TwoQubitChannel.depolarizing(p) == TwoQubitChannel.depolarizing(float(p))
    for bad in (np.bool_(True), np.array(0.5)):
        with pytest.raises(ModelError, match="^flip must be a number"):
            FlipChannel(bad)


def test_channel_sum_validation():
    with pytest.raises(ModelError):
        SingleQubitChannel(0.5, 0.4, 0.2)
    with pytest.raises(ModelError):
        TwoQubitChannel(**{p: 0.08 for p in TWO_QUBIT_PAULIS})


def test_two_qubit_channel_rejects_unknown_keys():
    with pytest.raises(ModelError, match=r"^unknown cnot keys: \['xq'\]$"):
        model_from_dict({"cnot": {"ix": 1e-3, "xq": 1e-3}})


def test_model_dict_roundtrip():
    model = GateErrorModel(
        init=FlipChannel(1e-3),
        meas=FlipChannel(2e-3),
        hadamard=SingleQubitChannel(1e-4, 2e-4, 3e-4),
        id_init=SingleQubitChannel(1e-5, 0.0, 0.0),
        cnot=TwoQubitChannel(ix=1e-4, zz=2e-4),
    )
    data = model_to_dict(model)
    assert model_from_dict(data) == model
    # zero channels are omitted from the serialized form
    assert "id_had" not in data


def test_model_from_dict_shorthand_matches_builder():
    assert model_from_dict({"depolarizing": 1e-3}) == depolarizing_model(1e-3)
    assert model_from_dict({"depolarizing": 1e-3, "meas": 0.1}) == depolarizing_model(
        1e-3, meas=0.1
    )


def test_model_from_dict_rejects_unknown_sections():
    with pytest.raises(ModelError):
        model_from_dict({"depolarizing": 1e-3, "cnots": {}})
    with pytest.raises(ModelError):
        model_from_dict({"hadamard": {"px": 1e-3, "qx": 0.0}})


@pytest.mark.parametrize("data", [
    pytest.param({"init": 0.1}, id="init_number"),
    pytest.param({"meas": None}, id="meas_null"),
    pytest.param({"cnot": None}, id="cnot_null"),
    pytest.param({"cnot": "zz"}, id="cnot_string"),
    pytest.param({"hadamard": [1e-3]}, id="hadamard_array"),
])
def test_model_from_dict_rejects_non_object_gate_entries(data):
    (gate,) = data
    with pytest.raises(ModelError, match=f"^{gate} must be a JSON object"):
        model_from_dict(data)


# The JSON model format as documented: each gate key with its channel's keys.
_GATE_KEYS = {
    "init": ("flip",),
    "meas": ("flip",),
    "hadamard": ("px", "py", "pz"),
    "id_init": ("px", "py", "pz"),
    "id_had": ("px", "py", "pz"),
    "id_meas": ("px", "py", "pz"),
    "id_cnot": ("px", "py", "pz"),
    "cnot": TWO_QUBIT_PAULIS,
}


@st.composite
def _model_dicts(draw):
    # Every entry is at most 1/len(keys), so each channel's sum stays valid.
    data = {}
    for gate, keys in _GATE_KEYS.items():
        entry = draw(st.dictionaries(
            st.sampled_from(keys), st.floats(0.0, 1.0 / len(keys)), max_size=len(keys)
        ))
        if entry or draw(st.booleans()):
            data[gate] = entry
    return data


@given(_model_dicts())
def test_model_json_roundtrip_property(data):
    model = model_from_dict(data)
    assert model_from_dict(json.loads(json.dumps(model_to_dict(model)))) == model
    assert model_to_dict(model) == {
        gate: {k: v for k, v in entry.items() if v}
        for gate, entry in data.items()
        if any(entry.values())
    }


@given(_model_dicts(), st.sampled_from(sorted(_GATE_KEYS)), st.text(min_size=1))
def test_model_unknown_gate_key_names_the_gate(data, gate, key):
    if key in _GATE_KEYS[gate]:
        key += "_extra"
    data = {**data, gate: {**data.get(gate, {}), key: 0.0}}
    message = re.escape(f"unknown {gate} keys: [{key!r}]")
    with pytest.raises(ModelError, match=f"^{message}$"):
        model_from_dict(data)


def test_load_model_errors(tmp_path):
    missing = tmp_path / "nope.json"
    with pytest.raises(ModelError):
        load_model(missing)
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ModelError):
        load_model(bad)
    good = tmp_path / "good.json"
    good.write_text(json.dumps({"depolarizing": 1e-3}))
    assert load_model(good) == depolarizing_model(1e-3)


def _random_cnot(rng):
    probs = rng.random(15) * 0.01
    return TwoQubitChannel(**dict(zip(TWO_QUBIT_PAULIS, probs)))


@pytest.mark.parametrize("seed", range(20))
def test_x_rates_ignore_pure_z_redistribution(seed):
    # Moving probability among iz, zi and zz changes only the Z-side rates.
    rng = np.random.default_rng(seed)
    base = dict(zip(TWO_QUBIT_PAULIS, rng.random(15) * 0.01))
    moved = dict(base)
    total = base["iz"] + base["zi"] + base["zz"]
    shares = rng.dirichlet(np.ones(3)) * total
    moved["iz"], moved["zi"], moved["zz"] = shares
    p2x_a, _, asym_a, _ = reduce_cnot(TwoQubitChannel(**base))
    p2x_b, _, asym_b, _ = reduce_cnot(TwoQubitChannel(**moved))
    assert p2x_a == p2x_b
    assert asym_a == asym_b


@pytest.mark.parametrize("seed", range(20))
def test_balancing_never_lowers_any_triple_rate(seed):
    rng = np.random.default_rng(100 + seed)
    channel = _random_cnot(rng)
    p2x, p2z, _, _ = reduce_cnot(channel)
    groups_x = (
        channel["ix"] + channel["iy"] + channel["zx"] + channel["zy"],
        channel["xi"] + channel["yi"] + channel["xz"] + channel["yz"],
        channel["xx"] + channel["xy"] + channel["yx"] + channel["yy"],
    )
    groups_z = (
        channel["zi"] + channel["yi"] + channel["zx"] + channel["yx"],
        channel["iz"] + channel["iy"] + channel["xz"] + channel["xy"],
        channel["zz"] + channel["zy"] + channel["yz"] + channel["yy"],
    )
    # summation order differs from the implementation, so compare loosely
    for rate, groups in ((p2x, groups_x), (p2z, groups_z)):
        for g in groups:
            assert rate >= 15 * g / 4 * (1 - 1e-12)
        assert rate == pytest.approx(15 * max(groups) / 4, rel=1e-12)


@pytest.mark.parametrize("seed", range(10))
def test_reduce_is_deterministic(seed):
    rng = np.random.default_rng(200 + seed)
    model = GateErrorModel(
        init=FlipChannel(float(rng.random() * 0.01)),
        meas=FlipChannel(float(rng.random() * 0.01)),
        hadamard=SingleQubitChannel(*(rng.random(3) * 0.003)),
        id_init=SingleQubitChannel(*(rng.random(3) * 0.003)),
        id_had=SingleQubitChannel(*(rng.random(3) * 0.003)),
        id_meas=SingleQubitChannel(*(rng.random(3) * 0.003)),
        cnot=_random_cnot(rng),
    )
    a = reduce(model)
    b = reduce(model)
    assert a == b
    assert 0.0 <= a.p0x <= a.p0z  # Hadamard errors only ever add to p0z
