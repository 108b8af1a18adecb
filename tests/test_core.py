import hashlib
import json

import numpy as np
import pytest

from goalchase.core import (
    MAX_PARAMS,
    ConfigError,
    ScenarioConfig,
    config_from_json,
    config_from_json_str,
    init_state,
)
from goalchase.prng import new_words, rng_from_words, rng_to_words
from goalchase.simulator import make_record, new_sim, record_to_json_line

from scenarios import commute_obj, goal_switch_obj, resample_obj, walk_obj


# --- prng word packing -------------------------------------------------------


def test_rng_words_shape():
    # (state, inc, has_uint32, uinteger): a value, with no array to alias
    words = new_words(42)
    assert type(words) is tuple and len(words) == 4
    assert all(type(w) is int for w in words)


def test_rng_words_round_trip_mid_stream():
    gen = np.random.Generator(np.random.PCG64(9))
    gen.uniform(size=7)
    words = rng_to_words(gen)
    clone = rng_from_words(words)
    assert np.array_equal(gen.uniform(size=16), clone.uniform(size=16))


def test_rng_words_capture_is_pure():
    gen = np.random.Generator(np.random.PCG64(9))
    a = rng_to_words(gen)
    b = rng_to_words(gen)
    assert np.array_equal(a, b)
    assert np.array_equal(
        rng_from_words(a).uniform(size=4), rng_from_words(b).uniform(size=4)
    )


def test_new_words_deterministic():
    assert np.array_equal(new_words(3), new_words(3))
    assert not np.array_equal(new_words(3), new_words(4))


# --- configuration parsing ----------------------------------------------------


def test_config_accepts_canonical_objects():
    for obj in [commute_obj(), goal_switch_obj(), walk_obj(), resample_obj()]:
        config = config_from_json(obj)
        assert config.m == 2
        assert config.steps == obj["steps"]


def test_config_round_trip_is_fixpoint():
    config = config_from_json(commute_obj())
    again = config_from_json(config.to_json_obj())
    assert again.to_json_obj() == config.to_json_obj()
    text = config.to_json_str()
    assert config_from_json_str(text).to_json_obj() == config.to_json_obj()


def test_config_defaults():
    obj = commute_obj()
    for key in ["mu", "drift", "K", "log_every"]:
        obj.pop(key, None)
    config = config_from_json(obj)
    assert config.mu == 0.0
    assert config.drift == 0.0
    assert config.K == 1
    assert config.log_every == 1
    assert config.snapshot_every == 0


def err(obj):
    with pytest.raises(ConfigError) as e:
        config_from_json(obj)
    return e.value


def test_unknown_key_rejected():
    e = err(commute_obj(bogus=1))
    assert e.key == "bogus"
    assert str(e).startswith("bogus:")


def test_missing_and_bad_scalars():
    obj = commute_obj()
    del obj["m"]
    assert err(obj).key == "m"
    assert err(commute_obj(m=0)).key == "m"
    assert err(commute_obj(eta=0.0)).key == "eta"
    assert err(commute_obj(eta="fast")).key == "eta"
    assert err(commute_obj(eta=float("inf"))).key == "eta"
    assert err(commute_obj(eta=10**400)).key == "eta"
    assert err(commute_obj(mu=1.0)).key == "mu"
    assert err(commute_obj(drift=-0.1)).key == "drift"
    assert err(commute_obj(steps=-1)).key == "steps"
    assert err(commute_obj(K=0)).key == "K"
    assert err(commute_obj(log_every=0)).key == "log_every"
    assert err(commute_obj(snapshot_every=-1)).key == "snapshot_every"
    assert err(commute_obj(init_seed=-1)).key == "init_seed"
    assert err(commute_obj(init_seed=1 << 64)).key == "init_seed"
    assert err(commute_obj(steps=2.5)).key == "steps"


def test_slot_spec_errors_name_the_slot():
    obj = commute_obj()
    obj["slots"][1] = {"kind": "affine1", "m": 3}
    assert err(obj).key == "slots[1].m"
    obj = commute_obj()
    obj["slots"][0] = {"kind": "nope", "m": 2}
    assert err(obj).key == "slots[0]"
    obj = commute_obj()
    obj["slots"] = []
    assert err(obj).key == "slots"
    # integer fields are never coerced: "2", 2.9 and true are all rejected
    bad = [("m", "2"), ("m", 2.9), ("pad", True), ("hidden", 1.5)]
    for key, val in bad:
        obj = commute_obj()
        obj["slots"][1][key] = val
        assert err(obj).key == f"slots[1].{key}"
    # the kind implies the arity, so there is no arity key
    obj = commute_obj()
    obj["slots"][1]["arity"] = 1
    assert err(obj).key == "slots[1]"
    assert "unknown slot keys ['arity']" in str(err(obj))
    obj = commute_obj()
    del obj["slots"][0]["m"]
    assert err(obj).key == "slots[0].m"


@pytest.mark.parametrize("size", [MAX_PARAMS, 10**9, 10**30])
def test_slot_sizes_over_the_parameter_budget_are_rejected(size):
    # rejected at the config boundary, before init_state allocates anything
    for key in ("pad", "hidden"):
        obj = commute_obj()
        obj["slots"][1] = {"kind": "mlp1h", "m": 2, "hidden": 3, key: size}
        assert err(obj).key == "slots[1]"
    obj = commute_obj(m=size, probe_mode="resample")
    del obj["probes"]
    for spec in obj["slots"]:
        spec["m"] = size
    assert err(obj).key == "slots[0]"


def test_the_parameter_budget_bounds_the_total():
    obj = commute_obj()
    obj["slots"][0]["pad"] = MAX_PARAMS - 12
    config = config_from_json(obj)
    assert sum(f.param_count for f in config.slot_specs) == MAX_PARAMS
    obj["slots"][1]["pad"] = 1
    e = err(obj)
    assert e.key == "slots[1]" and str(MAX_PARAMS + 1) in str(e)


@pytest.mark.parametrize("side", [[[]], ["[0]"], 5, None, True, {"[0]": 1}])
def test_goal_sides_must_be_strings(side):
    # a pair is a list of two sides: a dict's two keys are not a pair
    for pair in ({"[0,1]": 0, "[1,0]": 0}, ["[0]"], ["[0]", "[1]", "[]"], "[0]"):
        obj = commute_obj()
        obj["law"]["pairs"][0] = pair
        assert err(obj).key == "law.pairs[0]"
    obj = commute_obj()
    obj["law"]["pairs"][0][1] = side
    assert err(obj).key == "law.pairs[0][1]"
    obj = goal_switch_obj()
    obj["law"]["program"][1][0][0] = side
    assert err(obj).key == "law.program[1][0][0]"


def test_probe_errors():
    obj = commute_obj()
    obj["probes"][1] = [1.0]
    assert err(obj).key == "probes[1]"
    obj = commute_obj()
    obj["probes"][0] = [float("nan"), 0.0]
    assert err(obj).key == "probes[0]"
    for entries in (["a", "b"], [[1], 0], [True, False]):
        obj = commute_obj()
        obj["probes"][0] = entries
        assert err(obj).key == "probes[0]"
    obj = commute_obj()
    obj["probes"] = []
    assert err(obj).key == "probes"
    obj = resample_obj()
    obj["probes"] = [[1.0, 0.0]]
    assert err(obj).key == "probes"
    assert err(commute_obj(probe_mode="roulette")).key == "probe_mode"


def test_law_errors_name_the_path():
    obj = commute_obj()
    obj["law"] = {"kind": "mystery"}
    assert err(obj).key == "law.kind"
    obj = commute_obj()
    obj["law"] = {"kind": "identity"}
    assert err(obj).key == "law.pairs"
    obj = commute_obj()
    obj["law"] = {"kind": "identity", "pairs": [["[0,1]", "[9,0]"]]}
    assert err(obj).key == "law.pairs[0][1]"
    obj = commute_obj()
    obj["law"] = {"kind": "identity", "pairs": [["[0,1]", "[1,0"]]}
    assert err(obj).key == "law.pairs"
    obj = commute_obj()
    obj["law"] = {
        "kind": "schedule",
        "period": 1,
        "program": [[["[0,1]", "[1,0]"]]],
        "pairs": [],
    }
    assert err(obj).key == "law.pairs"
    obj = goal_switch_obj()
    obj["law"]["program"] = []
    assert err(obj).key == "law.program"
    obj = goal_switch_obj()
    obj["law"]["program"][1] = [["[0,7]", "[0]"]]
    assert err(obj).key == "law.program[1][0][0]"
    obj = goal_switch_obj()
    obj["law"]["period"] = 0
    assert err(obj).key == "law.period"


def test_grammar_walk_law_errors():
    obj = walk_obj()
    obj["law"]["pairs"] = []
    assert err(obj).key == "law.pairs"
    obj = walk_obj()
    obj["law"]["mutation_weights"] = [1, 1, 1]
    assert err(obj).key == "law.mutation_weights"
    obj = walk_obj()
    obj["law"]["mutation_weights"] = [0, 0, 0, 0]
    assert err(obj).key == "law.mutation_weights"
    obj = walk_obj()
    obj["law"]["mutation_weights"] = [1, -1, 1, 1]
    assert err(obj).key == "law.mutation_weights"
    obj = walk_obj()
    obj["law"]["mutation_weights"] = [float("inf"), 0, 0, 0]
    assert err(obj).key == "law.mutation_weights"
    obj = walk_obj()
    obj["law"]["mutation_weights"] = [1e308, 1e308, 0, 0]
    assert err(obj).key == "law.mutation_weights"
    obj = walk_obj()
    obj["law"]["law_seed"] = 1 << 64
    assert err(obj).key == "law.law_seed"
    obj = walk_obj()
    obj["law"]["period"] = 2
    assert err(obj).key == "law.period"


def test_config_from_json_str_reports_parse_errors():
    with pytest.raises(ConfigError) as e:
        config_from_json_str("{not json")
    assert e.value.key == "<json>"


def test_config_from_json_str_reports_json_nested_too_deep_to_parse():
    with pytest.raises(ConfigError) as e:
        config_from_json_str("[" * 100_000 + "]" * 100_000)
    assert e.value.key == "<json>"


def test_arities_property():
    obj = commute_obj()
    obj["slots"].append({"kind": "affine2", "m": 2})
    config = config_from_json(obj)
    assert config.arities == (1, 1, 2)


# --- initial state -------------------------------------------------------------


def test_init_state_deterministic():
    config = config_from_json(commute_obj())
    a = init_state(config)
    b = init_state(config)
    assert all(np.array_equal(x, y) for x, y in zip(a.slots, b.slots))
    assert all(np.array_equal(x, y) for x, y in zip(a.momentum, b.momentum))
    assert np.array_equal(a.rng_words, b.rng_words)
    assert np.array_equal(a.probe, b.probe)
    assert a.probe_cursor == b.probe_cursor == 0


def test_init_state_shapes_and_ranges():
    config = config_from_json(commute_obj())
    state = init_state(config)
    assert [s.shape for s in state.slots] == [(6,), (6,)]
    assert all(np.all(np.abs(s) <= 0.5) for s in state.slots)
    assert np.array_equal(state.momentum, np.zeros(12))
    assert np.array_equal(state.probe, np.array([1.0, 0.0]))


def _mixed_resample_config():
    # three families of different sizes (6, 22 and 10 entries), resampled
    # probes so the words after the slot draws are read too
    return config_from_json(resample_obj(slots=[
        {"kind": "affine1", "m": 2},
        {"kind": "mlp1h", "m": 2, "hidden": 4},
        {"kind": "affine2", "m": 2},
    ]))


def test_init_state_params_match_per_slot_draws():
    config = _mixed_resample_config()
    state = init_state(config)
    gen = np.random.Generator(np.random.PCG64(config.init_seed))
    draws = [gen.uniform(-0.5, 0.5, size=f.param_count)
             for f in config.slot_specs]
    probe = gen.uniform(-1.0, 1.0, size=config.m)
    assert np.array_equal(state.params, np.concatenate(draws))
    assert np.array_equal(state.probe, probe)
    assert np.array_equal(state.rng_words, rng_to_words(gen))


def test_init_state_slots_are_views_of_params_in_slot_order():
    config = _mixed_resample_config()
    state = init_state(config)
    assert state.momentum.shape == state.params.shape == (38,)
    start = 0
    for fam, slot in zip(config.slot_specs, state.slots, strict=True):
        assert slot.shape == (fam.param_count,)
        assert np.shares_memory(slot, state.params)
        assert np.array_equal(slot, state.params[start:start + fam.param_count])
        start += fam.param_count
    assert start == state.params.size
    assert state.slots is state.slots  # built once per state


def test_init_state_seed_changes_slots():
    a = init_state(config_from_json(commute_obj(init_seed=1)))
    b = init_state(config_from_json(commute_obj(init_seed=2)))
    assert not np.array_equal(a.slots[0], b.slots[0])


def test_init_state_resample_draws_probe():
    config = config_from_json(resample_obj())
    state = init_state(config)
    assert state.probe.shape == (2,)
    assert np.all(np.abs(state.probe) <= 1.0)
    again = init_state(config)
    assert np.array_equal(state.probe, again.probe)
    assert np.array_equal(state.rng_words, again.rng_words)


# sha256 of init_state's (params, momentum, probe, rng_words, probe_cursor)
INIT_STATE_DIGESTS = {
    ("fixed_set", 0): "3421f9623c1b38d0814e5ccd308145a1b03d1ce86270d34a7a84b56559389759",
    ("fixed_set", 2**64 - 1):
        "a04fc186d902d7f2cc2a5ebbdd3fe4d945bfaad76ce2860004c49895e5aeff94",
    ("resample", 0): "954601a4a03daea13bfb479f6ab9a07051bb7250ea97d7d952ee7be1476b6b82",
    ("resample", 2**64 - 1):
        "18ddebc1b951a54db72a6fb31d096cf1e9578288fa7b0de84adebaa956d9d81c",
}


@pytest.mark.parametrize("mode, seed", sorted(INIT_STATE_DIGESTS))
def test_init_state_digest(mode, seed):
    # the first probe, cycled or drawn, comes from advance_probe at cursor -1
    build = commute_obj if mode == "fixed_set" else resample_obj
    state = init_state(config_from_json(build(init_seed=seed)))
    h = hashlib.sha256()
    for a in (state.params, state.momentum, state.probe):
        h.update(a.tobytes())
    h.update(repr((state.rng_words, state.probe_cursor)).encode())
    assert h.hexdigest() == INIT_STATE_DIGESTS[mode, seed]


def test_record_round_trip():
    sim = new_sim(config_from_json(commute_obj(steps=3, K=1)))
    rec = make_record(sim, macro=True)
    obj = json.loads(record_to_json_line(rec))
    assert obj == rec
    assert list(obj) == [
        "t", "T", "loss", "pairs", "x_norms", "d", "macro",
    ]
    assert obj["macro"] is True


def test_record_snapshot_key_only_when_present():
    snap = new_sim(config_from_json(commute_obj(steps=3, snapshot_every=2)))
    obj = make_record(snap)
    assert obj["slots"] == [s.tolist() for s in snap.sub.slots]
    plain = new_sim(config_from_json(commute_obj(steps=3)))
    assert "slots" not in make_record(plain)
