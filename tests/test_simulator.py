import json
import warnings
from pathlib import Path

import numpy as np
import pytest

from goalchase import expr
from goalchase.core import DivergenceError, config_from_json, init_state
from goalchase.expr import EquationPairList
from goalchase.feedback import control_step, loss, loss_gradients
from goalchase.goallaw import LawState, initial_law_state, step_law
from goalchase.simulator import (
    RECORD_FIELDS,
    iterate,
    make_record,
    new_sim,
    pair_digest,
    record_to_json_line,
    recorder,
    run,
    step,
    write_summary_csv,
)

from scenarios import commute_obj, goal_switch_obj, mlp_obj, resample_obj, walk_obj


def test_zero_steps_yields_single_record():
    config = config_from_json(commute_obj(steps=0))
    records, sim = run(config)
    assert len(records) == 1
    rec = records[0]
    assert rec["t"] == 0 and rec["T"] == 0 and rec["macro"] is False
    assert "slots" in rec  # final state snapshot
    assert sim.t == 0


def test_macro_fires_once_for_three_steps_k2():
    config = config_from_json(commute_obj(steps=3, K=2))
    records, sim = run(config)
    assert [r["t"] for r in records] == [0, 1, 2, 3]
    assert [r["macro"] for r in records] == [False, False, False, True]
    assert sim.law.macro_count == 1
    assert [r["T"] for r in records] == [0, 0, 1, 1]


def test_macro_events_bracketed_when_logging_is_sparse():
    config = config_from_json(commute_obj(steps=6, K=2, log_every=100))
    records, _ = run(config)
    assert [r["t"] for r in records] == [0, 2, 3, 4, 5, 6]
    assert [r["macro"] for r in records] == [False, False, True, False, True, False]


def test_k1_records_every_step_even_with_sparse_logging():
    config = config_from_json(commute_obj(steps=5, K=1, log_every=100))
    records, sim = run(config)
    assert [r["t"] for r in records] == [0, 1, 2, 3, 4, 5]
    assert sim.law.macro_count == 4
    assert [r["macro"] for r in records] == [False, False, True, True, True, True]


def test_t_strictly_increasing_with_macro_label():
    config = config_from_json(goal_switch_obj(steps=7, K=2))
    records, _ = run(config)
    ts = [r["t"] for r in records]
    assert ts == sorted(set(ts))
    assert all(r["T"] == r["t"] // 2 for r in records)


def test_goal_rewrite_lands_before_the_post_event_record():
    obj = goal_switch_obj(steps=4, K=3)
    config = config_from_json(obj)
    records, _ = run(config)
    first = obj["law"]["program"][0]
    second = obj["law"]["program"][1]
    by_t = {r["t"]: r for r in records}
    for t in range(4):
        assert by_t[t]["pairs"] == first
    assert by_t[4]["pairs"] == second
    assert by_t[4]["macro"] is True


def test_schedule_switch_changes_descent_target():
    # parameters keep moving after the switch, now toward the new goal
    config = config_from_json(goal_switch_obj(steps=30, K=10))
    records, sim = run(config)
    assert sim.law.macro_count == 2  # events at pre-step counters 10 and 20
    by_t = {r["t"]: r for r in records}
    assert by_t[10]["pairs"] != by_t[11]["pairs"]
    assert by_t[30]["loss"] < by_t[21]["loss"]


def test_run_twice_produces_identical_lines():
    config = config_from_json(walk_obj(steps=120))
    a, _ = run(config)
    b, _ = run(config)
    la = [record_to_json_line(r) for r in a]
    lb = [record_to_json_line(r) for r in b]
    assert la == lb


def test_record_lines_are_compact_json():
    config = config_from_json(commute_obj(steps=2))
    records, _ = run(config)
    line = record_to_json_line(records[0])
    assert " " not in line
    obj = json.loads(line)
    assert list(obj) == ["t", "T", "loss", "pairs", "x_norms", "d", "macro"]


def test_jsonl_flushed_before_divergence(tmp_path):
    config = config_from_json(commute_obj(eta=1e9, steps=50))
    path = tmp_path / "trajectory.jsonl"
    with pytest.raises(DivergenceError) as e:
        run(config, jsonl_path=path)
    assert e.value.step is not None
    assert f"step {e.value.step}" in str(e.value)
    lines = path.read_text().strip().splitlines()
    assert len(lines) >= 1
    for line in lines:
        json.loads(line)
    # the record made just before the law fires at t=2 is on disk although
    # the step out of it (t=3) diverges
    config = config_from_json(commute_obj(eta=1e9, steps=50, K=2, log_every=1000))
    with pytest.raises(DivergenceError) as e:
        run(config, jsonl_path=path)
    assert e.value.step == 3
    assert [json.loads(ln)["t"] for ln in path.read_text().splitlines()] == [0, 2]


def test_snapshots_at_interval_and_final_step():
    config = config_from_json(commute_obj(steps=10, snapshot_every=4))
    records, _ = run(config)
    with_slots = [r["t"] for r in records if "slots" in r]
    assert with_slots == [0, 4, 8, 10]
    final = records[-1]
    for snap, norm in zip(final["slots"], final["x_norms"]):
        assert abs(np.linalg.norm(snap) - norm) < 1e-12


def test_resample_mode_walks_the_probe():
    config = config_from_json(resample_obj(steps=5))
    records, _ = run(config)
    ds = [tuple(r["d"]) for r in records]
    assert len(set(ds)) == len(ds)
    again, _ = run(config)
    assert [tuple(r["d"]) for r in again] == ds


def records_from(config, law_state):
    """The records of a run of `config` from the initial `law_state`."""
    records = []
    record = recorder(records)
    for sim in iterate(config, law_state):
        record(sim)
    return records


def test_law_state_override_replaces_initial_goals():
    config = config_from_json(goal_switch_obj(steps=0))
    alt = LawState(
        cpair=EquationPairList.from_json([["[0,2]", "[2,0]"]]),
        program_counter=1,
    )
    base_records, _ = run(config)
    alt_records = records_from(config, alt)
    assert base_records[0]["pairs"] == [["[0,1]", "[1,0]"]]
    assert alt_records[0]["pairs"] == [["[0,2]", "[2,0]"]]
    assert alt_records[0]["x_norms"] == base_records[0]["x_norms"]


def test_law_state_override_does_not_alias_caller_state():
    config = config_from_json(goal_switch_obj(steps=3, K=1))
    alt = LawState(cpair=config.law.program[0], program_counter=0)
    records_from(config, alt)
    assert alt.macro_count == 0 and alt.program_counter == 0


def test_step_function_matches_run_records():
    config = config_from_json(commute_obj(steps=4, K=2))
    sim = new_sim(config)
    manual = [make_record(sim)]
    for _ in range(4):
        sim = step(sim)
        manual.append(make_record(sim))
    records, _ = run(config)
    by_t = {r["t"]: r for r in records}
    for rec in manual:  # macro flags aside, the streams must agree exactly
        other = by_t[rec["t"]]
        assert rec["loss"] == other["loss"]
        assert rec["x_norms"] == other["x_norms"]
        assert rec["d"] == other["d"]
        assert rec["pairs"] == other["pairs"]


def test_make_record_rejects_non_finite_state():
    config = config_from_json(commute_obj(steps=0))
    sim = new_sim(config)
    sim.sub.slots[0][0] = np.nan
    with pytest.raises(DivergenceError):
        make_record(sim)


def test_pair_digest_is_stable_and_short():
    a = pair_digest([["[0,1]", "[1,0]"]])
    b = pair_digest([["[0,1]", "[1,0]"]])
    c = pair_digest([["[0,2]", "[2,0]"]])
    assert a == b and a != c
    assert len(a) == 12
    assert all(ch in "0123456789abcdef" for ch in a)


def test_summary_csv_round_trip(tmp_path):
    config = config_from_json(commute_obj(steps=5))
    records, _ = run(config)
    path = tmp_path / "summary.csv"
    write_summary_csv(records, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "t,T,loss,pair_digest"
    assert len(lines) == len(records) + 1
    first = lines[1].split(",")
    assert int(first[0]) == records[0]["t"]
    assert float(first[2]) == records[0]["loss"]
    assert first[3] == pair_digest(records[0]["pairs"])


def test_divergence_raises_without_numpy_warnings():
    config = config_from_json(commute_obj(eta=50.0, steps=50))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DivergenceError):
            run(config)


@pytest.mark.parametrize("obj, evaluations", [
    (commute_obj(steps=10, log_every=1), 11),
    (goal_switch_obj(steps=6, K=2, log_every=1), 7 + 2),  # states + firings
    (commute_obj(steps=10, log_every=100), 11),
])
def test_each_state_is_evaluated_once(monkeypatch, obj, evaluations):
    calls = []

    def counting(*args):
        calls.append(1)
        return eval_bridge(*args)

    eval_bridge = expr.eval_bridge
    monkeypatch.setattr(expr, "eval_bridge", counting)
    run(config_from_json(obj))
    # one pair of two 2-factor sides, its 4 probes in one batch: one call
    # per Apply node, 4 per evaluation
    assert len(calls) == 4 * evaluations


THREE_FAMILIES = [{"kind": "affine1", "m": 2}, {"kind": "mlp1h", "m": 2, "hidden": 4},
                  {"kind": "affine2", "m": 2}]


@pytest.mark.parametrize("obj", [commute_obj(steps=20, log_every=1), mlp_obj(steps=20),
                                 walk_obj(steps=60, K=5, slots=THREE_FAMILIES)])
def test_a_run_leaves_every_slot_family_as_it_was(obj):
    # a family is a value: the kernels keep no per-call state on it
    config = config_from_json(obj)
    before = [dict(vars(f)) for f in config.slot_specs]
    run(config)
    assert [vars(f) for f in config.slot_specs] == before


def test_cached_evaluation_never_goes_stale():
    config = config_from_json(goal_switch_obj(steps=9, K=2, log_every=1))
    sub, law = init_state(config), initial_law_state(config.law)
    for sim in iterate(config):
        rec = make_record(sim)
        probes = config.probe_set(sim.sub)
        assert rec["loss"] == loss(sim.law.cpair, config.slot_specs, sim.sub.slots,
                                   probes)
        assert all(np.array_equal(a, b) for a, b in zip(sim.sub.slots, sub.slots))
        if sim.t == config.steps:
            break
        if sim.t > 0 and sim.t % config.K == 0:
            law = step_law(config.law, law)
        probes = config.probe_set(sub)
        grads = loss_gradients(law.cpair, config.slot_specs, sub.slots, probes)
        sub = control_step(sub, grads, config)
    assert sim.t == 9 and sim.law.macro_count == law.macro_count == 4


DEMO_CONFIGS = Path(__file__).resolve().parents[1] / "demos" / "configs"


@pytest.mark.parametrize("name, steps", [("commute", 300), ("grammar_walk", 1200)])
def test_run_writes_nothing_to_stdout_or_stderr(capfd, tmp_path, name, steps):
    # a benchmark or CLI result must be the last line its caller prints
    obj = json.loads((DEMO_CONFIGS / f"{name}.json").read_text())
    obj["steps"] = steps
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a warning would print to stderr
        run(config_from_json(obj), jsonl_path=tmp_path / "trajectory.jsonl")
    assert capfd.readouterr() == ("", "")


@pytest.mark.parametrize("path", sorted(DEMO_CONFIGS.glob("*.json")),
                         ids=lambda p: p.stem)
def test_run_returns_the_records_it_writes(tmp_path, path):
    obj = json.loads(path.read_text())
    obj.update(steps=12, K=4, log_every=3, snapshot_every=5)
    out = tmp_path / "trajectory.jsonl"
    records, _ = run(config_from_json(obj), out)
    assert records == [json.loads(ln) for ln in out.read_text().splitlines()]
    keys = ["t", "T", "loss", "pairs", "x_norms", "d", "macro"]
    assert list(RECORD_FIELDS) == keys + ["slots"]
    assert [f for f, (_, required) in RECORD_FIELDS.items() if not required] == ["slots"]
    for rec in records:
        snapshot = rec["t"] % 5 == 0 or rec["t"] == 12
        assert list(rec) == keys + ["slots"] * snapshot
    assert [r["t"] for r in records if "slots" in r] == [0, 5, 12]
    assert any(r["macro"] for r in records)


# --- records: each one-call form against the form it replaced -----------------


def test_record_lines_equal_json_dumps():
    config = config_from_json(commute_obj(steps=3, K=2, snapshot_every=2))
    records, _ = run(config)
    assert {r["macro"] for r in records} == {False, True}
    assert {"slots" in r for r in records} == {False, True}
    for rec in records:
        assert record_to_json_line(rec) == json.dumps(rec, separators=(",", ":"))


def _still_goals():
    # identity goals: the loss is exactly 0 whatever the slots hold
    return commute_obj(steps=0, law={"kind": "identity", "pairs": [["[]", "[]"]]})


@pytest.mark.parametrize("scale", [0.0, 5e-324, 1e-300, 1e-160, 1e-5, 1.0, 3e7,
                                   1e150, 1e153])
def test_x_norms_are_linalg_norm_bit_for_bit(scale):
    sim = new_sim(config_from_json(_still_goals()))
    gen = np.random.default_rng(7)
    sim.sub.params[:] = scale * gen.uniform(-1, 1, sim.sub.params.size)
    norms = make_record(sim)["x_norms"]
    assert [n.hex() for n in norms] == [float(np.linalg.norm(s)).hex()
                                        for s in sim.sub.slots]


def test_huge_slot_entries_diverge_without_runtime_warnings():
    sim = new_sim(config_from_json(_still_goals()))
    sim.sub.slots[1][:] = 1e200
    # the caller holds the errstate, once per run, as `run` does
    with warnings.catch_warnings(), np.errstate(over="ignore", invalid="ignore"):
        warnings.simplefilter("error")
        with pytest.raises(DivergenceError):
            make_record(sim)
