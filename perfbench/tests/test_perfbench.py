"""Tests of the benchmark itself: tracing hygiene, null metrics, the gate.

    python3 -m pytest perfbench/tests
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import gate  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import PACKAGE, Tracer  # noqa: E402

gc = run.import_goalchase()


def _bindings() -> dict:
    return {
        (name, attr): val
        for name, mod in list(sys.modules.items())
        if name == PACKAGE or name.startswith(PACKAGE + ".")
        for attr, val in vars(mod).items()
        if callable(val)
    }


def _small_config():
    obj = workloads.walk_growth(workloads.DEFAULT_SEED)
    obj.update(steps=60, log_every=60)
    return gc.config_from_json(obj)


def test_tracer_wraps_every_binding_and_restores_them():
    from goalchase import feedback, simulator

    before = _bindings()
    with Tracer() as tracer:
        # traced under the caller's name as well as the defining module's
        assert simulator.control_step is feedback.control_step
        assert simulator.control_step.__wrapped__ is before[("goalchase.feedback", "control_step")]
        simulator.run(_small_config())
    assert _bindings() == before
    assert not tracer.missing
    assert tracer.stats["simulator.run"].calls == 1
    assert tracer.stats["goallaw.step_law"].calls == 2
    assert set(tracer.stats) >= {"bridge.eval_bridge.mlp1h", "bridge.grad_bridge.affine1"}
    # the self times of all spans add up to the outermost spans
    total_self = sum(st.self_s for st in tracer.stats.values())
    assert total_self == pytest.approx(tracer.root_s, rel=1e-9)


def test_tracer_restores_bindings_when_the_run_raises():
    from goalchase import simulator

    before = _bindings()
    with pytest.raises(ZeroDivisionError):
        with Tracer():
            simulator.run(_small_config())
            1 / 0
    assert _bindings() == before


def test_removed_traced_function_is_reported_as_null(monkeypatch):
    from goalchase import feedback, simulator

    # as if a later change folded feedback.loss into its caller
    loss = feedback.loss
    monkeypatch.delattr(feedback, "loss")
    monkeypatch.setattr(simulator, "loss", lambda *a: loss(*a))
    res = run.bench("commute_log1", workloads.DEFAULT_SEED, 0.1, trace=True)
    assert res["correct"]
    metrics = res["metrics"]
    assert list(metrics) == list(layers.UNITS)
    assert metrics["feedback.loss.self_us"]["value"] is None
    assert metrics["simulator.make_record.self_us"]["value"] > 0
    assert res["summary"]["missing_functions"] == ["feedback.loss"]
    json.dumps(res)


def test_removed_timed_function_is_reported_as_null(monkeypatch):
    from goalchase import feedback

    monkeypatch.delattr(feedback, "loss_gradients")
    metrics = layers.isolated_metrics(workloads.commute_log1(workloads.DEFAULT_SEED))
    for length in layers.CHAIN_LENGTHS:
        assert metrics[f"expr.per_factor_us.chain{length}"] is None
    assert metrics["bridge.grad.us.mlp1h"] > 0


def test_gate_admits_last_bit_drift_and_catches_a_wrong_result():
    # deep_chain ends at a loss far above the roundoff floor
    ref = gate.load_reference()["workloads"]["deep_chain"]
    final = ref["finals"][str(workloads.DEFAULT_SEED)]
    assert final["loss"] > 1e6 * gate.LOSS_ATOL
    drifted = {"loss": final["loss"] * (1 + 1e-12),
               "slots": [[x * (1 + 1e-12) for x in s] for s in final["slots"]]}
    assert gate.check_final(drifted, final) == []
    wrong = {"loss": final["loss"], "slots": [[x + 1e-6 for x in s] for s in final["slots"]]}
    assert gate.check_final(wrong, final)
    wrong = {"loss": final["loss"] * 1.001, "slots": final["slots"]}
    assert gate.check_final(wrong, final)


def test_gate_checks_goal_stream_and_byte_identity(tmp_path):
    from goalchase import simulator

    seed = 99  # no stored final: only the seed-independent checks apply
    assert str(seed) not in gate.load_reference()["workloads"]["deep_chain"]["finals"]
    path = tmp_path / "t.jsonl"
    simulator.run(gc.config_from_json(workloads.deep_chain(seed)), jsonl_path=path)
    data = path.read_bytes()
    ref = gate.load_reference()["workloads"]["deep_chain"]
    assert gate.check_run(data, data, ref, seed) == []
    assert gate.check_run(data, data + b" ", ref, seed)
    other = dict(ref, goal_stream_sha256="0" * 64)
    assert gate.check_run(data, None, other, seed)


def test_workload_configs_are_a_function_of_the_seed():
    for name in workloads.WORKLOADS:
        assert workloads.config_obj(name, 5) == workloads.config_obj(name, 5)
        assert workloads.config_obj(name, 5)["init_seed"] == 5
        gc.config_from_json(workloads.config_obj(name, 2**64 - 1))


def test_metrics_must_match_those_benchmark_json_declares(monkeypatch):
    monkeypatch.setattr(run, "END_TO_END_UNITS", dict(run.END_TO_END_UNITS, extra_s="s"))
    with pytest.raises(run.BenchError, match="extra_s"):
        run.bench("deep_chain", workloads.DEFAULT_SEED, 0.1, trace=False)
