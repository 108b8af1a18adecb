import numpy as np
import pytest

from goalchase import expr
from goalchase.bridge import AFFINE1, AFFINE2, BridgeFamily
from goalchase.core import DivergenceError, config_from_json, init_state
from goalchase.expr import Apply, ArityError, Compose, EquationPairList
from goalchase.feedback import (
    compile_pairs,
    control_step,
    feedback_error,
    loss,
    loss_gradients,
)

from scenarios import commute_obj


def _oracle_setup():
    families = [
        BridgeFamily(AFFINE2, m=2),
        BridgeFamily(AFFINE1, m=2),
        BridgeFamily(AFFINE1, m=2),
    ]
    slots = [
        np.concatenate([np.eye(2).ravel(), np.eye(2).ravel(), np.zeros(2)]),
        np.array([0.0, 1.0, 1.0, 0.0, 0.0, 0.0]),  # swap
        np.array([1.0, 0.0, 0.0, -1.0, 0.0, 0.0]),  # diag(1, -1)
    ]
    return families, slots


def pairs_of(*entries):
    return EquationPairList.from_json(list(entries))


def test_residual_hand_value():
    families, slots = _oracle_setup()
    cpair = pairs_of(["[1,2]", "[2,1]"])
    ers = feedback_error(cpair, families, slots, np.array([1.0, 2.0]))
    assert len(ers) == 1
    assert np.array_equal(ers[0], np.array([-4.0, 2.0]))


def test_loss_hand_value():
    families, slots = _oracle_setup()
    cpair = pairs_of(["[1,2]", "[2,1]"])
    assert loss(cpair, families, slots, [np.array([1.0, 2.0])]) == 20.0


def test_loss_is_mean_over_probes():
    families, slots = _oracle_setup()
    cpair = pairs_of(["[1,2]", "[2,1]"])
    d1, d2 = np.array([1.0, 2.0]), np.array([-0.5, 0.25])
    both = loss(cpair, families, slots, [d1, d2])
    singles = (
        loss(cpair, families, slots, [d1]) + loss(cpair, families, slots, [d2])
    ) / 2
    assert both == singles


def test_identical_sides_are_exactly_zero():
    families, slots = _oracle_setup()
    cpair = pairs_of(["[1,2]", "[1,2]"])
    d = np.array([0.7, -0.2])
    assert np.array_equal(feedback_error(cpair, families, slots, d)[0],
                          np.zeros(2))
    assert loss(cpair, families, slots, [d]) == 0.0
    grads = loss_gradients(cpair, families, slots, [d])
    assert all(np.array_equal(g, np.zeros_like(s))
               for g, s in zip(grads, slots))


def test_empty_pair_list():
    families, slots = _oracle_setup()
    cpair = EquationPairList(())
    assert feedback_error(cpair, families, slots, np.zeros(2)) == []
    assert loss(cpair, families, slots, [np.zeros(2)]) == 0.0


def test_multiple_pairs_sum():
    families, slots = _oracle_setup()
    d = np.array([1.0, 2.0])
    a = loss(pairs_of(["[1,2]", "[2,1]"]), families, slots, [d])
    b = loss(pairs_of(["[1]", "[2]"]), families, slots, [d])
    both = loss(
        pairs_of(["[1,2]", "[2,1]"], ["[1]", "[2]"]), families, slots, [d]
    )
    assert both == a + b


def test_compile_cache_keys_on_arities():
    cpair = pairs_of(["[0,1]", "[1,0]"])
    fam_unary = [BridgeFamily(AFFINE1, 2), BridgeFamily(AFFINE1, 2)]
    fam_binary = [BridgeFamily(AFFINE1, 2), BridgeFamily(AFFINE2, 2)]
    compile_pairs(cpair, fam_unary)
    with pytest.raises(ArityError):
        compile_pairs(cpair, fam_binary)


def test_loss_gradients_match_finite_differences():
    families, _ = _oracle_setup()
    gen = np.random.Generator(np.random.PCG64(17))
    slots = [gen.uniform(-1, 1, f.param_count) for f in families]
    cpair = pairs_of(["[1,2]", "[2,1]"], ["[0,(1,2)]", "[]"])
    probes = [gen.uniform(-1, 1, 2) for _ in range(3)]
    grads = loss_gradients(cpair, families, slots, probes)
    h = 1e-6
    for si in range(3):
        for j in range(len(slots[si])):
            hi = [s.copy() for s in slots]
            lo = [s.copy() for s in slots]
            hi[si][j] += h
            lo[si][j] -= h
            fd = (
                loss(cpair, families, hi, probes)
                - loss(cpair, families, lo, probes)
            ) / (2 * h)
            assert abs(grads[si][j] - fd) < 1e-7 * max(1.0, abs(fd))


def _control_setup():
    config = config_from_json(commute_obj())
    state = init_state(config)
    cpair = config.law.pairs
    return config, state, cpair


def _apply_nodes(tree):
    if isinstance(tree, Apply):
        return 1 + sum(_apply_nodes(c) for c in tree.children)
    if isinstance(tree, Compose):
        return _apply_nodes(tree.outer) + _apply_nodes(tree.inner)
    return 0


def test_loss_gradients_call_each_bridge_once_per_apply_node(monkeypatch):
    calls = {"eval": 0, "grad": 0}

    def counting(name, fn):
        def wrapped(*args):
            calls[name] += 1
            return fn(*args)
        return wrapped

    monkeypatch.setattr(expr, "eval_bridge", counting("eval", expr.eval_bridge))
    monkeypatch.setattr(expr, "grad_bridge", counting("grad", expr.grad_bridge))
    families, slots = _oracle_setup()
    cpair = pairs_of(["[0,([1,2],[2,1]),1,2]", "[2,0,(1,[0,(2,1)])]"],
                     ["[1,2,1]", "[]"])
    probes = [np.array([1.0, 2.0]), np.array([-0.5, 0.25]), np.ones(2)]
    nodes = sum(_apply_nodes(t) for pair in compile_pairs(cpair, families)
                for t in pair)
    loss_gradients(cpair, families, slots, probes)
    assert calls == {"eval": nodes * len(probes), "grad": nodes * len(probes)}


def test_control_step_zero_eta_keeps_slots():
    config, state, cpair = _control_setup()
    new = control_step(
        state, loss_gradients(cpair, config.slot_specs, state.slots, config.probes),
        config.probes, eta=0.0,
    )
    assert all(np.array_equal(a, b) for a, b in zip(new.slots, state.slots))
    assert new.probe_cursor == 1
    assert np.array_equal(new.probe, config.probes[1])


def test_control_step_zero_loss_applies_drift_only():
    config, state, cpair = _control_setup()
    same = pairs_of(["[0,1]", "[0,1]"])
    grads = loss_gradients(same, config.slot_specs, state.slots, config.probes)
    new = control_step(state, grads, config.probes, eta=0.05, drift=0.25)
    for a, b in zip(new.slots, state.slots):
        assert np.array_equal(a, 0.75 * b)


def test_control_step_momentum_recurrence():
    config, state, cpair = _control_setup()
    eta, mu = 0.05, 0.9
    g0 = loss_gradients(cpair, config.slot_specs, state.slots, config.probes)
    s1 = control_step(state, g0, config.probes, eta, mu)
    s2 = control_step(
        s1, loss_gradients(cpair, config.slot_specs, s1.slots, config.probes),
        config.probes, eta, mu,
    )
    v1 = [mu * v + g for v, g in zip(state.momentum, g0)]
    x1 = [s - eta * v for s, v in zip(state.slots, v1)]
    g1 = loss_gradients(cpair, config.slot_specs, x1, config.probes)
    v2 = [mu * v + g for v, g in zip(v1, g1)]
    x2 = [s - eta * v for s, v in zip(x1, v2)]
    assert all(np.array_equal(a, b) for a, b in zip(s1.slots, x1))
    assert all(np.array_equal(a, b) for a, b in zip(s2.momentum, v2))
    assert all(np.array_equal(a, b) for a, b in zip(s2.slots, x2))


def test_control_step_fixed_probe_cycle_and_private_words():
    config, state, cpair = _control_setup()
    cur = state
    words0 = state.rng_words.copy()
    for k in range(1, 6):
        grads = loss_gradients(cpair, config.slot_specs, cur.slots, config.probes)
        cur = control_step(cur, grads, config.probes, 0.05)
        assert cur.probe_cursor == k % 4
        assert np.array_equal(cur.probe, config.probes[k % 4])
        assert np.array_equal(cur.rng_words, words0)


def test_control_step_resample_draws_and_advances_words():
    config, state, cpair = _control_setup()
    grads = loss_gradients(cpair, config.slot_specs, state.slots, [state.probe])
    a = control_step(state, grads, [state.probe], 0.05, probe_mode="resample")
    b = control_step(
        state.copy(), grads, [state.probe], 0.05, probe_mode="resample"
    )
    assert np.array_equal(a.probe, b.probe)
    assert not np.array_equal(a.rng_words, state.rng_words)
    assert np.all(np.abs(a.probe) <= 1.0)
    c = control_step(
        a, loss_gradients(cpair, config.slot_specs, a.slots, [a.probe]),
        [a.probe], 0.05, probe_mode="resample",
    )
    assert not np.array_equal(c.probe, a.probe)


def test_control_step_does_not_mutate_input():
    config, state, cpair = _control_setup()
    frozen = state.copy()
    grads = loss_gradients(cpair, config.slot_specs, state.slots, config.probes)
    control_step(state, grads, config.probes, 0.05, 0.5)
    assert all(np.array_equal(a, b) for a, b in zip(state.slots, frozen.slots))
    assert all(
        np.array_equal(a, b) for a, b in zip(state.momentum, frozen.momentum)
    )
    assert np.array_equal(state.probe, frozen.probe)
    assert state.probe_cursor == frozen.probe_cursor


def test_descent_reduces_loss():
    config, state, cpair = _control_setup()
    start = loss(cpair, config.slot_specs, state.slots, config.probes)
    cur = state
    for _ in range(200):
        grads = loss_gradients(cpair, config.slot_specs, cur.slots, config.probes)
        cur = control_step(cur, grads, config.probes, 0.05)
    end = loss(cpair, config.slot_specs, cur.slots, config.probes)
    assert end < start * 0.1


def test_non_finite_gradient_raises():
    config, state, cpair = _control_setup()
    state.slots[0][:] = 1e308
    bad = pairs_of(["[0]", "[1]"])
    with pytest.raises(DivergenceError) as e:
        grads = loss_gradients(bad, config.slot_specs, state.slots, config.probes)
        control_step(state, grads, config.probes, 0.05)
    assert "slot 0" in str(e.value)
