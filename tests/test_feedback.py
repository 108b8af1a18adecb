import importlib
import pkgutil
import warnings
from dataclasses import replace

import numpy as np
import pytest

import goalchase
from goalchase import expr, feedback
from goalchase.bridge import AFFINE1, AFFINE2, BridgeFamily
from goalchase.core import DivergenceError, config_from_json, init_state
from goalchase.expr import Apply, ArityError, Compose, EquationPairList
from goalchase.feedback import (
    compile_pairs,
    control_step,
    evaluate,
    loss,
    loss_gradients,
)
from goalchase.goallaw import LawStallWarning
from goalchase.simulator import iterate

from scenarios import commute_obj, feedback_error, resample_obj, walk_obj


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
    feedback._compile_cached.cache_clear()
    tape = feedback._compile_cached(cpair, tuple(f.arity for f in fam_unary))
    assert feedback._compile_cached(cpair, (1, 1)) is tape
    # the same goal list under another arity table is another key
    with pytest.raises(ArityError):
        feedback._compile_cached(cpair, tuple(f.arity for f in fam_binary))
    info = feedback._compile_cached.cache_info()
    assert (info.hits, info.misses) == (1, 2)


def test_compile_cache_is_the_only_one(monkeypatch):
    # the benchmark clears this cache by name before each run, so that every
    # run pays for compiling its goals as a fresh process does
    modules = [importlib.import_module(f"goalchase.{m.name}")
               for m in pkgutil.iter_modules(goalchase.__path__)
               if m.name != "__main__"]
    scopes = [scope for mod in modules for scope in
              [mod, *(v for v in vars(mod).values() if isinstance(v, type))]]
    caches = {(scope.__name__, name) for scope in scopes
              for name, obj in vars(scope).items() if hasattr(obj, "cache_info")}
    assert caches == {("goalchase.feedback", "_compile_cached")}
    compiles = []
    compile_tape = feedback.compile_tape
    monkeypatch.setattr(feedback, "compile_tape",
                        lambda trees: compiles.append(1) or compile_tape(trees))
    config = config_from_json(commute_obj())
    slots = init_state(config).slots
    feedback._compile_cached.cache_clear()
    for n in (1, 2):
        evaluate(config.law.pairs, config.slot_specs, slots, config.probes)[1]()
        info = feedback._compile_cached.cache_info()
        assert (info.hits, info.misses, len(compiles)) == (n - 1, 1, 1)


def test_compile_cache_holds_at_most_64_tapes():
    # a K = 1 walk without wraps visits a new goal list on most steps
    obj = walk_obj(K=1, steps=150, probes=[[1.0, 0.0]], law={
        "kind": "grammar_walk", "pairs": [["[0]", "[1]"]], "law_seed": 3,
        "mutation_weights": [1.0, 1.0, 1.0, 0.0]})
    feedback._compile_cached.cache_clear()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", LawStallWarning)
        goals = {sim.law.cpair for sim in iterate(config_from_json(obj))}
    info = feedback._compile_cached.cache_info()
    assert len(goals) > 64 and info.misses > 64
    assert info.currsize <= 64


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


def test_loss_gradients_call_bridges_once_per_op_live_step_and_slot(monkeypatch):
    # the probes run as one batch: per evaluation, eval_bridge runs once per
    # distinct (slot, arguments), grad_args once per op whose argument
    # cotangents are read and grad_bridge once per slot, whatever the probe
    # count
    calls = dict.fromkeys(("eval_bridge", "grad_args", "grad_bridge"), 0)

    def counting(name, fn):
        def wrapped(*args):
            calls[name] += 1
            return fn(*args)
        return wrapped

    for name in calls:
        monkeypatch.setattr(expr, name, counting(name, getattr(expr, name)))
    families, slots = _oracle_setup()
    cpair = pairs_of(["[0,([1,2],[2,1]),1,2]", "[2,0,(1,[0,(2,1)])]"],
                     ["[1,2,1]", "[]"])
    probes = [np.array([1.0, 2.0]), np.array([-0.5, 0.25]), np.ones(2)]
    nodes = sum(_apply_nodes(t) for pair in compile_pairs(cpair, families)
                for t in pair)
    # 16 Apply nodes.  Slot 2 at the probe, slot 1 at the probe and slot 1
    # after it recur, so 13 ops are distinct.  Two of them, slot 2 and slot
    # 1 at the probe, read only the probe, and nobody reads the gradient wrt
    # it, so the other 11 run grad_args
    assert nodes == 16
    for count in (1, 3):
        calls.update(dict.fromkeys(calls, 0))
        loss_gradients(cpair, families, slots, probes[:count])
        assert calls == {"eval_bridge": 13, "grad_args": 11,
                         "grad_bridge": len(slots)}


def test_control_step_zero_eta_keeps_slots():
    config, state, cpair = _control_setup()
    new = control_step(
        state, loss_gradients(cpair, config.slot_specs, state.slots, config.probes),
        replace(config, eta=0.0),
    )
    assert all(np.array_equal(a, b) for a, b in zip(new.slots, state.slots))
    assert new.probe_cursor == 1
    assert np.array_equal(new.probe, config.probes[1])


def test_control_step_zero_loss_applies_drift_only():
    config, state, cpair = _control_setup()
    same = pairs_of(["[0,1]", "[0,1]"])
    grads = loss_gradients(same, config.slot_specs, state.slots, config.probes)
    new = control_step(state, grads, replace(config, eta=0.05, drift=0.25))
    for a, b in zip(new.slots, state.slots):
        assert np.array_equal(a, 0.75 * b)


def test_control_step_momentum_recurrence():
    config, state, cpair = _control_setup()
    eta, mu = 0.05, 0.9
    g0 = loss_gradients(cpair, config.slot_specs, state.slots, config.probes)
    knobs = replace(config, eta=eta, mu=mu)
    s1 = control_step(state, g0, knobs)
    s2 = control_step(
        s1, loss_gradients(cpair, config.slot_specs, s1.slots, config.probes), knobs,
    )
    v0 = np.split(state.momentum, state.bounds[1:-1])
    v1 = [mu * v + g for v, g in zip(v0, g0)]
    x1 = [s - eta * v for s, v in zip(state.slots, v1)]
    g1 = loss_gradients(cpair, config.slot_specs, x1, config.probes)
    v2 = [mu * v + g for v, g in zip(v1, g1)]
    x2 = [s - eta * v for s, v in zip(x1, v2)]
    assert all(np.array_equal(a, b) for a, b in zip(s1.slots, x1))
    assert np.array_equal(s2.momentum, np.concatenate(v2))
    assert all(np.array_equal(a, b) for a, b in zip(s2.slots, x2))


def test_control_step_fixed_probe_cycle_and_private_words():
    config, state, cpair = _control_setup()
    cur = state
    for k in range(1, 6):
        grads = loss_gradients(cpair, config.slot_specs, cur.slots, config.probes)
        cur = control_step(cur, grads, replace(config, eta=0.05))
        assert cur.probe_cursor == k % 4
        assert np.array_equal(cur.probe, config.probes[k % 4])
        # the words are an immutable value, carried over as they are
        assert cur.rng_words is state.rng_words


def test_control_step_resample_draws_and_advances_words():
    config, state, cpair = _control_setup()
    grads = loss_gradients(cpair, config.slot_specs, state.slots, [state.probe])
    knobs = replace(config, eta=0.05, probe_mode="resample")
    a = control_step(state, grads, knobs)
    # init_state is deterministic, so this is an equal, separate state
    b = control_step(init_state(config), grads, knobs)
    assert np.array_equal(a.probe, b.probe)
    assert not np.array_equal(a.rng_words, state.rng_words)
    assert np.all(np.abs(a.probe) <= 1.0)
    c = control_step(
        a, loss_gradients(cpair, config.slot_specs, a.slots, [a.probe]), knobs,
    )
    assert not np.array_equal(c.probe, a.probe)


def test_control_step_does_not_mutate_input():
    config, state, cpair = _control_setup()
    frozen = init_state(config)  # equal to state, and separate from it
    grads = loss_gradients(cpair, config.slot_specs, state.slots, config.probes)
    control_step(state, grads, replace(config, eta=0.05, mu=0.5))
    assert all(np.array_equal(a, b) for a, b in zip(state.slots, frozen.slots))
    assert all(
        np.array_equal(a, b) for a, b in zip(state.momentum, frozen.momentum)
    )
    assert np.array_equal(state.probe, frozen.probe)
    assert state.probe_cursor == frozen.probe_cursor


def test_control_step_result_shares_no_memory_with_its_input():
    config, state, cpair = _control_setup()
    grads = loss_gradients(cpair, config.slot_specs, state.slots, config.probes)
    new = control_step(state, grads, replace(config, eta=0.05, mu=0.5))
    old = [state.params, state.momentum, *state.slots]
    for a in (new.params, new.momentum, *new.slots):
        assert not any(np.shares_memory(a, b) for b in old + list(grads))
    assert all(np.shares_memory(s, new.params) for s in new.slots)


def test_non_finite_gradient_names_the_first_bad_slot():
    config, state, _ = _control_setup()
    # flat entries 5 and 6 are the last of slot 0 and the first of slot 1
    for bad, slot in (([5], 0), ([6], 1), ([11], 1), ([6, 5], 0)):
        flat = np.zeros(12)
        flat[bad] = np.inf
        grads = np.split(flat, [6])
        with pytest.raises(DivergenceError, match=f"in slot {slot}$"):
            control_step(state, grads, replace(config, eta=0.05))


def test_descent_reduces_loss():
    config, state, cpair = _control_setup()
    start = loss(cpair, config.slot_specs, state.slots, config.probes)
    cur = state
    for _ in range(200):
        grads = loss_gradients(cpair, config.slot_specs, cur.slots, config.probes)
        cur = control_step(cur, grads, replace(config, eta=0.05))
    end = loss(cpair, config.slot_specs, cur.slots, config.probes)
    assert end < start * 0.1


def test_non_finite_gradient_raises():
    config, state, cpair = _control_setup()
    state.slots[0][:] = 1e308
    bad = pairs_of(["[0]", "[1]"])
    # the caller of loss_gradients holds the errstate, as a run does
    with pytest.raises(DivergenceError) as e, np.errstate(over="ignore", invalid="ignore"):
        grads = loss_gradients(bad, config.slot_specs, state.slots, config.probes)
        control_step(state, grads, replace(config, eta=0.05))
    assert "slot 0" in str(e.value)


# --- each one-call form against the form it replaced --------------------------


def _random_goals(m, seed):
    gen = np.random.default_rng(seed)
    families = [BridgeFamily(AFFINE1, m=m), BridgeFamily(AFFINE2, m=m)]
    slots = [gen.uniform(-2, 2, f.param_count) for f in families]
    cpair = pairs_of(["[0,1,(0,[])]", "[1,([0],[])]"], ["[0]", "[]"],
                     ["[1,(0,0)]", "[0,0]"])
    return gen, families, slots, cpair


@pytest.mark.parametrize("m", [1, 2, 3, 7, 33])
@pytest.mark.parametrize("count", [1, 4, 9])
def test_loss_equals_the_matmul_loop_bit_for_bit(m, count):
    gen, families, slots, cpair = _random_goals(m, 100 * m + count)
    # probes over six decades, so the order of the sum shows in its bits
    probes = gen.uniform(-1, 1, (count, m)) * 10.0 ** gen.uniform(-3, 3, (count, 1))
    ers = feedback_error(cpair, families, slots, probes)
    total = 0.0
    for p in range(count):
        for er in ers:
            total += float(er[p] @ er[p])
    assert loss(cpair, families, slots, probes).hex() == (total / count).hex()


def test_fresh_fold_equals_the_zero_row_fold_byte_for_byte(monkeypatch):
    # the reverse pass folds whatever rows grad_bridge hands it: here rows
    # of -0.0, infinities and more, for 3 Applies at 2 probes of slot 0,
    # against the same rows added probe-major to a row of +0.0
    families = [BridgeFamily(AFFINE1, m=2)]
    slots = [np.zeros(6)]
    tape = expr.compile_tape([expr.parse_sequence((0, 0, 0), (1,))])
    forward = expr.run_forward(tape, families, slots, np.zeros((2, 2)))
    gen = np.random.default_rng(5)
    values = [0.0, -0.0, 1.5, -1.5, 1e-310, np.inf, -np.inf, 1e308, -1e308]
    cases = [np.full((3, 2, 6), -0.0), np.where(np.arange(36) % 2, -0.0, np.inf)]
    cases += [gen.choice(values, size=(3, 2, 6)) for _ in range(300)]
    for rows in cases:
        rows = rows.reshape(3, 2, 6)
        monkeypatch.setattr(expr, "grad_bridge", lambda *a, rows=rows: rows)
        zero_row = np.zeros(6)
        with np.errstate(over="ignore", invalid="ignore"):
            fresh, = expr.run_reverse(tape, families, forward, [np.zeros((2, 2))])
            for p in range(2):
                for row in rows[:, p]:
                    zero_row = zero_row + row
        assert fresh.tobytes() == zero_row.tobytes()


def test_evaluate_takes_a_list_of_probes_or_their_array():
    gen, families, slots, cpair = _random_goals(3, 11)
    probes = [gen.uniform(-1, 1, 3) for _ in range(5)]
    value, gradients = evaluate(cpair, families, slots, probes)
    value_a, gradients_a = evaluate(cpair, families, slots, np.array(probes))
    assert value.hex() == value_a.hex()
    for g, g_a in zip(gradients(), gradients_a()):
        assert g.tobytes() == g_a.tobytes()


def test_config_probes_are_one_array_and_steps_copy_a_row():
    config, state, cpair = _control_setup()
    assert config.probes.shape == (4, 2) and config.probes.dtype == float
    grads = loss_gradients(cpair, config.slot_specs, state.slots, config.probes)
    new = control_step(state, grads, replace(config, eta=0.05))
    assert not np.shares_memory(new.probe, config.probes)
    resample = config_from_json(resample_obj())
    assert resample.probes.shape == (0, 2)
