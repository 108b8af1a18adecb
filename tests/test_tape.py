"""The compiled tape does only work that someone reads, bit for bit.

An Apply whose (slot, argument registers) recur reuses one op, and a
reverse step computes argument cotangents only when a later step reads
them; every occurrence still adds its own parameter-gradient row, in the
order of a walk of the trees, from its slot's row plan.  A one-argument
Apply's probe gradient is its argument's cotangent register, not a copy.
So loss, gradients, residuals and the probe gradient of `vjp_expr` must
equal the recursive oracle exactly, and loss and gradients byte for byte.
"""

import numpy as np
import pytest

from collections import Counter

from goalchase.bridge import MLP1H
from goalchase.expr import Apply, Compose, EquationPairList, compile_tape, vjp_expr
from goalchase.feedback import _compile_cached, compile_pairs, evaluate
from goalchase.goallaw import MUT_WRAP_HEADS, _mutate

from scenarios import feedback_error
from test_expr_oracle import (ARITIES, FAMILIES, _vjp, eval_expr, oracle_loss_gradients,
                              walked_goals)


def _grad_args_steps(tape):
    steps = [live for op, _, live in tape.steps if op is not None]
    return len(steps), sum(steps)


def test_commute_tape_has_four_ops_and_two_live_grad_args():
    commute = EquationPairList.from_json([["[0,1]", "[1,0]"]])
    tape = _compile_cached(commute, (1, 1))
    assert tape.ops == ((1, (0,)), (0, (1,)), (0, (0,)), (1, (3,)))
    # each side's last factor feeds only its gradient wrt the probe, and
    # the head's one argument cotangent is the last factor's cotangent
    assert tape.steps == ((1, 0, True), (0, 2, False), (3, 1, True), (2, 3, False))
    assert _grad_args_steps(tape) == (4, 2)
    # the one-tree view keeps the probe gradient, so every step is live
    trees = [t for pair in compile_pairs(commute, FAMILIES[1:]) for t in pair]
    full = compile_tape(trees, True)
    assert _grad_args_steps(full) == (4, 4)
    # every Apply takes one argument, so every probe gradient is aliased
    assert sum(op is None for op, _, _ in full.steps) == 0


def test_wrap_heads_goal_shares_its_head_ops():
    (left, right), = EquationPairList.from_json([["[1]", "[2]"]]).pairs
    wrapped = _mutate(np.random.Generator(np.random.PCG64(0)), (left, right),
                      MUT_WRAP_HEADS, ARITIES)
    cpair = EquationPairList((wrapped,))
    assert cpair.to_json() == [["[0,(1,2)]", "[0,(2,1)]"]]
    tape = _compile_cached(cpair, ARITIES)
    # both sides apply slots 1 and 2 to the probe: 6 Apply nodes, 4 ops
    assert tape.ops == ((1, (0,)), (2, (0,)), (0, (1, 2)), (0, (2, 1)))
    assert _grad_args_steps(tape) == (6, 2)


GOALS = EquationPairList.from_json([
    ["[0,(1,2)]", "[0,(2,1)]"],
    ["[2,0,([1,2],[2,1]),2]", "[0,([2,1],[1,2]),2]"],
    ["[1,2,1]", "[]"],
])


@pytest.mark.parametrize("count", [1, 3])
def test_pruned_tape_matches_oracle_exactly(count):
    trees = compile_pairs(GOALS, FAMILIES)
    tape = _compile_cached(GOALS, ARITIES)
    steps, live = _grad_args_steps(tape)
    assert len(tape.ops) < steps and live < steps  # shared ops, dead steps
    gen = np.random.Generator(np.random.PCG64(23 + count))
    for _ in range(5):
        slots = [gen.uniform(-1, 1, f.param_count) for f in FAMILIES]
        probes = [gen.uniform(-1, 1, 2) for _ in range(count)]
        loss, gradients = evaluate(GOALS, FAMILIES, slots, probes)
        expected = 0.0
        for d in probes:
            ers = [eval_expr(l, FAMILIES, slots, d) - eval_expr(r, FAMILIES, slots, d)
                   for l, r in trees]
            for got, er in zip(feedback_error(GOALS, FAMILIES, slots, d), ers):
                assert np.array_equal(got, er)
                expected += float(er @ er)
        assert loss == expected / count
        oracle = oracle_loss_gradients(trees, FAMILIES, slots, probes)
        for g, e in zip(gradients(), oracle):
            assert np.array_equal(g, e)
        d, cot = probes[0], gen.uniform(-1, 1, 2)
        for tree in (t for pair in trees for t in pair):
            value, pullback = vjp_expr(tree, FAMILIES, slots, d)
            assert np.array_equal(value, eval_expr(tree, FAMILIES, slots, d))
            grads = [np.zeros_like(s) for s in slots]
            expected_grads = [np.zeros_like(s) for s in slots]
            assert np.array_equal(pullback(cot, grads),
                                  _vjp(tree, FAMILIES, slots, d, cot, expected_grads))
            for g, e in zip(grads, expected_grads):
                assert np.array_equal(g, e)


@pytest.mark.parametrize("count", [1, 3])
def test_mlp1h_activation_runs_once_per_op(count, monkeypatch):
    mlp = [k for k, f in enumerate(FAMILIES) if f.kind == MLP1H]
    tape = _compile_cached(GOALS, ARITIES)
    ops = sum(slot in mlp for slot, _ in tape.ops)
    trees = [t for pair in compile_pairs(GOALS, FAMILIES) for t in pair]
    assert sum(s in mlp for tree in trees for s in _slot_occurrences(tree)) > ops > 0
    gen = np.random.Generator(np.random.PCG64(5 + count))
    slots = [gen.uniform(-1, 1, f.param_count) for f in FAMILIES]
    probes = [gen.uniform(-1, 1, 2) for _ in range(count)]
    calls, tanh = [], np.tanh

    def counted(*args, **kwargs):
        calls.append(1)
        return tanh(*args, **kwargs)

    monkeypatch.setattr(np, "tanh", counted)
    # the forward pass keeps every activation, so the reverse pass,
    # grad_args handed no arguments, never recomputes one
    evaluate(GOALS, FAMILIES, slots, probes)[1]()
    assert len(calls) == ops


def _goal_lists():
    return [GOALS] + [g for seed in range(4) for g in walked_goals(seed, 10)]


def _slot_occurrences(tree):
    if isinstance(tree, Apply):
        yield tree.slot
        for child in tree.children:
            yield from _slot_occurrences(child)
    elif isinstance(tree, Compose):
        yield from _slot_occurrences(tree.outer)
        yield from _slot_occurrences(tree.inner)


def test_row_plan_lists_every_occurrence_and_no_sum_copies():
    for cpair in _goal_lists():
        trees = [t for pair in compile_pairs(cpair, FAMILIES) for t in pair]
        tape = _compile_cached(cpair, ARITIES)
        occurrences = Counter(s for tree in trees for s in _slot_occurrences(tree))
        assert {slot: len(ops) for slot, (*_, ops) in tape.rows} == occurrences
        planned = []
        for slot, (*args, cots, ops) in tape.rows:
            assert [tape.ops[op] for op in ops] == [(slot, a) for a in zip(*args)]
            planned += zip(ops, cots)
        assert sorted(planned) == sorted((op, c) for op, c, _ in tape.steps
                                         if op is not None)
        for t in (tape, compile_tape(trees, True)):
            assert all(len(regs) == 2 for op, regs, _ in t.steps if op is None)


def _zeroed_trials(gen):
    """(slots, probes) that put zeros, and a -0.0 probe entry, into the pass."""
    slots = [gen.uniform(-1, 1, f.param_count) for f in FAMILIES]
    probes = [gen.uniform(-1, 1, 2) for _ in range(2)]
    for k in range(len(slots)):
        yield [np.zeros_like(s) if j == k else s for j, s in enumerate(slots)], probes
    yield [np.where(gen.random(s.shape) < 0.5, 0.0, s) for s in slots], probes
    yield slots, [np.zeros(2), np.array([-0.0, 0.0])]


def test_gradients_match_oracle_byte_for_byte_with_signed_zeros():
    gen, zeros = np.random.Generator(np.random.PCG64(41)), 0
    for cpair in _goal_lists():
        trees = compile_pairs(cpair, FAMILIES)
        for slots, probes in _zeroed_trials(gen):
            loss, gradients = evaluate(cpair, FAMILIES, slots, probes)
            expected = 0.0
            for d in probes:
                for l, r in trees:
                    er = eval_expr(l, FAMILIES, slots, d) - eval_expr(r, FAMILIES, slots, d)
                    expected += float(er @ er)
            assert np.float64(loss).tobytes() == np.float64(expected / len(probes)).tobytes()
            oracle = oracle_loss_gradients(trees, FAMILIES, slots, probes)
            for g, e in zip(gradients(), oracle):
                assert g.tobytes() == e.tobytes()
                zeros += not g.all()
    assert zeros > 0  # the trials put exact zeros into gradients
