"""The compiled tape does only work that someone reads, bit for bit.

An Apply whose (slot, argument registers) recur reuses one op, and a
reverse step computes argument cotangents only when a later step reads
them; every occurrence still adds its own parameter-gradient row, in the
order of a walk of the trees.  So loss, gradients, residuals and the
probe gradient of `vjp_expr` must equal the recursive oracle exactly.
"""

import numpy as np
import pytest

from goalchase.expr import EquationPairList, compile_tape, vjp_expr
from goalchase.feedback import _compile_cached, compile_pairs, evaluate, feedback_error
from goalchase.goallaw import MUT_WRAP_HEADS, _mutate

from test_expr_oracle import ARITIES, FAMILIES, _vjp, eval_expr, oracle_loss_gradients


def _grad_args_steps(tape):
    steps = [live for op, _, live in tape.steps if op is not None]
    return len(steps), sum(steps)


def test_commute_tape_has_four_ops_and_two_live_grad_args():
    commute = EquationPairList.from_json([["[0,1]", "[1,0]"]])
    tape = _compile_cached(commute, (1, 1))
    assert tape.ops == ((1, (0,)), (0, (1,)), (0, (0,)), (1, (3,)))
    # each side's last factor feeds only its gradient wrt the probe, and
    # only the head's sum is read, as the cotangent of the last factor
    assert tape.steps == ((1, 0, True), (None, (2,), True), (0, 3, False),
                          (3, 1, True), (None, (4,), True), (2, 5, False))
    assert _grad_args_steps(tape) == (4, 2)
    # the one-tree view keeps the probe gradient, so every step is live
    trees = [t for pair in compile_pairs(commute, FAMILIES[1:]) for t in pair]
    full = compile_tape(trees, True)
    assert _grad_args_steps(full) == (4, 4)
    assert sum(op is None for op, _, _ in full.steps) == 4


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
