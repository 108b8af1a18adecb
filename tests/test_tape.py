"""The compiled tape: one adjoint and one row per op, bit for bit.

An Apply whose (slot, argument registers) recur reuses one op, and the
reverse pass runs on that DAG: it visits the ops in reverse order, adds
each adjoint's contributions (seeds in tree order, then readers in step
order) only where there are several, and computes argument cotangents
only where one is read.  Each op adds one parameter-gradient row at its
adjoint, in the order of its first Apply in a walk of the trees.  So
loss, gradients, residuals and each tree's own slot gradients must
equal the per-probe DAG oracle exactly, loss and gradients byte for
byte, and the reverse work tracks ops, not tree nodes.
"""

import warnings

import numpy as np
import pytest

from goalchase import expr
from goalchase.bridge import AFFINE1, AFFINE2, MLP1H, BridgeFamily
from goalchase.expr import Apply, Compose, EquationPairList, node_count
from goalchase.feedback import _compile_cached, compile_pairs, evaluate
from goalchase.goallaw import (GRAMMAR_WALK, MUT_WRAP_HEADS, LawSpec, _mutate,
                               initial_law_state, step_law)

from scenarios import feedback_error, tree_vjp
from test_expr_oracle import (ARITIES, FAMILIES, _walk, dag_loss_gradients, dag_vjp,
                              eval_expr, walked_goals)


def _op_steps(tape):
    return sum(op is not None for op, _ in tape.steps)


def test_commute_tape_has_four_ops_and_two_live_grad_args():
    commute = EquationPairList.from_json([["[0,1]", "[1,0]"]])
    tape = _compile_cached(commute, (1, 1))
    assert tape.ops == ((1, (0,)), (0, (1,)), (0, (0,)), (1, (3,)))
    # each side's last factor reads only the probe, whose gradient nobody
    # reads, so only the heads run grad_args, at their seeds 1 and 0
    assert tape.steps == ((3, 1), (1, 0))
    # one row per op, each side's head before its last factor
    assert tape.rows == ((0, ((1, 0), (0, 2), (1, 2))), (1, ((0, 3), (3, 1), (0, 3))))


def test_wrap_heads_goal_shares_its_head_ops():
    (left, right), = EquationPairList.from_json([["[1]", "[2]"]]).pairs
    wrapped = _mutate(np.random.Generator(np.random.PCG64(0)), (left, right),
                      MUT_WRAP_HEADS, ARITIES)
    cpair = EquationPairList((wrapped,))
    assert cpair.to_json() == [["[0,(1,2)]", "[0,(2,1)]"]]
    tape = _compile_cached(cpair, ARITIES)
    # both sides apply slots 1 and 2 to the probe: 6 Apply nodes, 4 ops
    assert tape.ops == ((1, (0,)), (2, (0,)), (0, (1, 2)), (0, (2, 1)))
    # the two heads run grad_args; each shared op's adjoint then sums its
    # two readers' cotangents, the right head's first
    assert tape.steps == ((3, 1), (2, 0), (None, (2, 5)), (None, (3, 4)))
    assert tape.rows == ((0, ((1, 2), (2, 1), (0, 1), (2, 3))),
                         (1, ((0,), (7,), (0,))), (2, ((0,), (6,), (1,))))


GOALS = EquationPairList.from_json([
    ["[0,(1,2)]", "[0,(2,1)]"],
    ["[2,0,([1,2],[2,1]),2]", "[0,([2,1],[1,2]),2]"],
    ["[1,2,1]", "[]"],
])


@pytest.mark.parametrize("count", [1, 3])
def test_pruned_tape_matches_oracle_exactly(count):
    trees = compile_pairs(GOALS, FAMILIES)
    tape = _compile_cached(GOALS, ARITIES)
    nodes = sum(1 for pair in trees for t in pair for _ in _slot_occurrences(t))
    assert len(tape.ops) < nodes and _op_steps(tape) < len(tape.ops)  # shared, pruned
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
        oracle = dag_loss_gradients(trees, FAMILIES, slots, probes)
        for g, e in zip(gradients(), oracle):
            assert np.array_equal(g, e)
        d, cot = probes[0], gen.uniform(-1, 1, 2)
        for tree in (t for pair in trees for t in pair):
            value, grads = tree_vjp(tree, FAMILIES, slots, d, cot)
            assert np.array_equal(value, eval_expr(tree, FAMILIES, slots, d))
            expected_grads = [np.zeros_like(s) for s in slots]
            dag_vjp([tree], FAMILIES, slots, d, [cot], expected_grads)
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


def _terms(tape):
    """The term of each value register: "d" for the probes, else (slot,
    argument terms), as `test_expr_oracle._term` builds them."""
    terms = ["d"]
    for slot, args in tape.ops:
        terms.append((slot, tuple(terms[a] for a in args)))
    return terms


def test_row_plan_lists_each_op_once_and_no_sum_copies():
    for cpair in _goal_lists():
        trees = [t for pair in compile_pairs(cpair, FAMILIES) for t in pair]
        tape = _compile_cached(cpair, ARITIES)
        terms = _terms(tape)
        assert len(set(terms)) == len(terms)  # value numbering misses no repeat
        walk = list(dict.fromkeys(t for tree in trees for t in _walk(tree, "d")))
        assert set(walk) == set(terms[1:])
        for slot, (*args, _, ops) in tape.rows:
            assert [tape.ops[op] for op in ops] == [(slot, a) for a in zip(*args)]
            assert [terms[op + 1] for op in ops] == [t for t in walk if t[0] == slot]
        assert all(len(regs) > 1 for op, regs in tape.steps if op is None)
        assert len(tape.steps) <= 2 * len(tape.ops)


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
            oracle = dag_loss_gradients(trees, FAMILIES, slots, probes)
            for g, e in zip(gradients(), oracle):
                assert g.tobytes() == e.tobytes()
                zeros += not g.all()
    assert zeros > 0  # the trials put exact zeros into gradients


def test_reverse_work_tracks_ops_not_nodes(monkeypatch):
    # walk_growth's law at 120 firings: the goals grow to 1651 tree nodes
    # over 57 ops, and a reverse pass per occurrence took 1571 steps
    families = [BridgeFamily(AFFINE1, m=2), BridgeFamily(MLP1H, m=2, hidden=4),
                BridgeFamily(AFFINE2, m=2)]
    spec = LawSpec(kind=GRAMMAR_WALK, arities=(1, 1, 2),
                   pairs=EquationPairList.from_json([["[0,1]", "[1,0]"]]),
                   law_seed=7, mutation_weights=(4.0, 2.0, 2.0, 1.0))
    state = initial_law_state(spec)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # a stalled step just repeats a goal
        for _ in range(120):
            state = step_law(spec, state)
    tape = _compile_cached(state.cpair, tuple(f.arity for f in families))
    nodes = sum(node_count(t) for pair in compile_pairs(state.cpair, families)
                for t in pair)
    assert nodes > 20 * len(tape.ops)
    assert len(tape.steps) <= 2 * len(tape.ops)
    calls, grad_args = [], expr.grad_args

    def counted(*args):
        calls.append(1)
        return grad_args(*args)

    monkeypatch.setattr(expr, "grad_args", counted)
    gen = np.random.Generator(np.random.PCG64(3))
    slots = [gen.uniform(-1, 1, f.param_count) for f in families]
    _, gradients = evaluate(state.cpair, families, slots, gen.uniform(-1, 1, (1, 2)))
    gradients()
    assert len(calls) == _op_steps(tape) <= len(tape.ops)
