"""The single-pass evaluator against the recursive walkers it replaced.

`eval_expr` and `_vjp` below are the earlier two-walker engine, kept as an
oracle: `_vjp` re-evaluates every subtree it visits.  `vjp_expr` performs
the same floating-point operations in the same order, so values and
per-slot gradients must agree bit for bit, not just to a tolerance.
"""

import warnings

import numpy as np

from goalchase.bridge import (AFFINE1, AFFINE2, MLP1H, BridgeFamily, eval_bridge,
                              grad_args, grad_bridge)
from goalchase.expr import Apply, EquationPairList, Identity, seq_from_text, vjp_expr
from goalchase.feedback import compile_pairs, loss_gradients
from goalchase.goallaw import GRAMMAR_WALK, LawSpec, initial_law_state, step_law


def eval_expr(tree, families, slots, d):
    if isinstance(tree, Identity):
        return np.asarray(d, dtype=float)
    if isinstance(tree, Apply):
        args = [eval_expr(c, families, slots, d) for c in tree.children]
        return eval_bridge(families[tree.slot], slots[tree.slot], args)
    inner = eval_expr(tree.inner, families, slots, d)
    return eval_expr(tree.outer, families, slots, inner)


def _vjp(tree, families, slots, d, cot, grads):
    if isinstance(tree, Identity):
        return cot
    if isinstance(tree, Apply):
        args = [eval_expr(c, families, slots, d) for c in tree.children]
        gp = grad_bridge(families[tree.slot], slots[tree.slot], args, cot)
        gargs = grad_args(families[tree.slot], slots[tree.slot], args, cot)
        grads[tree.slot] += gp
        dd = np.zeros_like(d)
        for child, ga in zip(tree.children, gargs):
            dd += _vjp(child, families, slots, d, ga, grads)
        return dd
    inner_val = eval_expr(tree.inner, families, slots, d)
    d_inner = _vjp(tree.outer, families, slots, inner_val, cot, grads)
    return _vjp(tree.inner, families, slots, d, d_inner, grads)


def oracle_loss_gradients(trees, families, slots, probes):
    grads = [np.zeros_like(s) for s in slots]
    scale = 2.0 / len(probes)
    for d in probes:
        for tl, tr in trees:
            cot = scale * (eval_expr(tl, families, slots, d)
                           - eval_expr(tr, families, slots, d))
            _vjp(tl, families, slots, d, cot, grads)
            _vjp(tr, families, slots, d, -cot, grads)
    return grads


FAMILIES = [
    BridgeFamily(AFFINE2, m=2),
    BridgeFamily(AFFINE1, m=2),
    BridgeFamily(MLP1H, m=2, hidden=3),
]
ARITIES = tuple(f.arity for f in FAMILIES)


def walked_goals(law_seed, firings=12):
    """Goal lists visited by a wrap-heavy grammar walk from one seed."""
    spec = LawSpec(
        kind=GRAMMAR_WALK,
        arities=ARITIES,
        pairs=EquationPairList(((seq_from_text("[1,2]"), seq_from_text("[2,1]")),)),
        law_seed=law_seed,
        mutation_weights=(2.0, 2.0, 1.0, 2.0),
    )
    state = initial_law_state(spec)
    goals = [state.cpair]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # a stalled step just repeats a goal
        for _ in range(firings):
            state = step_law(spec, state)
            goals.append(state.cpair)
    return goals


def binary_depth(tree):
    """Deepest nesting of two-argument applications inside one another."""
    if isinstance(tree, Identity):
        return 0
    if isinstance(tree, Apply):
        below = max(binary_depth(c) for c in tree.children)
        return below + (len(tree.children) == 2)
    return max(binary_depth(tree.outer), binary_depth(tree.inner))


def test_single_pass_matches_recursive_oracle_exactly():
    deepest = 0
    for law_seed in range(4):
        gen = np.random.Generator(np.random.PCG64(100 + law_seed))
        for cpair in walked_goals(law_seed):
            slots = [gen.uniform(-1, 1, f.param_count) for f in FAMILIES]
            d = gen.uniform(-1, 1, 2)
            for tree in (t for pair in compile_pairs(cpair, FAMILIES) for t in pair):
                deepest = max(deepest, binary_depth(tree))
                cot = gen.uniform(-1, 1, 2)
                value, pullback = vjp_expr(tree, FAMILIES, slots, d)
                assert np.array_equal(value, eval_expr(tree, FAMILIES, slots, d))
                grads = [np.zeros_like(s) for s in slots]
                expected = [np.zeros_like(s) for s in slots]
                dd = pullback(cot, grads)
                assert np.array_equal(dd, _vjp(tree, FAMILIES, slots, d, cot, expected))
                for g, e in zip(grads, expected):
                    assert np.array_equal(g, e)
    assert deepest >= 3  # the walk nested wrap_heads tuples inside each other


def test_loss_gradients_match_recursive_oracle_exactly():
    gen = np.random.Generator(np.random.PCG64(7))
    probes = [gen.uniform(-1, 1, 2) for _ in range(3)]
    for cpair in walked_goals(law_seed=11):
        slots = [gen.uniform(-1, 1, f.param_count) for f in FAMILIES]
        trees = compile_pairs(cpair, FAMILIES)
        got = loss_gradients(cpair, FAMILIES, slots, probes)
        for g, e in zip(got, oracle_loss_gradients(trees, FAMILIES, slots, probes)):
            assert np.array_equal(g, e)
