"""The single-pass evaluator against two per-probe oracles.

`eval_expr` and `_vjp` below are the earlier two-walker engine, kept as
the reference: `_vjp` re-evaluates every subtree it visits and adds one
row per Apply occurrence.  `dag_vjp` is reverse mode on the
value-numbered DAG, one probe at a time, summing in the tape's stated
order: one adjoint per op, 0 + its contributions (the seeds in tree
order, then its readers, visited in reverse op order), and one row per op,
in the order of its first Apply in a walk of the trees.  Values and
per-slot gradients must equal `dag_vjp`'s bit for bit; against `_vjp`,
which adds a shared op's rows and an adjoint's contributions in another
order, they agree to within `CLOSE` of the largest gradient entry.
"""

import warnings

import numpy as np

from goalchase.bridge import (AFFINE1, AFFINE2, MLP1H, BridgeFamily, eval_bridge,
                              grad_args, grad_bridge)
from goalchase.expr import Apply, Compose, EquationPairList, Identity, seq_from_text
from goalchase.feedback import compile_pairs, loss_gradients
from goalchase.goallaw import GRAMMAR_WALK, LawSpec, initial_law_state, step_law

from scenarios import tree_vjp


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


def _term(tree, arg):
    """The term `tree` computes from the term `arg`: nested (slot, argument
    terms) tuples over the probe "d".  Two Apply nodes are one op of the
    DAG exactly when their terms are equal."""
    if isinstance(tree, Identity):
        return arg
    if isinstance(tree, Apply):
        return (tree.slot, tuple(_term(c, arg) for c in tree.children))
    return _term(tree.outer, _term(tree.inner, arg))


def _walk(tree, arg):
    """The terms of the Apply nodes of `tree` in walk order: an Apply, then
    its children in tuple order; a Compose's outer side, then its inner."""
    if isinstance(tree, Apply):
        yield _term(tree, arg)
        for child in tree.children:
            yield from _walk(child, arg)
    elif isinstance(tree, Compose):
        yield from _walk(tree.outer, _term(tree.inner, arg))
        yield from _walk(tree.inner, arg)


def _evaluation(tree, arg):
    """The same terms in evaluation order: an Apply after its children, a
    Compose's inner side before its outer."""
    if isinstance(tree, Apply):
        for child in tree.children:
            yield from _evaluation(child, arg)
        yield _term(tree, arg)
    elif isinstance(tree, Compose):
        yield from _evaluation(tree.inner, arg)
        yield from _evaluation(tree.outer, _term(tree.inner, arg))


def dag_vjp(trees, families, slots, d, seeds, grads):
    """Add the per-slot gradients of sum_k seeds[k] . tree_k(d) into `grads`
    by reverse mode on the DAG of distinct terms, numbered in evaluation
    order."""
    ops = list(dict.fromkeys(t for tree in trees for t in _evaluation(tree, "d")))
    values = {"d": np.asarray(d, dtype=float)}
    for slot, args in ops:
        values[slot, args] = eval_bridge(families[slot], slots[slot],
                                         [values[a] for a in args])
    into, adjoint = {term: [] for term in values}, {}
    for tree, seed in zip(trees, seeds):
        into[_term(tree, "d")].append(seed)
    for slot, args in reversed(ops):  # each op after every op that reads it
        adjoint[slot, args] = cot = sum(into[slot, args], 0.0)
        gargs = grad_args(families[slot], slots[slot], [values[a] for a in args], cot)
        for a, g in zip(args, gargs):
            into[a].append(g)
    for slot, args in dict.fromkeys(t for tree in trees for t in _walk(tree, "d")):
        grads[slot] += grad_bridge(families[slot], slots[slot],
                                   [values[a] for a in args], adjoint[slot, args])


def dag_loss_gradients(trees, families, slots, probes):
    """`oracle_loss_gradients` by `dag_vjp`: per probe, one DAG of every side."""
    grads = [np.zeros_like(s) for s in slots]
    sides, scale = [t for pair in trees for t in pair], 2.0 / len(probes)
    for d in probes:
        seeds = []
        for tl, tr in trees:
            cot = scale * (eval_expr(tl, families, slots, d)
                           - eval_expr(tr, families, slots, d))
            seeds += [cot, -cot]
        dag_vjp(sides, families, slots, d, seeds, grads)
    return grads


# the largest |engine - _vjp| on these tests is 8.6e-16 of the largest
# gradient entry; on a 49,201-node walked goal it was 4.5e-12
CLOSE = 1e-14


def assert_close(got, reference):
    """Gradients within `CLOSE` of the largest entry of any of `reference`."""
    scale = max(float(np.max(np.abs(r), initial=0.0)) for r in reference)
    for g, r in zip(got, reference):
        assert np.max(np.abs(g - r), initial=0.0) <= CLOSE * scale


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


def test_single_pass_matches_dag_oracle_exactly():
    deepest = 0
    for law_seed in range(4):
        gen = np.random.Generator(np.random.PCG64(100 + law_seed))
        for cpair in walked_goals(law_seed):
            slots = [gen.uniform(-1, 1, f.param_count) for f in FAMILIES]
            d = gen.uniform(-1, 1, 2)
            for tree in (t for pair in compile_pairs(cpair, FAMILIES) for t in pair):
                deepest = max(deepest, binary_depth(tree))
                cot = gen.uniform(-1, 1, 2)
                value, grads = tree_vjp(tree, FAMILIES, slots, d, cot)
                assert np.array_equal(value, eval_expr(tree, FAMILIES, slots, d))
                expected = [np.zeros_like(s) for s in slots]
                dag_vjp([tree], FAMILIES, slots, d, [cot], expected)
                for g, e in zip(grads, expected):
                    assert np.array_equal(g, e)
                reference = [np.zeros_like(s) for s in slots]
                _vjp(tree, FAMILIES, slots, d, cot, reference)
                assert_close(grads, reference)
    assert deepest >= 3  # the walk nested wrap_heads tuples inside each other


def test_loss_gradients_match_dag_oracle_exactly():
    gen = np.random.Generator(np.random.PCG64(7))
    probes = [gen.uniform(-1, 1, 2) for _ in range(3)]
    for cpair in walked_goals(law_seed=11):
        slots = [gen.uniform(-1, 1, f.param_count) for f in FAMILIES]
        trees = compile_pairs(cpair, FAMILIES)
        got = loss_gradients(cpair, FAMILIES, slots, probes)
        for g, e in zip(got, dag_loss_gradients(trees, FAMILIES, slots, probes)):
            assert np.array_equal(g, e)
        assert_close(got, oracle_loss_gradients(trees, FAMILIES, slots, probes))


def _chain(length, first):
    return "[" + ",".join(str((first + k) % 2) for k in range(length)) + "]"


AFFINE_PAIR = [BridgeFamily(AFFINE1, m=2), BridgeFamily(AFFINE1, m=2)]
ARITY1_GOALS = [(AFFINE_PAIR, [["[0,1]", "[1,0]"]])] + [
    (AFFINE_PAIR, [[_chain(n, 0), _chain(n, 1)]]) for n in (2, 16, 64)
] + [([BridgeFamily(MLP1H, m=2, hidden=4, pad=2), BridgeFamily(AFFINE1, m=2)],
      [["[0]", "[1]"]])]


def test_arity1_chains_match_recursive_oracle_byte_for_byte():
    # no op of these goals is shared and every adjoint has one
    # contribution, so the DAG pass adds the occurrence walk's rows in its
    # order; slot gradients end + 0.0, so their bits, zero signs included,
    # are those of `_vjp`, which adds them from +0.0
    gen, zeros = np.random.Generator(np.random.PCG64(64)), 0
    for families, goals in ARITY1_GOALS:
        cpair = EquationPairList.from_json(goals)
        trees = compile_pairs(cpair, families)
        trials = [[gen.uniform(-1, 1, f.param_count) for f in families] for _ in range(3)]
        trials += [[np.zeros_like(s) if j == k else s for j, s in enumerate(trials[0])]
                   for k in range(len(families))]
        for slots in trials:
            probes = [gen.uniform(-1, 1, 2) for _ in range(3)] + [np.array([-0.0, 0.0])]
            got = loss_gradients(cpair, families, slots, probes)
            for g, e in zip(got, oracle_loss_gradients(trees, families, slots, probes)):
                assert g.tobytes() == e.tobytes()
                zeros += not g.all()
            d, cot = probes[0], gen.uniform(-1, 1, 2)
            for tree in (t for pair in trees for t in pair):
                value, grads = tree_vjp(tree, families, slots, d, cot)
                assert value.tobytes() == eval_expr(tree, families, slots, d).tobytes()
                expected = [np.zeros_like(s) for s in slots]
                _vjp(tree, families, slots, d, cot, expected)
                for g, e in zip(grads, expected):
                    assert g.tobytes() == e.tobytes()
    assert zeros > 0  # the trials put exact zeros into gradients
