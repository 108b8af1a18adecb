import numpy as np
import pytest

from goalchase import expr
from goalchase.bridge import AFFINE1, AFFINE2, BridgeFamily
from goalchase.expr import (
    IDENTITY,
    MAX_DEPTH,
    Apply,
    ArityError,
    Compose,
    EquationPairList,
    GrammarError,
    Identity,
    node_count,
    parse_sequence,
    seq_from_text,
    seq_to_text,
)

from scenarios import tree_vjp
from test_expr_oracle import ARITIES, walked_goals

UNARY3 = (1, 1, 1)
MIXED3 = (2, 1, 1)  # slot 0 takes two arguments


def seqs(*texts):
    return [seq_from_text(t) for t in texts]


def test_parse_chain_composes_left_outermost():
    (s,) = seqs("[1,2]")
    tree = parse_sequence(s, UNARY3)
    assert tree == Compose(Apply(1, (IDENTITY,)), Apply(2, (IDENTITY,)))


def test_parse_three_chain():
    (s,) = seqs("[0,1,2]")
    tree = parse_sequence(s, UNARY3)
    assert tree == Compose(
        Apply(0, (IDENTITY,)),
        Compose(Apply(1, (IDENTITY,)), Apply(2, (IDENTITY,))),
    )


def test_parse_binary_application():
    (s,) = seqs("[0,(1,2)]")
    tree = parse_sequence(s, MIXED3)
    assert tree == Apply(
        0, (Apply(1, (IDENTITY,)), Apply(2, (IDENTITY,)))
    )


def test_parse_empty_is_identity():
    (s,) = seqs("[]")
    assert parse_sequence(s, UNARY3) == Identity()


def test_parse_binary_then_unary_factor():
    (s,) = seqs("[0,(1,2),1]")
    tree = parse_sequence(s, MIXED3)
    assert isinstance(tree, Compose)
    assert isinstance(tree.outer, Apply) and tree.outer.slot == 0
    assert tree.inner == Apply(1, (IDENTITY,))


def test_parse_nested_subsequences():
    (s,) = seqs("[0,([1,2],[])]")
    tree = parse_sequence(s, MIXED3)
    expected_left = Compose(Apply(1, (IDENTITY,)), Apply(2, (IDENTITY,)))
    assert tree == Apply(0, (expected_left, IDENTITY))


def test_dangling_tuple_rejected():
    (s,) = seqs("[(1,2)]")
    with pytest.raises(GrammarError):
        parse_sequence(s, MIXED3)
    (s2,) = seqs("[1,(1,2)]")
    with pytest.raises(GrammarError):
        parse_sequence(s2, MIXED3)  # slot 1 is unary, tuple is orphaned


def test_binary_without_tuple_rejected():
    (s,) = seqs("[0]")
    with pytest.raises(ArityError):
        parse_sequence(s, MIXED3)
    (s2,) = seqs("[0,1]")
    with pytest.raises(ArityError):
        parse_sequence(s2, MIXED3)


def test_wrong_tuple_size_rejected():
    (s,) = seqs("[0,(1,2,1)]")
    with pytest.raises(ArityError):
        parse_sequence(s, MIXED3)
    (s2,) = seqs("[0,(1)]")
    with pytest.raises(ArityError):
        parse_sequence(s2, MIXED3)


def test_out_of_range_index_rejected():
    (s,) = seqs("[7]")
    with pytest.raises(GrammarError):
        parse_sequence(s, UNARY3)


def flat_chain(levels):
    """`levels` unary factors: `levels` levels deep."""
    return (1,) * levels


def wrapped(seq, times):
    """`seq` as the first argument of slot 0 (binary), `times` times over."""
    for _ in range(times):
        seq = (0, (seq, (1,)))
    return seq


def nested_applications(levels):
    """`levels` - 1 binary applications around one unary factor."""
    return wrapped((1,), levels - 1)


def chain_to_nested(levels):
    """Unary factors ahead of a last factor that carries the nesting."""
    head = levels // 2
    return flat_chain(head) + nested_applications(levels - head)


def reference_depth(tree):
    """The Compose and Apply levels on the longest path down `tree`."""
    depth, level = 0, [tree]
    while level := [kid for node in level if not isinstance(node, Identity)
                    for kid in (node.children if isinstance(node, Apply)
                                else (node.outer, node.inner))]:
        depth += 1
    return depth


@pytest.mark.parametrize("shape", [flat_chain, nested_applications,
                                   chain_to_nested])
def test_parse_accepts_exactly_the_depth_bound(shape):
    tree = parse_sequence(shape(MAX_DEPTH), MIXED3)
    assert reference_depth(tree) == MAX_DEPTH
    with pytest.raises(GrammarError, match="more than the bound"):
        parse_sequence(shape(MAX_DEPTH + 1), MIXED3)


def test_depth_bound_agrees_with_reference_walker_on_walked_goals(monkeypatch):
    # each walked side, grown to around the bound by unary factors in front
    # or by binary applications around it; its tree comes from a parse with
    # the bound lifted, and the bounded parse accepts it iff the reference
    # walker finds it at most MAX_DEPTH deep
    def unbounded_tree(seq):
        with monkeypatch.context() as m:
            m.setattr(expr, "MAX_DEPTH", 10 * MAX_DEPTH)
            return parse_sequence(seq, ARITIES)

    def accepts(seq):
        try:
            parse_sequence(seq, ARITIES)
        except GrammarError:
            return False
        return True

    grow = [lambda seq, k: (1,) * k + seq, wrapped]
    outcomes = set()
    for law_seed in range(4):
        for cpair in walked_goals(law_seed):
            for seq in (side for pair in cpair.pairs for side in pair):
                depth = reference_depth(unbounded_tree(seq))
                for g in grow:
                    for k in range(max(MAX_DEPTH - depth - 1, 0), MAX_DEPTH - depth + 2):
                        grown = g(seq, k)
                        within = reference_depth(unbounded_tree(grown)) <= MAX_DEPTH
                        assert accepts(grown) == within, seq_to_text(grown)
                        outcomes.add(within)
    assert outcomes == {True, False}


def test_text_errors():
    # slot digits are ASCII only: U+0661 is an Arabic-Indic one, U+00B2 a
    # superscript two
    for bad in ["[1,2", "1,2]", "[1,,2]", "[a]", "[1]x", "[1,(2,]",
                "[0,\u0661]", "[\u00b2]"]:
        with pytest.raises(GrammarError):
            seq_from_text(bad)


def test_text_round_trip():
    for text in ["[]", "[1]", "[1,2]", "[0,(1,2)]", "[0,([1,2],[]),1]"]:
        seq = seq_from_text(text)
        assert seq_to_text(seq) == text
        assert seq_from_text(seq_to_text(seq)) == seq


def test_text_whitespace_tolerated():
    assert seq_from_text(" [ 0 , ( 1 , 2 ) ] ") == seq_from_text("[0,(1,2)]")


def _oracle_slots():
    # slot 0: two-argument sum (A=B=I, c=0); slot 1: swap; slot 2: diag(1,-1)
    families = [
        BridgeFamily(AFFINE2, m=2),
        BridgeFamily(AFFINE1, m=2),
        BridgeFamily(AFFINE1, m=2),
    ]
    slots = [
        np.concatenate([np.eye(2).ravel(), np.eye(2).ravel(), np.zeros(2)]),
        np.array([0.0, 1.0, 1.0, 0.0, 0.0, 0.0]),
        np.array([1.0, 0.0, 0.0, -1.0, 0.0, 0.0]),
    ]
    return families, slots


def value(tree, families, slots, d):
    return tree_vjp(tree, families, slots, d, np.zeros_like(d))[0]


def slot_grads(tree, families, slots, d, cot):
    return tree_vjp(tree, families, slots, d, cot)[1]


def test_eval_chain_hand_value():
    families, slots = _oracle_slots()
    tree = parse_sequence(seq_from_text("[1,2]"), MIXED3)
    out = value(tree, families, slots, np.array([1.0, 2.0]))
    assert np.array_equal(out, np.array([-2.0, 1.0]))


def test_eval_binary_hand_value():
    families, slots = _oracle_slots()
    tree = parse_sequence(seq_from_text("[0,(1,2)]"), MIXED3)
    out = value(tree, families, slots, np.array([1.0, 2.0]))
    assert np.array_equal(out, np.array([3.0, -1.0]))


def test_eval_identity_returns_probe():
    families, slots = _oracle_slots()
    tree = parse_sequence(seq_from_text("[]"), MIXED3)
    d = np.array([0.25, -4.0])
    assert np.array_equal(value(tree, families, slots, d), d)


def test_compose_rebinds_probe_for_closed_arguments():
    # in [0,(1,2),2] the factor 0 consumes slot 2's output, not the probe
    families, slots = _oracle_slots()
    tree = parse_sequence(seq_from_text("[0,(1,2),2]"), MIXED3)
    d = np.array([1.0, 2.0])
    inner = value(
        parse_sequence(seq_from_text("[2]"), MIXED3), families, slots, d
    )
    direct = value(
        parse_sequence(seq_from_text("[0,(1,2)]"), MIXED3),
        families,
        slots,
        inner,
    )
    assert np.array_equal(value(tree, families, slots, d), direct)
    assert not np.array_equal(
        value(tree, families, slots, d),
        value(
            parse_sequence(seq_from_text("[0,(1,2)]"), MIXED3),
            families,
            slots,
            d,
        ),
    )


def test_node_count_hand_values():
    # Identity 1; Apply 1 + children; Compose 1 + outer + inner
    expected = {"[]": 1, "[1]": 2, "[1,2]": 5, "[0,(1,2)]": 5,
                "[0,([1,2],[]),1]": 10}
    for text, count in expected.items():
        tree = parse_sequence(seq_from_text(text), MIXED3)
        assert node_count(tree) == count


def test_grad_single_slot_matches_fd():
    families, slots = _oracle_slots()
    gen = np.random.Generator(np.random.PCG64(2))
    slots = [gen.uniform(-1, 1, s.shape) for s in slots]
    tree = parse_sequence(seq_from_text("[0,(1,2),1]"), MIXED3)
    d = gen.uniform(-1, 1, 2)
    cot = gen.uniform(-1, 1, 2)
    grads = slot_grads(tree, families, slots, d, cot)
    h = 1e-6
    for si in range(3):
        for j in range(len(slots[si])):
            hi = [s.copy() for s in slots]
            lo = [s.copy() for s in slots]
            hi[si][j] += h
            lo[si][j] -= h
            fd = (
                cot @ value(tree, families, hi, d)
                - cot @ value(tree, families, lo, d)
            ) / (2 * h)
            assert abs(grads[si][j] - fd) < 1e-6 * max(1.0, abs(fd))


def test_grad_repeated_slot_accumulates():
    families, slots = _oracle_slots()
    gen = np.random.Generator(np.random.PCG64(3))
    slots = [gen.uniform(-1, 1, s.shape) for s in slots]
    tree = parse_sequence(seq_from_text("[1,1]"), MIXED3)
    d = gen.uniform(-1, 1, 2)
    cot = gen.uniform(-1, 1, 2)
    grads = slot_grads(tree, families, slots, d, cot)
    h = 1e-6
    for j in range(6):
        hi = [s.copy() for s in slots]
        lo = [s.copy() for s in slots]
        hi[1][j] += h
        lo[1][j] -= h
        fd = (
            cot @ value(tree, families, hi, d)
            - cot @ value(tree, families, lo, d)
        ) / (2 * h)
        assert abs(grads[1][j] - fd) < 1e-6 * max(1.0, abs(fd))


def test_grad_absent_slot_is_exact_zero():
    families, slots = _oracle_slots()
    tree = parse_sequence(seq_from_text("[1,2]"), MIXED3)
    grads = slot_grads(tree, families, slots, np.ones(2), np.ones(2))
    assert np.array_equal(grads[0], np.zeros_like(slots[0]))


def test_eval_does_not_touch_global_rng():
    families, slots = _oracle_slots()
    tree = parse_sequence(seq_from_text("[0,(1,2)]"), MIXED3)
    np.random.seed(1234)
    before = np.random.rand(3)
    np.random.seed(1234)
    value(tree, families, slots, np.ones(2))
    slot_grads(tree, families, slots, np.ones(2), np.ones(2))
    assert np.array_equal(np.random.rand(3), before)


def test_eval_leaves_inputs_unchanged():
    families, slots = _oracle_slots()
    tree = parse_sequence(seq_from_text("[0,(1,2),1]"), MIXED3)
    frozen = [s.copy() for s in slots]
    d = np.array([1.0, 2.0])
    value(tree, families, slots, d)
    slot_grads(tree, families, slots, d, np.ones(2))
    assert np.array_equal(d, np.array([1.0, 2.0]))
    for a, b in zip(slots, frozen):
        assert np.array_equal(a, b)


def test_equation_pairs_json_round_trip():
    obj = [["[1,2]", "[2,1]"], ["[0,(1,2)]", "[]"]]
    pairs = EquationPairList.from_json(obj)
    assert pairs.to_json() == obj
    compiled = pairs.compile(MIXED3)
    assert len(compiled) == 2
    with pytest.raises(GrammarError):
        EquationPairList.from_json([["[0]"]])


def test_equation_pair_list_walks_its_pairs_for_one_hash_only():
    calls = []

    class Counted:
        def __hash__(self):
            calls.append(1)
            return 7

    pairs = EquationPairList(((Counted(), ()),))
    assert hash(pairs) == hash(pairs)
    assert len(calls) == 1
    # equality stays structural
    assert pairs == EquationPairList(pairs.pairs)
    assert hash(EquationPairList.from_json([["[0]", "[1]"]])) == hash(
        EquationPairList.from_json([["[0]", "[1]"]]))


def test_sequence_structures_are_hashable():
    a = seq_from_text("[0,(1,2)]")
    b = seq_from_text("[0,(1,2)]")
    assert a == b and hash(a) == hash(b)
    assert len({a, b}) == 1
    seq = (0, ((1,), (2, 1)))
    assert seq_from_text("[0,(1,[2,1])]") == seq
    assert seq_to_text(seq) == "[0,(1,[2,1])]"
