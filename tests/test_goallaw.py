import dataclasses

import numpy as np
import pytest

from goalchase.expr import MAX_DEPTH, EquationPairList, GrammarError, parse_sequence
from goalchase.goallaw import (
    GRAMMAR_WALK,
    IDENTITY_LAW,
    SCHEDULE,
    LawSpec,
    LawStallWarning,
    initial_law_state,
    step_law,
)
from goalchase.prng import new_words


def plist(obj):
    return EquationPairList.from_json(obj)


PA = plist([["[0,1]", "[1,0]"]])
PB = plist([["[0,2]", "[2,0]"]])
UNARY3 = (1, 1, 1)


def run_law(spec, n, state=None):
    state = initial_law_state(spec) if state is None else state
    seen = []
    for _ in range(n):
        state = step_law(spec, state)
        seen.append(state.cpair.to_json())
    return state, seen


def test_identity_law_keeps_goals():
    spec = LawSpec(kind=IDENTITY_LAW, arities=UNARY3, pairs=PA)
    state = initial_law_state(spec)
    assert state.cpair is PA
    assert state.macro_count == 0
    nxt = step_law(spec, state)
    assert nxt.cpair is PA
    assert nxt.macro_count == 1
    assert state.macro_count == 0  # input untouched


def test_schedule_period_one_alternates():
    spec = LawSpec(kind=SCHEDULE, arities=UNARY3, program=(PA, PB), period=1)
    state = initial_law_state(spec)
    assert state.cpair is PA and state.program_counter == 0
    _, seen = run_law(spec, 4)
    assert seen == [PB.to_json(), PA.to_json(), PB.to_json(), PA.to_json()]


def test_schedule_period_two_holds_between_switches():
    spec = LawSpec(kind=SCHEDULE, arities=UNARY3, program=(PA, PB), period=2)
    _, seen = run_law(spec, 6)
    assert seen == [
        PA.to_json(), PB.to_json(), PB.to_json(),
        PA.to_json(), PA.to_json(), PB.to_json(),
    ]


def test_schedule_wraps_program():
    spec = LawSpec(
        kind=SCHEDULE, arities=UNARY3, program=(PA, PB, PA), period=1
    )
    state, _ = run_law(spec, 7)
    assert state.program_counter == 7 % 3
    assert state.macro_count == 7


def test_macro_count_tracks_steps():
    spec = LawSpec(kind=IDENTITY_LAW, arities=UNARY3, pairs=PA)
    state, _ = run_law(spec, 5)
    assert state.macro_count == 5


def walk_spec(seed=7, weights=(1.0, 1.0, 1.0, 1.0), pairs=PA, arities=UNARY3):
    return LawSpec(
        kind=GRAMMAR_WALK,
        arities=arities,
        pairs=pairs,
        law_seed=seed,
        mutation_weights=weights,
    )


def test_walk_initial_state_seeds_words():
    spec = walk_spec(seed=11)
    state = initial_law_state(spec)
    assert np.array_equal(state.rng_words, new_words(11))
    assert state.cpair is PA


def test_walk_is_deterministic():
    spec = walk_spec(seed=7, weights=(2.0, 2.0, 2.0, 1.0))
    _, a = run_law(spec, 50)
    _, b = run_law(spec, 50)
    assert a == b


def test_walk_seed_changes_stream():
    _, a = run_law(walk_spec(seed=7, weights=(2.0, 2.0, 2.0, 1.0)), 20)
    _, b = run_law(walk_spec(seed=8, weights=(2.0, 2.0, 2.0, 1.0)), 20)
    assert a != b


def test_walk_is_pure_in_its_state():
    spec = walk_spec(seed=3)
    state = initial_law_state(spec)
    first = step_law(spec, state)
    assert state == initial_law_state(spec)
    again = step_law(spec, state)
    assert first.cpair.to_json() == again.cpair.to_json()
    assert first.rng_words == again.rng_words


def test_walk_every_rewrite_stays_grammatical():
    # mixed arity table; 10^4 law steps spread over 100 seeds.  Wraps nest
    # the goal trees (size roughly doubles per wrap), so they get a small
    # weight to keep century-long walks cheap to parse.
    arities = (1, 2, 1)
    pairs = plist([["[0]", "[2]"], ["[1,(0,2)]", "[0,2]"]])
    for seed in range(100):
        spec = walk_spec(seed=seed, pairs=pairs, arities=arities,
                         weights=(8.0, 4.0, 4.0, 1.0))
        state = initial_law_state(spec)
        for _ in range(100):
            state = step_law(spec, state)
            assert len(state.cpair.pairs) == 2
            for left, right in state.cpair.pairs:
                parse_sequence(left, arities)
                parse_sequence(right, arities)


def test_walk_append_only_grows_one_item():
    spec = walk_spec(seed=5, weights=(0.0, 1.0, 0.0, 0.0))
    state = initial_law_state(spec)
    size = sum(
        len(l) + len(r) for l, r in state.cpair.pairs
    )
    for step in range(1, 21):
        state = step_law(spec, state)
        now = sum(
            len(l) + len(r) for l, r in state.cpair.pairs
        )
        assert now == size + step


def test_walk_swap_sides_only_alternates():
    spec = walk_spec(seed=9, weights=(0.0, 0.0, 1.0, 0.0))
    _, seen = run_law(spec, 4)
    flipped = [["[1,0]", "[0,1]"]]
    assert seen == [flipped, PA.to_json(), flipped, PA.to_json()]


def test_walk_adjacent_swap_preserves_indices_per_side():
    spec = walk_spec(seed=2, weights=(1.0, 0.0, 0.0, 0.0))
    state = initial_law_state(spec)
    prev = state.cpair
    for _ in range(10):
        state = step_law(spec, state)
        changed = 0
        for (pl, pr), (nl, nr) in zip(prev.pairs, state.cpair.pairs):
            for old, new in ((pl, nl), (pr, nr)):
                assert sorted(old) == sorted(new)
                changed += old != new
        assert changed == 1
        prev = state.cpair


def test_walk_wrap_heads_single_step():
    arities = (1, 2, 1)
    pairs = plist([["[0]", "[2]"]])
    spec = walk_spec(seed=0, weights=(0.0, 0.0, 0.0, 1.0),
                     pairs=pairs, arities=arities)
    state = step_law(spec, initial_law_state(spec))
    assert state.cpair.to_json() == [["[1,(0,2)]", "[1,(2,0)]"]]
    again = step_law(spec, state)
    assert again.cpair.to_json() == [
        ["[1,([1,(0,2)],[1,(2,0)])]", "[1,([1,(2,0)],[1,(0,2)])]"]
    ]


def test_walk_stall_warns_and_keeps_goals():
    # one binary slot, no unary slots, swaps and wraps disabled: adjacent
    # swaps always break the grammar and appends have no slot to use
    arities = (2,)
    pairs = plist([["[0,([],[])]", "[0,([],[])]"]])
    spec = walk_spec(seed=1, weights=(1.0, 1.0, 0.0, 0.0),
                     pairs=pairs, arities=arities)
    state = initial_law_state(spec)
    with pytest.warns(LawStallWarning):
        nxt = step_law(spec, state)
    assert nxt.cpair.to_json() == pairs.to_json()
    assert nxt.macro_count == 1
    assert not np.array_equal(nxt.rng_words, state.rng_words)
    with pytest.warns(LawStallWarning):
        step_law(spec, nxt)


def test_walk_keeps_goals_within_the_depth_bound():
    # an append deepens its side by one level: from 127 factors each side
    # takes one more, then every append would pass the bound and is redrawn
    arities = (1, 1)
    chain = "[" + ",".join(["0"] * (MAX_DEPTH - 1)) + "]"
    spec = walk_spec(seed=3, weights=(0.0, 1.0, 0.0, 0.0),
                     pairs=plist([[chain, chain]]), arities=arities)
    state = initial_law_state(spec)
    with pytest.warns(LawStallWarning):
        for _ in range(4):
            state = step_law(spec, state)
    for side in state.cpair.pairs[0]:
        assert len(side) == MAX_DEPTH
        with pytest.raises(GrammarError, match="more than the bound"):
            parse_sequence(side + (0,), arities)


def test_law_state_is_frozen():
    spec = walk_spec(seed=4)
    state = initial_law_state(spec)
    with pytest.raises(dataclasses.FrozenInstanceError):
        state.macro_count = 99
    dup = dataclasses.replace(state, macro_count=99, rng_words=new_words(5))
    assert (dup.macro_count, dup.rng_words) == (99, new_words(5))
    assert state == initial_law_state(spec)
