"""The slow law that rewrites goal equations.

One law step runs per K controller steps.  The law is a pure function of
its own state: it never sees slot parameters, momentum, or probes, so the
goal stream it produces is decided before the controller ever runs.

Kinds: "identity" keeps the goals fixed, "schedule" cycles through a
program of goal lists, "grammar_walk" applies one seeded random mutation
per step, resampling (up to 32 attempts) any mutation that would produce
a side `expr.parse_sequence` rejects: one off the grammar or too deep.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .expr import EquationPairList, GrammarError, parse_sequence
from .prng import new_words, rng_from_words, rng_to_words

IDENTITY_LAW = "identity"
SCHEDULE = "schedule"
GRAMMAR_WALK = "grammar_walk"
LAW_KINDS = (IDENTITY_LAW, SCHEDULE, GRAMMAR_WALK)

MUTATION_ATTEMPTS = 32

__all__ = [
    "IDENTITY_LAW",
    "SCHEDULE",
    "GRAMMAR_WALK",
    "LAW_KINDS",
    "MUTATION_ATTEMPTS",
    "LawSpec",
    "LawState",
    "LawStallWarning",
    "initial_law_state",
    "step_law",
]


class LawStallWarning(RuntimeWarning):
    """Every mutation attempt in a law step was rejected; goals unchanged."""


@dataclass(frozen=True)
class LawSpec:
    """Static description of the rewrite law for one scenario.

    `arities` carries the per-slot arity table so mutations and validity
    checks need nothing beyond this object.
    """

    kind: str
    arities: tuple
    pairs: EquationPairList | None = None
    program: tuple = ()
    period: int = 1
    law_seed: int = 0
    mutation_weights: tuple = (1.0, 1.0, 1.0, 1.0)

    @cached_property
    def _cumulative(self) -> tuple:
        """(total, running sums) of `mutation_weights`, for the mutation draw."""
        weights = np.asarray(self.mutation_weights, dtype=float)
        return weights.sum(), np.cumsum(weights)

    def to_json(self) -> dict:
        if self.kind == IDENTITY_LAW:
            return {"kind": self.kind, "pairs": self.pairs.to_json()}
        if self.kind == SCHEDULE:
            return {
                "kind": self.kind,
                "period": self.period,
                "program": [p.to_json() for p in self.program],
            }
        return {
            "kind": self.kind,
            "law_seed": self.law_seed,
            "mutation_weights": list(self.mutation_weights),
            "pairs": self.pairs.to_json(),
        }


@dataclass(frozen=True)
class LawState:
    """Dynamic law state, a value: current goals plus the law's own
    bookkeeping.  `rng_words` are the grammar walk's PRNG words (see
    `prng`), None for the other kinds.  A step returns a new state, and a
    variant is made with `dataclasses.replace`."""

    cpair: EquationPairList
    program_counter: int = 0
    macro_count: int = 0
    rng_words: tuple | None = None


def initial_law_state(spec: LawSpec) -> LawState:
    if spec.kind == SCHEDULE:
        return LawState(cpair=spec.program[0])
    if spec.kind == GRAMMAR_WALK:
        return LawState(cpair=spec.pairs, rng_words=new_words(spec.law_seed))
    return LawState(cpair=spec.pairs)


def step_law(spec: LawSpec, state: LawState) -> LawState:
    """Advance the law by one step.  Pure in (spec, state)."""
    n = state.macro_count + 1
    if spec.kind == IDENTITY_LAW:
        return LawState(state.cpair, state.program_counter, n, None)
    if spec.kind == SCHEDULE:
        pc = state.program_counter
        cpair = state.cpair
        if n % spec.period == 0:
            pc = (pc + 1) % len(spec.program)
            cpair = spec.program[pc]
        return LawState(cpair, pc, n, None)
    return _step_grammar_walk(spec, state, n)


# --- grammar walk ----------------------------------------------------------

MUT_SWAP_ADJACENT = 0
MUT_APPEND_UNARY = 1
MUT_SWAP_SIDES = 2
MUT_WRAP_HEADS = 3


def _step_grammar_walk(spec: LawSpec, state: LawState, n: int) -> LawState:
    gen = rng_from_words(state.rng_words)
    pairs = state.cpair.pairs
    total, cumulative = spec._cumulative
    new_pairs = None
    for _ in range(MUTATION_ATTEMPTS):
        k = int(gen.integers(len(pairs)))
        r = gen.random() * total
        kind = min(int(np.searchsorted(cumulative, r, side="right")), 3)
        cand = _mutate(gen, pairs[k], kind, spec.arities)
        if cand is None:
            continue
        left, right = cand
        if _parses(left, spec.arities) and _parses(right, spec.arities):
            new_pairs = pairs[:k] + ((left, right),) + pairs[k + 1 :]
            break
    words = rng_to_words(gen)
    if new_pairs is None:
        warnings.warn(
            f"goal rewrite stalled after {MUTATION_ATTEMPTS} attempts; "
            f"goals left unchanged",
            LawStallWarning,
            stacklevel=3,
        )
        return LawState(state.cpair, state.program_counter, n, words)
    return LawState(EquationPairList(new_pairs), state.program_counter, n, words)


def _parses(seq: tuple, arities) -> bool:
    try:
        parse_sequence(seq, arities)
    except GrammarError:
        return False
    return True


def _mutate(gen, pair, kind, arities):
    """One mutation draw; None when the pick cannot apply to this pair."""
    left, right = pair
    if kind == MUT_SWAP_ADJACENT:
        side = int(gen.integers(2))
        seq = left if side == 0 else right
        if len(seq) < 2:
            return None
        j = int(gen.integers(len(seq) - 1))
        out = seq[:j] + (seq[j + 1], seq[j]) + seq[j + 2 :]
        return (out, right) if side == 0 else (left, out)
    if kind == MUT_APPEND_UNARY:
        unary = [i for i, a in enumerate(arities) if a == 1]
        if not unary:
            return None
        side = int(gen.integers(2))
        slot = unary[int(gen.integers(len(unary)))]
        seq = left if side == 0 else right
        out = seq + (slot,)
        return (out, right) if side == 0 else (left, out)
    if kind == MUT_SWAP_SIDES:
        return (right, left)
    binary = [i for i, a in enumerate(arities) if a == 2]
    if not binary or not left or not right:
        return None
    slot = binary[int(gen.integers(len(binary)))]
    head_l, rest_l = _split_head(left, arities)
    head_r, rest_r = _split_head(right, arities)
    new_l = (slot, (head_l, head_r)) + rest_l
    new_r = (slot, (head_r, head_l)) + rest_r
    return (new_l, new_r)


def _split_head(seq: tuple, arities) -> tuple:
    # the head spans its bound tuple when the leading slot, a parsed index, is binary
    span = 2 if arities[seq[0]] == 2 else 1
    return seq[:span], seq[span:]
