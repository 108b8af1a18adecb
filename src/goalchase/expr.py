"""Sequences of slot indices and the expression trees they compile to.

A sequence of slot indices denotes a chain of per-slot maps read left to
right, composing with the leftmost factor outermost.  An arity-2 index
must be followed immediately by a 2-tuple holding the sequences that
produce its arguments; those arguments consume the value flowing into the
factor (the probe itself at chain tail).  The empty sequence denotes the
identity map.

A sequence is a plain tuple whose items are slot indices (ints) or
argument tuples (tuples of sub-sequences), so ``[0,(1,[2,1])]`` is
``(0, ((1,), (2, 1)))``.

Text form: ``[1,2]`` composes slot 1 after slot 2, ``[0,(1,2)]`` applies
slot 0 to the outputs of slots 1 and 2, ``[]`` is the identity.

A valid goal side is exactly a sequence `parse_sequence` accepts: it
checks the grammar and, counting Compose and Apply levels as it builds the
tree, rejects a side more than `MAX_DEPTH` levels deep.

Trees are evaluated through a flat tape (`compile_tape`), built once per
goal list, that runs a batch of probes forward (`run_forward`) and back
(`run_reverse`) to fresh per-slot gradients.  The tape runs each
distinct op once and keeps mlp1h's activation for the reverse pass,
which is reverse mode on that DAG: one adjoint per value, one
parameter-gradient row per op, and argument cotangents only where read,
summed in the order `compile_tape` states.  An adjoint with one
contribution is that contribution's register; unlike a copy 0 + it, that
can be a -0.0, but rows are linear in their cotangent and sum to the bits
of a sum from +0.0, so the sign of a zero never reaches a gradient.
"""

from __future__ import annotations

import itertools
from collections import namedtuple
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .bridge import eval_bridge, grad_args, grad_bridge

__all__ = [
    "GrammarError",
    "ArityError",
    "Identity",
    "Apply",
    "Compose",
    "IDENTITY",
    "EquationPairList",
    "seq_from_text",
    "seq_to_text",
    "parse_sequence",
    "node_count",
]


# bound on a goal side's tree depth, in Compose and Apply levels
MAX_DEPTH = 128


class GrammarError(ValueError):
    """An index sequence violates the chain grammar."""


class ArityError(GrammarError):
    """A tuple is missing, misplaced, or of the wrong size for its slot."""


# --- expression trees ------------------------------------------------------


@dataclass(frozen=True)
class Identity:
    pass


@dataclass(frozen=True)
class Apply:
    slot: int
    children: tuple = ()


@dataclass(frozen=True)
class Compose:
    outer: object
    inner: object


IDENTITY = Identity()


# --- text serialization ----------------------------------------------------


def seq_to_text(seq: tuple) -> str:
    return "[" + ",".join(_item_to_text(it) for it in seq) + "]"


def _item_to_text(item) -> str:
    if isinstance(item, int):
        return str(item)
    parts = []
    for child in item:
        if len(child) == 1 and isinstance(child[0], int):
            parts.append(str(child[0]))
        else:
            parts.append(seq_to_text(child))
    return "(" + ",".join(parts) + ")"


class _Scanner:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take(self, ch: str):
        if self.peek() != ch:
            raise GrammarError(
                f"expected {ch!r} at position {self.pos} in {self.text!r}"
            )
        self.pos += 1

    def take_int(self) -> int:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and "0" <= self.text[self.pos] <= "9":
            self.pos += 1
        if self.pos == start:
            raise GrammarError(
                f"expected slot index at position {start} in {self.text!r}"
            )
        return int(self.text[start : self.pos])


def seq_from_text(text: str) -> tuple:
    """Parse the bracketed text form back into a sequence tuple."""
    sc = _Scanner(text)
    seq = _scan_sequence(sc)
    sc.skip_ws()
    if sc.pos != len(sc.text):
        raise GrammarError(f"trailing input at position {sc.pos} in {text!r}")
    return seq


def _scan_sequence(sc: _Scanner, tuples: int = 0) -> tuple:
    """A sequence inside `tuples` open tuples, each one Apply level deep."""
    sc.take("[")
    items = []
    if sc.peek() == "]":
        sc.take("]")
        return ()
    while True:
        ch = sc.peek()
        if ch == "(":
            items.append(_scan_tuple(sc, tuples + 1))
        else:
            items.append(sc.take_int())
        if sc.peek() == ",":
            sc.take(",")
            continue
        sc.take("]")
        return tuple(items)


def _scan_tuple(sc: _Scanner, tuples: int) -> tuple:
    if tuples > MAX_DEPTH:
        raise GrammarError(f"tuples nest deeper than {MAX_DEPTH} levels "
                           f"at position {sc.pos}")
    sc.take("(")
    children = []
    while True:
        ch = sc.peek()
        if ch == "[":
            children.append(_scan_sequence(sc, tuples))
        else:
            children.append((sc.take_int(),))
        if sc.peek() == ",":
            sc.take(",")
            continue
        sc.take(")")
        return tuple(children)


# --- grammar ---------------------------------------------------------------


def parse_sequence(seq: tuple, arities) -> object:
    """Compile a sequence tuple into an expression tree.

    `arities` maps slot index to declared arity.  Factors are read left to
    right and chained by composition, leftmost outermost; an arity-2 index
    binds the 2-tuple that follows it, and each tuple entry is parsed as a
    full sub-sequence.  Raises GrammarError for a sequence the grammar
    rejects or one more than `MAX_DEPTH` levels deep.
    """
    return _parse(seq, arities)[0]


def _parse(seq: tuple, arities) -> tuple:
    """(tree, depth) of `seq`: a Compose or Apply is one level deeper than
    the deeper of its children, an Identity is 0 levels deep."""
    factors = []
    k = 0
    while k < len(seq):
        i = seq[k]
        if isinstance(i, tuple):
            raise GrammarError(
                f"tuple at position {k} has no preceding arity-2 slot"
            )
        if not 0 <= i < len(arities):
            raise GrammarError(
                f"slot index {i} out of range for {len(arities)} slot(s)"
            )
        arity = arities[i]
        if arity == 1:
            factors.append((Apply(i, (IDENTITY,)), 1))
            k += 1
            continue
        if k + 1 >= len(seq) or not isinstance(seq[k + 1], tuple):
            raise ArityError(
                f"arity-{arity} slot {i} at position {k} must be followed "
                f"by a {arity}-tuple"
            )
        tup = seq[k + 1]
        if len(tup) != arity:
            raise ArityError(
                f"slot {i} takes {arity} arguments, tuple has {len(tup)}"
            )
        kids = [_parse(c, arities) for c in tup]
        factors.append((Apply(i, tuple(t for t, _ in kids)),
                        1 + max(d for _, d in kids)))
        k += 2
    if not factors:
        return IDENTITY, 0
    tree, depth = factors[-1]
    for f, d in reversed(factors[:-1]):
        tree, depth = Compose(f, tree), 1 + max(d, depth)
    if depth > MAX_DEPTH:
        raise GrammarError(f"{depth} levels deep, more than the bound {MAX_DEPTH}")
    return tree, depth


# --- the tape: trees compiled once, run over a batch of probes -----------


Tape = namedtuple("Tape", ["ops", "outputs", "steps", "rows"])


def compile_tape(trees) -> Tape:
    """Compile `trees` into one tape (ops, outputs, steps, rows).

    Value register 0 holds the probes and op k, (slot, argument registers),
    writes register k + 1; an Apply whose (slot, argument registers)
    recur reuses the op, and `outputs` are the trees' value registers.
    The reverse `steps` visit the ops in reverse order on cotangent
    registers, k holding the seed of tree k, to give each value one
    adjoint: (None, regs) appends 0 + the sum of its contributions where
    there are several, the seeds in tree order, then its readers' in step
    order; (op, cot) appends op `op`'s argument cotangents at adjoint
    `cot` when one is read, as an op's always is.  The probes' adjoint is
    never read: a probe argument's cotangent is computed only when its op
    has a step for another argument.  `rows` holds, per slot, the columns
    (argument registers per position, adjoint, op) of one row per op, in
    the order of its first Apply in a walk of the trees.
    """
    ops, walk = {}, []
    outputs = tuple(_emit(tree, 0, ops, walk) for tree in trees)
    table, steps, fresh = tuple(ops), [], itertools.count(len(trees))
    into = [[] for _ in range(len(table) + 1)]  # contributions per value
    for k, reg in enumerate(outputs):
        into[reg].append(k)
    for reg in range(len(table), 0, -1):
        if len(into[reg]) > 1:
            steps.append((None, tuple(into[reg])))
            into[reg] = [next(fresh)]
        if any(table[reg - 1][1]):
            steps.append((reg - 1, into[reg][0]))
            for arg in table[reg - 1][1]:
                into[arg].append(next(fresh))
    rows = {}
    for op in dict.fromkeys(walk):
        rows.setdefault(table[op][0], []).append((*table[op][1], into[op + 1][0], op))
    return Tape(table, outputs, tuple(steps),
                tuple((slot, tuple(zip(*r))) for slot, r in rows.items()))


def _emit(tree, reg, ops, walk):
    """Add the ops of `tree` at value register `reg` to the dict `ops`
    ((slot, argument registers) -> op number), append the op of each of
    its Apply nodes to `walk` in walk order (an Apply, then its children in
    tuple order; a Compose's outer side, then its inner), and return its
    value register."""
    if isinstance(tree, Identity):
        return reg
    if isinstance(tree, Apply):
        at = len(walk)
        walk.append(None)
        args = tuple(_emit(c, reg, ops, walk) for c in tree.children)
        walk[at] = ops.setdefault((tree.slot, args), len(ops))
        return walk[at] + 1
    inner = []
    value = _emit(tree.outer, _emit(tree.inner, reg, ops, inner), ops, walk)
    walk += inner
    return value


def run_forward(tape: Tape, families, slots, probes) -> tuple:
    """(value registers, kept activations) of `tape` at `probes`, an
    array (..., m); op k keeps the `act` of its `eval_bridge` call."""
    values, acts = [probes], []
    for slot, args in tape.ops:
        value, act = eval_bridge(families[slot], slots[slot],
                                 [values[r] for r in args], True)
        values.append(value)
        acts.append(act)
    return values, acts


def run_reverse(tape: Tape, families, slots, forward, seeds) -> list:
    """The per-slot gradients of sum_k seeds[k] . tree_k, None for a slot
    the tape does not use; `forward` is from `run_forward`.  A step hands
    `grad_args` no arguments: it reads them only to recompute an mlp1h
    `act`, and `run_forward` keeps every one.  One `grad_bridge` call per
    slot gives the rows of its `tape.rows` plan, added probe-major, then in
    plan order, from the first, + 0.0: the bits of a sum from +0.0."""
    (values, acts), cots = forward, list(seeds)
    grads = [None] * len(slots)
    for op, regs in tape.steps:
        if op is None:
            cots.append(sum((cots[r] for r in regs), 0.0))
        else:
            slot = tape.ops[op][0]
            cots.extend(grad_args(families[slot], slots[slot], (), cots[regs], acts[op]))
    for slot, (*args, cot, act) in tape.rows:
        gp = grad_bridge(families[slot], slots[slot],
                         [np.array([values[r] for r in regs]) for regs in args],
                         np.array([cots[r] for r in cot]), None if acts[act[0]] is None
                         else np.array([acts[op] for op in act]))
        grads[slot] = np.add.accumulate(gp.swapaxes(0, -2).reshape(-1, gp.shape[-1]))[-1] + 0.0
    return grads


def node_count(tree) -> int:
    if isinstance(tree, Identity):
        return 1
    if isinstance(tree, Apply):
        return 1 + sum(node_count(c) for c in tree.children)
    return 1 + node_count(tree.outer) + node_count(tree.inner)


# --- equation pairs --------------------------------------------------------


@dataclass(frozen=True)
class EquationPairList:
    """Goal equations: each pair demands left side == right side pointwise."""

    pairs: tuple = ()

    def __hash__(self) -> int:
        return self._hash

    _hash = cached_property(lambda self: hash(self.pairs))  # walked once per list

    @cached_property
    def _text(self) -> tuple:
        return tuple((seq_to_text(l), seq_to_text(r)) for l, r in self.pairs)

    def to_json(self) -> list:
        return [list(pair) for pair in self._text]

    @classmethod
    def from_json(cls, obj) -> "EquationPairList":
        pairs = []
        for entry in obj:
            if len(entry) != 2:
                raise GrammarError(
                    f"equation pair needs exactly 2 sides, got {len(entry)}"
                )
            left, right = entry
            pairs.append((seq_from_text(left), seq_from_text(right)))
        return cls(tuple(pairs))

    def compile(self, arities) -> list:
        return [
            (parse_sequence(l, arities), parse_sequence(r, arities))
            for l, r in self.pairs
        ]
