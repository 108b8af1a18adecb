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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bridge import eval_bridge, grad_bridge

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
    "vjp_expr",
    "node_count",
]


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


def _scan_sequence(sc: _Scanner) -> tuple:
    sc.take("[")
    items = []
    if sc.peek() == "]":
        sc.take("]")
        return ()
    while True:
        ch = sc.peek()
        if ch == "(":
            items.append(_scan_tuple(sc))
        else:
            items.append(sc.take_int())
        if sc.peek() == ",":
            sc.take(",")
            continue
        sc.take("]")
        return tuple(items)


def _scan_tuple(sc: _Scanner) -> tuple:
    sc.take("(")
    children = []
    while True:
        ch = sc.peek()
        if ch == "[":
            children.append(_scan_sequence(sc))
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
    full sub-sequence.
    """
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
            factors.append(Apply(i, (IDENTITY,)))
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
        kids = tuple(parse_sequence(c, arities) for c in tup)
        factors.append(Apply(i, kids))
        k += 2
    if not factors:
        return IDENTITY
    tree = factors[-1]
    for f in reversed(factors[:-1]):
        tree = Compose(f, tree)
    return tree


# --- evaluation and gradients ----------------------------------------------


def vjp_expr(tree, families, slots, d):
    """Evaluate a tree at the float probe vector `d`; return (value, pullback).

    Reads nothing beyond (tree, families, slots, d).  Inside a Compose the
    inner value becomes the probe seen by the outer subtree, so closed
    arguments of a mid-chain factor consume the value flowing in from the
    right.  `pullback(cot, grads)` adds the per-slot gradients of
    `cot . value` into the list `grads` (repeated occurrences of a slot
    accumulate) and returns the gradient with respect to `d`.  It reuses
    the values kept by this forward walk, so no subtree is evaluated twice.
    """
    if isinstance(tree, Identity):
        return d, _identity_pullback
    if isinstance(tree, Apply):
        children = [vjp_expr(c, families, slots, d) for c in tree.children]
        args = [value for value, _ in children]
        family, params = families[tree.slot], slots[tree.slot]

        def apply_pullback(cot, grads):
            gp, gargs = grad_bridge(family, params, args, cot)
            grads[tree.slot] += gp
            dd = np.zeros_like(d)
            for (_, back), ga in zip(children, gargs):
                dd += back(ga, grads)
            return dd

        return eval_bridge(family, params, args), apply_pullback
    inner, back_inner = vjp_expr(tree.inner, families, slots, d)
    value, back_outer = vjp_expr(tree.outer, families, slots, inner)

    def compose_pullback(cot, grads):
        return back_inner(back_outer(cot, grads), grads)

    return value, compose_pullback


def _identity_pullback(cot, grads):
    return cot


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

    def to_json(self) -> list:
        return [[seq_to_text(l), seq_to_text(r)] for l, r in self.pairs]

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
