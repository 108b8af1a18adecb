"""Goal residuals, the scalar loss, and one tick of the parameter controller.

For goal pair k the residual at probe d is er_k(d) = left_k(d) - right_k(d);
the loss averages the squared residual norms over the probe set.  One
controller tick descends that loss with momentum and an optional parameter
leak, then advances the probe.  Everything here reads only the slot
parameters and the given goals; the controller never sees the law's state.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .core import FIXED_SET, RESAMPLE, DivergenceError, SlotState
from .expr import EquationPairList, vjp_expr
from .prng import rng_from_words, rng_to_words

__all__ = [
    "compile_pairs",
    "feedback_error",
    "loss",
    "loss_gradients",
    "control_step",
]


@lru_cache(maxsize=4096)
def _compile_cached(cpair: EquationPairList, arities: tuple) -> tuple:
    return tuple(cpair.compile(arities))


def compile_pairs(cpair: EquationPairList, families) -> list:
    """Parse both sides of every goal pair against the slot arity table."""
    arities = tuple(f.arity for f in families)
    return list(_compile_cached(cpair, arities))


def _residuals(trees, families, slots, d):
    """Yield (er_k(d), left pullback, right pullback) for every compiled pair."""
    for tl, tr in trees:
        left, back_left = vjp_expr(tl, families, slots, d)
        right, back_right = vjp_expr(tr, families, slots, d)
        yield left - right, back_left, back_right


def feedback_error(cpair: EquationPairList, families, slots, d) -> list:
    """Residual vectors [left_k(d) - right_k(d)] for every goal pair."""
    trees = compile_pairs(cpair, families)
    return [er for er, _, _ in _residuals(trees, families, slots, d)]


def loss(cpair: EquationPairList, families, slots, probes) -> float:
    """Mean over probes of the summed squared residual norms."""
    trees = compile_pairs(cpair, families)
    total = 0.0
    for d in probes:
        for er, _, _ in _residuals(trees, families, slots, d):
            total += float(er @ er)
    return total / len(probes)


def loss_gradients(cpair: EquationPairList, families, slots, probes) -> list:
    """Per-slot gradient of `loss`, accumulated tree by tree.

    The cotangent seeded into each side is 2 er_k(d) / |probes|, positive
    for the left tree and negative for the right.
    """
    trees = compile_pairs(cpair, families)
    grads = [np.zeros_like(np.asarray(s, dtype=float)) for s in slots]
    scale = 2.0 / len(probes)
    for d in probes:
        for er, back_left, back_right in _residuals(trees, families, slots, d):
            cot = scale * er
            back_left(cot, grads)
            back_right(-cot, grads)
    return grads


def control_step(
    state: SlotState,
    cpair: EquationPairList,
    families,
    probes,
    eta: float,
    mu: float = 0.0,
    drift: float = 0.0,
    probe_mode: str = FIXED_SET,
) -> SlotState:
    """One controller tick: momentum descent on the loss, then probe advance.

    v' = mu v + g;  slots' = (1 - drift) slots - eta v'.  In fixed_set mode
    the probe advances cyclically through `probes` and the PRNG words are
    left untouched; in resample mode a fresh probe is drawn from the words.
    """
    # overflow here is diagnosed below, not worth a numpy warning
    with np.errstate(over="ignore", invalid="ignore"):
        grads = loss_gradients(cpair, families, state.slots, probes)
    for i, g in enumerate(grads):
        if not np.all(np.isfinite(g)):
            raise DivergenceError(f"non-finite gradient in slot {i}")
    new_momentum = [mu * v + g for v, g in zip(state.momentum, grads)]
    new_slots = [
        (1.0 - drift) * s - eta * v for s, v in zip(state.slots, new_momentum)
    ]
    if probe_mode == FIXED_SET:
        cursor = (state.probe_cursor + 1) % len(probes)
        probe = np.asarray(probes[cursor], dtype=float).copy()
        words = state.rng_words.copy()
    elif probe_mode == RESAMPLE:
        gen = rng_from_words(state.rng_words)
        probe = gen.uniform(-1.0, 1.0, size=state.probe.shape[0])
        words = rng_to_words(gen)
        cursor = 0
    else:
        raise ValueError(f"unknown probe_mode {probe_mode!r}")
    return SlotState(new_slots, new_momentum, words, probe, cursor)
