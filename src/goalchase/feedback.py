"""Goal residuals, the scalar loss, and one tick of the parameter controller.

For goal pair k the residual at probe d is er_k(d) = left_k(d) - right_k(d);
the loss averages the squared residual norms over the probe set; `evaluate`
gives it and its gradient from one walk.  A controller tick descends a given
gradient with momentum and an optional parameter leak, then advances the
probe: it never evaluates goals, and nothing here sees the law's state.
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
    "evaluate",
    "loss",
    "loss_gradients",
    "control_step",
]


@lru_cache(maxsize=4096)
def _compile_cached(cpair: EquationPairList, arities: tuple) -> tuple:
    return tuple(cpair.compile(arities))


def compile_pairs(cpair: EquationPairList, families) -> tuple:
    """Parse both sides of every goal pair against the slot arity table."""
    return _compile_cached(cpair, tuple(f.arity for f in families))


def feedback_error(cpair: EquationPairList, families, slots, d) -> list:
    """Residual vectors [left_k(d) - right_k(d)] for every goal pair."""
    return [vjp_expr(tl, families, slots, d)[0] - vjp_expr(tr, families, slots, d)[0]
            for tl, tr in compile_pairs(cpair, families)]


def evaluate(cpair: EquationPairList, families, slots, probes):
    """(loss, gradients) from one walk over every probe and goal pair.

    `gradients()` runs the kept pullbacks, seeding 2 er_k(d) / |probes| into
    the left tree and its negative into the right.  Overflow is left to the
    caller to find as non-finite values, without numpy warnings."""
    trees = compile_pairs(cpair, families)
    total = 0.0
    kept = []
    scale = 2.0 / len(probes)
    with np.errstate(over="ignore", invalid="ignore"):
        for d in probes:
            for tl, tr in trees:
                left, back_left = vjp_expr(tl, families, slots, d)
                right, back_right = vjp_expr(tr, families, slots, d)
                er = left - right
                total += float(er @ er)
                kept.append((scale * er, back_left, back_right))

    def gradients() -> list:
        grads = [np.zeros_like(np.asarray(s, dtype=float)) for s in slots]
        with np.errstate(over="ignore", invalid="ignore"):
            for cot, back_left, back_right in kept:
                back_left(cot, grads)
                back_right(-cot, grads)
        return grads

    return total / len(probes), gradients


def loss(cpair: EquationPairList, families, slots, probes) -> float:
    """The loss of `evaluate`."""
    return evaluate(cpair, families, slots, probes)[0]


def loss_gradients(cpair: EquationPairList, families, slots, probes) -> list:
    """The per-slot gradient of `loss`, from `evaluate`."""
    return evaluate(cpair, families, slots, probes)[1]()


def control_step(
    state: SlotState,
    grads: list,
    probes,
    eta: float,
    mu: float = 0.0,
    drift: float = 0.0,
    probe_mode: str = FIXED_SET,
) -> SlotState:
    """One controller tick: momentum descent along `grads`, then probe advance.

    v' = mu v + g;  slots' = (1 - drift) slots - eta v'.  In fixed_set mode
    the probe advances cyclically through `probes` and the PRNG words are
    left untouched; in resample mode a fresh probe is drawn from the words.
    """
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
