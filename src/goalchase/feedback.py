"""Goal residuals, the scalar loss, and one tick of the parameter controller.

For goal pair k the residual at probe d is er_k(d) = left_k(d) - right_k(d);
the loss averages the squared residual norms over the probe set; `evaluate`
gives it and its gradient from one run of the goals' tape, compiled once
per goal list (`expr.compile_tape`) and cached without its trees for the
64 lists used last; the tape's reverse pass visits each distinct op once,
however often the goals repeat it.  A controller tick descends a given gradient with
momentum and an optional parameter leak, then advances the probe: it
never evaluates goals, and nothing here sees the law's state.

The loss takes one `np.vecdot(er_k, er_k)` per pair and adds its entries
probe by probe, then pair by pair: the order, and the bits, of the loop
over `er_k[p] @ er_k[p]` it replaced.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .core import FIXED_SET, RESAMPLE, DivergenceError, SlotState
from .expr import EquationPairList, Tape, compile_tape, run_forward, run_reverse
from .prng import rng_from_words, rng_to_words

__all__ = [
    "compile_pairs",
    "evaluate",
    "loss",
    "loss_gradients",
    "control_step",
]


@lru_cache(maxsize=64)
def _compile_cached(cpair: EquationPairList, arities: tuple) -> Tape:
    """The goals' tape: left and right side of each pair in turn."""
    return compile_tape([t for pair in cpair.compile(arities) for t in pair])


def compile_pairs(cpair: EquationPairList, families) -> list:
    """Parse both sides of every goal pair against the slot arity table."""
    return cpair.compile([f.arity for f in families])


def _forward(cpair: EquationPairList, families, slots, probes) -> tuple:
    """(tape, `run_forward` of it, residuals er_k) of the goals at `probes`."""
    tape = _compile_cached(cpair, tuple(f.arity for f in families))
    forward = run_forward(tape, families, slots, probes)
    values, sides = forward[0], iter(tape.outputs)
    return tape, forward, [values[l] - values[r] for l, r in zip(sides, sides)]


def evaluate(cpair: EquationPairList, families, slots, probes):
    """(loss, gradients) from one run of the goals' tape over all probes.

    The probes, a (P, m) array or a list of P probes, run as one batch;
    the loss adds er_k(d) . er_k(d) probe by probe, then pair by pair.
    `gradients()` runs the tape in reverse, seeding 2 er_k(d) / P into the
    left tree and its negative into the right.  Overflow is left to the
    caller to find as non-finite values, without numpy warnings."""
    batch, total = np.asarray(probes, dtype=float), 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        tape, forward, ers = _forward(cpair, families, slots, batch)
        for row in zip(*[np.vecdot(er, er).tolist() for er in ers]):
            for dot in row:
                total += dot

    def gradients() -> list:
        cots = [2.0 / len(batch) * er for er in ers]
        with np.errstate(over="ignore", invalid="ignore"):
            grads = run_reverse(tape, families, slots, forward,
                                [s for c in cots for s in (c, -c)])
        return [np.zeros_like(s) if g is None else g for s, g in zip(slots, grads)]

    return total / len(batch), gradients


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

    v' = mu v + g;  params' = (1 - drift) params - eta v'.  In fixed_set mode
    the probe advances cyclically through `probes` and the PRNG words carry
    over as they are; in resample mode a fresh probe is drawn from them.
    """
    g = np.concatenate(grads)
    finite = np.isfinite(g)
    if not finite.all():
        slot = np.searchsorted(state.bounds, np.argmin(finite), side="right") - 1
        raise DivergenceError(f"non-finite gradient in slot {slot}")
    momentum = mu * state.momentum + g
    params = (1.0 - drift) * state.params - eta * momentum
    words, cursor = state.rng_words, 0
    if probe_mode == FIXED_SET:
        cursor = (state.probe_cursor + 1) % len(probes)
        probe = probes[cursor].copy()
    elif probe_mode == RESAMPLE:
        gen = rng_from_words(words)
        probe = gen.uniform(-1.0, 1.0, size=state.probe.shape[0])
        words = rng_to_words(gen)
    else:
        raise ValueError(f"unknown probe_mode {probe_mode!r}")
    return SlotState(params, momentum, state.bounds, words, probe, cursor)
