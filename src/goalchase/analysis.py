"""Analyses over scenarios: reduction, witnesses, and gradient checks.

Every public function returns a JSON-ready report dict carrying a
`verdict` in {"pass", "fail", "warning"} plus the measured quantities, so
reports can be printed, stored, or asserted on uniformly.
"""

from __future__ import annotations

import numpy as np

from .bridge import MLP1H, BridgeFamily, eval_bridge
from .core import ConfigError, ScenarioConfig, SlotState, init_state
from .expr import EquationPairList
from .feedback import control_step, loss, loss_gradients
from .goallaw import IDENTITY_LAW, LawState
from . import simulator

__all__ = [
    "is_reducible",
    "reduction_check",
    "divergence_witness",
    "permutation_witness",
    "pad_witness",
    "grad_check",
]


def is_reducible(config: ScenarioConfig) -> bool:
    """True iff the rewrite law is the identity law, i.e. the goal stream
    is constant and the run collapses to a single fixed-goal controller."""
    return config.law.kind == IDENTITY_LAW


def _max_abs_deviation(xs, ys) -> float:
    """Largest entry-wise |x - y| over paired arrays (0.0 if all are empty)."""
    return max([0.0] + [float(np.max(np.abs(x - y)))
                        for x, y in zip(xs, ys) if x.size])


def _state_deviation(a: SlotState, b: SlotState) -> float:
    if a.probe_cursor != b.probe_cursor or not np.array_equal(
        a.rng_words, b.rng_words
    ):
        return float("inf")
    return _max_abs_deviation(
        [*a.slots, *a.momentum, a.probe], [*b.slots, *b.momentum, b.probe]
    )


def reduction_check(config: ScenarioConfig) -> dict:
    """Replay a constant-goal run against the plain one-level controller.

    The identity-law two-timescale loop and a direct loop of `loss_gradients`
    and `control_step` on the frozen goals execute the same arithmetic, so
    the deviation must be exactly 0.0; any nonzero value is a failure.
    """
    if not is_reducible(config):
        raise ConfigError("law.kind", "reduction_check needs the identity law")
    cpair = config.law.pairs
    reduced = init_state(config)
    max_dev = 0.0
    first_dev = None
    states = simulator.iterate(config)
    next(states)  # t = 0: both sides start from init_state(config)
    for sim in states:
        probes = config.probe_set(reduced)
        grads = loss_gradients(cpair, config.slot_specs, reduced.slots, probes)
        reduced = control_step(reduced, grads, probes, config.eta, config.mu,
                               config.drift, config.probe_mode)
        dev = _state_deviation(sim.sub, reduced)
        if dev > max_dev:
            max_dev = dev
        if dev != 0.0 and first_dev is None:
            first_dev = sim.t
    return {
        "check": "reduction",
        "verdict": "pass" if max_dev == 0.0 else "fail",
        "max_deviation": max_dev,
        "first_deviation_step": first_dev,
        "steps": config.steps,
        "reducible": True,
    }


def divergence_witness(
    config: ScenarioConfig,
    alt_law_state: LawState,
    threshold: float = 1e-2,
    atol: float = 1e-12,
    sinks=None,
) -> dict:
    """Run the scenario twice from the same seeded state, once with the
    configured initial law state and once with `alt_law_state`, and find
    the first step at which slot parameters deviate beyond `atol`.

    The two runs share every input except the law's own state, so any
    divergence is attributable to the rewrite level alone.  `sinks`, when
    given, is a pair of callables (such as `simulator.recorder`s) fed
    every state of the configured and of the alternative run, in turn.
    """
    first = None
    dev = 0.0
    runs = zip(simulator.iterate(config), simulator.iterate(config, alt_law_state))
    for sim_a, sim_b in runs:
        if sinks is not None:
            sinks[0](sim_a)
            sinks[1](sim_b)
        dev = _max_abs_deviation(sim_a.sub.slots, sim_b.sub.slots)
        if first is None and dev > atol:
            first = sim_a.t
    found = first is not None and dev > threshold
    report = {
        "check": "divergence_witness",
        "verdict": "pass" if found else "fail",
        "first_divergence_step": first,
        "final_deviation": dev,
        "threshold": threshold,
        "steps": config.steps,
    }
    if first is None:
        report["reason"] = "no divergence within the configured steps"
    elif not found:
        report["reason"] = "final deviation below threshold"
    return report


def permutation_witness(
    family: BridgeFamily,
    params,
    permutation,
    n_probes: int = 100,
    probe_seed: int = 0,
) -> dict:
    """Check that permuting mlp1h hidden units leaves the map unchanged.

    Rows of W1 and entries of b1 are permuted together with the columns of
    W2; the two parameter vectors then realize the same function, so the
    evaluation deviation over seeded probes must sit at summation-order
    roundoff (<= 1e-12).
    """
    if family.kind != MLP1H:
        raise ValueError(f"permutation witness needs mlp1h, got {family.kind}")
    perm = list(permutation)
    if sorted(perm) != list(range(family.hidden)):
        raise ValueError(f"not a permutation of range({family.hidden}): {perm}")
    params = np.asarray(params, dtype=float)
    m, h = family.m, family.hidden
    hm = h * m
    permuted = params.copy()
    W1 = params[:hm].reshape(h, m)
    b1 = params[hm : hm + h]
    W2 = params[hm + h : hm + h + m * h].reshape(m, h)
    permuted[:hm] = W1[perm, :].ravel()
    permuted[hm : hm + h] = b1[perm]
    permuted[hm + h : hm + h + m * h] = W2[:, perm].ravel()
    gen = np.random.Generator(np.random.PCG64(probe_seed))
    inputs = [[gen.uniform(-1.0, 1.0, size=m)] for _ in range(n_probes)]
    dev = _max_abs_deviation([eval_bridge(family, params, a) for a in inputs],
                             [eval_bridge(family, permuted, a) for a in inputs])
    changed = not np.array_equal(params, permuted)
    report = {
        "check": "permutation_witness",
        "verdict": "pass" if (dev <= 1e-12 and changed) else "warning",
        "max_deviation": dev,
        "params_changed": changed,
        "n_probes": n_probes,
    }
    if h == 1:
        report["verdict"] = "warning"
        report["reason"] = "hidden width 1 admits only the identity permutation"
    elif not changed:
        report["reason"] = "permutation left the parameters unchanged"
    elif dev > 1e-12:
        report["verdict"] = "fail"
    return report


def pad_witness(family: BridgeFamily, params, pad_seed: int = 0,
                n_probes: int = 100) -> dict:
    """Check that rewriting the pad tail of a parameter vector changes the
    realized map by exactly nothing."""
    params = np.asarray(params, dtype=float)
    if family.pad == 0:
        return {
            "check": "pad_witness",
            "verdict": "warning",
            "reason": "family has no pad parameters",
            "max_deviation": 0.0,
        }
    gen = np.random.Generator(np.random.PCG64(pad_seed))
    other = params.copy()
    other[family.param_count - family.pad :] = gen.uniform(
        -10.0, 10.0, size=family.pad
    )
    inputs = [[gen.uniform(-1.0, 1.0, size=family.m) for _ in range(family.arity)]
              for _ in range(n_probes)]
    dev = _max_abs_deviation([eval_bridge(family, params, a) for a in inputs],
                             [eval_bridge(family, other, a) for a in inputs])
    return {
        "check": "pad_witness",
        "verdict": "pass" if dev == 0.0 else "fail",
        "max_deviation": dev,
        "params_changed": bool(not np.array_equal(params, other)),
        "n_probes": n_probes,
    }


def _random_sequence(gen, arities, max_len: int = 3) -> tuple:
    unary = [i for i, a in enumerate(arities) if a == 1]
    items = []
    for _ in range(int(gen.integers(1, max_len + 1))):
        slot = int(gen.integers(len(arities)))
        items.append(slot)
        if arities[slot] == 1:
            continue
        children = []
        for _ in range(2):
            n = int(gen.integers(0, 3)) if unary else 0
            children.append(
                tuple(unary[int(gen.integers(len(unary)))] for _ in range(n))
            )
        items.append(tuple(children))
    return tuple(items)


def _random_pairs(gen, arities) -> EquationPairList:
    n = int(gen.integers(1, 3))
    pairs = tuple(
        (_random_sequence(gen, arities), _random_sequence(gen, arities))
        for _ in range(n)
    )
    return EquationPairList(pairs)


def grad_check(
    config: ScenarioConfig,
    n_samples: int = 100,
    fd_step: float = 1e-5,
    seed: int = 0,
    threshold: float = 1e-5,
) -> dict:
    """Compare analytic loss gradients against central finite differences.

    Draws seeded random (slots, goals, probe) triples shaped like the
    scenario and reports the worst per-entry relative error; entries where
    both gradients are below 1e-6 in magnitude are compared absolutely.
    """
    gen = np.random.Generator(np.random.PCG64(seed))
    arities = config.arities
    fams = config.slot_specs
    worst = 0.0
    for _ in range(n_samples):
        slots = [
            gen.uniform(-0.5, 0.5, size=f.param_count) for f in fams
        ]
        cpair = _random_pairs(gen, arities)
        probes = [gen.uniform(-1.0, 1.0, size=config.m)]
        analytic = loss_gradients(cpair, fams, slots, probes)
        for i, fam in enumerate(fams):
            for j in range(fam.param_count):
                orig = slots[i][j]
                slots[i][j] = orig + fd_step
                hi = loss(cpair, fams, slots, probes)
                slots[i][j] = orig - fd_step
                lo = loss(cpair, fams, slots, probes)
                slots[i][j] = orig
                fd = (hi - lo) / (2.0 * fd_step)
                a = analytic[i][j]
                denom = max(abs(a), abs(fd))
                err = abs(a - fd) if denom < 1e-6 else abs(a - fd) / denom
                if err > worst:
                    worst = err
    return {
        "check": "grad_check",
        "verdict": "pass" if worst < threshold else "fail",
        "worst_rel_err": worst,
        "n_samples": n_samples,
        "fd_step": fd_step,
        "threshold": threshold,
    }
