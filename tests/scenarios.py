"""Canonical scenario objects, and residual and one-tree gradient helpers,
shared across the test suite.

Each builder returns a fresh JSON-style dict so tests can mutate freely.
"""

import copy

import numpy as np

from goalchase.expr import compile_tape, run_forward, run_reverse
from goalchase.feedback import _forward


def feedback_error(cpair, families, slots, d) -> list:
    """Residual vectors [left_k(d) - right_k(d)] for every goal pair."""
    return _forward(cpair, families, slots, d)[2]


def tree_vjp(tree, families, slots, d, cot) -> tuple:
    """(value, per-slot gradients of cot . value) of one tree at the probe
    vector `d`, from the tree's own tape; a slot it does not use gets zeros."""
    tape = compile_tape([tree])
    forward = run_forward(tape, families, slots, d)
    grads = run_reverse(tape, families, slots, forward, [np.asarray(cot, dtype=float)])
    return (forward[0][tape.outputs[0]],
            [np.zeros_like(s) if g is None else g for s, g in zip(slots, grads)])


UNIT_PROBES = [[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]]


def commute_obj(**over):
    """Two affine slots trained toward commuting with each other."""
    obj = {
        "m": 2,
        "slots": [{"kind": "affine1", "m": 2}, {"kind": "affine1", "m": 2}],
        "init_seed": 1,
        "eta": 0.05,
        "mu": 0.0,
        "drift": 0.0,
        "probe_mode": "fixed_set",
        "probes": copy.deepcopy(UNIT_PROBES),
        "K": 1000,
        "law": {"kind": "identity", "pairs": [["[0,1]", "[1,0]"]]},
        "steps": 5000,
        "log_every": 1,
    }
    obj.update(copy.deepcopy(over))
    return obj


def goal_switch_obj(**over):
    """Slot 0 alternately trained to commute with slot 1 then slot 2."""
    obj = {
        "m": 2,
        "slots": [
            {"kind": "affine1", "m": 2},
            {"kind": "affine1", "m": 2},
            {"kind": "affine1", "m": 2},
        ],
        "init_seed": 1,
        "eta": 0.05,
        "probe_mode": "fixed_set",
        "probes": copy.deepcopy(UNIT_PROBES),
        "K": 2500,
        "law": {
            "kind": "schedule",
            "period": 1,
            "program": [
                [["[0,1]", "[1,0]"]],
                [["[0,2]", "[2,0]"]],
            ],
        },
        "steps": 10000,
        "log_every": 1,
    }
    obj.update(copy.deepcopy(over))
    return obj


def walk_obj(**over):
    """Self-rewriting goals driven by grammar mutations."""
    obj = {
        "m": 2,
        "slots": [{"kind": "affine1", "m": 2}, {"kind": "affine1", "m": 2}],
        "init_seed": 3,
        "eta": 0.02,
        "probe_mode": "fixed_set",
        "probes": copy.deepcopy(UNIT_PROBES),
        "K": 50,
        "law": {
            "kind": "grammar_walk",
            "pairs": [["[0,1]", "[1,0]"]],
            "law_seed": 7,
            "mutation_weights": [1.0, 1.0, 1.0, 1.0],
        },
        "steps": 300,
        "log_every": 10,
    }
    obj.update(copy.deepcopy(over))
    return obj


def resample_obj(**over):
    obj = commute_obj(**over)
    obj["probe_mode"] = "resample"
    obj.pop("probes", None)
    obj.update(copy.deepcopy(over))
    return obj


def mlp_obj(**over):
    """Narrow tanh network trained to mimic an affine map on the probes."""
    obj = {
        "m": 2,
        "slots": [
            {"kind": "mlp1h", "m": 2, "hidden": 4},
            {"kind": "affine1", "m": 2},
        ],
        "init_seed": 5,
        "eta": 0.05,
        "probe_mode": "fixed_set",
        "probes": copy.deepcopy(UNIT_PROBES),
        "K": 100,
        "law": {"kind": "identity", "pairs": [["[0]", "[1]"]]},
        "steps": 500,
        "log_every": 10,
    }
    obj.update(copy.deepcopy(over))
    return obj
