"""The benchmark's workloads: scenario configs generated from a seed.

The benchmark seed becomes the controller's `init_seed`; everything else
is fixed per workload, so the goal stream (and hence the work per step)
is the same for every seed and only the controller's trajectory moves.
"""

from __future__ import annotations

import copy

DEFAULT_SEED = 1

_PROBES = [[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]]

# demos/configs/commute.json as shipped, copied so a demo edit cannot
# silently change the benchmark.
_COMMUTE = {
    "m": 2,
    "slots": [{"kind": "affine1", "m": 2}, {"kind": "affine1", "m": 2}],
    "init_seed": DEFAULT_SEED,
    "eta": 0.05,
    "mu": 0.0,
    "drift": 0.0,
    "probe_mode": "fixed_set",
    "probes": _PROBES,
    "K": 1000,
    "law": {"kind": "identity", "pairs": [["[0,1]", "[1,0]"]]},
    "steps": 5000,
    "log_every": 1,
}


def alternating_chain(length: int, first: int) -> str:
    """Text of the chain [first, 1-first, first, ...] with `length` factors."""
    return "[" + ",".join(str((first + k) % 2) for k in range(length)) + "]"


def commute_log1(init_seed: int) -> dict:
    obj = copy.deepcopy(_COMMUTE)
    obj.update(init_seed=init_seed, steps=1000, log_every=1)
    return obj


def deep_chain(init_seed: int) -> dict:
    obj = commute_log1(init_seed)
    pair = [alternating_chain(16, 0), alternating_chain(16, 1)]
    obj.update(law={"kind": "identity", "pairs": [pair]}, steps=100, log_every=100)
    return obj


def walk_growth(init_seed: int) -> dict:
    # 59 law firings, at t = 25, 50, ..., 1475: the goals grow from 4 to
    # 115 nodes.  The walk is a pure function of the firing count and
    # reaches 1651 nodes (46 ms per step) by 120 firings, so the run stays
    # well short of that.
    return {
        "m": 2,
        "slots": [
            {"kind": "affine1", "m": 2},
            {"kind": "mlp1h", "m": 2, "hidden": 4},
            {"kind": "affine2", "m": 2},
        ],
        "init_seed": init_seed,
        "eta": 0.02,
        "probe_mode": "resample",
        "K": 25,
        "law": {
            "kind": "grammar_walk",
            "pairs": [["[0,1]", "[1,0]"]],
            "law_seed": 7,
            "mutation_weights": [4.0, 2.0, 2.0, 1.0],
        },
        "steps": 1500,
        "log_every": 1500,
    }


WORKLOADS = {f.__name__: f for f in (commute_log1, deep_chain, walk_growth)}


def config_obj(workload: str, seed: int) -> dict:
    """The JSON config object of `workload` for benchmark seed `seed`."""
    return WORKLOADS[workload](seed)
