"""A seeded fuzz of the config boundary.

Each case is a demo config with one or two mutations: a key deleted, an
unknown key added, or a value replaced from `POOL` (wrong types, huge and
tiny numbers, goal text, and goal sides that are not strings); some cases
also get a random `--set`.  `run`, `check` and `witness` then go through
`cli.main` in-process, and each must return an exit code from 0 to 3:
nothing may escape `main`.  A hand-rolled mutator with a fixed seed keeps
the cases the same on every machine and adds no dependency (Miller,
Fredriksen & So, CACM 1990; Zeller et al., *The Fuzzing Book*,
"Mutation-Based Fuzzing").

The huge sizes are ones numpy refuses outright, so an input the budget
missed fails fast instead of allocating.
"""

import json
import random
from pathlib import Path

import pytest

from goalchase.cli import main

SEED, CASES, MAX_STEPS = 7, 200, 30
DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos" / "configs").glob("*.json"))
POOL = [
    "2", "", "x", 2.9, 0.5, 1e-3, -1, 0, 1, 2, 3, True, False, None, [], {}, {"[0]": 1},
    [[]], [[[]]], ["[0]"], [["[0]", "[1]"]], [[1, 0]], 10**30, 10**20, 2**64,
    -(10**30), 1e308, 5e-324, "[0,1]", "[1,(0,[])]", "[9]", "[0,(", "fixed_set",
]


def _paths(node, path=()):
    """The path of every value under `node`, containers included."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, child in items:
        yield path + (key,)
        yield from _paths(child, path + (key,))


def _mutate(obj, rng):
    """Replace one or two leaves, mostly; else delete a key or add one."""
    for _ in range(rng.choice((1, 1, 2))):
        paths = list(_paths(obj))
        leaves = [p for p in paths if not isinstance(_at(obj, p), (dict, list))]
        if not leaves:
            return
        *parent_path, key = rng.choice(paths if rng.random() < 0.2 else leaves)
        parent = _at(obj, parent_path)
        op = rng.randrange(10)
        if op == 0 and isinstance(parent, dict):
            del parent[key]
        elif op == 1 and isinstance(parent, dict):
            parent["bogus"] = rng.choice(POOL)
        else:
            parent[key] = rng.choice(POOL)


def _at(obj, path):
    for part in path:
        obj = obj[part]
    return obj


def _cases():
    rng = random.Random(SEED)
    for case in range(CASES):
        obj = json.loads(rng.choice(DEMOS).read_text())
        _mutate(obj, rng)
        sets = []
        if rng.random() < 0.3:
            key = ".".join(str(p) for p in rng.choice(list(_paths(obj)) or [("m",)]))
            value = json.dumps(rng.choice(POOL))
            sets = [] if key == "steps" else ["--set", f"{key}={value}"]  # steps stay capped
        steps = obj.get("steps")
        if isinstance(steps, int) and not isinstance(steps, bool) and steps > MAX_STEPS:
            obj["steps"] = MAX_STEPS
        yield case, obj, sets


def test_mutated_configs_exit_0_to_3(tmp_path, capsys):
    codes = []
    for case, obj, sets in _cases():
        cfg = tmp_path / f"case{case}.json"
        cfg.write_text(json.dumps(obj))
        for argv in (["run", "--out", str(tmp_path / f"out{case}")],
                     ["check", "--samples", "2"], ["witness"]):
            rc = main(argv + ["--config", str(cfg)] + sets)
            err = capsys.readouterr().err
            assert rc in (0, 1, 2, 3), (argv[0], obj, sets, err)
            assert "Traceback" not in err
            codes.append(rc)
    # the mutations reach both sides of the boundary
    assert codes.count(2) > len(codes) // 2 and codes.count(0) >= 10
