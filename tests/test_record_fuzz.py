"""A seeded fuzz of the trajectory lines `compare` reads.

Each case changes one line of a short goal_switch log once: a key
deleted, a key added, or a value replaced by one of another type from
`POOL`.  The first case, picked by hand, flips a `macro` flag instead.
`compare` then reads the original log against the changed one through
`cli.main`, in-process.  Every case must exit 0 or 2 with no traceback:
2 naming the changed line and key, or 0 reporting a divergence at that
line's `t` in the changed field.  The mutator is hand-rolled with a fixed
seed, as in `test_config_fuzz.py`.
"""

import json
import random

from goalchase.cli import main

from scenarios import goal_switch_obj

SEED, CASES = 11, 300
POOL = ["", "x", "yes", 2.9, -1, 0, 1, 10**30, True, False, None, [], [[]], {},
        [["[0,1]", "[1,0]"]], float("nan")]


def _cases(records):
    """(line index, changed key, changed record) of each case."""
    n = next(i for i, rec in enumerate(records) if rec["macro"])
    yield n, "macro", {**records[n], "macro": False}
    rng = random.Random(SEED)
    for _ in range(CASES):
        n = rng.randrange(len(records))
        rec = dict(records[n])
        op = rng.randrange(3)
        if op == 0:
            key = rng.choice(list(rec))
            del rec[key]
        elif op == 1:
            key = rng.choice([k for k in ("extra", "slots", "Macro") if k not in rec])
            rec[key] = rng.choice(POOL)
        else:
            key = rng.choice(list(rec))
            rec[key] = rng.choice([v for v in POOL if type(v) is not type(rec[key])])
        yield n, key, rec


def test_changed_trajectory_lines_exit_2_or_diverge(tmp_path, capsys):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(goal_switch_obj(steps=12, K=4, snapshot_every=5)))
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["run", "--config", str(cfg), "--out", str(a)]) == 0
    b.mkdir()
    lines = (a / "trajectory.jsonl").read_text().splitlines()
    records = [json.loads(ln) for ln in lines]
    path = b / "trajectory.jsonl"
    codes = []
    for n, key, rec in _cases(records):
        path.write_text("\n".join(lines[:n] + [json.dumps(rec)] + lines[n + 1:]) + "\n")
        capsys.readouterr()
        rc = main(["compare", str(a), str(b)])
        out, err = capsys.readouterr()
        assert rc in (0, 2) and "Traceback" not in err, (n, key, rec, err)
        if rc == 2:
            assert f"config error: {path}:{n + 1}: {key}" in err, (n, key, rec, err)
        else:
            report = json.loads(out)
            expected = (records[n]["t"], "t" if key == "T" else key)
            assert (report["first_divergence_t"], report["field"]) == expected, (
                n, key, rec, report)
        codes.append(rc)
    # the changes reach both outcomes
    assert codes.count(0) >= 10 and codes.count(2) > len(codes) // 2
