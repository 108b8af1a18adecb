"""Let the law rewrite its own goal equations by random grammar moves.

Every K steps the law mutates the goal list: swapping adjacent factors,
appending a unary factor, swapping sides, or wrapping both heads in a
binary application.  Invalid candidates are resampled, so every installed
goal parses.  The walk reads nothing but its own seed and counters: rerun
with a different init_seed and the goal stream is identical even though
the parameters differ everywhere.

Run: python3 demos/04_grammar_walk.py
"""

import json
from pathlib import Path

from goalchase import config_from_json, run

CONFIG = Path(__file__).parent / "configs" / "grammar_walk.json"


def goal_stream(config):
    records, _ = run(config)
    seen = []
    for rec in records:
        if not seen or rec["pairs"] != seen[-1][1]:
            seen.append((rec["t"], rec["pairs"]))
    return records, seen


def main():
    config = config_from_json(json.loads(CONFIG.read_text()))
    records, stream = goal_stream(config)
    print("goals installed along the walk:")
    for t, pairs in stream:
        left, right = pairs[0]
        print(f"  t={t:>5}  {left} == {right}")

    other = config_from_json(json.loads(CONFIG.read_text()))
    other.init_seed = 999
    _, stream_b = goal_stream(other)
    same = [p for _, p in stream] == [p for _, p in stream_b]
    print(f"\nsame goal stream under init_seed=999: {same}")
    print(f"final loss on the current goal: {records[-1]['loss']:.3e}")


if __name__ == "__main__":
    main()
