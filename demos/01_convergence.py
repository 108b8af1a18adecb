"""Train two random affine maps until they commute on the probe set.

The goal list holds the single equation [0,1] == [1,0]: applying slot 0
after slot 1 must match applying slot 1 after slot 0 at every probe.  A
plain momentum-free descent drives the mean squared residual from ~0.27
to the order of 1e-32 in 5000 steps; the rewrite law is the identity, so
the goal never changes.

Run: python3 demos/01_convergence.py
"""

import json
from pathlib import Path

from goalchase import config_from_json, run

CONFIG = Path(__file__).parent / "configs" / "commute.json"


def main():
    config = config_from_json(json.loads(CONFIG.read_text()))
    records, _ = run(config)
    by_t = {r["t"]: r for r in records}
    left, right = records[0]["pairs"][0]
    print(f"goal: {left} == {right}")
    print("step      loss")
    for t in [0, 10, 100, 500, 1000, 2500, 5000]:
        print(f"{t:>5}  {by_t[t]['loss']:.3e}")
    drops = sum(
        by_t[t + 1]["loss"] > by_t[t]["loss"] + 1e-24 for t in range(10, config.steps)
    )
    print(f"\nfinal loss below 1e-8: {by_t[config.steps]['loss'] < 1e-8}")
    print(f"loss increases after step 10 (beyond roundoff): {drops}")


if __name__ == "__main__":
    main()
