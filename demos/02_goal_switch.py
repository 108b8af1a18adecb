"""Watch the loss spike and re-converge each time the law swaps the goal.

A schedule law alternates between two goals every K=2500 steps: slot 0
must commute with slot 1, then with slot 2, and so on.  Each switch lands
mid-run as a fait accompli for the controller: the loss jumps by orders
of magnitude at t = jK+1 and decays again well before the next event.

Run: python3 demos/02_goal_switch.py
"""

import json
from pathlib import Path

from goalchase import config_from_json, run

CONFIG = Path(__file__).parent / "configs" / "goal_switch.json"


def main():
    config = config_from_json(json.loads(CONFIG.read_text()))
    records, sim = run(config)
    by_t = {r["t"]: r for r in records}
    K = config.K
    print(f"law events seen: {sim.law.macro_count}")
    print("event   t(pre)   loss(pre)    loss(post)   loss(+2000)  new goal")
    for j in range(1, sim.law.macro_count + 1):
        pre, post = by_t[j * K], by_t[j * K + 1]
        settled = by_t.get(j * K + 2000)
        tail = f"{settled['loss']:.3e}" if settled else "        --"
        left, right = post["pairs"][0]
        goal = f"{left} == {right}"
        print(
            f"{j:>5} {pre['t']:>8} {pre['loss']:>12.3e} {post['loss']:>12.3e} "
            f"{tail:>12}  {goal}"
        )


if __name__ == "__main__":
    main()
