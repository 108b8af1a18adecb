"""Golden digests of short demo runs whose bits no engine change may move.

Each goal of these demos is a chain of one-argument slots with no shared
op, so the reverse pass adds every gradient row in the order of the
recursive per-occurrence oracle (`_vjp` in test_expr_oracle.py), and the
run is fixed byte for byte.  A change that moves a digest changes the
numbers these demos produce.
"""

import hashlib
from pathlib import Path

import pytest

from goalchase.cli import main

CONFIGS = Path(__file__).resolve().parents[1] / "demos" / "configs"

# sha256 of trajectory.jsonl after 200 steps (goal_switch switching goals
# every 50)
DIGESTS = {
    "commute": ((), "57e571292a378e2cbd214d23c6608537c31d86405d2cb85143066b00278b679c"),
    "goal_switch": (("K=50",),
                    "e8d2513c14b55ff2acc1ca5338304d656f4d2961ef8b4588c4ba19779896965b"),
    "mlp_mimic": ((), "9bb341c2eafaace44f2620ccda1506cb443cb76faeacb410e7888b8621c894f1"),
    "resample": ((), "7506c25ad1e732b84ae9c33600d1ab12debc7042167676463013ecf0ad21543b"),
}


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_demo_trajectory_digest(name, tmp_path):
    overrides, digest = DIGESTS[name]
    argv = ["run", "--config", str(CONFIGS / f"{name}.json"), "--set", "steps=200"]
    for item in overrides:
        argv += ["--set", item]
    assert main(argv + ["--out", str(tmp_path)]) == 0
    data = (tmp_path / "trajectory.jsonl").read_bytes()
    assert hashlib.sha256(data).hexdigest() == digest
