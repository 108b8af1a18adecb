"""Golden digests of short demo runs whose bits no engine change may move.

The goals of commute, goal_switch, mlp_mimic and resample are chains of
one-argument slots with no shared op, where the reverse pass adds every
gradient row in the order of the recursive per-occurrence oracle (`_vjp`
in test_expr_oracle.py).  The grammar_walk run, its law firing every 10
steps, reaches goals whose sides share ops, such as [0,1] = [1,0,1], so
its tape sums an adjoint's contributions in a `(None, regs)` step, which
the other runs never take.  A change that moves a digest changes the
numbers these demos produce.
"""

import hashlib
import json
import warnings
from pathlib import Path

import pytest

from goalchase.cli import main
from goalchase.core import config_from_json
from goalchase.feedback import _compile_cached
from goalchase.goallaw import initial_law_state, step_law

CONFIGS = Path(__file__).resolve().parents[1] / "demos" / "configs"

# sha256 of trajectory.jsonl after 200 steps (goal_switch switching goals
# every 50, grammar_walk's law firing every 10)
DIGESTS = {
    "commute": ((), "57e571292a378e2cbd214d23c6608537c31d86405d2cb85143066b00278b679c"),
    "goal_switch": (("K=50",),
                    "e8d2513c14b55ff2acc1ca5338304d656f4d2961ef8b4588c4ba19779896965b"),
    "grammar_walk": (("K=10",),
                     "4f68137e1e507ad81be3767bfff9f37519853e8dc2f46b426172c12791e8feec"),
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


def test_grammar_walk_run_reaches_a_summed_adjoint():
    # the goals of the grammar_walk digest's 19 law firings
    config = config_from_json(json.loads((CONFIGS / "grammar_walk.json").read_text()))
    state, sums = initial_law_state(config.law), 0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # a stalled step just repeats a goal
        for _ in range(19):
            state = step_law(config.law, state)
            tape = _compile_cached(state.cpair, config.arities)
            sums += any(op is None for op, _ in tape.steps)
    assert sums > 0
