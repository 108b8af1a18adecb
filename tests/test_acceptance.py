"""Acceptance suite: one test per claimed capability, at fixed tolerances.

Run `pytest -v tests/test_acceptance.py` to get one pass/fail line per
criterion.  Numbers asserted here are regression anchors for seeded runs;
loosen nothing without understanding why a value moved.
"""

import json
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from goalchase.analysis import (
    divergence_witness,
    grad_check,
    pad_witness,
    permutation_witness,
    reduction_check,
)
from goalchase.bridge import AFFINE1, AFFINE2, MLP1H, BridgeFamily
from goalchase.core import config_from_json
from goalchase.expr import (
    IDENTITY,
    Apply,
    ArityError,
    Compose,
    GrammarError,
    parse_sequence,
    seq_from_text,
    seq_to_text,
)
from goalchase.goallaw import LawState
from goalchase.simulator import new_sim, run, step

from scenarios import commute_obj, feedback_error, goal_switch_obj

AXIS_PROBES_3 = [
    [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0],
    [-1.0, 0.0, 0.0], [0.0, -1.0, 0.0], [0.0, 0.0, -1.0],
]


def _reduction_config(i: int) -> dict:
    """Mixed-family constant-goal scenarios, alternating m between 2 and 3."""
    m = 2 if i % 2 == 0 else 3
    probes = ([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]]
              if m == 2 else AXIS_PROBES_3)
    mixes = [
        (
            [{"kind": "affine1", "m": m}, {"kind": "affine1", "m": m}],
            [["[0,1]", "[1,0]"]],
        ),
        (
            [{"kind": "affine1", "m": m}, {"kind": "affine2", "m": m},
             {"kind": "affine1", "m": m}],
            [["[1,(0,2)]", "[0,2]"]],
        ),
        (
            [{"kind": "mlp1h", "m": m, "hidden": 3}, {"kind": "affine1", "m": m}],
            [["[0,1]", "[1,0]"]],
        ),
        (
            [{"kind": "affine1", "m": m, "pad": 2},
             {"kind": "affine2", "m": m, "pad": 1},
             {"kind": "mlp1h", "m": m, "hidden": 2}],
            [["[1,(0,2)]", "[2,0]"], ["[0]", "[2]"]],
        ),
        (
            [{"kind": "affine2", "m": m}, {"kind": "affine1", "m": m}],
            [["[0,(1,1)]", "[1]"]],
        ),
    ]
    slots, pairs = mixes[i % len(mixes)]
    return {
        "m": m,
        "slots": slots,
        "init_seed": 100 + i,
        "eta": 0.02,
        "probe_mode": "fixed_set",
        "probes": probes,
        "K": 100,
        "law": {"kind": "identity", "pairs": pairs},
        "steps": 1000,
        "log_every": 100,
    }


def test_criterion_01_constant_goal_runs_reduce_exactly():
    # the two-level loop with a constant law must equal the plain
    # controller bit for bit, over ten mixed-family seeded scenarios
    for i in range(10):
        config = config_from_json(_reduction_config(i))
        report = reduction_check(config)
        assert report["verdict"] == "pass", (i, report)
        assert report["max_deviation"] == 0.0, (i, report)


def test_criterion_02_divergence_witness_at_first_boundary():
    config = config_from_json(goal_switch_obj())
    alt = LawState(cpair=config.law.program[0], program_counter=1)
    report = divergence_witness(config, alt, threshold=1e-2)
    assert report["verdict"] == "pass", report
    assert report["first_divergence_step"] == config.K + 1, report
    assert report["final_deviation"] > 1e-2, report


def test_criterion_03_flagship_descent_converges_fast():
    config = config_from_json(commute_obj())
    start = time.perf_counter()
    records, _ = run(config)
    elapsed = time.perf_counter() - start
    by_t = {r["t"]: r for r in records}
    final = by_t[5000]["loss"]
    assert final < 1e-8, final
    # non-increasing after the first few steps, up to additive roundoff
    # at the 1e-32 floor
    for t in range(10, 5000):
        assert by_t[t + 1]["loss"] <= by_t[t]["loss"] + 1e-24, (
            t, by_t[t]["loss"], by_t[t + 1]["loss"],
        )
    assert elapsed < 5.0, elapsed


def test_criterion_04_goal_switch_spikes_then_reconverges():
    config = config_from_json(goal_switch_obj())
    records, sim = run(config)
    assert sim.law.macro_count >= 3
    by_t = {r["t"]: r for r in records}
    K = config.K
    for j in (1, 2, 3):
        before = by_t[j * K]["loss"]
        after = by_t[j * K + 1]["loss"]
        settled = by_t[j * K + 2000]["loss"]
        assert after > 10.0 * max(before, 1e-300), (j, before, after)
        assert settled < 1e-6, (j, settled)
        assert settled < after, (j, settled, after)


def test_criterion_05_gradients_match_finite_differences():
    cases = [
        ([{"kind": "affine1", "m": 2}, {"kind": "affine1", "m": 2}],
         [["[0,1]", "[1,0]"]], 1e-7),
        ([{"kind": "affine2", "m": 2}, {"kind": "affine2", "m": 2}],
         [["[0,([],[])]", "[1,([],[])]"]], 1e-7),
        ([{"kind": "mlp1h", "m": 2, "hidden": 3},
          {"kind": "mlp1h", "m": 2, "hidden": 3}],
         [["[0]", "[1]"]], 1e-5),
    ]
    for slots, pairs, threshold in cases:
        obj = commute_obj()
        obj["slots"] = slots
        obj["law"]["pairs"] = pairs
        config = config_from_json(obj)
        report = grad_check(config, n_samples=100, threshold=threshold)
        assert report["verdict"] == "pass", (slots[0]["kind"], report)
        assert report["worst_rel_err"] < threshold, (slots[0]["kind"], report)


def test_criterion_06_multiple_realizability_witnesses():
    gen = np.random.Generator(np.random.PCG64(606))
    fam = BridgeFamily(MLP1H, m=2, hidden=4)
    for seed in range(20):
        params = gen.uniform(-1.0, 1.0, size=fam.param_count)
        perm = list(gen.permutation(fam.hidden))
        while perm == list(range(fam.hidden)):
            perm = list(gen.permutation(fam.hidden))
        report = permutation_witness(fam, params, perm, probe_seed=seed)
        assert report["verdict"] == "pass", (seed, report)
        assert report["max_deviation"] <= 1e-12, (seed, report)
    for padded in [
        BridgeFamily(AFFINE1, m=2, pad=2),
        BridgeFamily(AFFINE2, m=3, pad=2),
        BridgeFamily(MLP1H, m=2, hidden=3, pad=4),
    ]:
        params = gen.uniform(-1.0, 1.0, size=padded.param_count)
        report = pad_witness(padded, params)
        assert report["verdict"] == "pass", (padded.kind, report)
        assert report["max_deviation"] == 0.0, (padded.kind, report)


def test_criterion_07_self_identity_goal_is_exactly_satisfied():
    fam = BridgeFamily(AFFINE1, m=2)
    families = [fam]
    from goalchase.expr import EquationPairList

    cpair = EquationPairList.from_json([["[0,0]", "[0,0]"]])
    gen = np.random.Generator(np.random.PCG64(707))
    for _ in range(1000):
        slots = [gen.uniform(-2.0, 2.0, size=fam.param_count)]
        d = gen.uniform(-2.0, 2.0, size=2)
        ers = feedback_error(cpair, families, slots, d)
        assert np.array_equal(ers[0], np.zeros(2))


def _walk_stream(law_seed: int, init_seed: int, steps: int) -> list:
    obj = {
        "m": 2,
        "slots": [{"kind": "affine1", "m": 2}, {"kind": "affine1", "m": 2}],
        "init_seed": init_seed,
        "eta": 0.02,
        "probe_mode": "fixed_set",
        "probes": [[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]],
        "K": 1,
        "law": {
            "kind": "grammar_walk",
            "pairs": [["[0,1]", "[1,0]"]],
            "law_seed": law_seed,
            # growth-free mutation mix keeps 10^4-step sequences short
            "mutation_weights": [1.0, 0.0, 1.0, 0.0],
        },
        "steps": steps,
        "log_every": steps,
    }
    config = config_from_json(obj)
    sim = new_sim(config)
    stream = [sim.law.cpair]
    for _ in range(config.steps):
        sim = step(sim)
        stream.append(sim.law.cpair)
    return stream


def test_criterion_08_goal_stream_ignores_the_controlled_level():
    steps = 10_000
    for law_seed in range(20):
        a = _walk_stream(law_seed, init_seed=1, steps=steps)
        b = _walk_stream(law_seed, init_seed=2, steps=steps)
        assert a == b, law_seed
        assert any(x != a[0] for x in a), law_seed  # the walk actually moves


def _cli_run(config_path: Path, out_dir: Path):
    proc = subprocess.run(
        [sys.executable, "-m", "goalchase", "run",
         "--config", str(config_path), "--out", str(out_dir)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    return (out_dir / "trajectory.jsonl").read_bytes(), (
        out_dir / "summary.csv"
    ).read_bytes()


def test_criterion_09_repeated_commands_are_byte_identical(tmp_path):
    cases = {
        "switch": goal_switch_obj(steps=300, K=100),
        "walk": {
            "m": 2,
            "slots": [{"kind": "affine1", "m": 2},
                      {"kind": "affine1", "m": 2}],
            "init_seed": 3,
            "eta": 0.02,
            "probe_mode": "resample",
            "K": 25,
            "law": {
                "kind": "grammar_walk",
                "pairs": [["[0,1]", "[1,0]"]],
                "law_seed": 11,
            },
            "steps": 200,
            "log_every": 7,
            "snapshot_every": 50,
        },
    }
    for name, obj in cases.items():
        config_path = tmp_path / f"{name}.json"
        config_path.write_text(json.dumps(obj))
        t1, s1 = _cli_run(config_path, tmp_path / f"{name}_a")
        t2, s2 = _cli_run(config_path, tmp_path / f"{name}_b")
        assert t1 == t2, name
        assert s1 == s2, name
        assert len(t1.splitlines()) >= 2, name


GRAMMAR_TABLE_OK = [
    ("[1,2]", (1, 1, 1),
     Compose(Apply(1, (IDENTITY,)), Apply(2, (IDENTITY,)))),
    ("[0,(1,2)]", (2, 1, 1),
     Apply(0, (Apply(1, (IDENTITY,)), Apply(2, (IDENTITY,))))),
    ("[]", (1, 1, 1), IDENTITY),
    ("[2,2,2]", (1, 1, 1),
     Compose(Apply(2, (IDENTITY,)),
             Compose(Apply(2, (IDENTITY,)), Apply(2, (IDENTITY,))))),
    ("[0,([1],[])]", (2, 1, 1),
     Apply(0, (Apply(1, (IDENTITY,)), IDENTITY))),
]

GRAMMAR_TABLE_BAD = [
    ("[(1,2)]", (2, 1, 1), GrammarError),
    ("[1,(1,2)]", (2, 1, 1), GrammarError),
    ("[0]", (2, 1, 1), ArityError),
    ("[0,1]", (2, 1, 1), ArityError),
    ("[0,(1,2,1)]", (2, 1, 1), ArityError),
    ("[0,(1)]", (2, 1, 1), ArityError),
    ("[5]", (1, 1, 1), GrammarError),
]


def test_criterion_10_grammar_conformance():
    for text, arities, expected in GRAMMAR_TABLE_OK:
        seq = seq_from_text(text)
        assert parse_sequence(seq, arities) == expected, text
        assert seq_from_text(seq_to_text(seq)) == seq, text
    for text, arities, exc in GRAMMAR_TABLE_BAD:
        with pytest.raises(exc):
            parse_sequence(seq_from_text(text), arities)
    with pytest.raises(GrammarError):
        seq_from_text("[1,2")
    with pytest.raises(GrammarError):
        seq_from_text("[1]]")
