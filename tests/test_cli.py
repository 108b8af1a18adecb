import hashlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

from goalchase import simulator
from goalchase.cli import main
from goalchase.expr import MAX_DEPTH
from goalchase.simulator import step

from scenarios import commute_obj, goal_switch_obj, mlp_obj, walk_obj


def write_config(tmp_path, obj, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(obj, indent=2))
    return str(path)


def read_json_lines(path):
    return [json.loads(ln) for ln in Path(path).read_text().splitlines() if ln]


def last_json(capsys):
    out = capsys.readouterr().out.strip().splitlines()
    return json.loads(out[-1])


def test_run_writes_artifacts(tmp_path, capsys):
    cfg = write_config(tmp_path, commute_obj(steps=50))
    out = tmp_path / "out"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 0
    summary = last_json(capsys)
    assert summary["final_t"] == 50
    records = read_json_lines(out / "trajectory.jsonl")
    assert len(records) == summary["records"]
    assert records[0]["t"] == 0 and records[-1]["t"] == 50
    resolved = json.loads((out / "resolved_config.json").read_text())
    assert resolved["steps"] == 50
    assert (out / "summary.csv").exists()


def test_cold_start_run_with_zero_steps(tmp_path):
    # the cold start a fresh process pays before its first step
    config = Path(__file__).resolve().parents[1] / "demos/configs/commute.json"
    out = tmp_path / "out"
    proc = subprocess.run(
        [sys.executable, "-m", "goalchase", "run", "--config", str(config),
         "--set", "steps=0", "--out", str(out)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0 and proc.stderr == "", proc.stderr
    (line,) = proc.stdout.splitlines()
    assert isinstance(json.loads(line), dict)
    assert len(read_json_lines(out / "trajectory.jsonl")) == 1


def test_run_applies_overrides(tmp_path, capsys):
    cfg = write_config(tmp_path, commute_obj(steps=50))
    out = tmp_path / "out"
    rc = main([
        "run", "--config", cfg, "--out", str(out),
        "--set", "steps=10", "--set", "eta=0.1", "--set", "init_seed=9",
    ])
    assert rc == 0
    resolved = json.loads((out / "resolved_config.json").read_text())
    assert resolved["steps"] == 10
    assert resolved["eta"] == 0.1
    assert resolved["init_seed"] == 9
    assert last_json(capsys)["final_t"] == 10


def test_set_indexes_list_entries(tmp_path, capsys):
    cfg = write_config(tmp_path, commute_obj(steps=5))
    out = tmp_path / "out"
    assert main([
        "run", "--config", cfg, "--out", str(out),
        "--set", "slots.0.kind=affine2",
        "--set", 'law.pairs.0.0="[0,(1,1)]"',
        "--set", 'law.pairs.0.1="[1,1]"',
    ]) == 0
    resolved = json.loads((out / "resolved_config.json").read_text())
    assert [s["kind"] for s in resolved["slots"]] == ["affine2", "affine1"]
    assert resolved["law"]["pairs"] == [["[0,(1,1)]", "[1,1]"]]


@pytest.mark.parametrize("assignment", [
    "slots.9.pad=1", "slots.x.pad=1", "m.x=1", "nosuch.key=1", "steps",
])
def test_set_rejects_bad_path(tmp_path, capsys, assignment):
    cfg = write_config(tmp_path, commute_obj(steps=5))
    rc = main(["run", "--config", cfg, "--out", str(tmp_path / "out"),
               "--set", assignment])
    assert rc == 2
    err = capsys.readouterr().err
    assert f"config error: {assignment.partition('=')[0]}:" in err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_run_log_every_flag(tmp_path, capsys):
    cfg = write_config(tmp_path, commute_obj(steps=50))
    out = tmp_path / "out"
    assert main(["run", "--config", cfg, "--out", str(out),
                 "--set", "log_every=25"]) == 0
    records = read_json_lines(out / "trajectory.jsonl")
    assert [r["t"] for r in records] == [0, 25, 50]


def test_run_twice_writes_identical_bytes(tmp_path, capsys):
    cfg = write_config(tmp_path, walk_obj(steps=150))
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["run", "--config", cfg, "--out", str(out_a)]) == 0
    assert main(["run", "--config", cfg, "--out", str(out_b)]) == 0
    assert (out_a / "trajectory.jsonl").read_bytes() == (
        out_b / "trajectory.jsonl"
    ).read_bytes()
    assert (out_a / "summary.csv").read_bytes() == (
        out_b / "summary.csv"
    ).read_bytes()


def test_bad_goal_index_exits_2(tmp_path, capsys):
    obj = commute_obj()
    obj["law"]["pairs"] = [["[9,0]", "[1,0]"]]
    cfg = write_config(tmp_path, obj)
    rc = main(["run", "--config", cfg, "--out", str(tmp_path / "out")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "law.pairs[0][0]" in err


def chain(levels):
    """A flat chain of `levels` slot-1 factors: `levels` tree levels."""
    return "[" + ",".join(["1"] * levels) + "]"


def nested(levels):
    """`levels` nested applications of slot 0 (affine2) around slot 1."""
    text = "[1]"
    for _ in range(levels - 1):
        text = f"[0,({text},1)]"
    return text


@pytest.mark.parametrize("assignments,key", [
    (['probes=[["a","b"]]'], "probes[0]"),
    (["probes=[[[1],0]]"], "probes[0]"),
    (["probes=[[true,false]]"], "probes[0]"),
    ([f'law.pairs=[["{chain(1000)}","[1]"]]'], "law.pairs[0][0]"),
    (["slots.0.kind=affine2", f'law.pairs=[["{nested(250)}","[1]"]]'],
     "law.pairs"),
    ([f'law.pairs=[["{nested(1000)}","[1]"]]'], "law.pairs"),
    (["law.pairs.0.0=[[]]"], "law.pairs[0][0]"),
    ([f"slots.0.pad={10**30}"], "slots[0]"),
], ids=["probe-strings", "probe-nested-list", "probe-booleans",
        "chain-1000", "nested-250", "nested-1000", "goal-side-list", "pad-1e30"])
def test_unchecked_inputs_exit_2(tmp_path, capsys, assignments, key):
    cfg = write_config(tmp_path, commute_obj(steps=2))
    argv = ["run", "--config", cfg, "--out", str(tmp_path / "out")]
    rc = main(argv + [a for s in assignments for a in ("--set", s)])
    assert rc == 2
    err = capsys.readouterr().err
    assert f"config error: {key}" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("goal", [chain, nested])
def test_goal_at_the_depth_bound_runs_end_to_end(tmp_path, capsys, goal):
    obj = commute_obj(steps=2, law={"kind": "identity",
                                    "pairs": [[goal(MAX_DEPTH), "[1]"]]})
    obj["slots"][0]["kind"] = "affine2"
    cfg = write_config(tmp_path, obj)
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["run", "--config", cfg, "--out", str(a)]) == 0
    assert main(["run", "--config", cfg, "--out", str(b)]) == 0
    capsys.readouterr()
    assert main(["compare", str(a), str(b)]) == 0
    assert last_json(capsys)["first_divergence_t"] is None
    obj["law"]["pairs"] = [[goal(MAX_DEPTH + 1), "[1]"]]
    cfg = write_config(tmp_path, obj)
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "c")]) == 2
    assert "config error: law.pairs" in capsys.readouterr().err


def test_missing_config_exits_2(tmp_path, capsys):
    rc = main(["run", "--config", str(tmp_path / "nope.json"),
               "--out", str(tmp_path / "out")])
    assert rc == 2
    assert "config error" in capsys.readouterr().err


def test_malformed_config_exits_2(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{oops")
    rc = main(["run", "--config", str(path), "--out", str(tmp_path / "out")])
    assert rc == 2


def test_numeric_divergence_exits_3(tmp_path, capsys):
    cfg = write_config(tmp_path, commute_obj(steps=50))
    out = tmp_path / "out"
    rc = main(["run", "--config", cfg, "--out", str(out),
               "--set", "eta=1e9"])
    assert rc == 3
    assert "step" in capsys.readouterr().err
    assert (out / "trajectory.jsonl").exists()


def test_check_passes_on_reducible_scenario(tmp_path, capsys):
    cfg = write_config(tmp_path, commute_obj(steps=100))
    rc = main(["check", "--config", cfg, "--samples", "5"])
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    assert report["verdict"] == "pass"
    names = [c["check"] for c in report["checks"]]
    assert "grad_check" in names
    assert "reduction" in names


def test_check_runs_realizability_witnesses(tmp_path, capsys):
    obj = mlp_obj()
    obj["slots"][1] = {"kind": "affine1", "m": 2, "pad": 2}
    cfg = write_config(tmp_path, obj)
    rc = main(["check", "--config", cfg, "--samples", "5"])
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    names = [c["check"] for c in report["checks"]]
    assert "permutation_witness" in names
    assert "pad_witness" in names
    for c in report["checks"]:
        if c["check"] in ("permutation_witness", "pad_witness"):
            assert c["verdict"] == "pass"
            assert "slot" in c


def test_check_skips_reduction_for_rewriting_laws(tmp_path, capsys):
    cfg = write_config(tmp_path, goal_switch_obj(steps=50))
    rc = main(["check", "--config", cfg, "--samples", "3"])
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    assert "reduction" not in [c["check"] for c in report["checks"]]


def test_compare_identical_runs(tmp_path, capsys):
    cfg = write_config(tmp_path, commute_obj(steps=40))
    a, b = tmp_path / "a", tmp_path / "b"
    main(["run", "--config", cfg, "--out", str(a)])
    main(["run", "--config", cfg, "--out", str(b)])
    capsys.readouterr()
    assert main(["compare", str(a), str(b)]) == 0
    report = last_json(capsys)
    assert report["first_divergence_t"] is None
    assert report["summary"] == "no divergence"


def test_compare_flags_seed_change(tmp_path, capsys):
    cfg = write_config(tmp_path, commute_obj(steps=40))
    a, b = tmp_path / "a", tmp_path / "b"
    main(["run", "--config", cfg, "--out", str(a)])
    main(["run", "--config", cfg, "--out", str(b), "--set", "init_seed=2"])
    capsys.readouterr()
    assert main(["compare", str(a), str(b)]) == 0
    report = last_json(capsys)
    assert report["first_divergence_t"] == 0
    assert report["field"] in ("loss", "x_norms")


def test_compare_flags_length_mismatch(tmp_path, capsys):
    cfg = write_config(tmp_path, commute_obj(steps=40))
    a, b = tmp_path / "a", tmp_path / "b"
    main(["run", "--config", cfg, "--out", str(a)])
    main(["run", "--config", cfg, "--out", str(b), "--set", "steps=60"])
    capsys.readouterr()
    assert main(["compare", str(a), str(b)]) == 0
    report = last_json(capsys)
    # the shorter run snapshots its final state at t=40, the longer does not
    assert (report["first_divergence_t"], report["field"]) in (
        (40, "slots"), (41, "length"),
    )


# a record line with every required key but macro
_UNFLAGGED = '{"t": 2, "T": 0, "loss": 0.5, "pairs": [], "x_norms": [1.0], "d": [1.0]'


@pytest.mark.parametrize("bad_line", [
    "not json",
    '{"t": 1, "T": 0}',
    "[1, 2]",
    '{"t": 2, "T": 0, "pairs": [], "loss": "abc"}',
    '{"t": 2, "T": 0, "pairs": [], "loss": true}',
    '{"t": 2, "T": 0, "pairs": [], "loss": 0.5, "x_norms": [1.0, "2"]}',
    '{"t": 2, "T": 0, "pairs": [], "loss": 0.5, "d": 1.0}',
    '{"t": 2, "T": 0, "pairs": [], "loss": 0.5, "slots": [[1.0], [null]]}',
    '{"t": 2, "T": 0, "pairs": [], "loss": NaN}',
    '{"t": 2, "T": 0, "pairs": [], "loss": Infinity}',
    '{"t": 2, "T": 0, "pairs": [], "loss": ' + "9" * 400 + "}",
    _UNFLAGGED + ', "macro": false, "extra": 1}',
    _UNFLAGGED + "}",
    _UNFLAGGED + ', "macro": "yes"}',
    _UNFLAGGED + ', "macro": 1}',
])
def test_compare_rejects_malformed_record(tmp_path, capsys, bad_line):
    cfg = write_config(tmp_path, commute_obj(steps=5))
    a, b = tmp_path / "a", tmp_path / "b"
    main(["run", "--config", cfg, "--out", str(a)])
    main(["run", "--config", cfg, "--out", str(b)])
    path = b / "trajectory.jsonl"
    lines = path.read_text().splitlines()
    lines[2] = bad_line
    path.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main(["compare", str(a), str(b)]) == 2
    err = capsys.readouterr().err
    assert f"{path}:3" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("field, value", [
    ("t", "NaN"), ("t", "1e999"), ("t", "[2]"), ("t", "-1"), ("t", "2.0"),
    ("T", "true"), ("T", "1.0"), ("T", '"1"'),
    ("pairs", '"[0,1] == [1,0]"'), ("pairs", '[["[0,1]"]]'),
    ("pairs", '[["[0,1]", 1]]'), ("pairs", '[null]'),
])
def test_compare_rejects_bad_counters_or_pairs(tmp_path, capsys, field, value):
    # the same bad line in both logs: it is not a record, so it is not
    # compared either (line 3 holds t = 2, T = 1)
    cfg = write_config(tmp_path, commute_obj(steps=5, K=2))
    a, b = tmp_path / "a", tmp_path / "b"
    main(["run", "--config", cfg, "--out", str(a)])
    main(["run", "--config", cfg, "--out", str(b)])
    for run_dir in (a, b):
        path = run_dir / "trajectory.jsonl"
        lines = path.read_text().splitlines()
        rec = json.loads(lines[2])
        assert (rec["t"], rec["T"]) == (2, 1)
        rec[field] = "BAD"
        lines[2] = json.dumps(rec).replace('"BAD"', value)
        path.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main(["compare", str(a), str(b)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert f"config error: {a / 'trajectory.jsonl'}:3: {field}" in err
    assert "Traceback" not in err


def test_compare_slots_of_different_sizes(tmp_path, capsys):
    cfg = write_config(tmp_path, mlp_obj(steps=20))
    a, b = tmp_path / "a", tmp_path / "b"
    main(["run", "--config", cfg, "--out", str(a)])
    main(["run", "--config", cfg, "--out", str(b), "--set", "eta=0.06"])
    capsys.readouterr()
    assert main(["compare", str(a), str(a)]) == 0
    assert last_json(capsys)["first_divergence_t"] is None
    assert main(["compare", str(a), str(b)]) == 0
    report = last_json(capsys)
    assert (report["first_divergence_t"], report["field"]) == (10, "loss")


@pytest.mark.parametrize("argv,flag", [
    (["check", "--samples", "0"], "--samples"),
    (["check", "--samples", "-3"], "--samples"),
    (["check", "--fd-step", "0"], "--fd-step"),
    (["check", "--fd-step", "nan"], "--fd-step"),
    (["witness", "--threshold", "-1"], "--threshold"),
    (["witness", "--threshold", "inf"], "--threshold"),
])
def test_analysis_flags_reject_out_of_range(tmp_path, capsys, argv, flag):
    cfg = write_config(tmp_path, goal_switch_obj(steps=150, K=100))
    assert main(argv + ["--config", cfg]) == 2
    err = capsys.readouterr().err
    assert f"config error: {flag}:" in err
    assert "Traceback" not in err


def test_compare_rejects_negative_tolerance(tmp_path, capsys):
    cfg = write_config(tmp_path, commute_obj(steps=5))
    main(["run", "--config", cfg, "--out", str(tmp_path / "a")])
    capsys.readouterr()
    a = str(tmp_path / "a")
    assert main(["compare", a, a, "--tol", "-1"]) == 2
    assert "config error: --tol:" in capsys.readouterr().err


def test_witness_end_to_end(tmp_path, capsys):
    cfg = write_config(tmp_path, goal_switch_obj(steps=300, K=100))
    out = tmp_path / "wit"
    rc = main([
        "witness", "--config", cfg, "--alt-w", '{"program_counter": 1}',
        "--threshold", "1e-6", "--out", str(out),
    ])
    assert rc == 0
    report = last_json(capsys)
    assert report["verdict"] == "pass"
    assert report["first_divergence_step"] == 101
    saved = json.loads((out / "witness_report.json").read_text())
    assert saved["first_divergence_step"] == 101
    capsys.readouterr()
    assert main(["compare", str(out / "a"), str(out / "b")]) == 0
    cmp_report = last_json(capsys)
    assert cmp_report["first_divergence_t"] == 101


def test_witness_out_steps_each_run_once(tmp_path, capsys, monkeypatch):
    steps = 40
    cfg = write_config(tmp_path, goal_switch_obj(steps=steps, K=10))
    calls = []

    def counting_step(sim):
        calls.append(sim.t)
        return step(sim)

    monkeypatch.setattr(simulator, "step", counting_step)
    assert main([
        "witness", "--config", cfg, "--alt-w", '{"program_counter": 1}',
        "--threshold", "1e-6", "--out", str(tmp_path / "wit"),
    ]) == 0
    assert len(calls) == 2 * steps
    for side in ("a", "b"):
        records = read_json_lines(tmp_path / "wit" / side / "trajectory.jsonl")
        assert records[-1]["t"] == steps


def test_witness_out_keeps_partial_trajectories_on_divergence(tmp_path, capsys):
    cfg = write_config(tmp_path, goal_switch_obj(steps=50, K=2))
    out = tmp_path / "wit"
    rc = main([
        "witness", "--config", cfg, "--alt-w", '{"program_counter": 1}',
        "--set", "eta=1e9", "--out", str(out),
    ])
    assert rc == 3
    for side in ("a", "b"):
        assert read_json_lines(out / side / "trajectory.jsonl")[0]["t"] == 0
        assert not (out / side / "summary.csv").exists()
    assert not (out / "witness_report.json").exists()


def test_failed_run_removes_stale_summary(tmp_path, capsys):
    cfg = write_config(tmp_path, commute_obj(steps=20))
    out = tmp_path / "out"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 0
    assert len((out / "summary.csv").read_text().splitlines()) == 22
    rc = main(["run", "--config", cfg, "--out", str(out), "--set", "eta=1e9"])
    assert rc == 3
    assert len(read_json_lines(out / "trajectory.jsonl")) < 21
    assert not (out / "summary.csv").exists()


def test_failed_witness_removes_stale_outputs(tmp_path, capsys):
    cfg = write_config(tmp_path, goal_switch_obj(steps=50, K=2))
    out = tmp_path / "wit"
    argv = ["witness", "--config", cfg, "--alt-w", '{"program_counter": 1}',
            "--out", str(out)]
    assert main(argv) in (0, 1)
    assert (out / "witness_report.json").exists()
    assert main([*argv, "--set", "eta=1e9"]) == 3
    assert not (out / "witness_report.json").exists()
    for side in ("a", "b"):
        assert not (out / side / "summary.csv").exists()


@pytest.mark.parametrize("argv", [
    ["run"],
    ["sweep", "--grid", "GRID"],
    ["witness", "--alt-w", '{"program_counter": 1}'],
])
def test_out_on_a_file_exits_2(tmp_path, capsys, argv):
    cfg = write_config(tmp_path, goal_switch_obj(steps=3, K=2))
    grid = tmp_path / "grid.json"
    grid.write_text("[{}]")
    blocker = tmp_path / "taken"
    blocker.write_text("")
    argv = [str(grid) if a == "GRID" else a for a in argv]
    rc = main([*argv, "--config", cfg, "--out", str(blocker)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("output error:") and str(blocker) in err


def test_witness_pairs_override_diverges_immediately(tmp_path, capsys):
    cfg = write_config(tmp_path, commute_obj(steps=50))
    rc = main([
        "witness", "--config", cfg,
        "--alt-w", '{"pairs": [["[0]", "[1]"]]}',
        "--threshold", "1e-9",
    ])
    assert rc == 0
    report = last_json(capsys)
    assert report["first_divergence_step"] == 1


def test_witness_without_difference_exits_1(tmp_path, capsys):
    cfg = write_config(tmp_path, goal_switch_obj(steps=150, K=100))
    rc = main(["witness", "--config", cfg, "--alt-w", "{}"])
    assert rc == 1
    assert last_json(capsys)["verdict"] == "fail"


def test_witness_rejects_unknown_override(tmp_path, capsys):
    cfg = write_config(tmp_path, goal_switch_obj(steps=50))
    rc = main(["witness", "--config", cfg, "--alt-w", '{"pc": 1}'])
    assert rc == 2
    assert "--alt-w.pc" in capsys.readouterr().err


def test_witness_rejects_bad_pairs(tmp_path, capsys):
    commute = write_config(tmp_path, commute_obj(steps=50), "commute.json")
    walk = write_config(tmp_path, walk_obj(steps=50, K=10), "walk.json")
    for cfg, alt_w in [
        (commute, '{"pairs": [["[0]", "[1"]]}'),
        (commute, '{"pairs": 5}'),
        (commute, '{"pairs": [["[0]", "[2]"]]}'),
        (walk, '{"pairs": []}'),  # a grammar walk needs a pair to mutate
    ]:
        rc = main(["witness", "--config", cfg, "--alt-w", alt_w])
        assert rc == 2, alt_w
        err = capsys.readouterr().err
        assert "config error: --alt-w.pairs" in err, alt_w
        assert "Traceback" not in err


@pytest.mark.parametrize("alt_w,key", [
    ('{"law_seed": -1}', "law_seed"),
    ('{"law_seed": 18446744073709551616}', "law_seed"),
    ('{"law_seed": "3"}', "law_seed"),
    ('{"macro_count": "x"}', "macro_count"),
    ('{"macro_count": -1}', "macro_count"),
    ('{"program_counter": 2.9}', "program_counter"),
    ('{"program_counter": true}', "program_counter"),
])
def test_witness_rejects_bad_law_state_number(tmp_path, capsys, alt_w, key):
    # only a grammar walk reads `law_seed`, only a schedule the counters
    obj = walk_obj(steps=50, K=10) if key == "law_seed" else goal_switch_obj(steps=50)
    cfg = write_config(tmp_path, obj)
    assert main(["witness", "--config", cfg, "--alt-w", alt_w]) == 2
    err = capsys.readouterr().err
    assert f"config error: --alt-w.{key}:" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("obj,alt_w,key,kind", [
    (goal_switch_obj, '{"law_seed": 3}', "law_seed", "schedule"),
    (commute_obj, '{"law_seed": 3}', "law_seed", "identity"),
    (walk_obj, '{"program_counter": 1}', "program_counter", "grammar_walk"),
    (walk_obj, '{"macro_count": 4}', "macro_count", "grammar_walk"),
    (commute_obj, '{"macro_count": 4}', "macro_count", "identity"),
])
def test_witness_rejects_a_law_state_key_the_law_never_reads(
        tmp_path, capsys, obj, alt_w, key, kind):
    cfg = write_config(tmp_path, obj(steps=50))
    assert main(["witness", "--config", cfg, "--alt-w", alt_w]) == 2
    err = capsys.readouterr().err
    assert f"config error: --alt-w.{key}: key not allowed for kind {kind!r}" in err
    assert "Traceback" not in err


def test_witness_rejects_a_program_counter_past_the_program(tmp_path, capsys):
    cfg = write_config(tmp_path, goal_switch_obj(steps=50))  # a 2-entry program
    assert main(["witness", "--config", cfg, "--alt-w", '{"program_counter": 2}']) == 2
    err = capsys.readouterr().err
    assert "config error: --alt-w.program_counter: must be < 2, got 2" in err


# sha256 of the grammar_walk demo's witness tree with `law_seed` and
# `pairs` overridden, so the alternative law state is built from both
WALK_WITNESS_DIGESTS = {
    "witness_report.json": "3658faee3d6c107824d39ebed6ccfbc38b5bde1abad8a232062210f52ece472c",
    "a/trajectory.jsonl": "c5cc27f9128ab666d313c17c548a8c46105828908d537a68d95d8aa540ec8813",
    "b/trajectory.jsonl": "2daab9a08fee163c5b944836ea7714c9de60829416150377f487908a5303164c",
}


def test_witness_grammar_walk_seed_and_pairs_override_digests(tmp_path, capsys):
    cfg = Path(__file__).resolve().parents[1] / "demos" / "configs" / "grammar_walk.json"
    out = tmp_path / "wit"
    assert main([
        "witness", "--config", str(cfg), "--out", str(out),
        "--alt-w", '{"law_seed": 3, "pairs": [["[0,1]", "[1,0]"]]}',
    ]) == 0
    assert last_json(capsys)["first_divergence_step"] == 501
    for name, digest in WALK_WITNESS_DIGESTS.items():
        assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest, name


def test_sweep_runs_grid(tmp_path, capsys):
    cfg = write_config(tmp_path, commute_obj(steps=30))
    grid_path = tmp_path / "grid.json"
    grid_path.write_text(json.dumps(
        [{"init_seed": 1}, {"init_seed": 2}, {"eta": 0.1}]
    ))
    out = tmp_path / "sweep"
    rc = main(["sweep", "--config", cfg, "--grid", str(grid_path),
               "--out", str(out)])
    assert rc == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 3
    for idx in range(3):
        run_dir = out / f"run_{idx:04d}"
        assert (run_dir / "trajectory.jsonl").exists()
    resolved = json.loads((out / "run_0002" / "resolved_config.json").read_text())
    assert resolved["eta"] == 0.1


def test_sweep_run_matches_direct_run_bytes(tmp_path, capsys):
    cfg = write_config(tmp_path, commute_obj(steps=30))
    grid_path = tmp_path / "grid.json"
    grid_path.write_text(json.dumps([{"init_seed": 7}]))
    out = tmp_path / "sweep"
    assert main(["sweep", "--config", cfg, "--grid", str(grid_path),
                 "--out", str(out)]) == 0
    direct = tmp_path / "direct"
    assert main(["run", "--config", cfg, "--out", str(direct),
                 "--set", "init_seed=7"]) == 0
    assert (out / "run_0000" / "trajectory.jsonl").read_bytes() == (
        direct / "trajectory.jsonl"
    ).read_bytes()


def test_sweep_grid_key_indexes_slot_list(tmp_path, capsys):
    cfg = write_config(tmp_path, commute_obj(steps=5))
    grid_path = tmp_path / "grid.json"
    grid_path.write_text(json.dumps([{"slots.1.pad": 2}]))
    out = tmp_path / "sweep"
    assert main(["sweep", "--config", cfg, "--grid", str(grid_path),
                 "--out", str(out)]) == 0
    resolved = json.loads((out / "run_0000" / "resolved_config.json").read_text())
    assert [s.get("pad", 0) for s in resolved["slots"]] == [0, 2]


def test_sweep_rejects_bad_grid(tmp_path, capsys):
    cfg = write_config(tmp_path, commute_obj(steps=10))
    grid_path = tmp_path / "grid.json"
    grid_path.write_text(json.dumps({"init_seed": 1}))
    rc = main(["sweep", "--config", cfg, "--grid", str(grid_path),
               "--out", str(tmp_path / "out")])
    assert rc == 2
