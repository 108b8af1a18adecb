"""Command line front end.

Subcommands: run (simulate to an output directory), check (gradient,
reduction, and realizability checks), compare (first divergence between
two trajectory logs), witness (end-to-end divergence witness), sweep
(a grid of runs).  Exit codes: 0 pass, 1 analysis failure, 2 bad
configuration or input, 3 numeric divergence.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import analysis, simulator
from .bridge import MLP1H
from .core import (ConfigError, DivergenceError, config_from_json, finite_float,
                   init_state, parse_pairs, require_int, require_pair_texts)
from .goallaw import GRAMMAR_WALK, SCHEDULE, initial_law_state
from .prng import new_words
from .simulator import RECORD_FIELDS

EXIT_OK = 0
EXIT_ANALYSIS = 1
EXIT_CONFIG = 2
EXIT_DIVERGENCE = 3

__all__ = ["main"]


def _set_path(obj: dict, key: str, value) -> None:
    """Set the dotted config path `key` to `value` in place.

    A numeric part indexes an existing list entry; only the last part may
    add a dict key.  Any other miss raises ConfigError naming `key`.
    """
    node, parts = obj, key.split(".")
    for depth, part in enumerate(parts, 1):
        if isinstance(node, list):
            if not (part.isascii() and part.isdigit() and int(part) < len(node)):
                raise ConfigError(key, f"no entry {part!r} in a list of {len(node)}")
            part = int(part)
        elif not isinstance(node, dict):
            raise ConfigError(key, f"cannot index into {type(node).__name__}")
        elif part not in node and depth < len(parts):
            raise ConfigError(key, f"no key {part!r}")
        if depth < len(parts):
            node = node[part]
    node[part] = value


def _load_config_obj(args) -> dict:
    path = Path(args.config)
    try:
        obj = json.loads(path.read_text())
    except OSError as e:
        raise ConfigError(str(path), f"cannot read config: {e}") from e
    except (json.JSONDecodeError, RecursionError) as e:
        raise ConfigError(str(path), f"invalid JSON: {e}") from e
    if not isinstance(obj, dict):
        raise ConfigError(str(path), "config must be a JSON object")
    for assignment in args.set or []:
        key, eq, raw = assignment.partition("=")
        if not eq:
            raise ConfigError(assignment, "expected KEY=VALUE")
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        except RecursionError as e:
            raise ConfigError(key, f"invalid JSON: {e}") from e
        _set_path(obj, key, value)
    return obj


@contextmanager
def _trajectory_out(out_dir: Path, records: list):
    """Yield a sink recording into `records` and `out_dir`/trajectory.jsonl,
    then write summary.csv (an earlier one is removed first) if it ends cleanly."""
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "summary.csv").unlink(missing_ok=True)
    with open(out_dir / "trajectory.jsonl", "w") as fh:
        yield simulator.recorder(records, fh)
    simulator.write_summary_csv(records, out_dir / "summary.csv")


def _run_into(config, out_dir: Path) -> list:
    records = []
    with _trajectory_out(out_dir, records) as record, \
            np.errstate(over="ignore", invalid="ignore"):
        (out_dir / "resolved_config.json").write_text(config.to_json_str())
        for sim in simulator.iterate(config):
            record(sim)
    return records


def cmd_run(args) -> int:
    config = config_from_json(_load_config_obj(args))
    records = _run_into(config, Path(args.out))
    last = records[-1]
    print(
        json.dumps(
            {
                "out": str(args.out),
                "records": len(records),
                "final_t": last["t"],
                "final_loss": last["loss"],
            }
        )
    )
    return EXIT_OK


def cmd_check(args) -> int:
    config = config_from_json(_load_config_obj(args))
    if args.samples < 1:
        raise ConfigError("--samples", f"must be >= 1, got {args.samples}")
    if not 0 < args.fd_step < math.inf:
        raise ConfigError("--fd-step", f"must be finite and > 0, got {args.fd_step}")
    state = init_state(config)
    checks = [
        analysis.grad_check(
            config, n_samples=args.samples, fd_step=args.fd_step
        )
    ]
    if analysis.is_reducible(config):
        checks.append(analysis.reduction_check(config))
    for i, fam in enumerate(config.slot_specs):
        if fam.kind == MLP1H:
            perm = list(np.roll(np.arange(fam.hidden), 1))
            rep = analysis.permutation_witness(fam, state.slots[i], perm)
            rep["slot"] = i
            checks.append(rep)
        if fam.pad > 0:
            rep = analysis.pad_witness(fam, state.slots[i])
            rep["slot"] = i
            checks.append(rep)
    overall = "pass"
    if any(c["verdict"] == "warning" for c in checks):
        overall = "warning"
    if any(c["verdict"] == "fail" for c in checks):
        overall = "fail"
    print(json.dumps({"verdict": overall, "checks": checks}, indent=2))
    return EXIT_ANALYSIS if overall == "fail" else EXIT_OK


def _read_records(path: Path) -> list:
    """A trajectory file's records, each checked against `RECORD_FIELDS`."""
    try:
        lines = path.read_text().splitlines()
    except OSError as e:
        raise ConfigError(str(path), f"cannot read trajectory: {e}") from e
    out = []
    for n, ln in enumerate(lines, 1):
        if not ln.strip():
            continue
        where = f"{path}:{n}"
        try:
            rec = json.loads(ln)
        except (json.JSONDecodeError, RecursionError) as e:
            raise ConfigError(where, f"invalid JSON: {getattr(e, 'msg', e)}") from e
        if not isinstance(rec, dict):
            raise ConfigError(where, "expected a record object")
        extra = next((key for key in rec if key not in RECORD_FIELDS), None)
        if extra is not None:
            raise ConfigError(f"{where}: {extra}", "not a record key")
        for field, (kind, required) in RECORD_FIELDS.items():
            at, value = f"{where}: {field}", rec.get(field)
            if field not in rec:
                if required:
                    raise ConfigError(at, "missing required key")
            elif kind == "count":
                require_int(rec, field, lo=0, path=at)
            elif kind == "pairs":
                require_pair_texts(value, at)
            elif kind == "flag" and not isinstance(value, bool):
                raise ConfigError(at, f"expected true or false, got {value!r}")
            elif isinstance(kind, int) and not _is_numeric(value, kind):
                raise ConfigError(at, "expected finite numbers")
        out.append(rec)
    return out


def _is_numeric(value, depth: int) -> bool:
    if depth == 0:
        return finite_float(value) is not None
    return isinstance(value, list) and all(_is_numeric(v, depth - 1) for v in value)


def _differs(va, vb, tol: float) -> bool:
    if isinstance(va, list):
        return len(va) != len(vb) or any(_differs(a, b, tol) for a, b in zip(va, vb))
    return abs(va - vb) > tol


# compare's order: counts (read as "t") and pairs, numbers within --tol, the flag
_COMPARED = sorted(RECORD_FIELDS.items(),
                   key=lambda f: (f[1][0] == "flag", isinstance(f[1][0], int)))


def _records_differ(ra: dict, rb: dict, tol: float):
    for field, (kind, _) in _COMPARED:
        va, vb = ra.get(field), rb.get(field)
        if va != vb and (not isinstance(kind, int) or None in (va, vb)
                         or _differs(va, vb, tol)):
            return "t" if kind == "count" else field
    return None


def cmd_compare(args) -> int:
    if not 0 <= args.tol < math.inf:
        raise ConfigError("--tol", f"must be finite and >= 0, got {args.tol}")
    a = _read_records(Path(args.run_a) / "trajectory.jsonl")
    b = _read_records(Path(args.run_b) / "trajectory.jsonl")
    report = {"check": "compare", "tolerance": args.tol}
    first = None
    field = None
    for ra, rb in zip(a, b):
        field = _records_differ(ra, rb, args.tol)
        if field is not None:
            first = ra["t"]
            break
    if first is None and len(a) != len(b):
        longer = a if len(a) > len(b) else b
        first = longer[min(len(a), len(b))]["t"]
        field = "length"
    report["first_divergence_t"] = first
    report["field"] = field
    report["verdict"] = "pass"
    if first is None:
        report["summary"] = "no divergence"
    print(json.dumps(report))
    return EXIT_OK


def cmd_witness(args) -> int:
    config = config_from_json(_load_config_obj(args))
    if not 0 <= args.threshold < math.inf:
        raise ConfigError(
            "--threshold", f"must be finite and >= 0, got {args.threshold}"
        )
    alt = initial_law_state(config.law)
    if args.alt_w:
        try:
            overrides = json.loads(args.alt_w)
        except (json.JSONDecodeError, RecursionError) as e:
            raise ConfigError("--alt-w", f"invalid JSON: {e}") from e
        if not isinstance(overrides, dict):
            raise ConfigError("--alt-w", "expected a JSON object")
        # the law state numbers each kind's law reads, with their upper bounds
        kind, program = config.law.kind, config.law.program
        reads = {SCHEDULE: {"program_counter": len(program), "macro_count": None},
                 GRAMMAR_WALK: {"law_seed": 2**64}}.get(kind, {})
        extra = sorted(set(overrides) - {"pairs", *reads})
        if extra:
            known = extra[0] in ("program_counter", "macro_count", "law_seed")
            raise ConfigError(f"--alt-w.{extra[0]}", f"key not allowed for kind {kind!r}"
                              if known else "unknown key")
        changes = {key: require_int(overrides, key, lo=0, hi=hi, path=f"--alt-w.{key}")
                   for key, hi in reads.items() if key in overrides}
        if "law_seed" in changes:
            changes["rng_words"] = new_words(changes.pop("law_seed"))
        if "pairs" in overrides:
            changes["cpair"] = parse_pairs(overrides["pairs"], "--alt-w.pairs",
                                           config.arities, kind)
        alt = replace(alt, **changes)
    if not args.out:
        report = analysis.divergence_witness(config, alt, threshold=args.threshold)
    else:
        out = Path(args.out)
        with _trajectory_out(out / "a", []) as sink_a, \
                _trajectory_out(out / "b", []) as sink_b:
            (out / "witness_report.json").unlink(missing_ok=True)
            (out / "resolved_config.json").write_text(config.to_json_str())
            report = analysis.divergence_witness(
                config, alt, threshold=args.threshold, sinks=(sink_a, sink_b)
            )
        (out / "witness_report.json").write_text(json.dumps(report, indent=2) + "\n")
    print(json.dumps(report))
    return EXIT_OK if report["verdict"] == "pass" else EXIT_ANALYSIS


def cmd_sweep(args) -> int:
    try:
        grid = json.loads(Path(args.grid).read_text())
    except OSError as e:
        raise ConfigError(args.grid, f"cannot read grid: {e}") from e
    except (json.JSONDecodeError, RecursionError) as e:
        raise ConfigError(args.grid, f"invalid JSON: {e}") from e
    if not isinstance(grid, list) or not all(isinstance(g, dict) for g in grid):
        raise ConfigError(args.grid, "grid must be a JSON list of objects")
    out_root = Path(args.out)
    for idx, overrides in enumerate(grid):
        obj = _load_config_obj(args)
        for key, value in overrides.items():
            _set_path(obj, key, value)
        config = config_from_json(obj)
        run_dir = out_root / f"run_{idx:04d}"
        records = _run_into(config, run_dir)
        print(
            json.dumps(
                {
                    "run": idx,
                    "dir": str(run_dir),
                    "overrides": overrides,
                    "final_loss": records[-1]["loss"],
                }
            )
        )
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="goalchase",
        description="Two-timescale goal-rewrite control runs and analyses.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_config_opts(p, with_out=False):
        p.add_argument("--config", required=True, help="scenario JSON path")
        p.add_argument(
            "--set",
            action="append",
            metavar="KEY=VALUE",
            help="override a config key: a dotted path whose numeric parts "
            "index lists, and a JSON value (else taken as a string)",
        )
        if with_out:
            p.add_argument("--out", required=True, help="output directory")

    p_run = sub.add_parser("run", help="simulate a scenario to an output dir")
    add_config_opts(p_run, with_out=True)
    p_run.set_defaults(func=cmd_run)

    p_check = sub.add_parser("check", help="gradient/reduction/witness checks")
    add_config_opts(p_check)
    p_check.add_argument("--samples", type=int, default=25)
    p_check.add_argument("--fd-step", type=float, default=1e-5)
    p_check.set_defaults(func=cmd_check)

    p_cmp = sub.add_parser("compare", help="first divergence between two runs")
    p_cmp.add_argument("run_a", help="first run directory")
    p_cmp.add_argument("run_b", help="second run directory")
    p_cmp.add_argument("--tol", type=float, default=1e-12)
    p_cmp.set_defaults(func=cmd_compare)

    p_wit = sub.add_parser("witness", help="divergence witness for a scenario")
    add_config_opts(p_wit)
    p_wit.add_argument(
        "--alt-w",
        metavar="JSON",
        help="law-state overrides, e.g. '{\"program_counter\": 1}'",
    )
    p_wit.add_argument("--threshold", type=float, default=1e-2)
    p_wit.add_argument("--out", help="write both trajectories under this dir")
    p_wit.set_defaults(func=cmd_witness)

    p_sweep = sub.add_parser("sweep", help="run a grid of config overrides")
    add_config_opts(p_sweep, with_out=True)
    p_sweep.add_argument(
        "--grid", required=True,
        help="path to a JSON file holding a list of override objects",
    )
    p_sweep.set_defaults(func=cmd_sweep)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except DivergenceError as e:
        print(f"divergence: {e}", file=sys.stderr)
        return EXIT_DIVERGENCE
    except OSError as e:  # inputs are read under ConfigError; this is output
        print(f"output error: {e}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    raise SystemExit(main())
