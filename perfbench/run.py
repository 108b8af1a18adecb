"""goalchase benchmark: micro-steps per second, cold set-up and memory.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload commute_log1 --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seconds 30

One client in one process runs the workload back to back (a closed loop)
with BLAS threads pinned to 1.  `--trace 0` reports the end-to-end
metrics; `--trace 1` runs the workload untraced, then traced, and reports
the per-layer metrics.  Every run passes the correctness gate in gate.py
or counts as failed.  The last line of standard output is one JSON object
{"correct", "attempted", "failed", "metrics"}; the full result, with
quartiles and machine facts, is written under perfbench/results/.
See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import os

PINNED_THREADS = {
    name: "1"
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                 "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
}
os.environ.update(PINNED_THREADS)  # before numpy is imported

import argparse
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import warnings
from pathlib import Path

import gate
import layers
import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RESULTS_DIR = BENCH_DIR / "results"
WORK_DIR = BENCH_DIR / "out"

MIN_SETUPS = 5
MIN_RUNS = 3
EXIT_USAGE = 2

END_TO_END_UNITS = layers.declared_units("end_to_end")


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def import_goalchase():
    if not (SRC / "goalchase" / "__init__.py").is_file():
        raise BenchError(f"no goalchase sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import goalchase

    if Path(goalchase.__file__).resolve().parent != SRC / "goalchase":
        raise BenchError(f"imported goalchase from {goalchase.__file__}, not {SRC}")
    return goalchase


def quartiles(values: list) -> dict:
    if len(values) == 1:
        q = [values[0]] * 3
    else:
        q = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q[0], "median": q[1], "q3": q[2], "n": len(values)}


def machine_facts() -> dict:
    import numpy

    try:
        # a checkout outside git reports null, not an enclosing repository
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True,
            text=True, timeout=10,
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": commit,
        "thread_env": {k: os.environ.get(k) for k in PINNED_THREADS},
    }


def compile_cache():
    """The goal compile cache, when the program still has one."""
    from goalchase import feedback

    cache = getattr(feedback, "_compile_cached", None)
    return cache if hasattr(cache, "cache_info") else None


class Runner:
    """Runs one workload back to back and gates every run."""

    def __init__(self, gc, workload: str, seed: int, work: Path):
        self.gc = gc
        self.seed = seed
        self.work = work
        self.obj = workloads.config_obj(workload, seed)
        self.cfg = gc.config_from_json(self.obj)
        self.ref = gate.load_reference()["workloads"][workload]
        self.first = None
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.records: list = []
        self.peak_rss_mb = None

    def _fail(self, problems: list):
        self.failed += 1
        self.problems.extend(problems)

    def run_once(self) -> float | None:
        """One gated run; returns its wall seconds, or None if it failed."""
        from goalchase import simulator

        path = self.work / "trajectory.jsonl"
        cache = compile_cache()
        if cache is not None:
            cache.cache_clear()  # every user run starts in a fresh process
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            simulator.run(self.cfg, jsonl_path=path)
        except self.gc.DivergenceError as e:
            self._fail([f"DivergenceError: {e}"])
            return None
        wall = time.perf_counter() - t0
        if self.peak_rss_mb is None:
            # read before the harness holds any output, so it is the program's
            self.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        data = path.read_bytes()
        problems = gate.check_run(data, self.first, self.ref, self.seed)
        if problems:
            self._fail(problems)
            return None
        if self.first is None:
            self.first = data
            self.records = gate.parse_trajectory(data)
        return wall

    def run_for(self, seconds: float, between=None) -> list:
        """Steps per second of each run made within `seconds` (at least
        MIN_RUNS), calling `between()` after each run."""
        rates = []
        t_end = time.perf_counter() + seconds
        n = 0
        while n < MIN_RUNS or time.perf_counter() < t_end:
            wall = self.run_once()
            n += 1
            if wall is not None:
                rates.append(self.cfg.steps / wall)
            if between is not None:
                between()
        return rates

    def setup_once(self) -> float | None:
        """Wall seconds of one cold `goalchase run --set steps=0` process."""
        cfg_path = self.work / "config.json"
        if not cfg_path.exists():
            cfg_path.write_text(json.dumps(self.obj))
        out = self.work / "setup"
        env = dict(os.environ, PYTHONPATH=str(SRC))
        # load bytecode caches, as an installed package does
        env.pop("PYTHONDONTWRITEBYTECODE", None)
        cmd = [sys.executable, "-m", "goalchase", "run", "--config", str(cfg_path),
               "--set", "steps=0", "--out", str(out)]
        self.attempted += 1
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=120)
        wall = time.perf_counter() - t0
        if proc.returncode != 0:
            self._fail([f"set-up run exited {proc.returncode}: {proc.stderr.strip()[-300:]}"])
            return None
        if len((out / "trajectory.jsonl").read_text().splitlines()) != 1:
            self._fail(["set-up run did not write exactly one record"])
            return None
        return wall


def measure_end_to_end(runner: Runner, seconds: float) -> tuple[dict, dict]:
    # the first set-up process writes the bytecode caches and is not timed
    runner.setup_once()
    setup = []

    def cold_start():
        wall = runner.setup_once()
        if wall is not None:
            setup.append(wall)

    # cold starts alternate with the runs, so both sample the same stretch
    # of time on a machine whose speed drifts
    rates = runner.run_for(seconds, between=cold_start)
    while len(setup) < MIN_SETUPS and runner.failed == 0:
        cold_start()
    summary = {"steps_per_s": quartiles(rates) if rates else None,
               "setup_s": quartiles(setup) if setup else None}
    metrics = {
        # The host has bursts, tens of seconds long, in which the CPU runs
        # ~35% faster.  The lower quartile follows the usual speed unless a
        # burst covers three quarters of the window; the median moves once
        # it covers half.
        "steps_per_s": summary["steps_per_s"]["q1"] if rates else None,
        "setup_s": summary["setup_s"]["median"] if setup else None,
        "peak_rss_mb": runner.peak_rss_mb,
    }
    return metrics, summary


def measure_per_layer(runner: Runner, seconds: float) -> tuple[dict, dict]:
    from tracer import Tracer

    rates = runner.run_for(seconds / 2)
    untraced_us = 1e6 / statistics.median(rates) if rates else None
    cache = compile_cache()
    hits = misses = 0
    walls = []
    t_end = time.perf_counter() + seconds / 2
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with Tracer() as tracer:
            while not walls or time.perf_counter() < t_end:
                wall = runner.run_once()
                if wall is None:
                    break
                walls.append(wall)
                if cache is not None:
                    info = cache.cache_info()
                    hits, misses = hits + info.hits, misses + info.misses
    if not walls or untraced_us is None:
        return {}, {"missing_functions": sorted(tracer.missing)}
    stalls = sum(type(w.message).__name__ == "LawStallWarning" for w in caught)
    metrics = layers.traced_metrics(
        tracer, runner.cfg.steps * len(walls), sum(walls), untraced_us,
        hits if cache is not None else None, misses, stalls / len(walls))
    metrics["expr.nodes_max"] = layers.nodes_max(runner.records, runner.cfg)
    metrics.update(layers.isolated_metrics(runner.obj))
    summary = {"untraced_steps_per_s": quartiles(rates),
               "traced_runs": len(walls),
               "missing_functions": sorted(tracer.missing)}
    return metrics, summary


def bench(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    gc = import_goalchase()
    work = WORK_DIR / f"{workload}-{seed}-{int(trace)}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        runner = Runner(gc, workload, seed, work)
        measure = measure_per_layer if trace else measure_end_to_end
        metrics, summary = measure(runner, seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    units = END_TO_END_UNITS if not trace else layers.UNITS
    if metrics and set(metrics) != set(units):
        raise BenchError("the metrics measured differ from those BENCHMARK.json declares: "
                         f"{sorted(set(metrics) ^ set(units))}")
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "correct": runner.failed == 0 and bool(metrics),
        "attempted": runner.attempted,
        "failed": runner.failed,
        "failed_frac": runner.failed / runner.attempted,
        "problems": runner.problems[:20],
        "metrics": ({k: {"value": metrics[k], "unit": u} for k, u in units.items()}
                    if metrics else {}),
        "summary": summary,
        "machine": machine_facts(),
    }


def print_result(res: dict):
    print(f"workload {res['workload']}  seed {res['seed']}  trace {res['trace']}")
    for name, m in res["metrics"].items():
        print(f"  {name:36s} {m['value']!s:>24} {m['unit']}")
    for name, q in res["summary"].items():
        if isinstance(q, dict) and "q1" in q:
            print(f"  {name + ' quartiles':36s} {q['q1']:.6g} / {q['median']:.6g} / "
                  f"{q['q3']:.6g} over {q['n']}")
    print(f"  {'failed_frac':36s} {res['failed_frac']:>24} ratio "
          f"({res['failed']} of {res['attempted']} operations)")
    for p in res["problems"]:
        print(f"  FAILED: {p}")


def run_all(args) -> int:
    """Every workload, each in its own process, as one table."""
    rows = {}
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        rows[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    for name, row in rows.items():
        cells = [f"{k}={m['value']:.6g} {m['unit']}" for k, m in row["metrics"].items()
                 if m["value"] is not None]
        frac = row["failed"] / row["attempted"]
        print(f"{name:14s} " + "  ".join(cells) + f"  failed_frac={frac:.3g} ratio")
    print(json.dumps(rows))
    return 0 if all(r["correct"] for r in rows.values()) else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not 0 <= args.seed < 2**64:
        ap.error("--seed must be in [0, 2**64)")
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if args.workload == "all":
        return run_all(args)
    try:
        res = bench(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return EXIT_USAGE
    RESULTS_DIR.mkdir(exist_ok=True)
    out = RESULTS_DIR / f"{res['workload']}-seed{res['seed']}-trace{res['trace']}.json"
    out.write_text(json.dumps(res, indent=2) + "\n")
    print_result(res)
    print(json.dumps({k: res[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
