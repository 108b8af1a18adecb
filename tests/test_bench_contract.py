"""The benchmark's runs end in one strict JSON result line.

`perfbench/run.py --trace 1` finds the program's kernels by their module
names and derives per-layer metrics from them, so a renamed or bypassed
kernel, or a stray line on standard output, breaks the result.  The
untraced path (`--trace 0`), which the end-to-end metrics come from, is
held to the same result.  Each run works on a copy of the sources, so
nothing in the checkout is written.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
# (workload, --trace)
RUNS = (("commute_log1", "1"), ("walk_growth", "1"), ("deep_chain", "0"))


def _reject(constant):
    raise ValueError(f"non-standard JSON constant {constant}")


def test_traced_runs_print_a_strict_json_result(tmp_path):
    for name in ("src", "perfbench"):
        shutil.copytree(ROOT / name, tmp_path / name,
                        ignore=shutil.ignore_patterns("__pycache__", "out", "results"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    # the runs go side by side to keep the wall time down
    procs = {(w, trace): subprocess.Popen(
        [sys.executable, "perfbench/run.py", "--workload", w, "--seconds", "0.5",
         "--trace", trace], cwd=tmp_path, stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, text=True) for w, trace in RUNS}
    for (workload, trace), proc in procs.items():
        out, err = proc.communicate(timeout=300)
        assert proc.returncode == 0, err[-2000:]
        result = json.loads(out.splitlines()[-1], parse_constant=_reject)
        assert result["correct"] is True and result["failed"] == 0, result
        bad = {k: m["value"] for k, m in result["metrics"].items()
               if isinstance(m["value"], bool)
               or not isinstance(m["value"], (int, float))
               or not math.isfinite(m["value"])}
        assert result["metrics"] and not bad, (workload, trace, bad)
        if workload == "walk_growth":
            for op in ("eval", "grad"):
                assert result["metrics"][f"bridge.{op}.calls.mlp1h"]["value"] > 0
