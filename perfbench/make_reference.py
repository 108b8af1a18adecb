"""Regenerate reference.json, the stored outputs the correctness gate checks.

    python3 perfbench/make_reference.py

Run it only when a workload's definition changes, on a commit whose
outputs are trusted: a change to the program must never regenerate it.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

import gate
import run
import workloads

REFERENCE_SEEDS = range(20)


def main() -> int:
    run.import_goalchase()
    from goalchase import core, simulator

    out = {"seeds": [REFERENCE_SEEDS.start, REFERENCE_SEEDS.stop - 1], "workloads": {}}
    with tempfile.TemporaryDirectory(dir=run.BENCH_DIR) as tmp:
        path = Path(tmp) / "trajectory.jsonl"
        for name in workloads.WORKLOADS:
            entry = {"finals": {}}
            for seed in REFERENCE_SEEDS:
                cfg = core.config_from_json(workloads.config_obj(name, seed))
                simulator.run(cfg, jsonl_path=path)
                records = gate.parse_trajectory(path.read_bytes())
                digest = gate.goal_stream_digest(records)
                if entry.setdefault("goal_stream_sha256", digest) != digest:
                    raise SystemExit(f"{name}: goal stream depends on the seed")
                entry["records"] = len(records)
                entry["finals"][str(seed)] = gate.final_state(records)
            out["workloads"][name] = entry
            print(name, entry["records"], entry["goal_stream_sha256"][:12], file=sys.stderr)
    gate.REFERENCE_PATH.write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
