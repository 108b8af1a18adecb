"""The correctness gate applied to every benchmarked run.

A run passes when
- its trajectory.jsonl is byte-identical to the first run of the set;
- its goal stream (the `t` and `pairs` of every record) hashes to the
  stored reference: the law never reads the controller, so no change to
  the controller or the engine may alter it;
- for a seed with a stored reference, its final loss and final slot
  parameters agree with the reference within `LOSS_RTOL`/`SLOTS_ATOL`.
  These admit the last-bit drift of a reordered floating-point sum but not
  a wrong gradient, which moves the final slots by many orders more.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

REFERENCE_PATH = Path(__file__).with_name("reference.json")

LOSS_RTOL = 1e-6
# a loss this small is roundoff, where summation order alone decides its digits
LOSS_ATOL = 1e-20
SLOTS_ATOL = 1e-9


def load_reference() -> dict:
    return json.loads(REFERENCE_PATH.read_text())


def parse_trajectory(data: bytes) -> list:
    return [json.loads(line) for line in data.decode().splitlines()]


def goal_stream_digest(records: list) -> str:
    stream = [[r["t"], r["pairs"]] for r in records]
    text = json.dumps(stream, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def final_state(records: list) -> dict:
    last = records[-1]
    return {"loss": last["loss"], "slots": last["slots"]}


def check_final(final: dict, ref: dict) -> list:
    """Problems with a run's final loss and slots against a stored final."""
    problems = []
    loss, ref_loss = final["loss"], ref["loss"]
    if not abs(loss - ref_loss) <= LOSS_RTOL * abs(ref_loss) + LOSS_ATOL:
        problems.append(f"final loss {loss!r} != reference {ref_loss!r}")
    slots, ref_slots = final["slots"], ref["slots"]
    if [len(s) for s in slots] != [len(s) for s in ref_slots]:
        problems.append("final slot shapes differ from the reference")
        return problems
    dev = max(abs(a - b) for s, r in zip(slots, ref_slots) for a, b in zip(s, r))
    if not dev <= SLOTS_ATOL:
        problems.append(f"final slots deviate from the reference by {dev:.3g}")
    return problems


def check_run(data: bytes, first: bytes | None, ref: dict, seed: int) -> list:
    """Every gate problem of one run's trajectory bytes; [] when it passes.

    `ref` is the workload's entry in reference.json, `first` the bytes of
    the set's first run (None for the first run itself).
    """
    problems = []
    if first is not None and data != first:
        problems.append("trajectory.jsonl differs from the first run of the set")
    records = parse_trajectory(data)
    if len(records) != ref["records"]:
        problems.append(f"{len(records)} records, reference has {ref['records']}")
    if goal_stream_digest(records) != ref["goal_stream_sha256"]:
        problems.append("goal stream differs from the reference")
    final = ref["finals"].get(str(seed))
    if final is not None and records:
        problems.extend(check_final(final_state(records), final))
    return problems
