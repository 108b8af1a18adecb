"""The two-timescale run loop.

Micro-step t advances the controller; once every K micro-steps (when the
pre-step counter is a positive multiple of K) the rewrite law fires first
and the controller then descends the rewritten goals within the same
step, so the goal change precedes the parameter change it influences.
Records are written every `log_every` steps plus immediately before and
after every law event, and are strictly ordered by t with T = t // K.
Each state is evaluated at most once, for its record and the step out of
it; states are values, so never mutate a yielded state's flat `params`
or its slots, which are views of them, in place.

A record's slot norms are `math.sqrt(s.dot(s))`, which is what
`np.linalg.norm` computes for a real vector, and its JSON line comes
from one reused `json.JSONEncoder`, the one `json.dumps` builds per call
for the same separators: both give the bits of the calls they replaced.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from contextlib import nullcontext
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .core import DivergenceError, ScenarioConfig, SlotState, init_state
from .feedback import control_step, evaluate
from .goallaw import LawState, initial_law_state, step_law

__all__ = ["SimState", "new_sim", "step", "iterate", "recorder", "run", "RECORD_FIELDS",
           "make_record", "record_to_json_line", "write_summary_csv", "pair_digest"]


@dataclass
class SimState:
    config: ScenarioConfig
    sub: SlotState
    law: LawState
    t: int = 0

    @cached_property
    def evaluation(self):
        """`feedback.evaluate` of the goals at the slots: (loss, gradients)."""
        return evaluate(self.law.cpair, self.config.slot_specs, self.sub.slots,
                        self.config.probe_set(self.sub))


def new_sim(config: ScenarioConfig) -> SimState:
    return SimState(config, init_state(config), initial_law_state(config.law))


def _fires(t: int, K: int) -> bool:
    """Whether the law fires in the step out of pre-step counter t."""
    return t > 0 and t % K == 0


def step(sim: SimState) -> SimState:
    """One micro-step; fires the law first when the boundary is reached."""
    cfg = sim.config
    if _fires(sim.t, cfg.K):
        sim = SimState(cfg, sim.sub, step_law(cfg.law, sim.law), sim.t)
    try:
        sub = control_step(
            sim.sub, sim.evaluation[1](), cfg.probe_set(sim.sub),
            cfg.eta, cfg.mu, cfg.drift, cfg.probe_mode,
        )
    except DivergenceError as e:
        raise DivergenceError(f"{e} at step {sim.t + 1}", step=sim.t + 1) from e
    return SimState(cfg, sub, sim.law, sim.t + 1)


def iterate(config: ScenarioConfig, law_state: LawState | None = None):
    """Yield the SimState at t = 0, 1, ..., config.steps, each one before
    the step out of it runs.  `law_state`, a frozen value that the run
    starts from as it is, replaces the configured initial law state; the
    controller state is untouched."""
    sim = new_sim(config) if law_state is None else SimState(
        config, init_state(config), law_state)
    yield sim
    for _ in range(config.steps):
        sim = step(sim)
        yield sim


# A record's fields in line order, name: (kind, required).  A kind is "count"
# (an int >= 0), "pairs" (goal texts), "flag" (a bool) or a depth of finite numbers.
RECORD_FIELDS = {"t": ("count", True), "T": ("count", True), "loss": (0, True),
                 "pairs": ("pairs", True), "x_norms": (1, True), "d": (1, True),
                 "macro": ("flag", True), "slots": (2, False)}


def make_record(sim: SimState, macro: bool = False) -> dict:
    """The record of the current state: the JSON object its trajectory line
    holds, with the fields of `RECORD_FIELDS` in its order, `slots` only on
    snapshot steps and the last step.  Raises DivergenceError on a
    non-finite loss or slot norm."""
    cfg, t = sim.config, sim.t
    val = sim.evaluation[0]
    with np.errstate(over="ignore", invalid="ignore"):
        norms = [math.sqrt(s.dot(s)) for s in sim.sub.slots]
    if not math.isfinite(val) or not all(map(math.isfinite, norms)):
        raise DivergenceError(f"non-finite loss or slot norm at step {t}", step=t)
    rec = {
        "t": t,
        "T": t // cfg.K,
        "loss": val,
        "pairs": sim.law.cpair.to_json(),
        "x_norms": norms,
        "d": sim.sub.probe.tolist(),
        "macro": macro,
    }
    if (cfg.snapshot_every > 0 and t % cfg.snapshot_every == 0) or t == cfg.steps:
        rec["slots"] = [s.tolist() for s in sim.sub.slots]
    return rec


_COMPACT = json.JSONEncoder(separators=(",", ":"))


def record_to_json_line(rec: dict) -> str:
    return _COMPACT.encode(rec)


def recorder(records: list, out=None):
    """A sink fed the states of one run in step order.  It records t = 0,
    every `log_every`-th and the last step, and each step the law fires
    into (`macro`) or out of, appending each record to `records` and
    writing its JSON line to the text file `out`, if given, at once."""

    def record(sim: SimState) -> None:
        cfg, t = sim.config, sim.t
        macro = _fires(t - 1, cfg.K)
        if macro or t % cfg.log_every == 0 or t == cfg.steps or _fires(t, cfg.K):
            rec = make_record(sim, macro)
            records.append(rec)
            if out is not None:
                out.write(record_to_json_line(rec) + "\n")

    return record


def run(config: ScenarioConfig, jsonl_path=None) -> tuple[list, SimState]:
    """Run `config.steps` micro-steps, returning (records, final SimState).

    The records are the JSON objects the trajectory lines hold.  When
    `jsonl_path` is given, every record is written as soon as it is made,
    so a diverging run still leaves the partial trajectory on disk.
    """
    records: list[dict] = []
    with open(jsonl_path, "w") if jsonl_path is not None else nullcontext() as out:
        record = recorder(records, out)
        for sim in iterate(config):
            record(sim)
    return records, sim


def pair_digest(pairs_json: list) -> str:
    text = _COMPACT.encode(pairs_json)
    return hashlib.sha256(text.encode()).hexdigest()[:12]


def write_summary_csv(records: list, path) -> None:
    """Summary table with columns t, T, loss, pair_digest."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["t", "T", "loss", "pair_digest"])
        for rec in records:
            w.writerow([rec["t"], rec["T"], repr(rec["loss"]), pair_digest(rec["pairs"])])
