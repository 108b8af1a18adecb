"""Per-layer metrics: figures derived from a traced run, and isolated timings.

Traced figures are per micro-step of the traced runs: `.self_us` is self
time, `.us` outermost inclusive time and `.calls` a call count.  Isolated
timings are microseconds per call of one public function on fixed inputs:
`bridge.{eval,grad}.us.<family>`, `expr.per_factor_us.chain<L>`,
`goallaw.step_law_us.<kind>`, `simulator.make_record.us`,
`simulator.record_to_json_line.us` and `core.*_us`.  A figure whose
function the program no longer defines is None.
"""

from __future__ import annotations

import json
import statistics
import time
from pathlib import Path

import numpy as np

import workloads

MODULES = ("bridge", "expr", "feedback", "simulator", "goallaw", "prng", "core")
FAMILIES = ("affine1", "affine2", "mlp1h")
CHAIN_LENGTHS = (2, 16, 64)
BENCHMARK_PATH = Path(__file__).resolve().parents[1] / "BENCHMARK.json"


def declared_units(group: str) -> dict:
    """Name -> unit of every `group` metric BENCHMARK.json declares, in its order."""
    return {m["name"]: m["unit"] for m in json.loads(BENCHMARK_PATH.read_text())[group]}


# every per-layer metric, in report order, with its unit
UNITS = declared_units("per_layer")


def _div(a, b):
    return None if a is None or b is None or b == 0 else a / b


def traced_metrics(tracer, steps: int, wall_s: float, untraced_us: float,
                   cache_hits, cache_misses, stalls_per_run: float) -> dict:
    """Per-layer figures of traced runs that made `steps` steps in all.

    `wall_s` is the wall time of the traced runs and `untraced_us` the
    untraced time per step of the same workload.  `cache_hits` is None
    when the program has no compile cache.
    """
    stats, missing = tracer.stats, tracer.missing

    def field(name, attr):
        if name in missing:
            return None
        return sum(getattr(st, attr) for span, st in stats.items()
                   if span == name or span.startswith(name + "."))

    def per_step_us(name, attr):
        return _div(None if (v := field(name, attr)) is None else v * 1e6, steps)

    out = {}
    for op, fn in (("eval", "bridge.eval_bridge"), ("grad", "bridge.grad_bridge")):
        for fam in FAMILIES:
            out[f"bridge.{op}.calls.{fam}"] = _div(field(f"{fn}.{fam}", "calls"), steps)
    out["expr.reeval_ratio"] = _div(field("bridge.eval_bridge", "calls"),
                                    field("bridge.grad_bridge", "calls"))
    for name in ("feedback.loss_gradients", "feedback.control_step",
                 "feedback.loss", "simulator.step", "simulator.make_record",
                 "simulator.run"):
        out[f"{name}.self_us"] = per_step_us(name, "self_s")
    out["feedback.compile_pairs.us"] = per_step_us("feedback.compile_pairs", "incl_s")
    out["feedback.compile_hit_ratio"] = _div(
        cache_hits, None if cache_hits is None else cache_hits + cache_misses)
    step_us = [d * 1e6 for d in tracer.samples]
    if "simulator.step" in missing or not step_us:
        out["simulator.step.p50_us"] = out["simulator.step.p99_us"] = None
    else:
        q = np.percentile(step_us, [50, 99])
        out["simulator.step.p50_us"], out["simulator.step.p99_us"] = float(q[0]), float(q[1])
    out["simulator.make_record.calls"] = _div(field("simulator.make_record", "calls"), steps)
    record_s = field("simulator.make_record", "incl_s")
    json_s = field("simulator.record_to_json_line", "incl_s")
    out["simulator.record_frac"] = _div(
        None if record_s is None or json_s is None else record_s + json_s, wall_s)
    out["goallaw.step_law.us"] = per_step_us("goallaw.step_law", "incl_s")
    out["goallaw.step_law.calls"] = _div(field("goallaw.step_law", "calls"), steps)
    out["goallaw.stalls"] = stalls_per_run
    out["prng.round_trips"] = _div(field("prng.rng_from_words", "calls"), steps)
    total_self = 0.0
    for mod in MODULES:
        self_s = sum(st.self_s for span, st in stats.items()
                     if span.split(".")[0] == mod)
        total_self += self_s
        out[f"{mod}.self_us"] = self_s * 1e6 / steps
    # prng calls nothing traced, so its time is its self time
    out["prng.us"] = out["prng.self_us"]
    traced_us = wall_s * 1e6 / steps
    out["trace.wall_us"] = traced_us
    out["trace.self_sum_frac"] = total_self / wall_s
    out["trace.overhead_frac"] = traced_us / untraced_us - 1.0
    return out


def time_call(fn, budget_s: float = 0.2, batches: int = 7) -> float:
    """Median over `batches` batches of the mean microseconds per call."""
    t0 = time.perf_counter()
    fn()
    once = max(time.perf_counter() - t0, 1e-7)
    per_batch = max(1, int(budget_s / batches / once))
    means = []
    for _ in range(batches):
        t0 = time.perf_counter()
        for _ in range(per_batch):
            fn()
        means.append((time.perf_counter() - t0) / per_batch * 1e6)
    return statistics.median(means)


def _lookup(module, *names):
    fns = [getattr(module, n, None) for n in names]
    return None if None in fns else fns


def nodes_max(records: list, cfg):
    """Largest goal, in expression-tree nodes, over the recorded goals."""
    from goalchase import expr

    fns = _lookup(expr, "EquationPairList", "node_count")
    if fns is None or not records:
        return None
    pair_list, node_count = fns
    sizes = set()
    for text in {json.dumps(r["pairs"]) for r in records}:
        trees = pair_list.from_json(json.loads(text)).compile(cfg.arities)
        sizes.add(sum(node_count(a) + node_count(b) for a, b in trees))
    return max(sizes)


def isolated_metrics(cfg_obj: dict) -> dict:
    """Isolated per-call timings; `cfg_obj` is the workload's config."""
    from goalchase import bridge, core, feedback, goallaw, simulator

    config_from_json, init_state = core.config_from_json, core.init_state

    out = {}
    gen = np.random.Generator(np.random.PCG64(0))
    fns = _lookup(bridge, "BridgeFamily", "eval_bridge", "grad_bridge")
    for kind in FAMILIES:
        if fns is None:
            out[f"bridge.eval.us.{kind}"] = out[f"bridge.grad.us.{kind}"] = None
            continue
        family_cls, eval_bridge, grad_bridge = fns
        fam = family_cls(kind, 2, hidden=4 if kind == "mlp1h" else 0)
        params = gen.uniform(-0.5, 0.5, fam.param_count)
        args = [gen.uniform(-1, 1, 2) for _ in range(fam.arity)]
        cot = gen.uniform(-1, 1, 2)
        out[f"bridge.eval.us.{kind}"] = time_call(lambda: eval_bridge(fam, params, args))
        out[f"bridge.grad.us.{kind}"] = time_call(lambda: grad_bridge(fam, params, args, cot))

    fns = _lookup(feedback, "loss_gradients")
    for length in CHAIN_LENGTHS:
        key = f"expr.per_factor_us.chain{length}"
        if fns is None:
            out[key] = None
            continue
        obj = workloads.commute_log1(workloads.DEFAULT_SEED)
        pair = [workloads.alternating_chain(length, 0),
                workloads.alternating_chain(length, 1)]
        obj["law"]["pairs"] = [pair]
        cfg = config_from_json(obj)
        slots = init_state(cfg).slots
        call = lambda: fns[0](cfg.law.pairs, cfg.slot_specs, slots, cfg.probes)
        # both sides of the pair are chains of `length` factors
        out[key] = time_call(call, budget_s=0.3, batches=3) / (2 * length)

    law_cfgs = {
        "identity": workloads.commute_log1(workloads.DEFAULT_SEED),
        "schedule": dict(workloads.commute_log1(workloads.DEFAULT_SEED),
                         law={"kind": "schedule", "period": 1,
                              "program": [[["[0,1]", "[1,0]"]], [["[0]", "[1]"]]]}),
        "grammar_walk": workloads.walk_growth(workloads.DEFAULT_SEED),
    }
    fns = _lookup(goallaw, "initial_law_state", "step_law")
    for kind, obj in law_cfgs.items():
        if fns is None:
            out[f"goallaw.step_law_us.{kind}"] = None
            continue
        spec = config_from_json(obj).law
        state = fns[0](spec)
        out[f"goallaw.step_law_us.{kind}"] = time_call(lambda: fns[1](spec, state))

    cfg = config_from_json(cfg_obj)
    fns = _lookup(simulator, "new_sim", "make_record", "record_to_json_line")
    if fns is None:
        out["simulator.make_record.us"] = out["simulator.record_to_json_line.us"] = None
    else:
        sim = fns[0](cfg)
        rec = fns[1](sim)
        out["simulator.make_record.us"] = time_call(lambda: fns[1](sim))
        out["simulator.record_to_json_line.us"] = time_call(lambda: fns[2](rec))
    fns = _lookup(core, "config_from_json", "init_state")
    if fns is None:
        out["core.config_parse_us"] = out["core.init_state_us"] = None
    else:
        out["core.config_parse_us"] = time_call(lambda: fns[0](cfg_obj))
        out["core.init_state_us"] = time_call(lambda: fns[1](cfg))
    return out
