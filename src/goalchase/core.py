"""Scenario configuration and the controlled state.

A scenario fixes the probe dimension m, a list of parameter slots (each
interpreted by a bridge family), the controller knobs, the rewrite law,
and the run length.  Configurations serialize to JSON with the key set
{m, slots, init_seed, eta, mu, drift, probe_mode, probes, K, law, steps,
log_every, snapshot_every}; equal configurations always reproduce the
same run byte for byte.  `config_from_json` is a config's one constructor
and states each key's default.  The probe policy lives here alone: a
config's `probe_set` and `advance_probe` decide every probe a state sees.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate, pairwise

import numpy as np

from .bridge import BridgeFamily
from .expr import EquationPairList, GrammarError, parse_sequence, seq_to_text
from .goallaw import GRAMMAR_WALK, IDENTITY_LAW, LAW_KINDS, SCHEDULE, LawSpec
from .prng import rng_from_words, rng_to_words

FIXED_SET = "fixed_set"
RESAMPLE = "resample"
PROBE_MODES = (FIXED_SET, RESAMPLE)

_U64 = 1 << 64

# bound on the total parameter count of a scenario's slots, far above the
# 30 of the largest demo config: a step holds a few vectors of this length
# and a gradient row of it per probe and Apply, 8 bytes an entry
MAX_PARAMS = 100_000

__all__ = [
    "ConfigError",
    "DivergenceError",
    "SlotState",
    "ScenarioConfig",
    "config_from_json",
    "config_from_json_str",
    "finite_float",
    "init_state",
    "parse_pairs",
    "require_int",
    "require_pair_texts",
]


class ConfigError(ValueError):
    """Invalid scenario configuration; the message names the key path."""

    def __init__(self, key: str, message: str):
        self.key = key
        super().__init__(f"{key}: {message}")


class DivergenceError(RuntimeError):
    """A state, gradient, or recorded quantity stopped being finite."""

    def __init__(self, message: str, step: int | None = None):
        self.step = step
        super().__init__(message)


# --- state -----------------------------------------------------------------


@dataclass
class SlotState:
    """Controlled state: all slots' parameters plus the controller's memory.

    `params` holds every slot's entries back to back, in slot order, and
    `slots` are views of its spans between consecutive `bounds`.  The
    velocity buffer `momentum` shares that layout; `rng_words`, the
    run's PRNG words (an int tuple, see `prng`), and `probe_cursor` drive
    the probe, and `probe` is the current one.
    """

    params: np.ndarray
    momentum: np.ndarray
    bounds: tuple
    rng_words: tuple
    probe: np.ndarray
    probe_cursor: int

    @cached_property
    def slots(self) -> list:
        return [self.params[lo:hi] for lo, hi in pairwise(self.bounds)]


# --- configuration ---------------------------------------------------------


@dataclass
class ScenarioConfig:
    m: int
    slot_specs: list
    init_seed: int
    eta: float
    law: LawSpec
    steps: int
    mu: float
    drift: float
    probe_mode: str
    probes: np.ndarray
    K: int
    log_every: int
    snapshot_every: int

    @property
    def arities(self) -> tuple:
        return tuple(f.arity for f in self.slot_specs)

    def probe_set(self, state: SlotState) -> np.ndarray:
        """The (P, m) probes the loss averages over at `state` (one if resampled)."""
        return self.probes if self.probe_mode == FIXED_SET else state.probe[None]

    def advance_probe(self, words: tuple, cursor: int) -> tuple:
        """(words, probe, cursor) of the probe after the one at `cursor`, -1
        for the first.  A fixed set is cycled in turn and the PRNG words
        kept; in resample mode the probe is drawn from the words, which
        advance, and the cursor stays 0."""
        if self.probe_mode == FIXED_SET:
            cursor = (cursor + 1) % len(self.probes)
            return words, self.probes[cursor].copy(), cursor
        gen = rng_from_words(words)
        probe = gen.uniform(-1.0, 1.0, size=self.m)
        return rng_to_words(gen), probe, 0

    def to_json_obj(self) -> dict:
        obj = {
            "m": self.m,
            "slots": [f.to_json() for f in self.slot_specs],
            "init_seed": self.init_seed,
            "eta": self.eta,
            "mu": self.mu,
            "drift": self.drift,
            "probe_mode": self.probe_mode,
        }
        if self.probe_mode == FIXED_SET:
            obj["probes"] = [[float(x) for x in p] for p in self.probes]
        obj.update(
            {
                "K": self.K,
                "law": self.law.to_json(),
                "steps": self.steps,
                "log_every": self.log_every,
                "snapshot_every": self.snapshot_every,
            }
        )
        return obj

    def to_json_str(self) -> str:
        return json.dumps(self.to_json_obj(), indent=2) + "\n"


_CONFIG_KEYS = {
    "m",
    "slots",
    "init_seed",
    "eta",
    "mu",
    "drift",
    "probe_mode",
    "probes",
    "K",
    "law",
    "steps",
    "log_every",
    "snapshot_every",
}


def require_int(obj, key, lo=None, hi=None, default=None, path=None):
    """obj[key] as an int in [lo, hi); bools, floats and strings are rejected."""
    path = path or key
    if key not in obj:
        if default is None:
            raise ConfigError(path, "missing required key")
        return default
    val = obj[key]
    if isinstance(val, bool) or not isinstance(val, int):
        raise ConfigError(path, f"expected integer, got {val!r}")
    if lo is not None and val < lo:
        raise ConfigError(path, f"must be >= {lo}, got {val}")
    if hi is not None and val >= hi:
        raise ConfigError(path, f"must be < {hi}, got {val}")
    return val


def finite_float(val):
    """val as a finite float, or None for a bool, a non-number, NaN, an
    infinity or an integer too large for a float."""
    if isinstance(val, bool) or not isinstance(val, (int, float)):
        return None
    try:
        val = float(val)
    except OverflowError:
        return None
    return val if math.isfinite(val) else None


def _require_float(obj, key, default=None):
    if key not in obj:
        if default is None:
            raise ConfigError(key, "missing required key")
        return default
    val = finite_float(obj[key])
    if val is None:
        raise ConfigError(key, f"expected a finite number, got {obj[key]!r}")
    return val


def require_pair_texts(obj, key: str) -> None:
    """Check that obj is a JSON list of [left, right] pairs of strings."""
    if not isinstance(obj, list):
        raise ConfigError(key, f"expected a list of [left, right] pairs")
    for k, entry in enumerate(obj):
        if not isinstance(entry, list) or len(entry) != 2:
            raise ConfigError(f"{key}[{k}]", f"expected a [left, right] pair, got {entry!r}")
        for side, text in enumerate(entry):
            if not isinstance(text, str):
                raise ConfigError(f"{key}[{k}][{side}]",
                                  f"expected goal text, got {text!r}")


def parse_pairs(obj, key: str, arities, law_kind=None) -> EquationPairList:
    """Goal pairs from JSON, each side a string whose sequence
    `expr.parse_sequence` accepts under the arity table."""
    require_pair_texts(obj, key)
    try:
        pairs = EquationPairList.from_json(obj)
    except (GrammarError, TypeError, ValueError) as e:
        raise ConfigError(key, str(e)) from e
    for k, (left, right) in enumerate(pairs.pairs):
        for side, seq in (("0", left), ("1", right)):
            try:
                parse_sequence(seq, arities)
            except GrammarError as e:
                raise ConfigError(
                    f"{key}[{k}][{side}]", f"{seq_to_text(seq)}: {e}"
                ) from e
    # a grammar walk mutates an existing pair, so it needs at least one
    if law_kind == GRAMMAR_WALK and not pairs.pairs:
        raise ConfigError(key, "grammar_walk needs at least one pair")
    return pairs


def _parse_law(obj, arities) -> LawSpec:
    if not isinstance(obj, dict):
        raise ConfigError("law", f"expected an object, got {obj!r}")
    kind = obj.get("kind")
    if kind not in LAW_KINDS:
        raise ConfigError("law.kind", f"expected one of {LAW_KINDS}, got {kind!r}")
    allowed = {
        IDENTITY_LAW: {"kind", "pairs"},
        SCHEDULE: {"kind", "period", "program"},
        GRAMMAR_WALK: {"kind", "pairs", "law_seed", "mutation_weights"},
    }[kind]
    extra = set(obj) - allowed
    if extra:
        raise ConfigError(
            f"law.{sorted(extra)[0]}", f"key not allowed for kind {kind!r}"
        )
    if kind == SCHEDULE:
        period = require_int(obj, "period", lo=1, default=1, path="law.period")
        program_obj = obj.get("program")
        if not isinstance(program_obj, list) or not program_obj:
            raise ConfigError("law.program", "expected a non-empty list")
        program = tuple(
            parse_pairs(entry, f"law.program[{j}]", arities)
            for j, entry in enumerate(program_obj)
        )
        return LawSpec(kind=SCHEDULE, arities=arities, program=program,
                       period=period)
    if "pairs" not in obj:
        raise ConfigError("law.pairs", "missing required key")
    pairs = parse_pairs(obj["pairs"], "law.pairs", arities, kind)
    if kind == IDENTITY_LAW:
        return LawSpec(kind=IDENTITY_LAW, arities=arities, pairs=pairs)
    seed = require_int(obj, "law_seed", lo=0, hi=_U64, default=0,
                       path="law.law_seed")
    weights = obj.get("mutation_weights", [1.0, 1.0, 1.0, 1.0])
    weights = [finite_float(w) for w in weights] if isinstance(weights, list) else []
    if len(weights) != 4 or not all(w is not None and w >= 0 for w in weights):
        raise ConfigError(
            "law.mutation_weights", "expected 4 finite non-negative numbers"
        )
    if sum(weights) <= 0:
        raise ConfigError("law.mutation_weights", "weights must not all be zero")
    if not math.isfinite(sum(weights)):
        raise ConfigError("law.mutation_weights", "weights must have a finite sum")
    return LawSpec(
        kind=GRAMMAR_WALK,
        arities=arities,
        pairs=pairs,
        law_seed=seed,
        mutation_weights=tuple(weights),
    )


def config_from_json(obj: dict) -> ScenarioConfig:
    """Build and validate a ScenarioConfig from a parsed JSON object."""
    if not isinstance(obj, dict):
        raise ConfigError("<root>", f"expected an object, got {type(obj).__name__}")
    extra = set(obj) - _CONFIG_KEYS
    if extra:
        raise ConfigError(sorted(extra)[0], "unknown key")
    m = require_int(obj, "m", lo=1)
    slots_obj = obj.get("slots")
    if not isinstance(slots_obj, list) or not slots_obj:
        raise ConfigError("slots", "expected a non-empty list of slot specs")
    families, total = [], 0
    for i, spec in enumerate(slots_obj):
        if not isinstance(spec, dict):
            raise ConfigError(f"slots[{i}]", f"expected an object, got {spec!r}")
        require_int(spec, "m", path=f"slots[{i}].m")
        for key in ("hidden", "pad"):
            if key in spec:
                require_int(spec, key, path=f"slots[{i}].{key}")
        try:
            fam = BridgeFamily.from_json(spec)
        except (TypeError, ValueError) as e:
            raise ConfigError(f"slots[{i}]", str(e)) from e
        if fam.m != m:
            raise ConfigError(f"slots[{i}].m", f"must equal m={m}, got {fam.m}")
        total += fam.param_count
        if total > MAX_PARAMS:
            raise ConfigError(f"slots[{i}]", f"brings the parameter count to "
                              f"{total}, more than the bound {MAX_PARAMS}")
        families.append(fam)
    init_seed = require_int(obj, "init_seed", lo=0, hi=_U64)
    eta = _require_float(obj, "eta")
    if not eta > 0:
        raise ConfigError("eta", f"must be > 0, got {eta}")
    mu = _require_float(obj, "mu", default=0.0)
    if not 0.0 <= mu < 1.0:
        raise ConfigError("mu", f"must be in [0, 1), got {mu}")
    drift = _require_float(obj, "drift", default=0.0)
    if not 0.0 <= drift < 1.0:
        raise ConfigError("drift", f"must be in [0, 1), got {drift}")
    probe_mode = obj.get("probe_mode", FIXED_SET)
    if probe_mode not in PROBE_MODES:
        raise ConfigError(
            "probe_mode", f"expected one of {PROBE_MODES}, got {probe_mode!r}"
        )
    probes = []
    if probe_mode == FIXED_SET:
        probes_obj = obj.get("probes")
        if not isinstance(probes_obj, list) or not probes_obj:
            raise ConfigError("probes", "fixed_set needs a non-empty probe list")
        for j, p in enumerate(probes_obj):
            if not isinstance(p, list) or len(p) != m:
                raise ConfigError(f"probes[{j}]", f"expected {m} numbers")
            entries = [finite_float(x) for x in p]
            if None in entries:
                raise ConfigError(f"probes[{j}]",
                                  f"expected finite numbers, got {p!r}")
            probes.append(entries)
    elif "probes" in obj:
        raise ConfigError("probes", "not allowed with probe_mode=resample")
    arities = tuple(f.arity for f in families)
    law = _parse_law(obj.get("law"), arities)
    steps = require_int(obj, "steps", lo=0)
    K = require_int(obj, "K", lo=1, default=1)
    log_every = require_int(obj, "log_every", lo=1, default=1)
    snapshot_every = require_int(obj, "snapshot_every", lo=0, default=0)
    return ScenarioConfig(
        m=m,
        slot_specs=families,
        init_seed=init_seed,
        eta=eta,
        law=law,
        steps=steps,
        mu=mu,
        drift=drift,
        probe_mode=probe_mode,
        probes=np.array(probes, dtype=float).reshape(-1, m),
        K=K,
        log_every=log_every,
        snapshot_every=snapshot_every,
    )


def config_from_json_str(text: str) -> ScenarioConfig:
    try:
        obj = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as e:
        raise ConfigError("<json>", str(e)) from e
    return config_from_json(obj)


# --- initialization --------------------------------------------------------


def init_state(config: ScenarioConfig) -> SlotState:
    """Seeded initial state: slot entries uniform in [-0.5, 0.5], drawn in
    slot order, zero momentum, and the first probe of `advance_probe`."""
    gen = np.random.Generator(np.random.PCG64(config.init_seed))
    bounds = tuple(accumulate([f.param_count for f in config.slot_specs], initial=0))
    params = gen.uniform(-0.5, 0.5, size=bounds[-1])
    words, probe, cursor = config.advance_probe(rng_to_words(gen), -1)
    return SlotState(params, np.zeros(bounds[-1]), bounds, words, probe, cursor)
