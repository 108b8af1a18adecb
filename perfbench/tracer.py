"""Span tracing from outside the program.

`Tracer` replaces each target function at every name a goalchase module
binds it under (so `simulator.control_step` is traced, not only
`feedback.control_step`), records one span per call, and puts every
binding back on exit.  Spans are reduced as they close into per-name
call counts, self time (duration minus the time covered by child spans)
and outermost inclusive time, so a long traced run keeps its memory
flat; raw durations are kept only for `SAMPLED`.
A target the program no longer defines is recorded in `missing`.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

# (defining module, function, whether spans are split by the family's kind)
TARGETS = (
    ("bridge", "eval_bridge", True),
    ("bridge", "grad_bridge", True),
    ("expr", "eval_expr", False),
    ("expr", "_vjp", False),
    ("expr", "parse_sequence", False),
    ("feedback", "loss", False),
    ("feedback", "loss_gradients", False),
    ("feedback", "control_step", False),
    ("feedback", "compile_pairs", False),
    ("simulator", "run", False),
    ("simulator", "new_sim", False),
    ("simulator", "step", False),
    ("simulator", "make_record", False),
    ("simulator", "record_to_json_line", False),
    ("goallaw", "step_law", False),
    ("goallaw", "initial_law_state", False),
    ("prng", "new_words", False),
    ("prng", "rng_from_words", False),
    ("prng", "rng_to_words", False),
    ("core", "init_state", False),
)

PACKAGE = "goalchase"

# the one span whose raw durations are kept, for percentiles
SAMPLED = "simulator.step"


class Stat:
    __slots__ = ("calls", "self_s", "incl_s")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.incl_s = 0.0


class Tracer:
    """Context manager that traces `TARGETS` for as long as it is entered."""

    def __init__(self):
        self.stats: dict[str, Stat] = {}
        self.samples: list[float] = []  # durations of the SAMPLED spans
        self.missing: set[str] = set()
        self._patched: list[tuple] = []
        # child-time accumulators of the open spans; [0] collects the roots
        self._stack = [0.0]
        self._depth: dict[str, int] = {}

    def __enter__(self):
        originals = []
        for mod_name, fn_name, by_kind in TARGETS:
            name = f"{mod_name}.{fn_name}"
            try:
                mod = importlib.import_module(f"{PACKAGE}.{mod_name}")
            except ModuleNotFoundError:
                mod = None
            fn = getattr(mod, fn_name, None)
            if callable(fn):
                originals.append((name, fn, by_kind))
            else:
                self.missing.add(name)
        modules = [
            m for name, m in list(sys.modules.items())
            if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
        ]
        try:
            for name, fn, by_kind in originals:
                wrapper = self._wrap(name, fn, by_kind)
                for m in modules:
                    for attr, val in list(vars(m).items()):
                        if val is fn:
                            self._patched.append((m, attr, fn))
                            setattr(m, attr, wrapper)
        except BaseException:
            self.restore()
            raise
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    def restore(self):
        while self._patched:
            m, attr, original = self._patched.pop()
            setattr(m, attr, original)

    @property
    def root_s(self) -> float:
        """Summed duration of the outermost spans."""
        return self._stack[0]

    def _wrap(self, name, fn, by_kind):
        stats, samples = self.stats, self.samples
        stack, depth = self._stack, self._depth
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = name if not by_kind else f"{name}.{args[0].kind}"
            d = depth.get(span, 0)
            depth[span] = d + 1
            stack.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                child = stack.pop()
                depth[span] = d
                st = stats.get(span)
                if st is None:
                    st = stats[span] = Stat()
                st.calls += 1
                st.self_s += dur - child
                if d == 0:
                    st.incl_s += dur
                stack[-1] += dur
                if span == SAMPLED:
                    samples.append(dur)

        return wrapper
