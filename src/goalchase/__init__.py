"""goalchase: two-timescale goal-rewrite control.

A fast gradient controller adjusts parameter slots so that compiled
function compositions satisfy algebraic goal equations, while a slow,
self-contained law rewrites the goal equations themselves.  Analyses
cover exact reduction to a one-level controller when the goals are
frozen, divergence witnesses for runs that no fixed-goal controller can
reproduce, and invariances that realize one function by many parameter
vectors.  Every other name is importable from its own module.
"""

from .analysis import (
    divergence_witness,
    pad_witness,
    permutation_witness,
    reduction_check,
)
from .bridge import BridgeFamily
from .core import (
    ConfigError,
    DivergenceError,
    config_from_json,
    config_from_json_str,
)
from .goallaw import LawState
from .simulator import run

__version__ = "0.1.0"
