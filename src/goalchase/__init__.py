"""goalchase: two-timescale goal-rewrite control.

A fast gradient controller adjusts parameter slots so that compiled
function compositions satisfy algebraic goal equations, while a slow,
self-contained law rewrites the goal equations themselves.  Analyses
cover exact reduction to a one-level controller when the goals are
frozen, divergence witnesses for runs that no fixed-goal controller can
reproduce, and invariances that realize one function by many parameter
vectors.
"""

from .bridge import AFFINE1, AFFINE2, MLP1H, BridgeFamily, ShapeError, eval_bridge, grad_bridge
from .core import (
    ConfigError,
    DivergenceError,
    ScenarioConfig,
    SlotState,
    TrajectoryRecord,
    config_from_json,
    config_from_json_str,
    init_state,
)
from .expr import (
    ArgTuple,
    ArityError,
    Apply,
    Compose,
    EquationPairList,
    GrammarError,
    IDENTITY,
    Identity,
    Index,
    IndexSequence,
    node_count,
    parse_sequence,
    seq_from_text,
    seq_to_text,
)
from .feedback import compile_pairs, control_step, feedback_error, loss, loss_gradients
from .goallaw import (
    GRAMMAR_WALK,
    IDENTITY_LAW,
    SCHEDULE,
    LawSpec,
    LawState,
    LawStallWarning,
    initial_law_state,
    step_law,
)
from .simulator import SimState, make_record, new_sim, run, step, write_summary_csv
from .analysis import (
    divergence_witness,
    grad_check,
    is_reducible,
    pad_witness,
    permutation_witness,
    reduction_check,
)

__version__ = "0.1.0"
