"""Multi-agent epistemic planning with perspective-based belief semantics."""

from .core import (
    And,
    Atom,
    Believes,
    EngineError,
    Formula,
    GroupBelieves,
    GroupKnows,
    GroupMode,
    GroupSees,
    GroupSeesVar,
    Knows,
    Not,
    Sees,
    SeesVar,
    Signature,
    State,
    StateSequence,
    Ternary,
    ValidationError,
    Var,
    interpret_atom,
    make_group,
    validate_formula,
)
from .perspectives import (
    AxiomViolation,
    FixedPointStats,
    ObservationModel,
    check_observation_axioms,
    common_observation,
    common_perspectives,
    distributed_perspective,
    justified_perspective,
    make_model,
    register_model,
    uniform_perspectives,
)
from .semantics import EvalStats, Evaluator
from .oracle import CompletionSpace, InstanceTooLarge, complete_eval
from .planner import (
    Action,
    Effect,
    PlanResult,
    SearchNode,
    apply_action,
    breadth_first_plan,
)
from .parser import (
    DomainFile,
    ParseError,
    ProblemFile,
    format_formula,
    parse_domain,
    parse_formula,
    parse_problem,
    parse_trace,
)
from . import domains  # noqa: F401  (registers the built-in models)

__version__ = "0.1.0"
