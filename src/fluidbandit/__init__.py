"""Fluid-priority policies for budgeted finite-horizon bandits.

Public surface: model containers and validation, the occupation-measure
LP relaxation with duals, category classification and degeneracy search,
Lagrangian priority scores, policy specs that ``CompiledPolicy`` compiles
onto the batch allocation kernels of ``policies`` (plus
``fluid_priority_allocate`` for one count vector), count-based and per-arm Monte Carlo
simulators, a small-N exact oracle, and problem generators.
"""

from .errors import (
    EXIT_CODES, BudgetExceeded, ConfigError, DegeneratePosterior, DimensionMismatch,
    FluidBanditError, MissingDuals, MissingMetadata, NondeterministicPolicy,
    PinInfeasible, QOutOfRange, RangeError, RowSumError, ShapeError,
    SolverFailure,
)
from .mdp import (
    ArmModel, BeliefStateAnnotation, model_from_dict, model_from_json,
    model_to_dict, model_to_json, period_budget, reachable_states,
    successors, validate_model,
)
from .lp import (
    LpInstance, OccupationMeasure, build_lp, resolve_with_pins, solve_relaxation,
)
from .occupancy import (
    DegeneracyReport, classify, is_nondegenerate, search_nondegenerate,
)
from .priority import PriorityScheme, dual_value, fluid_propagate, q_recursion
from .policies import (
    PolicySpec, activation_probabilities, fluid_priority_allocate, parse_policy,
    score_order, ucb_scores,
)
from .simulator import (
    CompiledPolicy, SimulationReport, SweepRow, default_reps, gap_sweep,
    simulate, simulate_per_arm, violation_rate_sweep,
)
from .oracle import (
    bounded_compositions, compositions, exact_policy_value, optimal_value,
)
from .zoo import assortment, bernoulli_bandit, crowdsourcing, fixtures

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
