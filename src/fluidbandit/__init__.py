"""Fluid-priority policies for budgeted finite-horizon bandits.

Public surface: model containers and validation, the occupation-measure
LP relaxation with duals, category classification and degeneracy search,
Lagrangian priority scores, count-state allocation policies, count-based
and per-arm Monte Carlo simulators, a small-N exact oracle, and problem
generators.
"""

from .errors import (
    EXIT_CODES, BudgetExceeded, ConfigError, DegeneratePosterior, DimensionMismatch,
    FluidBanditError, MissingDuals, MissingMetadata, NondeterministicPolicy,
    PinInfeasible, QOutOfRange, RangeError, RowSumError, ShapeError,
    SolverFailure,
)
from .mdp import (
    AllocationPlan, ArmModel, BeliefStateAnnotation, CountState,
    model_from_dict, model_from_json, model_to_dict, model_to_json,
    period_budget, reachable_states, successors, validate_model,
)
from .lp import (
    LpInstance, OccupationMeasure, build_lp,
    resolve_with_pins, solve_relaxation, upper_bound,
)
from .occupancy import (
    CategoryPartition, DegeneracyReport, classify, fluid_consistency_gap,
    fluid_propagate, is_nondegenerate, search_nondegenerate,
)
from .priority import PriorityScheme, dual_value, lambda_from_duals, q_recursion
from .policies import (
    PolicySpec, activation_probabilities, budget_relaxed_allocate,
    fluid_priority_allocate, index_allocate, parse_policy, score_order,
    ucb_allocate, ucb_scores, violation_event,
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
