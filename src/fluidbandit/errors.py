"""Exception hierarchy for the package.

Every error class carries a distinct CLI exit code so batch jobs can tell
failure modes apart without parsing messages.  ``EXIT_CODES`` is the single
source of truth; the CLI maps an exception to its class entry (or to 1 for
anything unforeseen).
"""

from __future__ import annotations


class FluidBanditError(Exception):
    """Base class for all package errors."""


class ConfigError(FluidBanditError):
    """Bad CLI arguments or config file contents."""


class ShapeError(FluidBanditError):
    """An array has the wrong shape."""


class DimensionMismatch(FluidBanditError):
    """Two model pieces disagree about a shared dimension."""


class RowSumError(FluidBanditError):
    """A transition row does not sum to one within tolerance."""


class RangeError(FluidBanditError):
    """A numeric field is outside its allowed range."""


class SolverFailure(FluidBanditError):
    """The LP solver did not reach a verified optimum."""


class PinInfeasible(FluidBanditError):
    """A pinned re-solve has an empty feasible region."""


class MissingDuals(FluidBanditError):
    """An operation needs budget-row duals the measure does not carry."""


class QOutOfRange(FluidBanditError):
    """A randomized-activation probability left [0, 1] beyond tolerance."""


class MissingMetadata(FluidBanditError):
    """A policy needs per-state belief annotations the model does not ship."""


class BudgetExceeded(FluidBanditError):
    """The exact oracle's work estimate exceeds its enumeration guard."""


class NondeterministicPolicy(FluidBanditError):
    """The exact policy evaluator was handed a randomized policy."""


class DegeneratePosterior(FluidBanditError):
    """A posterior annotation gives no mass where Thompson sampling placed arms."""


EXIT_CODES: dict[type[BaseException], int] = {
    ConfigError: 2,
    RowSumError: 3,
    RangeError: 4,
    ShapeError: 5,
    DimensionMismatch: 6,
    SolverFailure: 7,
    PinInfeasible: 8,
    MissingDuals: 9,
    QOutOfRange: 10,
    MissingMetadata: 11,
    BudgetExceeded: 12,
    NondeterministicPolicy: 13,
    DegeneratePosterior: 14,
}
