"""Category partitions, degeneracy detection, and fluid propagation.

A solved measure splits each period's states into three categories by
their fluid action mix: active (pulled with all their mass), neutral
(pulled with part of it), inactive (never pulled).  An instance is
non-degenerate when every period keeps at least one neutral state; that
is the regime where the fluid-priority policy's gap stays O(1) in N.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch, SolverFailure
from .lp import OccupationMeasure, resolve_with_pins, solve_relaxation
from .mdp import ArmModel

# Strict-positivity tolerance, shared with the LP layer's clamping.
CLASSIFY_TOL = 1e-9
# A pinned minimum within this of the incumbent activity mass certifies
# the period as permanently degenerate (no further progress possible).
CERT_TOL = 1e-6
# Safety cap on collected solutions; keeps each one's weight in the
# uniform combination well above CLASSIFY_TOL.
MAX_SOLUTIONS = 50


@dataclass
class CategoryPartition:
    """Per-period split of states by fluid action mix.

    :codes: array (T, S) of {+1 active, 0 neutral, -1 inactive}.
    """

    codes: np.ndarray

    @property
    def T(self) -> int:
        return self.codes.shape[0]

    def active(self, t: int) -> frozenset[int]:
        return frozenset(np.flatnonzero(self.codes[t - 1] == 1).tolist())

    def neutral(self, t: int) -> frozenset[int]:
        return frozenset(np.flatnonzero(self.codes[t - 1] == 0).tolist())

    def inactive(self, t: int) -> frozenset[int]:
        return frozenset(np.flatnonzero(self.codes[t - 1] == -1).tolist())

    def neutral_counts(self) -> np.ndarray:
        return (self.codes == 0).sum(axis=1)


@dataclass
class DegeneracyReport:
    """Verdict of a degeneracy check or search.

    :nondegenerate: every period has at least one neutral state.
    :neutral_counts: |C0_t| per period, for the measure behind the verdict.
    :witness: a non-degenerate optimal measure when one was constructed.
    :certificate: periods proven to lack a neutral state under every
        optimal measure (empty unless the search certified them).
    :stages: LP solves performed by the search (0 for plain checks).
    """

    nondegenerate: bool
    neutral_counts: np.ndarray
    witness: OccupationMeasure | None = None
    certificate: list[int] = field(default_factory=list)
    stages: int = 0


def classify(measure: OccupationMeasure, tol: float = CLASSIFY_TOL) -> CategoryPartition:
    """Split states per period: pulled fully, partially, or not at all.

    States with pull mass <= tol are inactive regardless of idle mass, so
    the three categories partition S.
    """
    pull = measure.x[:, :, 1]
    idle = measure.x[:, :, 0]
    codes = np.full(pull.shape, -1, dtype=np.int8)
    pulled = pull > tol
    codes[pulled & (idle > tol)] = 0
    codes[pulled & (idle <= tol)] = 1
    return CategoryPartition(codes=codes)


def is_nondegenerate(partition: CategoryPartition) -> DegeneracyReport:
    """Check Definition-style non-degeneracy of one partition (no search)."""
    counts = partition.neutral_counts()
    bad = [int(t + 1) for t in np.flatnonzero(counts == 0)]
    return DegeneracyReport(
        nondegenerate=len(bad) == 0,
        neutral_counts=counts,
        witness=None,
        certificate=bad,
        stages=0,
    )


def _combine(solutions: list[OccupationMeasure]) -> OccupationMeasure:
    """Uniform convex combination; optimal by linearity, duals from the first."""
    x = np.mean([m.x for m in solutions], axis=0)
    value = float(np.mean([m.value for m in solutions]))
    return OccupationMeasure(x=x, z=x.sum(axis=2), value=value,
                             duals=solutions[0].duals)


def search_nondegenerate(model: ArmModel) -> DegeneracyReport:
    """Search for a non-degenerate optimal measure, or certify none exists.

    Stage k keeps the uniform combination of all collected optimal
    solutions as the canonical candidate witness.  The pending set is the
    periods where that combination still has no neutral state; for the
    earliest such period the pinned re-solve pushes pull mass off the
    combination's active set.  No reduction possible (within CERT_TOL)
    proves every optimal measure degenerate at that period, because the
    combination's active set carries all pull mass there and the pin
    minimized it over the whole optimal face.

    The combination's active set at a pending period grows strictly with
    every accepted solution, so stages are bounded by T + T*|S| even when
    a single pin fails to create neutrality on its own.
    """
    base = solve_relaxation(model)
    solutions = [base]
    combo = base
    certified: set[int] = set()
    stages = 1

    while True:
        part = classify(combo)
        counts = part.neutral_counts()
        pending = [int(t + 1) for t in np.flatnonzero(counts == 0)
                   if int(t + 1) not in certified]
        if not pending:
            break
        if len(solutions) >= MAX_SOLUTIONS:
            raise SolverFailure("degeneracy search did not settle within the solution cap")
        t_k = pending[0]
        c_plus = sorted(part.active(t_k))
        prev_activity = float(combo.x[t_k - 1, c_plus, 1].sum())
        functional = np.zeros((model.T, model.S, 2))
        functional[t_k - 1, c_plus, 1] = 1.0
        pinned = resolve_with_pins(model, functional, base.value)
        stages += 1
        fval = float(pinned.x[t_k - 1, c_plus, 1].sum())
        if fval >= prev_activity - CERT_TOL:
            certified.add(t_k)
            continue
        solutions.append(pinned)
        combo = _combine(solutions)

    final_part = classify(combo)
    counts = final_part.neutral_counts()
    nondeg = bool((counts >= 1).all())
    return DegeneracyReport(
        nondegenerate=nondeg,
        neutral_counts=counts,
        witness=combo if nondeg else None,
        certificate=sorted(certified),
        stages=stages,
    )


def fluid_propagate(model: ArmModel, scores) -> tuple[np.ndarray, float]:
    """Deterministic fluid limit of the greedy index policy.

    Pull mass is allocated in descending score (ties by ascending state
    index) until the period budget fraction is exhausted; the flow then
    advances through the kernel.  Returns (x_pi, value).  The output is
    always feasible for the relaxation, so value <= V-hat*_1.
    """
    from .policies import index_pulls  # policies imports this module

    P = np.asarray(getattr(scores, "P", scores), dtype=np.float64)
    if P.shape != (model.T, model.S):
        raise DimensionMismatch(f"scores shape {P.shape}, expected ({model.T}, {model.S})")
    x = np.zeros((model.T, model.S, 2))
    z = np.zeros(model.S)
    z[model.s0] = 1.0
    value = 0.0
    for t in range(model.T):
        order = np.lexsort((np.arange(model.S), -P[t]))
        pull = index_pulls(z[None, :], order, float(model.alpha[t]))[0]
        x[t, :, 1] = pull
        x[t, :, 0] = z - pull
        value += float((model.R[t] * x[t]).sum())
        if t + 1 < model.T:
            z = np.einsum("sa,sap->p", x[t], model.P[t])
    return x, value


def fluid_consistency_gap(x_policy: np.ndarray, x_opt: np.ndarray) -> float:
    """L1 distance between two occupation arrays of identical shape."""
    a = np.asarray(x_policy, dtype=np.float64)
    b = np.asarray(x_opt, dtype=np.float64)
    if a.shape != b.shape:
        raise DimensionMismatch(f"shapes {a.shape} vs {b.shape}")
    return float(np.abs(a - b).sum())
