"""Scalar reference allocators: per-state loop forms of the allocation rules.

The fluid-priority, budget-relaxed and index rules and the bracketing
event, one count state at a time (and the index rule on fluid mass).
They are the reference that the ``fluidbandit.policies`` kernels and the
1-row public functions are checked against, row for row.
"""

from __future__ import annotations

import math

import numpy as np

from fluidbandit.errors import DimensionMismatch
from fluidbandit.mdp import AllocationPlan, period_budget
from fluidbandit.occupancy import classify
from fluidbandit.policies import score_order


def fluid_priority_allocate(t: int, counts: CountState, measure: OccupationMeasure,
                            scores: Any, N: int, alpha_t: float,
                            partition: CategoryPartition | None = None) -> AllocationPlan:
    """Priority allocation with neutral-state quotas from the measure.

    Pass order: active states (descending score) up to their counts; then
    neutral states up to floor(N * x_t(s,1)); then leftover neutral arms;
    then inactive states.  Exactly floor(alpha_t * N) arms are pulled.
    """
    Z = counts.Z
    S = Z.size
    if counts.N != N or int(Z.sum()) != N:
        raise DimensionMismatch(f"counts sum {Z.sum()} vs N={N}")
    if measure.x.shape[1] != S:
        raise DimensionMismatch("measure and counts disagree on the state count")
    part = partition if partition is not None else classify(measure)
    codes = part.codes[t - 1]
    order = score_order(scores, t, S)
    B = period_budget(alpha_t, N)

    X1 = np.zeros(S, dtype=np.int64)
    undecided = np.zeros(S, dtype=np.int64)
    for s in order:
        if codes[s] == 1:
            take = min(B, int(Z[s]))
            X1[s] += take
            B -= take
    for s in order:
        if codes[s] == 0:
            quota = int(math.floor(N * measure.x[t - 1, s, 1]))
            take = min(B, int(Z[s]), quota)
            X1[s] += take
            B -= take
            undecided[s] = int(Z[s]) - take
    for s in order:
        if codes[s] == 0:
            take = min(B, int(undecided[s]))
            X1[s] += take
            B -= take
    for s in order:
        if codes[s] == -1:
            take = min(B, int(Z[s]))
            X1[s] += take
            B -= take
    X = np.stack([Z - X1, X1], axis=1)
    return AllocationPlan(t=t, X=X, relaxed=False)


def budget_relaxed_allocate(t: int, counts: CountState, measure: OccupationMeasure,
                            scores: Any, N: int, alpha_t: float,
                            partition: CategoryPartition | None = None) -> AllocationPlan:
    """Relaxed variant: all active arms are pulled even past the budget.

    If the budget is spent (or overspent) by the active pass, no neutral
    arm is pulled; otherwise the two neutral passes run as in the strict
    policy.  Inactive arms are never pulled.  The plan is flagged relaxed.
    """
    Z = counts.Z
    S = Z.size
    if counts.N != N or int(Z.sum()) != N:
        raise DimensionMismatch(f"counts sum {Z.sum()} vs N={N}")
    part = partition if partition is not None else classify(measure)
    codes = part.codes[t - 1]
    order = score_order(scores, t, S)
    B = period_budget(alpha_t, N)

    X1 = np.zeros(S, dtype=np.int64)
    for s in order:
        if codes[s] == 1:
            X1[s] += int(Z[s])
            B -= int(Z[s])
    if B > 0:
        undecided = np.zeros(S, dtype=np.int64)
        for s in order:
            if codes[s] == 0:
                quota = int(math.floor(N * measure.x[t - 1, s, 1]))
                take = min(B, int(Z[s]), quota)
                X1[s] += take
                B -= take
                undecided[s] = int(Z[s]) - take
        for s in order:
            if codes[s] == 0:
                take = min(B, int(undecided[s]))
                X1[s] += take
                B -= take
    X = np.stack([Z - X1, X1], axis=1)
    return AllocationPlan(t=t, X=X, relaxed=True)


def violation_event(t: int, counts: CountState, partition: CategoryPartition,
                    alpha_t: float, N: int | None = None) -> bool:
    """True iff the real-budget bracketing event fails at (t, Z).

    The good event asks the active mass to sit at or below alpha_t*N and
    the active-plus-neutral mass to reach it; its failure is what makes
    the strict and relaxed allocations diverge.
    """
    if N is None:
        N = counts.N
    codes = partition.codes[t - 1]
    lo = int(counts.Z[codes == 1].sum())
    hi = lo + int(counts.Z[codes == 0].sum())
    target = alpha_t * N
    return not (lo <= target <= hi)


def index_allocate(t: int, counts: CountState, scores: Any, B: int) -> AllocationPlan:
    """Greedy: pull arms in descending state score until B is spent."""
    Z = counts.Z
    S = Z.size
    order = score_order(scores, t, S)
    X1 = np.zeros(S, dtype=np.int64)
    rem = int(B)
    for s in order:
        if rem <= 0:
            break
        take = min(rem, int(Z[s]))
        X1[s] = take
        rem -= take
    X = np.stack([Z - X1, X1], axis=1)
    return AllocationPlan(t=t, X=X, relaxed=bool(rem > 0))


def fluid_greedy_pulls(z: np.ndarray, order: np.ndarray, alpha: float) -> np.ndarray:
    """Index rule on fluid mass z (S,): the greedy step of ``occupancy.fluid_propagate``."""
    remaining = float(alpha)
    pull = np.zeros(z.size)
    for s in order:
        if remaining <= 0.0:
            break
        u = min(z[s], remaining)
        pull[s] = u
        remaining -= u
    return pull
