"""Reference allocators: per-state loop forms of the deterministic rules and
per-arm forms of the randomized ones.

The fluid-priority, budget-relaxed and index rules and the bracketing
event, one count state at a time (and the index rule on fluid mass).
They are the reference that the ``fluidbandit.policies`` kernels and the
1-row public functions are checked against, row for row.  ``rac_pulls``
and ``ts_pulls`` draw a coin or a posterior sample for every arm; the
count-level samplers in ``fluidbandit.policies`` are checked against
their per-state pull laws.
"""

from __future__ import annotations

import math

import numpy as np

from fluidbandit.errors import DimensionMismatch
from fluidbandit.mdp import AllocationPlan, period_budget
from fluidbandit.occupancy import classify
from fluidbandit.policies import _prefix_clip, score_order


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


def rac_pulls(Z: np.ndarray, q: np.ndarray, B: int, rng: np.random.Generator) -> np.ndarray:
    """Randomized activation pulls (R, S): visit arms in uniform order, flip
    q(s) coins.

    Pulls stop the moment the budget is exhausted, so a row may spend less
    than B but never more.  Every arm's coin is drawn independently of the
    visiting order, which reproduces the sequential law exactly (unvisited
    arms simply discard their coins).
    """
    R, S = Z.shape
    N = int(Z[0].sum())
    arm_state = np.repeat(np.tile(np.arange(S), R), Z.reshape(-1)).reshape(R, N)
    coins = rng.random((R, N)) < q[arm_state]
    keys = rng.random((R, N))
    visit = np.argsort(keys, axis=1)
    succ = np.take_along_axis(coins, visit, axis=1)
    st = np.take_along_axis(arm_state, visit, axis=1)
    chosen = succ & (np.cumsum(succ, axis=1) <= B)
    flat = st[chosen] + S * np.broadcast_to(np.arange(R)[:, None], (R, N))[chosen]
    return np.bincount(flat, minlength=R * S).reshape(R, S).astype(np.int64)


def ts_pulls(Z: np.ndarray, annotations, B: int, rng: np.random.Generator) -> np.ndarray:
    """Thompson-sampling pulls (R, S): per-arm posterior draws, top B per row.

    Draws happen state by state in ascending index (one sampler call per
    occupied state, covering every row).  Equal draws are resolved in
    ascending state order, which is distribution-neutral by
    exchangeability of tied arms.
    """
    R, S = Z.shape
    N = int(Z[0].sum())
    if B <= 0:
        return np.zeros((R, S), dtype=np.int64)
    if B >= N:
        return Z.copy()
    occupied = np.flatnonzero(Z.any(axis=0))
    if occupied.size == 1:
        # single occupied state: top-B is any B of its arms
        X1 = np.zeros((R, S), dtype=np.int64)
        X1[:, occupied[0]] = np.minimum(Z[:, occupied[0]], B)
        return X1
    # rep-major (R, N) sample matrix, filled state block by state block
    samples = np.empty((R, N), dtype=np.float64)
    col_start = np.concatenate([np.zeros((R, 1), dtype=np.int64),
                                np.cumsum(Z, axis=1)[:, :-1]], axis=1)
    row_base = np.arange(R, dtype=np.int64) * N
    per_state = {}
    for s in occupied:
        zs = Z[:, s]
        M = int(zs.sum())
        draws = np.asarray(annotations[s].sampler(rng, M), dtype=np.float64)
        starts = np.concatenate([[0], np.cumsum(zs)[:-1]])
        offs = np.arange(M) - np.repeat(starts, zs)
        flat = np.repeat(row_base + col_start[:, s], zs) + offs
        samples.reshape(-1)[flat] = draws
        per_state[s] = (draws, starts, zs)
    thr = np.partition(samples, N - B, axis=1)[:, N - B]
    gt = np.zeros((R, S), dtype=np.int64)
    eq = np.zeros((R, S), dtype=np.int64)
    for s, (draws, starts, zs) in per_state.items():
        ends = starts + zs
        thr_rep = np.repeat(thr, zs)
        cg = np.concatenate([[0], np.cumsum(draws > thr_rep)])
        ce = np.concatenate([[0], np.cumsum(draws == thr_rep)])
        gt[:, s] = cg[ends] - cg[starts]
        eq[:, s] = ce[ends] - ce[starts]
    _prefix_clip(gt, range(S), eq.T, B - gt.sum(axis=1))
    return gt
