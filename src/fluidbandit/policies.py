"""Allocation rules mapping (t, Z) to integer action counts X.

Each rule exists once, as a batch kernel over a count matrix Z (R, S)
that returns pulls X1 (R, S): ``fluid_pulls`` (strict and relaxed),
``index_pulls`` (index and UCB), ``rac_pulls`` and ``ts_pulls``, plus
``violation_rows`` for the bracketing event.  The simulator's
``CompiledPolicy`` dispatches to them; the deterministic public functions
(``fluid_priority_allocate`` and friends) validate one count state and
make a 1-row call.  Per-state loop forms of the deterministic rules, in
``tests/reference_policies.py``, are the reference the kernels are
checked against, row for row.  States are visited in
``priority.score_order`` (descending score, ties by ascending index), and
the period budget is ``mdp.period_budget``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

from .errors import DimensionMismatch, MissingMetadata, QOutOfRange
from .lp import OccupationMeasure
from .mdp import AllocationPlan, BeliefStateAnnotation, CountState, period_budget
from .occupancy import CategoryPartition, classify
from .priority import score_order


@dataclass
class PolicySpec:
    """Declarative policy choice, compiled by the simulator.

    :kind: one of "fluid", "relaxed", "index", "rac", "ucb", "ts".
    :measure: required by fluid/relaxed/rac.
    :scores: optional explicit scores for fluid/relaxed/index.
    :delta: UCB bonus multiplier.
    """

    kind: str
    measure: OccupationMeasure | None = None
    scores: Any = None
    delta: float | None = None

    @property
    def label(self) -> str:
        if self.kind == "ucb":
            return f"ucb:{self.delta:g}"
        return self.kind


def _prefix_clip(X1: np.ndarray, slots, caps, budget) -> None:
    """Greedy fill under a shared budget (scalar or per-row): for each k in
    turn, add to column slots[k] of X1 as much of caps[k] (R,) as is left."""
    rem = np.maximum(budget, 0)
    for s, cap in zip(slots, caps):
        if not rem.any():
            break  # caps are >= 0, so every take left would be 0
        take = np.minimum(cap, rem)
        X1[:, s] += take
        rem = rem - take


def fluid_pulls(Z: np.ndarray, codes: np.ndarray, order: np.ndarray, quota: np.ndarray,
                B: int, relaxed: bool = False) -> np.ndarray:
    """Fluid-priority pulls (R, S) for count rows Z (R, S) at budget B.

    Strict pass order: active states (in score order) up to their counts;
    then neutral states up to their quota floor(N * x_t(s,1)); then
    leftover neutral arms; then inactive states, until B is spent.  The
    relaxed rule pulls every active arm even past B, spends what is left
    of B on the two neutral passes and never pulls an inactive arm.
    """
    active, neutral, inactive = (order[codes[order] == c] for c in (1, 0, -1))
    zn = Z.T[neutral]
    first = np.minimum(zn, quota[neutral, None])
    slots, caps = [*neutral, *neutral], [*first, *(zn - first)]
    X1 = np.zeros(Z.shape, dtype=np.int64)
    if relaxed:
        X1[:, active] = Z[:, active]
        budget = np.maximum(B - X1.sum(axis=1), 0)
    else:
        slots = [*active, *slots, *inactive]
        caps = [*Z.T[active], *caps, *Z.T[inactive]]
        budget = B
    _prefix_clip(X1, slots, caps, budget)
    return X1


def index_pulls(Z: np.ndarray, order: np.ndarray, B) -> np.ndarray:
    """Greedy pulls (R, S): states in score order until B is spent.

    Z may also hold fluid mass (floats) with a fractional budget B, which
    is how ``occupancy.fluid_propagate`` takes the fluid limit of the rule.
    """
    X1 = np.zeros_like(Z)
    _prefix_clip(X1, order, Z.T[order], B)
    return X1


def violation_rows(Z: np.ndarray, codes: np.ndarray, target: float) -> np.ndarray:
    """Per-row failure (R,) of the bracketing event at budget mass target.

    The good event asks the active mass to sit at or below alpha_t*N and
    the active-plus-neutral mass to reach it; its failure is what makes
    the strict and relaxed allocations diverge.
    """
    lo = Z[:, codes == 1].sum(axis=1)
    hi = lo + Z[:, codes == 0].sum(axis=1)
    return (lo > target) | (target > hi)


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


def _fluid_plan(t: int, counts: CountState, measure: OccupationMeasure, scores: Any,
                N: int, alpha_t: float, partition: CategoryPartition | None,
                relaxed: bool) -> AllocationPlan:
    Z = counts.Z
    S = Z.size
    if counts.N != N or int(Z.sum()) != N:
        raise DimensionMismatch(f"counts sum {Z.sum()} vs N={N}")
    if measure.x.shape[1] != S:
        raise DimensionMismatch("measure and counts disagree on the state count")
    part = partition if partition is not None else classify(measure)
    order = score_order(scores, t, S)
    B = period_budget(alpha_t, N)
    quota = np.floor(N * measure.x[t - 1, :, 1]).astype(np.int64)
    X1 = fluid_pulls(Z[None, :], part.codes[t - 1], order, quota, B, relaxed)[0]
    return AllocationPlan(t=t, X=np.stack([Z - X1, X1], axis=1), relaxed=relaxed)


def fluid_priority_allocate(t: int, counts: CountState, measure: OccupationMeasure,
                            scores: Any, N: int, alpha_t: float,
                            partition: CategoryPartition | None = None) -> AllocationPlan:
    """Priority allocation with neutral-state quotas from the measure.

    A 1-row call of :func:`fluid_pulls`.  Exactly floor(alpha_t * N) arms
    are pulled.
    """
    return _fluid_plan(t, counts, measure, scores, N, alpha_t, partition, relaxed=False)


def budget_relaxed_allocate(t: int, counts: CountState, measure: OccupationMeasure,
                            scores: Any, N: int, alpha_t: float,
                            partition: CategoryPartition | None = None) -> AllocationPlan:
    """Relaxed variant: all active arms are pulled even past the budget.

    A 1-row call of :func:`fluid_pulls` with ``relaxed=True``.  If the
    active pass spends (or overspends) the budget, no neutral arm is
    pulled; inactive arms never are.  The plan is flagged relaxed.
    """
    return _fluid_plan(t, counts, measure, scores, N, alpha_t, partition, relaxed=True)


def violation_event(t: int, counts: CountState, partition: CategoryPartition,
                    alpha_t: float, N: int | None = None) -> bool:
    """True iff the real-budget bracketing event fails at (t, Z).

    A 1-row call of :func:`violation_rows` at target alpha_t * N.
    """
    if N is None:
        N = counts.N
    return bool(violation_rows(counts.Z[None, :], partition.codes[t - 1], alpha_t * N)[0])


def index_allocate(t: int, counts: CountState, scores: Any, B: int) -> AllocationPlan:
    """Greedy: pull arms in descending state score until B is spent.

    A 1-row call of :func:`index_pulls`; the plan is flagged relaxed when
    the arms run out before the budget does.
    """
    Z = counts.Z
    X1 = index_pulls(Z[None, :], score_order(scores, t, Z.size), int(B))[0]
    return AllocationPlan(t=t, X=np.stack([Z - X1, X1], axis=1), relaxed=bool(X1.sum() < B))


def activation_probabilities(measure: OccupationMeasure, t: int,
                             tol: float = 1e-9) -> np.ndarray:
    """q_t(s) = x_t(s,1) / z_t(s), zero where the fluid mass vanishes."""
    z = measure.z[t - 1]
    x1 = measure.x[t - 1, :, 1]
    q = np.zeros_like(z)
    occ = z > tol
    q[occ] = x1[occ] / z[occ]
    if (q < -tol).any() or (q > 1.0 + 1e-9).any():
        raise QOutOfRange(f"activation probabilities outside [0,1]: min {q.min()}, max {q.max()}")
    return np.clip(q, 0.0, 1.0)


def _require_annotations(annotations) -> list[BeliefStateAnnotation]:
    if not annotations:
        raise MissingMetadata("model ships no per-state posterior annotations")
    return annotations


def ucb_scores(annotations, delta: float) -> np.ndarray:
    ann = _require_annotations(annotations)
    return np.array([a.posterior_mean + delta * a.posterior_sd for a in ann])


def ucb_allocate(t: int, counts: CountState, annotations, delta: float,
                 B: int) -> AllocationPlan:
    """Index allocation by posterior mean plus delta posterior sd."""
    return index_allocate(t, counts, ucb_scores(annotations, delta), B)


def parse_policy(text: str) -> PolicySpec:
    """CLI form: fluid | relaxed | index | rac | ucb:<delta> | ts."""
    from .errors import ConfigError

    t = text.strip().lower()
    if t in ("fluid", "relaxed", "index", "rac", "ts"):
        return PolicySpec(kind=t)
    if t.startswith("ucb"):
        parts = t.split(":")
        if len(parts) == 2:
            try:
                return PolicySpec(kind="ucb", delta=float(parts[1]))
            except ValueError:
                pass
        raise ConfigError(f"bad UCB policy spec {text!r}; use ucb:<delta>")
    raise ConfigError(f"unknown policy {text!r}")
