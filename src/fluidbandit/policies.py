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

The randomized rules draw no coin or sample for every arm:
``rac_pulls`` samples the per-state law of randomized activation
(binomial coins, then a multivariate hypergeometric cut to the budget)
and ``ts_pulls`` the law of Thompson sampling's top-B draws (binomial
splitting of a bisected value range on the posterior CDFs, the
order-statistics method of Devroye, *Non-Uniform Random Variate
Generation*, 1986).  Their per-arm forms in
``tests/reference_policies.py`` are the reference for their per-state
pull laws.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np
from scipy.special import betainc, betaincinv, gammainc, gammaincc, gammainccinv, gammaincinv

from .errors import DegeneratePosterior, DimensionMismatch, MissingMetadata, QOutOfRange
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
    """Randomized activation pulls (R, S): visit arms in uniform order, flip a
    q(s) coin for each, and stop at the B-th success.

    Drawn at count level by the same law: per state, c_s ~ Binomial(Z_s, q_s)
    successes; a row with sum(c) <= B pulls c, and any other row pulls the
    B successes visited first, a multivariate hypergeometric draw of B from
    c (sampled state by state in ascending index).  A row may spend less
    than B but never more.
    """
    occupied = np.flatnonzero(Z.any(axis=0))
    X1 = np.zeros(Z.shape, dtype=np.int64)
    X1[:, occupied] = rng.binomial(Z[:, occupied], q[occupied])
    over = np.flatnonzero(X1.sum(axis=1) > B)
    if over.size:
        c = X1[over]
        left = c.sum(axis=1)  # successes in this state and the states after it
        need = np.full(over.size, B, dtype=np.int64)
        for s in occupied:
            k = rng.hypergeometric(c[:, s], left - c[:, s], need)
            left -= c[:, s]
            c[:, s] = k
            need -= k
        X1[over] = c
    return X1


# A TS row whose bracket holds at most this many arms draws them by inverse
# CDF instead of splitting further.  Two is the fewest a live bracket holds:
# an inverse-CDF draw costs about as much as several splits, so the
# smallest leaf is fastest at small N and no slower at N = 1200 or 9600.
TS_LEAF = 2


def _posterior_tables(annotations) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-state (is_gamma, first, second) parameters of the annotations:
    Beta(a, b) or Gamma(shape, rate)."""
    gamma = np.array([a.family == "gamma" for a in annotations])
    p0, p1 = np.array([a.params for a in annotations], dtype=np.float64).T
    return gamma, p0, p1


def _tails(post, s: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Lower and upper posterior masses (F, 1 - F) of states s below and
    above value coordinate v = x / (1 + x) < 1.  The tail away from the
    mean is computed directly and the other as its complement, so a small
    tail keeps its relative precision."""
    gamma, p0, p1 = post
    g = gamma[s]
    if g.any() and not g.all():  # mixed families: one pass per family
        F, G = np.empty_like(v), np.empty_like(v)
        for m in (g, ~g):
            F[m], G[m] = _tails(post, s[m], v[m])
        return F, G
    a, c = p0[s], p1[s]
    if g.any():
        y = c * v / (1.0 - v)
        low = y <= a
        tail = np.where(low, gammainc(a, y), gammaincc(a, y))
    else:
        # Beta(a, c) has support v < 1/2; its upper tail at x is the lower
        # tail of Beta(c, a) at 1 - x = (1 - 2v) / (1 - v)
        x = np.minimum(v / (1.0 - v), 1.0)
        low = x * (a + c) <= a
        tail = betainc(np.where(low, a, c), np.where(low, c, a),
                       np.where(low, x, np.maximum((1.0 - 2.0 * v) / (1.0 - v), 0.0)))
    if np.isnan(tail).any():
        raise DegeneratePosterior(f"the posterior CDF of state {s[np.isnan(tail)][0]} "
                                  "is not a number")
    rest = 1.0 - tail
    return np.where(low, tail, rest), np.where(low, rest, tail)


def _mass(s, low, Flo, Glo, Fhi, Ghi) -> np.ndarray:
    """Posterior mass of each cell's bracket for its state s, from the lower
    tail where ``low`` holds and from the upper tail elsewhere."""
    whole = np.where(low, Fhi - Flo, Glo - Ghi)
    bad = ~(whole > 0.0)
    if bad.any():
        raise DegeneratePosterior(f"a TS value bracket holds arms of state {s[bad][0]} "
                                  "but its posterior gives the bracket no mass")
    return whole


def _truncated_draws(post, s, Flo, Glo, Fhi, Ghi, rng) -> np.ndarray:
    """One posterior draw x per entry of s, truncated to its bracket, by
    inverse CDF on the bracket's smaller tail."""
    gamma, p0, p1 = post
    a, c, g = p0[s], p1[s], gamma[s]
    low = Fhi <= Glo
    u = np.where(low, Flo, Ghi) + rng.random(s.size) * _mass(s, low, Flo, Glo, Fhi, Ghi)
    x = np.empty_like(u)
    for m, draw in ((~g & low, lambda m: betaincinv(a[m], c[m], u[m])),
                    (~g & ~low, lambda m: 1.0 - betaincinv(c[m], a[m], u[m])),
                    (g & low, lambda m: gammaincinv(a[m], u[m]) / c[m]),
                    (g & ~low, lambda m: gammainccinv(a[m], u[m]) / c[m])):
        if m.any():
            x[m] = draw(m)
    if np.isnan(x).any():
        raise DegeneratePosterior(f"the posterior of state {s[np.isnan(x)][0]} "
                                  "gives draws that are not numbers")
    return x


def ts_pulls(Z: np.ndarray, annotations, B: int, rng: np.random.Generator) -> np.ndarray:
    """Thompson-sampling pulls (R, S): every arm draws from its state's
    posterior, and each row pulls its B largest draws.

    Drawn at count level by the same law, without a draw per arm.  Each row
    bisects the value coordinate v = x / (1 + x) (Beta beliefs live on
    [0, 1/2), Gamma beliefs on [0, 1)), keeping a bracket [lo, hi) that
    holds its B-th largest draw.  The state-s arms of a bracket that fall
    in its upper half number Binomial(n_s, (F_s(hi) - F_s(mid)) /
    (F_s(hi) - F_s(lo))), F_s the posterior CDF, with masses taken from
    the smaller tail.  Arms above the kept half are pulled, arms below it
    are not, and a row whose upper half holds exactly the arms still to
    pull is done.  Once a bracket holds at most ``TS_LEAF`` arms, or can no
    longer be halved in floating point, its arms are drawn by inverse CDF
    truncated to it and the largest ones are pulled.  The posteriors are
    continuous, so ties have probability 0; draws that floating point
    cannot tell apart are ordered uniformly at random.  The work per row
    is O(S log N).  A bracket that holds arms of a state whose posterior
    gives it no mass, or a posterior CDF that is not a number, raises
    ``DegeneratePosterior``.
    """
    R, S = Z.shape
    N = int(Z[0].sum())
    if B <= 0:
        return np.zeros((R, S), dtype=np.int64)
    if B >= N:
        return Z.copy()
    post = _posterior_tables(annotations)
    X1 = np.zeros((R, S), dtype=np.int64)
    lo, hi = np.zeros(R), np.full(R, 1.0 if post[0].any() else 0.5)
    inside = np.full(R, N, dtype=np.int64)  # arms in [lo, hi)
    need = np.full(R, B, dtype=np.int64)  # of them still to pull; 1 <= need < inside
    # live (row, state) cells: their arm counts in the bracket and the
    # state's tail masses below and above lo and hi
    r, s = np.nonzero(Z)
    n = Z[r, s]
    Flo, Ghi = np.zeros(r.size), np.zeros(r.size)
    Glo, Fhi = np.ones(r.size), np.ones(r.size)
    leaves = []
    while True:
        mid = 0.5 * (lo + hi)
        leaf = ((inside <= TS_LEAF) | (mid <= lo) | (mid >= hi))[r]
        if leaf.any():
            cells = (r, s, n, Flo, Glo, Fhi, Ghi)
            leaves.append([a[leaf] for a in cells])
            r, s, n, Flo, Glo, Fhi, Ghi = (a[~leaf] for a in cells)
        if not r.size:
            break
        Fm, Gm = _tails(post, s, mid[r])
        low = Fm <= Gm
        upper = np.where(low, Fhi - Fm, Gm - Ghi)
        up = rng.binomial(n, np.clip(upper / _mass(s, low, Flo, Glo, Fhi, Ghi), 0.0, 1.0))
        U = np.bincount(r, weights=up, minlength=R).astype(np.int64)
        rise = U >= need  # the kept half is the upper one
        need = np.where(rise, need, need - U)
        inside = np.where(rise, U, inside - U)
        lo, hi = np.where(rise, mid, lo), np.where(rise, hi, mid)
        rc, done = rise[r], (inside == need)[r]
        X1[r, s] += np.where(rc & ~done, 0, up)
        n = np.where(rc, up, n - up)
        keep = (n > 0) & ~done
        cells = (r, s, n, np.where(rc, Fm, Flo), np.where(rc, Gm, Glo),
                 np.where(rc, Fhi, Fm), np.where(rc, Ghi, Gm))
        r, s, n, Flo, Glo, Fhi, Ghi = (a[keep] for a in cells)
    if not leaves:  # every row was settled by a split
        return X1
    r, s, n, Flo, Glo, Fhi, Ghi = (np.concatenate(a) for a in zip(*leaves))
    arm = np.repeat(np.arange(r.size), n)
    x = _truncated_draws(post, s[arm], Flo[arm], Glo[arm], Fhi[arm], Ghi[arm], rng)
    order = np.lexsort((rng.random(arm.size), -x, r[arm]))  # equal draws in random order
    rows = r[arm[order]]
    rank = np.arange(rows.size) - np.searchsorted(rows, rows)
    top = arm[order[rank < need[rows]]]
    np.add.at(X1, (r[top], s[top]), 1)
    return X1


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
