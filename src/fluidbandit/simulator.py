"""Monte Carlo evaluation of policies over N exchangeable arms.

Two engines share one report format.  The count engine tracks only the
per-state arm counts (cost independent of N for count-level policies)
and samples transitions as grouped multinomials via sequential binomial
conditioning.  The per-arm engine tracks every arm individually and is
the reference for distributional cross-validation; it is also the
natural home of genuinely per-arm policies at small N.

``CompiledPolicy`` is the one place a ``PolicySpec`` is compiled (LP,
prices, scores, categories); both engines and ``oracle.exact_policy_value``
run what it compiles.  Its allocations read N off the count rows, so no
per-N state is carried; one ``_PeriodBook`` per run sums the budget
bracket failures and diffusion moments chunk by chunk.

Replications are processed in deterministic chunks, vectorized across
the chunk.  Chunk k of a run draws from a Philox stream seeded by
SeedSequence(seed, spawn_key=(tag, k)), where the tag hashes the policy
label and run shape, so runs are reproducible bit for bit and chunk
merging is order-fixed (Chan's variance combine in chunk order).
"""

from __future__ import annotations

import math
import time
import zlib
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np
import scipy.sparse as sp

from .errors import MissingMetadata, RangeError
from .lp import OccupationMeasure, solve_relaxation
from .mdp import ArmModel, period_budget, successors
from .occupancy import CategoryPartition, classify
from .policies import (PolicySpec, activation_probabilities, fluid_pulls, index_pulls,
                       parse_policy, rac_pulls, score_order, ts_pulls, ucb_scores,
                       violation_rows)
from .priority import lambda_from_duals, q_recursion

# 95% two-sided normal quantile.
Z95 = 1.959963984540054
# Cells (reps x per-rep width) processed per vectorized chunk.
CHUNK_CELL_BUDGET = 1 << 21
# Below this replication count the normal CI is flagged unreliable.
CI_MIN_REPS = 1000


def default_reps(N: int) -> int:
    """Desk-scale default replication rule."""
    return min(50 * N, 200_000)


@dataclass
class SimulationReport:
    """Aggregated Monte Carlo results for one (model, policy, N) run.

    :mean_reward: mean total reward across replications.
    :ci_halfwidth: 95% normal-approximation halfwidth of that mean.
    :per_t_violation_rate: per-period failure frequency of the budget
        bracketing event (NaN when the policy carries no measure).
    :union_violation_rate: frequency of failing in at least one period.
    :diffusion_second_moments: {"Z": per-t E||Z~||^2, "X": per-t E||X~||^2},
        or None when no reference measure exists.
    :ci_reliable: False when reps < 1000 (normal CI not trusted).
    """

    mean_reward: float
    ci_halfwidth: float
    reps: int
    per_t_violation_rate: np.ndarray
    diffusion_second_moments: dict[str, np.ndarray] | None
    seed: int
    wall_time: float
    N: int
    policy: str
    union_violation_rate: float
    ci_reliable: bool
    engine: str


@dataclass
class SweepRow:
    """One N of a gap sweep; gap bracket is gap +- ci."""

    N: int
    upper_bound: float
    mean: float
    ci: float
    gap_upper_bound: float
    report: SimulationReport = field(repr=False, default=None)


class CompiledPolicy:
    """Per-(model, spec) engine: the spec's measure, scores and partition,
    solved or derived only where the policy needs them, plus precomputed
    orders, codes and transition supports; allocation is delegated to the
    kernels in policies."""

    def __init__(self, model: ArmModel, spec: PolicySpec):
        self.model = model
        self.spec = spec
        self.kind = spec.kind
        if self.kind not in ("fluid", "relaxed", "index", "rac", "ucb", "ts"):
            raise RangeError(f"unknown policy kind {self.kind!r}")
        scores = spec.scores
        measure = spec.measure
        uses_measure = (self.kind in ("fluid", "relaxed", "rac")
                        or (self.kind == "index" and scores is None))
        if uses_measure and measure is None:
            measure = solve_relaxation(model)
        if self.kind in ("fluid", "relaxed", "index") and scores is None:
            scores = q_recursion(model, lambda_from_duals(measure))
        if self.kind == "ucb":
            if spec.delta is None:
                raise RangeError("UCB policy needs a delta")
            scores = ucb_scores(model.annotations, spec.delta)
        self.scores = scores
        # the relaxation behind this policy; gap_sweep reads V-hat off it
        self.relaxation: OccupationMeasure | None = measure if uses_measure else None
        # index/ucb/ts carry no reference measure for violation/diffusion
        self.measure = measure if self.kind in ("fluid", "relaxed", "rac") else None
        self.partition: CategoryPartition | None = (
            classify(self.measure) if self.measure is not None else None)

        if self.kind == "ts" and not model.annotations:
            raise MissingMetadata("TS needs per-state posterior annotations")

        T, S = model.T, model.S
        if self.kind in ("ts", "rac"):
            self._orders = None
        else:
            self._orders = [score_order(self.scores, t, S) for t in range(1, T + 1)]
        self._codes = self.partition.codes if self.partition is not None else None
        # transition supports: row 2s+a of entry t-1 for period t
        self._support = successors(model)

    @property
    def label(self) -> str:
        return self.spec.label

    def allocate_batch(self, t: int, Z: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """Pull counts (R, S) for count rows Z (R, S) at period t.

        Dispatches to this policy's kernel in :mod:`fluidbandit.policies`
        with the period's order and codes, the budget ``period_budget``
        gives at N = Z[0].sum(), and the neutral quotas floor(N * x_t(s, 1)).
        """
        N = int(Z[0].sum())
        B = period_budget(float(self.model.alpha[t - 1]), N)
        if self.kind in ("fluid", "relaxed"):
            quota = np.floor(N * self.measure.x[t - 1, :, 1]).astype(np.int64)
            return fluid_pulls(Z, self._codes[t - 1], self._orders[t - 1],
                               quota, B, relaxed=self.kind == "relaxed")
        if self.kind in ("index", "ucb"):
            return index_pulls(Z, self._orders[t - 1], B)
        if self.kind == "rac":
            return rac_pulls(Z, activation_probabilities(self.measure, t), B, rng)
        return ts_pulls(Z, self.model.annotations, B, rng)

    # ---- batch transitions ----------------------------------------------

    def step_counts(self, t: int, X: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """Sample Z_{t+1} (R, S) from per-(s, a) grouped multinomials.

        Sequential binomial conditioning over each support, visiting
        (s asc, a in 0..1, targets asc) in a fixed order.
        """
        R = X.shape[0]
        Znext = np.zeros((R, self.model.S), dtype=np.int64)
        K = self._support[t - 1]
        Xsa = X.reshape(R, -1)  # column 2s+a, the row of K it feeds
        for r in np.flatnonzero(Xsa.any(axis=0)):
            n = Xsa[:, r]
            targets = K.indices[K.indptr[r]:K.indptr[r + 1]]
            probs = K.data[K.indptr[r]:K.indptr[r + 1]]
            if targets.size == 1:
                Znext[:, targets[0]] += n
                continue
            remaining = n.copy()
            mass = float(probs.sum())
            for j in range(targets.size - 1):
                p = min(max(probs[j] / mass, 0.0), 1.0)
                k = rng.binomial(remaining, p)
                Znext[:, targets[j]] += k
                remaining -= k
                mass -= probs[j]
                if not remaining.any():
                    break
            Znext[:, targets[-1]] += remaining
        return Znext


# ---- chunked execution ----------------------------------------------------


def _policy_tag(label: str, N: int, reps: int, engine: str, crn: bool) -> int:
    core = f"N={N}|reps={reps}|engine={engine}"
    if not crn:
        core = f"{label}|{core}"
    return zlib.crc32(core.encode()) & 0x7FFFFFFF


def _stream(seed: int, tag: int, chunk: int) -> np.random.Generator:
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(tag, chunk))
    return np.random.Generator(np.random.Philox(ss))


def _chunk_sizes(reps: int, cell: int) -> list[int]:
    size = max(1, min(reps, CHUNK_CELL_BUDGET // max(1, cell)))
    full, rem = divmod(reps, size)
    return [size] * full + ([rem] if rem else [])


@dataclass
class _Welford:
    n: int = 0
    mean: float = 0.0
    m2: float = 0.0

    def add_chunk(self, values: np.ndarray) -> None:
        nb = values.size
        mb = float(values.mean())
        m2b = float(((values - mb) ** 2).sum())
        na = self.n
        delta = mb - self.mean
        tot = na + nb
        self.mean += delta * nb / tot
        self.m2 += m2b + delta * delta * na * nb / tot
        self.n = tot

    def ci95(self) -> float:
        if self.n < 2:
            return 0.0
        var = self.m2 / (self.n - 1)
        return Z95 * math.sqrt(max(var, 0.0) / self.n)


def _resolve_policy(model: ArmModel, policy) -> CompiledPolicy:
    if isinstance(policy, CompiledPolicy):
        return policy
    if isinstance(policy, str):
        policy = parse_policy(policy)
    if isinstance(policy, PolicySpec):
        return CompiledPolicy(model, policy)
    raise RangeError(f"cannot interpret policy {policy!r}")


def simulate(model: ArmModel, policy, N: int, reps: int, seed: int,
             crn: bool = False, collect_diffusion: bool = True) -> SimulationReport:
    """Count-based Monte Carlo run; deterministic given all arguments.

    Every policy works on per-state counts here: TS and RAC draw their
    pulls from the count-level laws in :mod:`fluidbandit.policies`, with
    no coin or posterior sample per arm, so their work per replication and
    period is O(S) for RAC and O(S log N) for TS, not O(N).
    """
    return _run(model, policy, N, reps, seed, engine="counts",
                crn=crn, collect_diffusion=collect_diffusion)


def simulate_per_arm(model: ArmModel, policy, N: int, reps: int, seed: int,
                     crn: bool = False, collect_diffusion: bool = True) -> SimulationReport:
    """Per-arm reference engine; same contract, each arm tracked singly."""
    return _run(model, policy, N, reps, seed, engine="per_arm",
                crn=crn, collect_diffusion=collect_diffusion)


def _run(model: ArmModel, policy, N: int, reps: int, seed: int, engine: str,
         crn: bool, collect_diffusion: bool) -> SimulationReport:
    if N < 1 or reps < 1:
        raise RangeError("need N >= 1 and reps >= 1")
    t0 = time.perf_counter()
    pol = _resolve_policy(model, policy)
    S = model.S

    cell = S
    if engine == "per_arm":
        # the (R, N) arm states and the (R, N, W) successor draw of
        # _chunk_per_arm, W the widest kernel row
        cell += N * (1 + max((int(np.diff(K.indptr).max()) for K in pol._support), default=0))
    sizes = _chunk_sizes(reps, cell)
    tag = _policy_tag(pol.label, N, reps, engine, crn)
    chunk = _chunk_counts if engine == "counts" else _chunk_per_arm

    stats = _Welford()
    book = _PeriodBook(pol, N, collect_diffusion)
    for chunk_idx, R in enumerate(sizes):
        stats.add_chunk(chunk(model, pol, N, R, _stream(seed, tag, chunk_idx), book))

    wall = time.perf_counter() - t0
    per_t, union, diffusion = book.rates(reps)
    return SimulationReport(
        mean_reward=stats.mean,
        ci_halfwidth=stats.ci95(),
        reps=reps,
        per_t_violation_rate=per_t,
        diffusion_second_moments=diffusion,
        seed=seed,
        wall_time=wall,
        N=N,
        policy=pol.label,
        union_violation_rate=union,
        ci_reliable=reps >= CI_MIN_REPS,
        engine=engine,
    )


def _violations(pol: CompiledPolicy, t: int, Z: np.ndarray) -> np.ndarray:
    N = int(Z[0].sum())
    return violation_rows(Z, pol.partition.codes[t - 1], float(pol.model.alpha[t - 1] * N))


class _PeriodBook:
    """Bookkeeping of one run that both engines share: bracketing-event
    failures per period and in any period, and the diffusion second
    moments ||Z - N z_t||^2 / N and ||X - N x_t||^2 / N against the
    policy's measure, summed over the replications chunk by chunk.  Both
    are kept only when the policy carries a measure, the moments only
    when asked for."""

    def __init__(self, pol: CompiledPolicy, N: int, want_diffusion: bool):
        T = pol.model.T
        self.pol, self.N, self.T = pol, N, T
        track = pol.measure is not None
        self.vc = np.zeros(T, dtype=np.int64) if track else None
        self.uc = 0
        self.union = np.zeros(0, dtype=bool)  # failed so far, per replication of the chunk
        self.dz = np.zeros(T) if track and want_diffusion else None
        self.dx = np.zeros(T) if track and want_diffusion else None

    def record(self, t: int, Z: np.ndarray, X0: np.ndarray, X1: np.ndarray) -> None:
        """Add period t of a chunk's replications; period 1 opens the chunk."""
        if self.vc is not None:
            if t == 1:
                self.union = np.zeros(len(Z), dtype=bool)
            v = _violations(self.pol, t, Z)
            self.vc[t - 1] += int(v.sum())
            self.uc += int((v & ~self.union).sum())
            self.union |= v
        if self.dz is not None:
            N, sqrtN = self.N, math.sqrt(self.N)
            zt = self.pol.measure.z[t - 1]
            xt = self.pol.measure.x[t - 1]
            self.dz[t - 1] += float((((Z - N * zt) / sqrtN) ** 2).sum())
            self.dx[t - 1] += float((((X0 - N * xt[:, 0]) / sqrtN) ** 2).sum()
                                    + (((X1 - N * xt[:, 1]) / sqrtN) ** 2).sum())

    def rates(self, reps: int):
        """(per-period failure rate, any-period failure rate, diffusion
        moments or None); the rates are NaN without a measure."""
        if self.vc is None:
            return np.full(self.T, np.nan), float("nan"), None
        diffusion = None
        if self.dz is not None:
            diffusion = {"Z": self.dz / reps, "X": self.dx / reps}
        return self.vc / reps, self.uc / reps, diffusion


def _chunk_counts(model, pol, N, R, rng, book):
    T, S = model.T, model.S
    Z = np.zeros((R, S), dtype=np.int64)
    Z[:, model.s0] = N
    rewards = np.zeros(R)
    for t in range(1, T + 1):
        X1 = pol.allocate_batch(t, Z, rng)
        X0 = Z - X1
        rewards += X1 @ model.R[t - 1, :, 1] + X0 @ model.R[t - 1, :, 0]
        book.record(t, Z, X0, X1)
        if t < T:
            X = np.stack([X0, X1], axis=2)
            Z = pol.step_counts(t, X, rng)
    return rewards


def _chunk_per_arm(model, pol, N, R, rng, book):
    T, S = model.T, model.S
    states = np.full((R, N), model.s0, dtype=np.int64)
    rewards = np.zeros(R)
    row = np.arange(R)[:, None] * S
    tables = [_successor_table(K) for K in pol._support]
    for t in range(1, T + 1):
        Z = np.bincount((states + row).reshape(-1), minlength=R * S).reshape(R, S)
        actions = _per_arm_actions(pol, t, states, Z, rng)
        X1 = np.bincount((states + row).reshape(-1), minlength=R * S,
                         weights=actions.reshape(-1).astype(np.float64))
        X1 = X1.reshape(R, S).astype(np.int64)
        X0 = Z - X1
        rewards += model.R[t - 1][states, actions].sum(axis=1)
        book.record(t, Z, X0, X1)
        if t < T:
            cdf, targets = tables[t - 1]
            k = 2 * states + actions
            u = rng.random((R, N, 1))
            slot = np.minimum((u > cdf[k]).sum(axis=2), cdf.shape[1] - 1)
            states = targets[k, slot]
    return rewards


def _successor_table(K) -> tuple[np.ndarray, np.ndarray]:
    """Per-row CDFs and successor states of one period's kernel matrix, padded
    to the widest row by repeating each row's last CDF value and successor,
    so a draw at or above a row's rounded total lands on its last successor."""
    slot = np.arange(K.nnz) - np.repeat(K.indptr[:-1], np.diff(K.indptr))
    shape = (K.shape[0], int(slot.max()) + 1)
    probs = sp.csr_matrix((K.data, slot, K.indptr), shape=shape).toarray()
    targets = sp.csr_matrix((K.indices.astype(np.int64), slot, K.indptr), shape=shape).toarray()
    return np.cumsum(probs, axis=1), np.maximum.accumulate(targets, axis=1)


def _per_arm_actions(pol: CompiledPolicy, t: int, states: np.ndarray,
                     Z: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Per-arm 0/1 actions consistent with the policy's count semantics."""
    R, N = states.shape
    S = Z.shape[1]
    B = period_budget(float(pol.model.alpha[t - 1]), N)
    if pol.kind == "ts":
        ann = pol.model.annotations
        if B <= 0:
            return np.zeros((R, N), dtype=np.int64)
        if B >= N:
            return np.ones((R, N), dtype=np.int64)
        draws = np.empty((R, N), dtype=np.float64)
        for s in range(S):
            mask = states == s
            cnt = int(mask.sum())
            if cnt:
                draws[mask] = np.asarray(ann[s].sampler(rng, cnt), dtype=np.float64)
        thr = np.partition(draws, N - B, axis=1)[:, N - B][:, None]
        act = draws > thr
        need = B - act.sum(axis=1)
        eq = draws == thr
        rank_eq = np.cumsum(eq, axis=1)
        act |= eq & (rank_eq <= need[:, None])
        return act.astype(np.int64)
    if pol.kind == "rac":
        q = activation_probabilities(pol.measure, t)
        coins = rng.random((R, N)) < q[states]
        keys = rng.random((R, N))
        visit = np.argsort(keys, axis=1)
        succ = np.take_along_axis(coins, visit, axis=1)
        chosen = succ & (np.cumsum(succ, axis=1) <= B)
        act = np.zeros((R, N), dtype=np.int64)
        np.put_along_axis(act, visit, chosen.astype(np.int64), axis=1)
        return act
    # count-level policies: compute the count plan, then tag the first
    # X1[r, s] arms of each state (exchangeable, so any fixed choice works)
    X1 = pol.allocate_batch(t, Z, rng)
    order = np.argsort(states, axis=1, kind="stable")
    st_sorted = np.take_along_axis(states, order, axis=1)
    cumZ_prev = np.concatenate([np.zeros((R, 1), dtype=np.int64),
                                np.cumsum(Z, axis=1)[:, :-1]], axis=1)
    start = np.take_along_axis(cumZ_prev, st_sorted, axis=1)
    quota = np.take_along_axis(X1, st_sorted, axis=1)
    pos = np.arange(N)[None, :]
    chosen_sorted = (pos - start) < quota
    act = np.zeros((R, N), dtype=np.int64)
    np.put_along_axis(act, order, chosen_sorted.astype(np.int64), axis=1)
    return act


# ---- sweeps ----------------------------------------------------------------


def _reps_for(reps_per_N, N: int) -> int:
    if reps_per_N is None:
        return default_reps(N)
    if callable(reps_per_N):
        return int(reps_per_N(N))
    if isinstance(reps_per_N, (int, np.integer)):
        return int(reps_per_N)
    raise RangeError(f"cannot interpret reps rule {reps_per_N!r}")


def gap_sweep(model: ArmModel, policy, N_list: Sequence[int], reps_per_N=None,
              seed: int = 0, engine: str = "counts",
              crn: bool = False) -> list[SweepRow]:
    """Optimality-gap upper bounds across N: N*V-hat minus simulated mean."""
    if not N_list or list(N_list) != sorted(set(N_list)):
        raise RangeError("N_list must be nonempty, ascending, duplicate-free")
    pol = _resolve_policy(model, policy)
    vhat = (pol.relaxation if pol.relaxation is not None
            else solve_relaxation(model)).value
    run = simulate if engine == "counts" else simulate_per_arm
    rows = []
    for N in N_list:
        reps = _reps_for(reps_per_N, N)
        rep = run(model, pol, N, reps, seed, crn=crn)
        ub = N * vhat
        rows.append(SweepRow(N=N, upper_bound=ub, mean=rep.mean_reward,
                             ci=rep.ci_halfwidth,
                             gap_upper_bound=ub - rep.mean_reward, report=rep))
    return rows


def violation_rate_sweep(model: ArmModel, policy, N_list: Sequence[int],
                         reps, seed: int = 0) -> list[SimulationReport]:
    """Budget-bracket failure rates per (N, t); policy must carry a measure."""
    pol = _resolve_policy(model, policy)
    if pol.partition is None:
        raise RangeError("violation sweep needs a measure-carrying policy")
    out = []
    for N in N_list:
        out.append(simulate(model, pol, N, _reps_for(reps, N), seed,
                            collect_diffusion=False))
    return out
