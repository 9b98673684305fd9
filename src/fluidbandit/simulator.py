"""Monte Carlo evaluation of policies over N exchangeable arms.

Two engines share one report format and one period loop.  Every policy
is a rule on the per-state arm counts, so each period both allocate
through ``CompiledPolicy.allocate_batch`` on the count rows; they differ
only in the transition.  The count engine samples it as grouped
multinomials via sequential binomial conditioning, with the conditional
probabilities compiled once per kernel row and the one draw of each
two-target row made for a whole block of such rows in one binomial call
(cost independent of N).  The per-arm engine draws one uniform per arm
of the same action counts and counts, for each (replication, kernel
row), how many fall in each slot of the row's CDF (the arms of a row
are exchangeable), so O(N) per replication.  Each arm still draws its
own uniform, so it is the independent check of the count engine's
binomial draws.  Both transitions,
``step_counts`` and ``step_arms``, take the period's passive and active
counts as two (R, S) arrays ``(t, X0, X1, rng)``, so the loop's working
set is three (R, S) arrays: the counts Z, which become X0 in place once
the period's figures have read them, the pulls X1 and the next counts.

``CompiledPolicy`` is the one place a ``PolicySpec`` is compiled (LP,
prices, scores, categories); both engines and ``oracle.exact_policy_value``
run what it compiles.  Its allocations read N off the count rows, so no
per-N state is carried.  Each chunk returns its rewards, its budget
bracket failures and its diffusion moment sums, and the run folds them in
chunk order.  The moments come from tallies of the counts (row square
sums, summed in float64 and exact while N^2 < 2^53, and integer column
sums), not from dense float arrays, so they round within a few N * eps
per replication of the dense sum.

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
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np
import scipy.sparse as sp

from .errors import DimensionMismatch, MissingMetadata, RangeError
from .lp import OccupationMeasure, solve_relaxation
from .mdp import ArmModel, is_integer, period_budget, successors, validate_model
from .occupancy import classify
from .policies import (BLOCK_CELLS, TS_CELL_FLOATS, TS_GRID, PolicySpec,
                       activation_probabilities, fluid_pulls, index_pulls, parse_policy,
                       rac_pulls, score_order, ts_posterior, ts_pulls, ucb_scores,
                       violation_rows)
from .priority import q_recursion

# 95% two-sided normal quantile.
Z95 = 1.959963984540054
# Cells (reps x per-rep width) processed per vectorized chunk.
CHUNK_CELL_BUDGET = 1 << 21
# Below this replication count the normal CI is flagged unreliable.
CI_MIN_REPS = 1000
# Replication cap of the default rule.
REPS_CAP = 200_000


def default_reps(N: int, cap: int = REPS_CAP) -> int:
    """Desk-scale default replication rule: min(50 N, cap), cap a positive
    integer."""
    if not is_integer(cap) or cap < 1:
        raise RangeError(f"reps cap must be a positive integer, got {cap!r}")
    return min(50 * N, cap)


@dataclass
class SimulationReport:
    """Aggregated Monte Carlo results for one (model, policy, N) run.

    :mean_reward: mean total reward across replications.
    :ci_halfwidth: 95% normal-approximation halfwidth of that mean.
    :reps: replications run.
    :per_t_violation_rate: per-period failure frequency of the budget
        bracketing event (NaN when the policy carries no measure).
    :diffusion_second_moments: {"Z": per-t E||Z~||^2, "X": per-t E||X~||^2},
        Z~ = (Z - N z_t) / sqrt(N) and X~ likewise against x_t, or None
        when no reference measure exists or none was asked for.  Each is
        within a few N * eps of the dense sum per replication, so one whose
        exact value is 0 can read slightly below it (-0.000375 at t = 1 for
        fluid on bern15 at N = 10**12); it is not clipped.
    :seed: the run's seed.
    :wall_time: wall-clock seconds of the run, the policy's compile
        included when the policy came uncompiled.
    :N: arms per replication.
    :policy: the policy's label.
    :union_violation_rate: frequency of failing in at least one period
        (NaN when the policy carries no measure).
    :ci_reliable: False when reps < 1000 (normal CI not trusted).
    :engine: "counts" or "per_arm".
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


@dataclass(repr=False)
class SweepRow:
    """One N of a gap sweep: the bound N * V-hat and the run's report, which
    holds N; the gap bracket is gap_upper_bound +- report.ci_halfwidth."""

    upper_bound: float
    report: SimulationReport

    @property
    def N(self) -> int:
        return self.report.N

    @property
    def gap_upper_bound(self) -> float:
        return self.upper_bound - self.report.mean_reward

    def __repr__(self) -> str:
        return f"SweepRow(N={self.N!r}, upper_bound={self.upper_bound!r})"


class CompiledPolicy:
    """Per-(model, spec) engine: the spec's measure, scores and category codes,
    solved or derived only where the policy needs them, plus what its kernel
    in policies reads each period (score orders, RAC's (T, S) activation
    probabilities or TS's posterior tables), all built here once, and the
    transition supports.  Every compile validates the model exactly once:
    through ``solve_relaxation`` when it solves the LP, directly otherwise."""

    def __init__(self, model: ArmModel, spec: PolicySpec):
        self.model = model
        self.spec = spec
        self.kind = spec.kind
        if self.kind not in ("fluid", "relaxed", "index", "rac", "ucb", "ts"):
            raise RangeError(f"unknown policy kind {self.kind!r}")
        T, S = model.T, model.S
        scores = spec.scores
        measure = spec.measure
        if measure is not None and measure.x.shape != (T, S, 2):
            raise DimensionMismatch(
                f"measure has shape {measure.x.shape}, expected ({T}, {S}, 2)")
        score_shape = np.shape(scores)
        if len(score_shape) == 2 and score_shape != (T, S):
            raise DimensionMismatch(f"scores have shape {score_shape}, expected ({T}, {S})")
        if self.kind == "ts" and not model.annotations:
            raise MissingMetadata("TS needs per-state posterior annotations")
        uses_measure = (self.kind in ("fluid", "relaxed", "rac")
                        or (self.kind == "index" and scores is None))
        if uses_measure and measure is None:
            measure = solve_relaxation(model)  # which validates the model
        else:
            validate_model(model)
        if self.kind in ("fluid", "relaxed", "index") and scores is None:
            scores = q_recursion(model, measure.require_duals()).P
        if self.kind == "ucb":
            if spec.delta is None or not np.isfinite(spec.delta):
                raise RangeError(f"UCB policy needs a finite delta, got {spec.delta!r}")
            scores = ucb_scores(model.annotations, spec.delta)
        self.scores = scores
        # the relaxation behind this policy; gap_sweep reads V-hat off it
        self.relaxation: OccupationMeasure | None = measure if uses_measure else None
        # index/ucb/ts carry no reference measure for violation/diffusion
        self.measure = measure if self.kind in ("fluid", "relaxed", "rac") else None
        self.codes: np.ndarray | None = (
            classify(self.measure) if self.measure is not None else None)

        self._orders = (None if self.kind in ("ts", "rac")
                        else [score_order(self.scores, t, S) for t in range(1, T + 1)])
        self._q = (np.array([activation_probabilities(measure, t) for t in range(1, T + 1)])
                   if self.kind == "rac" else None)
        self._posterior = ts_posterior(model.annotations) if self.kind == "ts" else None
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
            return fluid_pulls(Z, self.codes[t - 1], self._orders[t - 1],
                               quota, B, relaxed=self.kind == "relaxed")
        if self.kind in ("index", "ucb"):
            return index_pulls(Z, self._orders[t - 1], B)
        if self.kind == "rac":
            return rac_pulls(Z, self._q[t - 1], B, rng)
        return ts_pulls(Z, self._posterior, B, rng)

    # ---- batch transitions ----------------------------------------------

    def step_counts(self, t: int, X0: np.ndarray, X1: np.ndarray,
                    rng: np.random.Generator) -> np.ndarray:
        """Sample Z_{t+1} (R, S) from per-(s, a) grouped multinomials of the
        passive and active counts X0, X1 (R, S).

        Sequential binomial conditioning over each support, visiting
        (s asc, a in 0..1, targets asc) in a fixed order, with the
        probabilities of ``_conditional_probabilities``.  Consecutive
        two-target rows, which make one draw each, draw as one (m, R)
        block of at most ``BLOCK_CELLS`` cells; ``Generator.binomial``
        fills it in C order, so it draws what m calls in row order draw.
        A wider row draws the pending block first, then its own targets.
        """
        Znext = np.zeros(X0.shape, dtype=np.int64)
        K = self._support[t - 1]
        indptr, targets, cond = K.indptr.tolist(), K.indices.tolist(), self._cond[t - 1]
        cap = max(1, BLOCK_CELLS // len(X0))
        block: list[tuple[int, np.ndarray]] = []
        for r, n in _kernel_columns(X0, X1):
            lo, hi = indptr[r], indptr[r + 1]
            if hi - lo == 1:
                Znext[:, targets[lo]] += n
                continue
            if hi - lo == 2:
                block.append((lo, n))
                if len(block) == cap:
                    _draw_block(Znext, targets, cond, block, rng)
                continue
            _draw_block(Znext, targets, cond, block, rng)
            remaining = n.copy()
            for j in range(lo, hi - 1):
                k = rng.binomial(remaining, cond[j])
                Znext[:, targets[j]] += k
                remaining -= k
                if not remaining.any():
                    break
            Znext[:, targets[hi - 1]] += remaining
        _draw_block(Znext, targets, cond, block, rng)
        return Znext

    @cached_property
    def _cond(self) -> list[np.ndarray]:
        # built on the first count step only, then kept for every chunk
        return [_conditional_probabilities(K) for K in self._support]

    @cached_property
    def _tables(self) -> list[tuple[np.ndarray, np.ndarray]]:
        # built on the first per-arm step only, then kept for every chunk
        return [_successor_table(K) for K in self._support]

    def step_arms(self, t: int, X0: np.ndarray, X1: np.ndarray,
                  rng: np.random.Generator) -> np.ndarray:
        """Sample Z_{t+1} (R, S) arm by arm: X0[r, s] and X1[r, s] arms in
        kernel rows 2s and 2s+1, occupied rows ascending, each draw one
        uniform u of an (R, N) draw and go to slot w of their row of
        ``_successor_table``, w the count of the row's first W-1 CDF values
        below u (a padded row is nondecreasing, so the last slot takes the
        rest).  The arms of one row are exchangeable, so each nonempty
        (replication, row) segment of the uniforms keeps only how many lie
        above each CDF value; their differences, the arms per slot, land on
        the slots' successors."""
        R, S = X0.shape
        cdf, targets = self._tables[t - 1]
        W = cdf.shape[1]
        rows, cols = zip(*_kernel_columns(X0, X1))
        n = np.column_stack(cols).reshape(-1)  # arms per (replication, row)
        live = np.flatnonzero(n)
        rep, seg = np.divmod(live, len(rows))
        seg, n = np.take(rows, seg), n[live]
        u = rng.random((R, int(n.sum()) // R)).reshape(-1)
        starts = np.cumsum(n) - n
        # row j: the segment's arms in slot j or later, so rows 0 and W are
        # all and none of them, and row w + 1 those above CDF value w
        above = np.empty((W + 1, len(n)), dtype=np.int64)
        above[0], above[W] = n, 0
        for w in range(W - 1):
            np.add.reduceat(u > np.repeat(cdf[seg, w], n), starts, dtype=np.int64,
                            out=above[w + 1])
        Znext = np.zeros(R * S, dtype=np.int64)
        np.add.at(Znext, (np.take(targets.T, seg, axis=1) + rep * S).reshape(-1),
                  (above[:-1] - above[1:]).reshape(-1))
        return Znext.reshape(R, S)


def _kernel_columns(X0: np.ndarray, X1: np.ndarray) -> list[tuple[int, np.ndarray]]:
    """The occupied kernel rows r = 2s+a, ascending, each with the column of
    X0 (a = 0) or X1 (a = 1) whose arms it moves, as a view."""
    # counts are never negative, so a column sum is 0 only for an empty
    # column (a wrap to exactly 0 needs R * N >= 2^64); einsum sums a
    # narrow array several times faster than any(axis=0) tests it
    occupied = np.column_stack([np.einsum("ij->j", X0), np.einsum("ij->j", X1)]).reshape(-1)
    return [(r, (X1 if r % 2 else X0)[:, r // 2]) for r in np.flatnonzero(occupied).tolist()]


def _conditional_probabilities(K) -> np.ndarray:
    """Per entry j of one period's kernel matrix, the probability that the
    arms its row has left after its earlier targets go to target j:
    min(max(p_j / mass, 0), 1), mass the row's total less its earlier
    entries.  The last entry of a row takes the rest and is never drawn."""
    cond = np.ones(K.nnz)
    for lo, hi in zip(K.indptr[:-1].tolist(), K.indptr[1:].tolist()):
        if hi - lo > 1:
            mass = float(K.data[lo:hi].sum())
            for j in range(lo, hi - 1):
                cond[j] = min(max(K.data[j] / mass, 0.0), 1.0)
                mass -= K.data[j]
    return cond


def _draw_block(Znext: np.ndarray, targets: list[int], cond: np.ndarray,
                block: list[tuple[int, np.ndarray]], rng: np.random.Generator) -> None:
    """Land the arms of a block of two-target rows, each (first entry lo,
    column n (R,)), in Znext from one binomial draw over their stacked
    columns, and empty the block."""
    if not block:
        return
    n = np.stack([col for _, col in block])
    first = [lo for lo, _ in block]
    k = rng.binomial(n, cond[first][:, None])
    n -= k
    for lo, drawn, rest in zip(first, k, n):
        Znext[:, targets[lo]] += drawn
        Znext[:, targets[lo + 1]] += rest
    block.clear()


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
        if policy.model is not model:
            raise RangeError(f"policy {policy.label!r} was compiled for another model")
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
    period is O(S) for RAC and O(S) per split for TS (a few splits, slowly
    growing with N), not O(N).
    """
    return _run(model, policy, N, reps, seed, engine="counts",
                crn=crn, collect_diffusion=collect_diffusion)


def simulate_per_arm(model: ArmModel, policy, N: int, reps: int, seed: int,
                     crn: bool = False, collect_diffusion: bool = True) -> SimulationReport:
    """Per-arm reference engine; same contract, each arm's transition drawn
    singly from the period's action counts (``CompiledPolicy.step_arms``)."""
    return _run(model, policy, N, reps, seed, engine="per_arm",
                crn=crn, collect_diffusion=collect_diffusion)


def _run(model: ArmModel, policy, N: int, reps: int, seed: int, engine: str,
         crn: bool, collect_diffusion: bool) -> SimulationReport:
    for name, value in (("N", N), ("reps", reps)):
        if not is_integer(value) or value < 1:
            raise RangeError(f"{name} must be a positive integer, got {value!r}")
    if not is_integer(seed) or seed < 0:
        raise RangeError(f"seed must be a nonnegative integer, got {seed!r}")
    t0 = time.perf_counter()
    pol = _resolve_policy(model, policy)
    T, S = model.T, model.S

    # Chunk k draws from stream (seed, tag, k), so the chunk widths below
    # fix every result.  They stay as they are for that reason, not for
    # the memory a chunk holds.
    cell = S
    if engine == "per_arm":
        # N * (1 + W) cells per replication, W the widest kernel row: the
        # size of the (R, N, W) tensor of a gather-form successor draw.
        # step_arms holds about 2 N floats per replication and a few W
        # numbers per nonempty (replication, kernel row) segment: within
        # the width on bern15 at N = 1200, about twice it at N = 8.
        cell += N * (1 + max((int(np.diff(K.indptr).max()) for K in pol._support), default=0))
    if pol.kind == "ts":
        # in either engine, ts_pulls works on each row's live cells, at most
        # min(S, N), and on two arrays over the tail grid for the first
        # split; a per-arm TS chunk holds both working sets
        cell += TS_CELL_FLOATS * min(S, N) + 2 * (TS_GRID + 2)
    sizes = _chunk_sizes(reps, cell)
    tag = _policy_tag(pol.label, N, reps, engine, crn)

    stats, union = _Welford(), 0
    failures, moments = np.zeros(T, dtype=np.int64), np.zeros((2, T))
    for chunk_idx, R in enumerate(sizes):
        rewards, failed, sums = _chunk(pol, N, R, _stream(seed, tag, chunk_idx), engine,
                                       collect_diffusion)
        stats.add_chunk(rewards)
        if failed is not None:
            failures += failed.sum(axis=0)
            union += int(failed.any(axis=1).sum())
        if sums is not None:
            moments += sums

    wall = time.perf_counter() - t0
    diffusion = None
    if pol.measure is None:
        per_t, union_rate = np.full(T, np.nan), float("nan")
    else:
        per_t, union_rate = failures / reps, union / reps
        if collect_diffusion:
            diffusion = {"Z": moments[0] / reps, "X": moments[1] / reps}
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
        union_violation_rate=union_rate,
        ci_reliable=reps >= CI_MIN_REPS,
        engine=engine,
    )


def _chunk(pol, N, R, rng, engine, diffusion):
    """R replications of `pol` at N arms run by `engine`: the period loop
    of both engines, which differ only in the transition.  Returns the
    total rewards (R,); when the policy carries a measure, the bracketing
    failures (R, T) of each replication and period; and when it does and
    `diffusion` is set, the sums over the replications (2, T) of
    ||Z - N z_t||^2 / N and ||X - N x_t||^2 / N, each from the tallies of
    ``_square_distance``.  Each is None otherwise.  It holds
    three (R, S) arrays, and builds no (R, S) float array for its figures:
    the counts Z, which become the passive counts X0 in place once their
    figures are read, the pulls X1 and the next period's counts."""
    model, measure = pol.model, pol.measure
    T, S = model.T, model.S
    step = pol.step_counts if engine == "counts" else pol.step_arms
    failed = np.zeros((R, T), dtype=bool) if measure is not None else None
    moments = np.zeros((2, T)) if measure is not None and diffusion else None
    Z = np.zeros((R, S), dtype=np.int64)
    Z[:, model.s0] = N
    rewards = np.zeros(R)
    for t in range(1, T + 1):
        X1 = pol.allocate_batch(t, Z, rng)
        if failed is not None:
            failed[:, t - 1] = violation_rows(Z, pol.codes[t - 1], float(model.alpha[t - 1] * N))
        if moments is not None:
            moments[0, t - 1] = _square_distance(Z, N, measure.z[t - 1])
        Z -= X1  # Z is X0 from here on
        rewards += X1 @ model.R[t - 1, :, 1] + Z @ model.R[t - 1, :, 0]
        if moments is not None:
            xt = measure.x[t - 1]
            moments[1, t - 1] = (_square_distance(Z, N, xt[:, 0])
                                 + _square_distance(X1, N, xt[:, 1]))
        if t == T:
            break
        Z = step(t, Z, X1, rng)
    return rewards, failed, moments


def _square_distance(Y: np.ndarray, N: int, y: np.ndarray) -> float:
    """The sum over the rows of the counts Y (R, S) of ||Y - N y||^2 / N, as
    sum Y^2 / N - 2 (column sums of Y) . y + R N ||y||^2 from exact integer
    tallies: each row's square sum, summed in float64 (at most N^2, so
    exact while N^2 < 2^53 and rounded, never wrapped, above; an int64 sum
    would wrap once it passes 2^63), and Y's int64 column sums over blocks
    of at most (2^63 - 1) // N rows, which cannot wrap (a row holds at most
    N arms), their products with y added in float64.  No (R, S) float array
    is made; with ||y||^2 <= 1 the cancelling terms are at most a few N per
    row, so the result is within a few N * eps per row of the dense sum."""
    squares = np.einsum("ij,ij->i", Y, Y, dtype=np.float64).sum()
    rows = (2**63 - 1) // N
    cols = sum(np.einsum("ij->j", Y[a:a + rows]) @ y for a in range(0, len(Y), rows))
    return float(squares / N - 2.0 * cols + len(Y) * N * (y @ y))


def _successor_table(K) -> tuple[np.ndarray, np.ndarray]:
    """Per-row CDFs and successor states of one period's kernel matrix, padded
    to the widest row by repeating each row's last CDF value and successor,
    so a draw at or above a row's rounded total lands on its last successor."""
    slot = np.arange(K.nnz) - np.repeat(K.indptr[:-1], np.diff(K.indptr))
    shape = (K.shape[0], int(slot.max()) + 1)
    probs = sp.csr_matrix((K.data, slot, K.indptr), shape=shape).toarray()
    targets = sp.csr_matrix((K.indices.astype(np.int64), slot, K.indptr), shape=shape).toarray()
    return np.cumsum(probs, axis=1), np.maximum.accumulate(targets, axis=1)


# ---- sweeps ----------------------------------------------------------------


def _reps_for(reps_per_N, N: int) -> int:
    if reps_per_N is None:
        return default_reps(N)
    if callable(reps_per_N):
        reps = reps_per_N(N)
        if not is_integer(reps):
            raise RangeError(f"reps rule returned {reps!r} at N={N}, not an integer")
        return int(reps)
    if is_integer(reps_per_N):
        return int(reps_per_N)
    raise RangeError(f"cannot interpret reps rule {reps_per_N!r}")


def _check_n_list(N_list: Sequence[int]) -> None:
    if not N_list or list(N_list) != sorted(set(N_list)):
        raise RangeError("N_list must be nonempty, ascending, duplicate-free")


def gap_sweep(model: ArmModel, policy, N_list: Sequence[int], reps_per_N=None,
              seed: int = 0, engine: str = "counts",
              crn: bool = False) -> list[SweepRow]:
    """Optimality-gap upper bounds across N: N*V-hat minus simulated mean."""
    _check_n_list(N_list)
    if engine not in ("counts", "per_arm"):
        raise RangeError(f"unknown engine {engine!r}; use 'counts' or 'per_arm'")
    pol = _resolve_policy(model, policy)
    vhat = (pol.relaxation if pol.relaxation is not None
            else solve_relaxation(model)).value
    run = simulate if engine == "counts" else simulate_per_arm
    rows = []
    for N in N_list:
        reps = _reps_for(reps_per_N, N)
        rows.append(SweepRow(upper_bound=N * vhat,
                             report=run(model, pol, N, reps, seed, crn=crn)))
    return rows


def violation_rate_sweep(model: ArmModel, policy, N_list: Sequence[int],
                         reps, seed: int = 0) -> list[SimulationReport]:
    """Budget-bracket failure rates per (N, t); policy must carry a measure."""
    _check_n_list(N_list)
    pol = _resolve_policy(model, policy)
    if pol.codes is None:
        raise RangeError("violation sweep needs a measure-carrying policy")
    out = []
    for N in N_list:
        out.append(simulate(model, pol, N, _reps_for(reps, N), seed,
                            collect_diffusion=False))
    return out
