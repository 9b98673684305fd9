"""Allocation rules mapping (t, Z) to integer pull counts X1.

Each rule exists once, as a batch kernel over a count matrix Z (R, S)
that returns pulls X1 (R, S): ``fluid_pulls`` (strict and relaxed),
``index_pulls`` (index and UCB), ``rac_pulls`` and ``ts_pulls``, plus
``violation_rows`` for the bracketing event.  The simulator's
``CompiledPolicy`` dispatches to them (for the simulators and the exact
oracle); ``fluid_priority_allocate`` returns the fluid-priority pulls
(S,) of a single count vector.  Scores are plain arrays, (T, S) or
(S,).  Per-state loop forms of the deterministic rules, in
``tests/reference_policies.py``, are the reference the kernels are
checked against, row for row.  States are visited in
``priority.score_order`` (descending score, ties by ascending index), and
the period budget is ``mdp.period_budget``.

The randomized rules draw no coin or sample for every arm, and both split
a sample in halves whose conditional laws are known (Devroye,
*Non-Uniform Random Variate Generation*, 1986): ``rac_pulls`` samples
the per-state law of randomized activation (binomial coins, then a
multivariate hypergeometric cut to the budget, one hypergeometric draw
per level of halving the occupied states) and ``ts_pulls`` the law of
Thompson sampling's top-B draws (binomial splitting of the value range
on the posterior CDFs, the order-statistics method, with each split
aimed at the B-th largest draw: first at the pooled expected quantile
from the tail table of ``ts_posterior``, which ``CompiledPolicy`` builds
once per ts policy, then by regula falsi on the bracket).  Their per-arm
forms in ``tests/reference_policies.py`` are the reference for their
per-state pull laws.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from itertools import chain

import numpy as np
from scipy.special import betainc, betaincinv, gammainc, gammaincc, gammainccinv, gammaincinv

from .errors import (ConfigError, DegeneratePosterior, DimensionMismatch, MissingMetadata,
                     QOutOfRange)
from .lp import OccupationMeasure
from .mdp import period_budget
from .occupancy import classify
from .priority import score_order


@dataclass
class PolicySpec:
    """Declarative policy choice, compiled by the simulator.

    :kind: one of "fluid", "relaxed", "index", "rac", "ucb", "ts".
    :measure: required by fluid/relaxed/rac.
    :scores: optional explicit scores for fluid/relaxed/index, an array
        (T, S) or (S,).
    :delta: UCB bonus multiplier.
    """

    kind: str
    measure: OccupationMeasure | None = None
    scores: np.ndarray | None = None
    delta: float | None = None

    @property
    def label(self) -> str:
        if self.kind == "ucb" and self.delta is not None:
            return f"ucb:{self.delta:g}"
        return self.kind


def _prefix_clip(X1: np.ndarray, fills, budget) -> None:
    """Greedy fill under a shared budget (scalar or per-row): for each
    (slot, cap (R,)) of ``fills`` in turn, add to column slot of X1 as much
    of cap as is left.  ``fills`` is read no further once the budget is
    spent, so a generator of caps builds none it would not use."""
    rem = np.maximum(budget, 0)
    if not rem.any():
        return
    for s, cap in fills:
        take = np.minimum(cap, rem)
        X1[:, s] += take
        rem = rem - take
        if not rem.any():
            break  # caps are >= 0, so every take left would be 0


def fluid_pulls(Z: np.ndarray, codes: np.ndarray, order: np.ndarray, quota: np.ndarray,
                B: int, relaxed: bool = False) -> np.ndarray:
    """Fluid-priority pulls (R, S) for count rows Z (R, S) at budget B.

    Strict pass order: active states (in score order) up to their counts;
    then neutral states up to their quota floor(N * x_t(s,1)); then
    leftover neutral arms; then inactive states, until B is spent.  The
    relaxed rule pulls every active arm even past B, spends what is left
    of B on the two neutral passes and never pulls an inactive arm.
    Each pass reads the columns of Z as views, one state at a time.
    """
    active, neutral, inactive = (order[codes[order] == c] for c in (1, 0, -1))
    fills = chain(((s, np.minimum(Z[:, s], quota[s])) for s in neutral),
                  ((s, np.maximum(Z[:, s] - quota[s], 0)) for s in neutral))
    X1 = np.zeros(Z.shape, dtype=np.int64)
    if relaxed:
        np.copyto(X1, Z, where=codes == 1)
        budget = np.maximum(B - X1.sum(axis=1), 0)
    else:
        fills = chain(((s, Z[:, s]) for s in active), fills,
                      ((s, Z[:, s]) for s in inactive))
        budget = B
    _prefix_clip(X1, fills, budget)
    return X1


def index_pulls(Z: np.ndarray, order: np.ndarray, B) -> np.ndarray:
    """Greedy pulls (R, S): states in score order until B is spent."""
    X1 = np.zeros_like(Z)
    _prefix_clip(X1, ((s, Z[:, s]) for s in order), B)
    return X1


def violation_rows(Z: np.ndarray, codes: np.ndarray, target: float) -> np.ndarray:
    """Per-row failure (R,) of the bracketing event at budget mass target.

    The good event asks the active mass to sit at or below alpha_t*N and
    the active-plus-neutral mass to reach it; its failure is what makes
    the strict and relaxed allocations diverge.  Both masses come from one
    exact integer product of Z with the (S, 2) category indicators, so no
    column subset of Z is copied.
    """
    lo, hi = (Z @ np.column_stack([codes == 1, codes >= 0])).T
    return (lo > target) | (target > hi)


# Cells (rows x columns) of one blocked draw: ``rac_pulls`` draws its coins
# and each level of its cut, and the simulator's count step its two-target
# kernel rows, at most this many a call.  ``Generator.binomial`` and
# ``Generator.hypergeometric`` fill a broadcast draw in C order, so a split
# into blocks of rows draws what one call (or one call per row) draws and
# no result depends on this value; it bounds the temporaries, about three
# int64 arrays of this many cells (five in the cut).
BLOCK_CELLS = 1 << 15


def rac_pulls(Z: np.ndarray, q: np.ndarray, B: int, rng: np.random.Generator) -> np.ndarray:
    """Randomized activation pulls (R, S): visit arms in uniform order, flip a
    q(s) coin for each, and stop at the B-th success.

    Drawn at count level by the same law: per state, c_s ~ Binomial(Z_s, q_s)
    successes, drawn over the occupied states in blocks of rows of at most
    ``BLOCK_CELLS`` cells; a row with sum(c) <= B pulls c, and any other
    row pulls the B successes visited first, a multivariate hypergeometric
    draw of B from c.  That draw halves the k occupied states (ascending)
    level by level: the share of a range's take that falls in its left
    half is hypergeometric on the range's coins, and given it each half's
    take is again a uniform draw (Devroye, 1986), so ceil(log2 k) draws,
    one per level over every over-budget row and range, cut the rows.  A
    row may spend less than B but never more.
    """
    occupied = np.flatnonzero(Z.any(axis=0))
    X1 = np.zeros(Z.shape, dtype=np.int64)
    qo = q[occupied]
    rows = max(1, BLOCK_CELLS // occupied.size)
    for a in range(0, len(Z), rows):
        X1[a:a + rows, occupied] = rng.binomial(Z[a:a + rows, occupied], qo)
    over = np.flatnonzero(X1.sum(axis=1) > B)
    if over.size:
        # coins of the over-budget rows before each occupied state; a range's
        # take sits in X1 at the column of its first state
        P = np.zeros((over.size, occupied.size + 1), dtype=np.int64)
        for a in range(0, over.size, rows):
            np.cumsum(X1[np.ix_(over[a:a + rows], occupied)], axis=1, out=P[a:a + rows, 1:])
        X1[over, occupied[0]] = B
        for lo, mid, hi in _halvings(occupied.size):
            first, second = occupied[lo], occupied[mid]
            rows = max(1, BLOCK_CELLS // lo.size)
            for a in range(0, over.size, rows):
                r, p = over[a:a + rows, None], P[a:a + rows]
                take, good = X1[r, first], p[:, mid]  # copies: fancy indexing
                bad = p[:, hi] - good
                good -= p[:, lo]
                left = rng.hypergeometric(good, bad, take)
                X1[r, first] = left
                take -= left
                X1[r, second] = take
                del take, good, bad, left  # freed before the next block copies
    return X1


@functools.lru_cache(maxsize=64)
def _halvings(k: int) -> tuple[tuple[np.ndarray, np.ndarray, np.ndarray], ...]:
    """Per level of halving [0, k) down to single states, the (lo, mid, hi)
    of every range of width >= 2, split at mid = (lo + hi) // 2: ceil(log2 k)
    levels."""
    levels, lo, hi = [], np.array([0]), np.array([k])
    while (wide := hi - lo >= 2).any():
        lo, hi = lo[wide], hi[wide]
        mid = (lo + hi) // 2
        levels.append((lo, mid, hi))
        lo, hi = np.c_[lo, mid].ravel(), np.c_[mid, hi].ravel()
    for a in chain.from_iterable(levels):  # every later call shares them
        a.flags.writeable = False
    return tuple(levels)


# A TS row whose bracket holds at most this many arms draws them by inverse
# CDF instead of splitting further.  Two is the fewest a live bracket holds.
# Each arm drawn at a leaf costs a ``betaincinv``, about four times the
# ``betainc`` a split costs per cell.  Under the aimed splits, a leaf of 4
# timed the same as 2 within noise on bern15 at N = 8, 1200 and 9600, and a
# leaf of 8 made simulate(bern15, "ts", 8, 2000) about a quarter slower.
TS_LEAF = 2
# Interior points of the value grid on which the tail table of a set of
# annotations aims each row's first split.
TS_GRID = 64
# Each later split keeps at least this share of its bracket on either side.
TS_CLIP = 0.05
# Floats ts_pulls holds at once per live (row, state) cell, at most: its cell
# arrays and their temporaries (23.5 and 25.5 per cell, by tracemalloc, on
# 2000 bern15 rows at N = 1200 and 9600).
TS_CELL_FLOATS = 26


@dataclass(frozen=True)
class _Posterior:
    """Per-state Beta(a, b) or Gamma(shape, rate) parameters (is_gamma, p0,
    p1) of a set of annotations; the top of their value range v = x / (1 + x)
    (1/2 for Beta, 1 once a state is Gamma); and the upper-tail table
    ``tail[s, k] = 1 - F_s(k * step)`` on the grid k = 0 .. TS_GRID + 1 of
    spacing ``step = top / (TS_GRID + 1)``."""

    gamma: np.ndarray
    p0: np.ndarray
    p1: np.ndarray
    top: float
    tail: np.ndarray

    @property
    def step(self) -> float:
        return self.top / (TS_GRID + 1)


def ts_posterior(annotations) -> _Posterior:
    """The posterior tables of these annotations that ``ts_pulls`` reads.  A
    posterior CDF that is not a number on the grid raises
    ``DegeneratePosterior`` here."""
    S = len(annotations)
    gamma = np.array([a.family == "gamma" for a in annotations])
    p0, p1 = np.array([a.params for a in annotations], dtype=np.float64).T
    post = _Posterior(gamma, p0, p1, 1.0 if gamma.any() else 0.5, np.zeros((S, TS_GRID + 2)))
    post.tail[:, 0] = 1.0
    v = np.arange(1, TS_GRID + 1) * post.step
    post.tail[:, 1:-1] = _tails(post, np.repeat(np.arange(S), TS_GRID),
                                np.tile(v, S))[1].reshape(S, TS_GRID)
    return post


def _tails(post, s: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Lower and upper posterior masses (F, 1 - F) of states s below and
    above value coordinate v = x / (1 + x) < 1.  The tail away from the
    mean is computed directly and the other as its complement, so a small
    tail keeps its relative precision."""
    g = post.gamma[s]
    if g.any() and not g.all():  # mixed families: one pass per family
        F, G = np.empty_like(v), np.empty_like(v)
        for m in (g, ~g):
            F[m], G[m] = _tails(post, s[m], v[m])
        return F, G
    a, c = post.p0[s], post.p1[s]
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
    a, c, g = post.p0[s], post.p1[s], post.gamma[s]
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


def _first_split(post: _Posterior, Z: np.ndarray, B: int) -> np.ndarray:
    """Each row's first split point: where the expected number of its arms
    above v, linear between grid points of the tail table, falls to B."""
    occ = np.flatnonzero(Z.any(axis=0))
    E = Z[:, occ] @ post.tail[occ]  # N at v = 0, 0 at the top
    k = np.argmax(E < B, axis=1)  # the first grid point below B: E[:, k - 1] >= B
    rows = np.arange(len(Z))
    above, below = E[rows, k - 1], E[rows, k]
    return (k - 1 + (above - B) / (above - below)) * post.step


def ts_pulls(Z: np.ndarray, post: _Posterior, B: int, rng: np.random.Generator) -> np.ndarray:
    """Thompson-sampling pulls (R, S): every arm draws from its state's
    posterior, and each row pulls its B largest draws.

    Drawn at count level by the same law, without a draw per arm.  Each row
    keeps a bracket [lo, hi) of the value coordinate v = x / (1 + x) (Beta
    beliefs live on [0, 1/2), Gamma beliefs on [0, 1)) that holds its B-th
    largest draw, and splits it at a point m aimed at that draw.  The
    state-s arms of a bracket that fall above m number Binomial(n_s,
    (F_s(hi) - F_s(m)) / (F_s(hi) - F_s(lo))), F_s the posterior CDF, with
    masses taken from the smaller tail.  Arms above the kept part are
    pulled, arms below it are not, and a row whose upper part holds exactly
    the arms still to pull is done.

    The law is exact wherever m falls, as long as it depends only on Z, B
    and the draws already made.  The first m is where the row's expected
    number of arms above v, sum_s Z_s (1 - F_s(v)), falls to B: a product
    with the tail table of ``post`` (from ``ts_posterior``), interpolated
    linearly between its grid points.  Each later m is where the need-th
    largest of the bracket's arms would sit if they were spread evenly over
    it (regula falsi), at least ``TS_CLIP`` of the bracket from either end.  Once a bracket holds at most ``TS_LEAF``
    arms, or can no longer be split in floating point, its arms are drawn
    by inverse CDF truncated to it and the largest ones are pulled.  The
    posteriors are continuous, so ties have probability 0; draws that
    floating point cannot tell apart are ordered uniformly at random.

    The work per row is one table product plus O(S) per split.  The number
    of splits grows slowly with N but has no log2 N bound: on bern15 a row
    takes 2.1 splits per period on average at N = 8, 4.6 at N = 1200 and
    5.5 at N = 9600.  A bracket that holds arms of a state whose
    posterior gives it no mass, or a posterior CDF that is not a number,
    raises ``DegeneratePosterior``.
    """
    R, S = Z.shape
    N = int(Z[0].sum())
    if B <= 0:
        return np.zeros((R, S), dtype=np.int64)
    if B >= N:
        return Z.copy()
    X1 = np.zeros((R, S), dtype=np.int64)
    lo, hi = np.zeros(R), np.full(R, post.top)
    mid = _first_split(post, Z, B)
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
        mid = lo + np.clip(1.0 - need / inside, TS_CLIP, 1.0 - TS_CLIP) * (hi - lo)
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


def fluid_priority_allocate(t: int, Z: np.ndarray, measure: OccupationMeasure,
                            scores: np.ndarray, alpha_t: float,
                            codes: np.ndarray | None = None) -> np.ndarray:
    """Fluid-priority pulls (S,) of one count vector Z (S,) at period t.

    A 1-row call of :func:`fluid_pulls` at N = Z.sum(), with neutral-state
    quotas floor(N * x_t(s,1)); ``codes`` defaults to ``classify(measure)``.
    Exactly floor(alpha_t * N) arms are pulled.
    """
    Z = np.asarray(Z, dtype=np.int64)
    S, N = Z.size, int(Z.sum())
    if measure.x.shape[1] != S:
        raise DimensionMismatch("measure and counts disagree on the state count")
    codes = codes if codes is not None else classify(measure)
    quota = np.floor(N * measure.x[t - 1, :, 1]).astype(np.int64)
    return fluid_pulls(Z[None, :], codes[t - 1], score_order(scores, t, S), quota,
                       period_budget(alpha_t, N))[0]


def activation_probabilities(measure: OccupationMeasure, t: int) -> np.ndarray:
    """q_t(s) = x_t(s,1) / z_t(s), zero where the fluid mass is at most 1e-9."""
    z = measure.z[t - 1]
    x1 = measure.x[t - 1, :, 1]
    q = np.zeros_like(z)
    occ = z > 1e-9
    q[occ] = x1[occ] / z[occ]
    if (q < -1e-9).any() or (q > 1.0 + 1e-9).any():
        raise QOutOfRange(f"activation probabilities outside [0,1]: min {q.min()}, max {q.max()}")
    return np.clip(q, 0.0, 1.0)


def ucb_scores(annotations, delta: float) -> np.ndarray:
    if not annotations:
        raise MissingMetadata("model ships no per-state posterior annotations")
    return np.array([a.posterior_mean + delta * a.posterior_sd for a in annotations])


def parse_policy(text: str) -> PolicySpec:
    """CLI form: fluid | relaxed | index | rac | ucb:<delta> | ts."""
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
