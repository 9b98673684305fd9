"""Exact ground truth for tiny N: joint-count backward induction.

The N-arm system is a single MDP over count vectors (compositions of N
across states).  Backward induction over that space gives the exact
optimal value V*_N; forward distribution propagation gives the exact
value of any deterministic policy, compiled by the simulator's
``CompiledPolicy`` so that the bound, the oracle and the Monte Carlo
engines all run one policy.

Both rest on one factorisation.  Split a period's action counts into
passive counts P and active counts A.  The next count vector is
Y_P + Y_A, where Y_P is where the passive arms land and Y_A where the
active arms land; the two are independent, and each is a sum of
per-state multinomials.  The law of Y_P is one row of the period's
passive group table, which has a row for every composition of |P|, and
likewise for Y_A.  The tables grow combinatorially in N and S, so they
only fit tiny instances; a work guard rejects anything larger instead
of hanging or exhausting memory.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np
import scipy.sparse as sp

from .errors import BudgetExceeded, NondeterministicPolicy, RangeError
from .mdp import AllocationPlan, ArmModel, CountState, period_budget, successors
from .occupancy import classify  # noqa: F401  bench/tracing.py patches this name
from .policies import (budget_relaxed_allocate, fluid_priority_allocate, index_allocate,
                       parse_policy)
from .priority import q_recursion  # noqa: F401  bench/tracing.py patches this name
from .simulator import _resolve_policy

# Work guard: (count vector, pull vector) pairs plus table entries built.
DEFAULT_GUARD = 10 ** 7
# Vectorized block size: the optimal DP values about this many (count
# vector, pull vector) pairs at a time, and the policy DP folds its
# scattered successors once about this many have landed, so memory does
# not grow with the pairs.
PAIR_BLOCK = 1 << 14


def compositions(total: int, parts: int):
    """All nonnegative integer vectors of length `parts` summing to `total`,
    in lexicographic order."""
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in compositions(total - head, parts - 1):
            yield (head,) + rest


def bounded_compositions(total: int, bounds):
    """Compositions of `total` with per-coordinate upper bounds, in
    lexicographic order."""
    # coordinates bounded by 0 stay 0, so only the others are walked
    support = [i for i, b in enumerate(bounds) if b > 0]
    caps = [bounds[i] for i in support]
    room = [sum(caps[k:]) for k in range(len(caps) + 1)]
    out = [0] * len(bounds)

    def rec(k: int, rem: int):
        if k == len(support):
            yield tuple(out)
            return
        for v in range(max(0, rem - room[k + 1]), min(rem, caps[k]) + 1):
            out[support[k]] = v
            yield from rec(k + 1, rem - v)

    if total <= room[0]:
        yield from rec(0, total)


class _WorkMeter:
    """Work guard of one oracle call, and that call's memo of group laws
    keyed by (period, action, composition); periods that share a kernel
    matrix are keyed by the first of them."""

    def __init__(self, guard: int):
        self.guard = guard
        self.used = 0
        self.outcomes: dict[tuple[int, int, tuple[int, ...]], np.ndarray] = {}

    def spend(self, units: int) -> None:
        self.used += units
        if self.used > self.guard:
            raise BudgetExceeded(f"enumeration exceeded {self.guard} work units")


class _Lattice:
    """Count vectors of one oracle call: their index within the
    compositions of their total (lexicographic, as :func:`compositions`
    yields them), and the group laws built on them.  Levels, index maps
    and laws are built on first use and charged to the call's meter
    before they are allocated."""

    def __init__(self, model: ArmModel, N: int, meter: _WorkMeter):
        self.S = S = model.S
        self.kernels = successors(model)
        # periods that share one kernel matrix share its group laws
        self.owner = [next(u for u, K2 in enumerate(self.kernels) if K2 is K)
                      for K in self.kernels]
        self.meter = meter
        # count[j, m]: compositions of m into j + 1 parts, capped where no
        # level the meter lets through can reach
        cap = np.iinfo(np.int64).max // 4
        self.count = np.array([[min(math.comb(m + j, j), cap) for m in range(N + 1)]
                               for j in range(S)], dtype=np.int64)
        self.unit = np.eye(S, dtype=np.int64)
        self._levels: dict[int, np.ndarray] = {}
        self._sums: dict[tuple[int, int], np.ndarray] = {}

    def size(self, n: int) -> int:
        return int(self.count[self.S - 1, n])

    def level(self, n: int) -> np.ndarray:
        """The compositions of n, one row each."""
        Y = self._levels.get(n)
        if Y is None:
            self.meter.spend(self.size(n))
            Y = self._levels[n] = np.array(list(compositions(n, self.S)),
                                           dtype=np.int64).reshape(-1, self.S)
        return Y

    def rank(self, Y: np.ndarray, total: int) -> np.ndarray:
        """Index of each count vector (last axis of Y) within the
        compositions of `total`."""
        rem = total - np.cumsum(Y, axis=-1) + Y  # arms left from state i on
        parts = np.arange(self.S - 1, -1, -1)
        # per state i, the vectors that agree before i and hold fewer arms
        # in i (none at the last state, whose count the rest fixes)
        return (self.count[parts, rem] - self.count[parts, rem - Y]).sum(axis=-1)

    @staticmethod
    def merge(Y: np.ndarray, p: np.ndarray):
        """Distinct rows of Y in lexicographic order, each with the sum of
        its probabilities in p."""
        order = np.lexsort(Y.T[::-1])
        Y = Y[order]
        new = np.ones(len(Y), dtype=bool)
        new[1:] = (Y[1:] != Y[:-1]).any(axis=1)
        return Y[new], np.bincount(np.cumsum(new) - 1, weights=p[order])

    def sums(self, n0: int, n1: int) -> np.ndarray:
        """Index within the compositions of n0 + n1 of y0 + y1, for every
        composition y0 of n0 (rows) and y1 of n1 (columns)."""
        idx = self._sums.get((n0, n1))
        if idx is None:
            self.meter.spend(self.size(n0) * self.size(n1))
            Y0 = self.level(n0)
            idx = self._sums[n0, n1] = np.stack(
                [self.rank(Y0 + y1, n0 + n1) for y1 in self.level(n1)], axis=1)
        return idx

    def law(self, t: int, a: int, P: tuple[int, ...]):
        """Where the arms of composition P land under action a in period t:
        the count vectors reached (rows, in lexicographic order) and their
        probabilities, one row of that period's group table kept sparse."""
        memo = self.meter.outcomes
        t = self.owner[t - 1] + 1
        chain = []
        while (t, a, P) not in memo and any(P):
            # peel one arm off the last occupied state
            s = max(i for i, c in enumerate(P) if c)
            chain.append((P, s))
            P = P[:s] + (P[s] - 1,) + P[s + 1:]
        Y, p = memo[t, a, P] if any(P) else (np.zeros((1, self.S), dtype=np.int64), np.ones(1))
        K = self.kernels[t - 1]
        for P, s in reversed(chain):
            lo, hi = K.indptr[2 * s + a], K.indptr[2 * s + a + 1]
            # the peeled arm lands in each target j: every vector gains e_j
            moved = Y[None] + self.unit[K.indices[lo:hi], None]
            self.meter.spend(moved.shape[0] * moved.shape[1])
            Y, p = memo[t, a, P] = self.merge(moved.reshape(-1, self.S),
                                              np.outer(K.data[lo:hi], p).ravel())
        return Y, p

    def table(self, t: int, a: int, n: int) -> sp.csr_matrix:
        """Group table of period t under action a: the law of every
        composition of n, one row each."""
        laws = [self.law(t, a, P) for P in map(tuple, self.level(n).tolist())]
        indptr = np.cumsum([0] + [len(p) for _, p in laws])
        Y = np.concatenate([Y for Y, _ in laws])
        return sp.csr_matrix((np.concatenate([p for _, p in laws]), self.rank(Y, n), indptr),
                             shape=(len(laws), len(laws)))


def optimal_value(model: ArmModel, N: int, guard: int = DEFAULT_GUARD,
                  return_tables: bool = False):
    """Exact V*_N by backward induction over joint count vectors.

    Each period t < T takes one matrix product: entry (P, A) of
    M0 @ G @ M1.T is the expected V_{t+1} after passive counts P and
    active counts A, where M0 and M1 are the period's passive and active
    group tables over the compositions of N - B_t and B_t, and
    G[y_p, y_a] = V_{t+1}(y_p + y_a).  V_t(Z) is the best immediate reward
    plus that entry over Z's pull vectors.

    One work unit of `guard` is one (count vector, pull vector) pair, one
    count vector stored (a composition of some total, or a landing
    vector while a group law is built) or one entry of an index map or
    of a period's continuation grid.  A size estimate beyond 100 times
    the guard is refused before any work.
    """
    if N < 1:
        raise RangeError("N must be >= 1")
    S, T = model.S, model.T
    n_comp = math.comb(N + S - 1, S - 1)
    budgets = [period_budget(float(model.alpha[t]), N) for t in range(T)]
    rough = n_comp * T * max(math.comb(b + S - 1, S - 1) for b in budgets)
    if rough > guard * 100:
        raise BudgetExceeded(
            f"estimated enumeration {rough} far beyond guard {guard}")
    meter = _WorkMeter(guard)
    lattice = _Lattice(model, N, meter)

    Y = lattice.level(N)
    all_Z = list(map(tuple, Y.tolist()))
    vnext = np.zeros(len(all_Z))
    tables = []
    for t in range(T, 0, -1):
        B = budgets[t - 1]
        if t < T:
            G = vnext[lattice.sums(N - B, B)]
            meter.spend(G.size)
            cont = lattice.table(t, 0, N - B) @ (lattice.table(t, 1, B) @ G.T).T
        best = []
        pulls: list[tuple[int, ...]] = []
        counts: list[int] = []
        first = 0
        for i, Z in enumerate(all_Z):
            before = len(pulls)
            pulls.extend(bounded_compositions(B, Z))
            counts.append(len(pulls) - before)
            if len(pulls) < PAIR_BLOCK and i + 1 < len(all_Z):
                continue
            meter.spend(len(pulls))
            A = np.array(pulls, dtype=np.int64).reshape(-1, S)
            P = np.repeat(Y[first:i + 1], counts, axis=0) - A
            val = P @ model.R[t - 1, :, 0] + A @ model.R[t - 1, :, 1]
            if t < T:
                val += cont[lattice.rank(P, N - B), lattice.rank(A, B)]
            best.append(np.maximum.reduceat(val, np.cumsum(counts) - counts))
            pulls, counts, first = [], [], i + 1
        vnext = np.concatenate(best)
        if return_tables:
            tables.append(dict(zip(all_Z, vnext.tolist())))
    value = float(vnext[lattice.rank(lattice.unit[model.s0] * N, N)])
    if return_tables:
        return value, list(reversed(tables))
    return value


def _scalar_allocator(model: ArmModel, policy) -> Callable[[int, CountState], AllocationPlan]:
    """Deterministic per-count-state allocation: a bare callable as given,
    anything else compiled by :class:`~fluidbandit.simulator.CompiledPolicy`
    and applied through the public 1-row allocators."""
    if callable(policy):
        return policy
    if isinstance(policy, str):
        policy = parse_policy(policy)
    if getattr(policy, "kind", None) in ("rac", "ts"):
        raise NondeterministicPolicy(f"{policy.kind} is randomized; exact evaluation undefined")
    pol = _resolve_policy(model, policy)
    measure, scores, part = pol.measure, pol.scores, pol.partition
    if pol.kind == "fluid":
        return lambda t, c: fluid_priority_allocate(
            t, c, measure, scores, c.N, alpha_t=float(model.alpha[t - 1]), partition=part)
    if pol.kind == "relaxed":
        return lambda t, c: budget_relaxed_allocate(
            t, c, measure, scores, c.N, alpha_t=float(model.alpha[t - 1]), partition=part)
    # index and ucb: greedy in the compiled score order
    return lambda t, c: index_allocate(
        t, c, scores, period_budget(float(model.alpha[t - 1]), c.N))


def exact_policy_value(model: ArmModel, policy, N: int,
                       guard: int = DEFAULT_GUARD) -> float:
    """Exact expected total reward of a deterministic policy at arm count N.

    Propagates the full distribution over count vectors forward through
    the policy's allocations, one per reachable count vector; raises
    NondeterministicPolicy for RAC/TS and RangeError for N < 1.  A vector's successor law is the
    outer product of its passive and active group-table rows, scattered
    onto the compositions of N; rows are built on first use, since a
    policy may pull other than B_t.  Work units are counted as in
    :func:`optimal_value`, plus one per scattered (passive, active)
    landing pair.
    """
    if N < 1:
        raise RangeError("N must be >= 1")
    allocate = _scalar_allocator(model, policy)
    meter = _WorkMeter(guard)
    lattice = _Lattice(model, N, meter)
    S, T = model.S, model.T
    reach = np.zeros((1, S), dtype=np.int64)
    reach[0, model.s0] = N
    prob = np.ones(1)
    total = 0.0
    for t in range(1, T + 1):
        succ_Y, succ_p = [], []
        pending = limit = PAIR_BLOCK
        for Z, pz in zip(reach, prob.tolist()):
            plan = allocate(t, CountState(t=t, N=N, Z=Z.copy()))
            total += pz * float((model.R[t - 1] * plan.X).sum())
            if t < T:
                (Y0, p0), (Y1, p1) = (lattice.law(t, a, tuple(x)) for a, x in
                                      enumerate(plan.X.T.tolist()))
                meter.spend(len(Y0) * len(Y1))
                succ_Y.append((Y0[:, None, :] + Y1[None, :, :]).reshape(-1, S))
                succ_p.append(pz * np.outer(p0, p1).ravel())
                pending -= len(succ_p[-1])
                if pending < 0:
                    # fold what has landed so far: memory holds distinct vectors
                    Yf, pf = lattice.merge(np.concatenate(succ_Y), np.concatenate(succ_p))
                    succ_Y, succ_p = [Yf], [pf]
                    limit = max(limit, 2 * len(pf))
                    pending = limit - len(pf)
        if t < T:
            reach, prob = lattice.merge(np.concatenate(succ_Y), np.concatenate(succ_p))
    return total
