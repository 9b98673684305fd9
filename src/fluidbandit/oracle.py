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

import functools
import math
from typing import Callable

import numpy as np
import scipy.sparse as sp

from .errors import BudgetExceeded, DimensionMismatch, NondeterministicPolicy, RangeError
from .mdp import ArmModel, CountState, period_budget, successors
from .occupancy import classify  # noqa: F401  bench/tracing.py patches this name
from .policies import fluid_priority_allocate  # noqa: F401  bench/tracing.py patches this name
from .policies import parse_policy
from .priority import q_recursion  # noqa: F401  bench/tracing.py patches this name
from .simulator import _resolve_policy

# Work guard: grid cells valued plus table entries built.
DEFAULT_GUARD = 10 ** 7
# The policy DP folds its scattered successors once about this many have
# landed, so memory does not grow with the (passive, active) landing pairs.
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
    lexicographic order: the pull vectors of a count vector.  The DPs
    here value all of a period's pull vectors at once and do not call it."""
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


class _Lattice:
    """One oracle call: its work guard, its count vectors with their index
    within the compositions of their total (lexicographic, as
    :func:`compositions` yields them), and its memo of group laws keyed
    by (period, action, composition).  Periods whose kernel matrices are
    equal (the same ``indptr``, ``indices`` and ``data``) are keyed by
    the first of them, so they share their laws however the model was
    built.  Levels, index maps and laws are built on first use and
    charged to the guard before they are allocated."""

    def __init__(self, model: ArmModel, N: int, guard: int):
        if N < 1:
            raise RangeError("N must be >= 1")
        self.S, self.N = model.S, N
        self.guard, self.used = guard, 0
        self.kernels = successors(model)
        first: dict[tuple, int] = {}
        self.first = [first.setdefault((K.dtype.str, K.indptr.tobytes(), K.indices.tobytes(),
                                        K.data.tobytes()), u)
                      for u, K in enumerate(self.kernels)]
        self.laws: dict[tuple[int, int, tuple[int, ...]], tuple[np.ndarray, np.ndarray]] = {}
        self.unit = np.eye(self.S, dtype=np.int64)
        self._levels: dict[int, np.ndarray] = {}
        self._sums: dict[tuple[int, int], np.ndarray] = {}

    @functools.cached_property
    def count(self) -> np.ndarray:
        """count[j, m]: compositions of m into j + 1 parts, capped where no
        level the guard lets through can reach; built on first use, so
        the size estimate of :func:`optimal_value` refuses a huge N first."""
        cap = np.iinfo(np.int64).max // 4
        return np.array([[min(math.comb(m + j, j), cap) for m in range(self.N + 1)]
                         for j in range(self.S)], dtype=np.int64)

    def spend(self, units: int) -> None:
        self.used += units
        if self.used > self.guard:
            raise BudgetExceeded(f"enumeration exceeded {self.guard} work units")

    def size(self, n: int) -> int:
        return int(self.count[self.S - 1, n])

    def level(self, n: int) -> np.ndarray:
        """The compositions of n, one row each."""
        Y = self._levels.get(n)
        if Y is None:
            self.spend(self.size(n))
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
            self.spend(self.size(n0) * self.size(n1))
            Y0 = self.level(n0)
            idx = self._sums[n0, n1] = np.stack(
                [self.rank(Y0 + y1, n0 + n1) for y1 in self.level(n1)], axis=1)
        return idx

    def law(self, t: int, a: int, P: tuple[int, ...]):
        """Where the arms of composition P land under action a in period t:
        the count vectors reached (rows, in lexicographic order) and their
        probabilities, one row of that period's group table kept sparse."""
        memo, u = self.laws, self.first[t - 1]
        chain = []
        while (u, a, P) not in memo and any(P):
            # peel one arm off the last occupied state
            s = max(i for i, c in enumerate(P) if c)
            chain.append((P, s))
            P = P[:s] + (P[s] - 1,) + P[s + 1:]
        Y, p = memo[u, a, P] if any(P) else (np.zeros((1, self.S), dtype=np.int64), np.ones(1))
        K = self.kernels[u]
        for P, s in reversed(chain):
            lo, hi = K.indptr[2 * s + a], K.indptr[2 * s + a + 1]
            # the peeled arm lands in each target j: every vector gains e_j
            moved = Y[None] + self.unit[K.indices[lo:hi], None]
            self.spend(moved.shape[0] * moved.shape[1])
            Y, p = memo[u, a, P] = self.merge(moved.reshape(-1, self.S),
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

    A period's (count vector, pull vector) pairs are exactly the cells
    (P, A) of the grid (compositions of N - B_t) x (compositions of B_t),
    with count vector Z = P + A; the index map ``sums`` puts each cell's
    Z.  A cell is worth its immediate reward plus, for t < T, entry
    (P, A) of M0 @ G @ M1.T, the expected V_{t+1} after passive counts P
    and active counts A, where M0 and M1 are the period's passive and
    active group tables and G[y_p, y_a] = V_{t+1}(y_p + y_a).  V_t is one
    scatter-max of the cells onto their Z.

    One work unit of `guard` is one grid cell, one count vector stored (a
    composition of some total, or a landing vector while a group law is
    built) or one entry of an index map or of a period's continuation
    grid; every period, t = T included, builds its index map.  A size
    estimate beyond 100 times the guard is refused before any work.
    """
    lattice = _Lattice(model, N, guard)
    S, T = model.S, model.T
    n_comp = math.comb(N + S - 1, S - 1)
    budgets = [period_budget(float(model.alpha[t]), N) for t in range(T)]
    rough = n_comp * T * max(math.comb(b + S - 1, S - 1) for b in budgets)
    if rough > guard * 100:
        raise BudgetExceeded(
            f"estimated enumeration {rough} far beyond guard {guard}")

    vnext = np.zeros(lattice.size(N))
    tables = []
    for t in range(T, 0, -1):
        B = budgets[t - 1]
        idx = lattice.sums(N - B, B)
        lattice.spend(idx.size)
        val = ((lattice.level(N - B) @ model.R[t - 1, :, 0])[:, None]
               + (lattice.level(B) @ model.R[t - 1, :, 1])[None, :])
        if t < T:
            G = vnext[idx]
            lattice.spend(G.size)
            val += lattice.table(t, 0, N - B) @ (lattice.table(t, 1, B) @ G.T).T
        vnext = np.full(len(vnext), -np.inf)
        np.maximum.at(vnext, idx.ravel(), val.ravel())
        if return_tables:
            tables.append(dict(zip(map(tuple, lattice.level(N).tolist()), vnext.tolist())))
    value = float(vnext[lattice.rank(lattice.unit[model.s0] * N, N)])
    if return_tables:
        return value, list(reversed(tables))
    return value


def _batch_allocator(model: ArmModel, policy) -> Callable[[int, np.ndarray], np.ndarray]:
    """Deterministic action counts (R, S, 2) of count rows Z (R, S): a
    bare callable ``(t, CountState) -> AllocationPlan`` row by row, each
    plan checked to split its row's counts, anything else compiled by
    :class:`~fluidbandit.simulator.CompiledPolicy` and applied by one
    ``allocate_batch`` call."""
    if callable(policy):
        def plan(t: int, z: np.ndarray) -> np.ndarray:
            X = policy(t, CountState(t=t, N=int(z.sum()), Z=z.copy())).X
            if X.shape != (model.S, 2):
                raise DimensionMismatch(
                    f"period {t} plan has shape {X.shape}, expected ({model.S}, 2)")
            # a negative count would never finish peeling in _Lattice.law
            if (X < 0).any() or (X.sum(axis=1) != z).any():
                raise RangeError(f"period {t} plan {X.tolist()} does not split "
                                 f"counts {z.tolist()} into passive and active arms")
            return X
        return lambda t, Z: np.stack([plan(t, z) for z in Z])
    if isinstance(policy, str):
        policy = parse_policy(policy)
    if getattr(policy, "kind", None) in ("rac", "ts"):
        raise NondeterministicPolicy(f"{policy.kind} is randomized; exact evaluation undefined")
    pol = _resolve_policy(model, policy)

    def allocate(t: int, Z: np.ndarray) -> np.ndarray:
        X1 = pol.allocate_batch(t, Z, None)
        return np.stack([Z - X1, X1], axis=2)
    return allocate


def exact_policy_value(model: ArmModel, policy, N: int,
                       guard: int = DEFAULT_GUARD) -> float:
    """Exact expected total reward of a deterministic policy at arm count N.

    Propagates the full distribution over count vectors forward through
    the policy's allocations, made by one ``allocate_batch`` call per
    period over every reachable count vector; raises
    NondeterministicPolicy for RAC/TS and RangeError for N < 1.  A
    vector's successor law is the outer product of its passive and
    active group-table rows, scattered onto the compositions of N; rows
    are built on first use, since a policy may pull other than B_t.
    Work units are counted as in :func:`optimal_value`, plus one per
    scattered (passive, active) landing pair.
    """
    lattice = _Lattice(model, N, guard)
    allocate = _batch_allocator(model, policy)
    S, T = model.S, model.T
    reach = np.zeros((1, S), dtype=np.int64)
    reach[0, model.s0] = N
    prob = np.ones(1)
    total = 0.0
    for t in range(1, T + 1):
        X = allocate(t, reach)
        reward = (model.R[t - 1] * X).reshape(len(X), -1).sum(axis=1)
        # row by row: a dot product would sum in another order
        for pz, r in zip(prob.tolist(), reward.tolist()):
            total += pz * r
        if t == T:
            break
        succ_Y, succ_p = [], []
        pending = limit = PAIR_BLOCK
        for pz, X0, X1 in zip(prob.tolist(), map(tuple, X[:, :, 0].tolist()),
                              map(tuple, X[:, :, 1].tolist())):
            (Y0, p0), (Y1, p1) = lattice.law(t, 0, X0), lattice.law(t, 1, X1)
            lattice.spend(len(Y0) * len(Y1))
            succ_Y.append((Y0[:, None, :] + Y1[None, :, :]).reshape(-1, S))
            succ_p.append(pz * np.outer(p0, p1).ravel())
            pending -= len(succ_p[-1])
            if pending < 0:
                # fold what has landed so far: memory holds distinct vectors
                Yf, pf = lattice.merge(np.concatenate(succ_Y), np.concatenate(succ_p))
                succ_Y, succ_p = [Yf], [pf]
                limit = max(limit, 2 * len(pf))
                pending = limit - len(pf)
        reach, prob = lattice.merge(np.concatenate(succ_Y), np.concatenate(succ_p))
    return total
