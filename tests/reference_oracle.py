"""References for the exact joint-count oracle.

Backward induction and forward propagation that build the successor law
of every (count vector, action counts) pair by convolving per-state
multinomial outcome tables in a dictionary.  It is the reference that
``fluidbandit.oracle.optimal_value`` and ``exact_policy_value`` (one group
table product per period) are checked against.  Its policy evaluation
allocates one count vector at a time through the per-state loop forms of
``reference_policies``, so the cross-check runs none of the package's
allocation code.

:class:`ChainLaws` builds the oracle's group laws one composition at a
time, each by a lexsort merge, so that the oracle's level batches can be
held to it bit for bit.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from fluidbandit.errors import BudgetExceeded, NondeterministicPolicy, RangeError
from fluidbandit.mdp import ArmModel, period_budget, successors
from fluidbandit.oracle import DEFAULT_GUARD, bounded_compositions, compositions
from fluidbandit.policies import parse_policy
from fluidbandit.simulator import _resolve_policy
from reference_policies import budget_relaxed_allocate, fluid_priority_allocate, index_allocate


class _WorkMeter:
    """Work guard of one oracle call, and that call's memo of multinomial
    outcome tables keyed by (group size, transition probabilities)."""

    def __init__(self, guard: int):
        self.guard = guard
        self.used = 0
        self.outcomes: dict[tuple[int, tuple[float, ...]], list] = {}

    def spend(self, units: int) -> None:
        self.used += units
        if self.used > self.guard:
            raise BudgetExceeded(f"enumeration exceeded {self.guard} work units")


class ChainLaws:
    """The group laws of ``fluidbandit.oracle._Lattice``, one composition at
    a time: the law of P is its parent's law (P with one arm peeled off
    its last occupied state) with the peeled arm moved to each kernel
    target, the landing vectors merged by a lexsort.  Memo keys (period
    keyed by the first equal kernel matrix, action, composition) and
    work units (one per landing vector before the merge) are the
    oracle's; rows are landing vectors in lexicographic order."""

    def __init__(self, model: ArmModel):
        self.S = model.S
        self.kernels = successors(model)
        first: dict[tuple, int] = {}
        self.first = [first.setdefault((K.dtype.str, K.indptr.tobytes(), K.indices.tobytes(),
                                        K.data.tobytes()), u)
                      for u, K in enumerate(self.kernels)]
        self.memo: dict[tuple[int, int, tuple[int, ...]], tuple[np.ndarray, np.ndarray]] = {}
        self.used = 0
        self.unit = np.eye(self.S, dtype=np.int64)

    @staticmethod
    def merge(Y: np.ndarray, p: np.ndarray):
        """Distinct rows of Y in lexicographic order, each with the sum of
        its probabilities in p."""
        order = np.lexsort(Y.T[::-1])
        Y = Y[order]
        new = np.ones(len(Y), dtype=bool)
        new[1:] = (Y[1:] != Y[:-1]).any(axis=1)
        return Y[new], np.bincount(np.cumsum(new) - 1, weights=p[order])

    def law(self, t: int, a: int, P: tuple[int, ...]):
        """Where the arms of composition P land under action a in period t:
        the count vectors reached (rows) and their probabilities."""
        memo, u = self.memo, self.first[t - 1]
        chain = []
        while (u, a, P) not in memo and any(P):
            s = max(i for i, c in enumerate(P) if c)
            chain.append((P, s))
            P = P[:s] + (P[s] - 1,) + P[s + 1:]
        Y, p = memo[u, a, P] if any(P) else (np.zeros((1, self.S), dtype=np.int64), np.ones(1))
        K = self.kernels[u]
        for P, s in reversed(chain):
            lo, hi = K.indptr[2 * s + a], K.indptr[2 * s + a + 1]
            # the peeled arm lands in each target j: every vector gains e_j
            moved = Y[None] + self.unit[K.indices[lo:hi], None]
            self.used += moved.shape[0] * moved.shape[1]
            Y, p = memo[u, a, P] = self.merge(moved.reshape(-1, self.S),
                                              np.outer(K.data[lo:hi], p).ravel())
        return Y, p


def _group_outcomes(g: int, probs: tuple[float, ...]) -> list[tuple[tuple[int, ...], float]]:
    """Multinomial outcomes for g arms over len(probs) targets with pmf."""
    k = len(probs)
    out = []
    for comp in compositions(g, k):
        coef = math.factorial(g)
        for c in comp:
            coef //= math.factorial(c)
        p = float(coef)
        for c, q in zip(comp, probs):
            p *= q ** c
        if p > 0.0:
            out.append((comp, p))
    return out


def _successor_distribution(K, X: np.ndarray,
                            meter: _WorkMeter) -> dict[tuple[int, ...], float]:
    """Distribution of Z_{t+1} given the action counts X at period t,
    whose kernel K is the period's entry of :func:`mdp.successors`."""
    dist: dict[tuple[int, ...], float] = {tuple([0] * K.shape[1]): 1.0}
    for r, g in enumerate(X.reshape(-1).tolist()):
        if g == 0:
            continue
        targets = K.indices[K.indptr[r]:K.indptr[r + 1]].tolist()
        probs = tuple(K.data[K.indptr[r]:K.indptr[r + 1]].tolist())
        outcomes = meter.outcomes.get((g, probs))
        if outcomes is None:
            outcomes = meter.outcomes[g, probs] = _group_outcomes(g, probs)
        new: dict[tuple[int, ...], float] = {}
        meter.spend(len(dist) * len(outcomes))
        for z, pz in dist.items():
            for comp, pc in outcomes:
                nz = list(z)
                for tgt, cnt in zip(targets, comp):
                    nz[tgt] += cnt
                key = tuple(nz)
                new[key] = new.get(key, 0.0) + pz * pc
        dist = new
    return dist


def optimal_value(model: ArmModel, N: int, guard: int = DEFAULT_GUARD,
                  return_tables: bool = False):
    """Exact V*_N by backward induction over joint count vectors."""
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
    kernels = successors(model)

    all_Z = list(compositions(N, S))
    vnext: dict[tuple[int, ...], float] = {z: 0.0 for z in all_Z}
    tables = []
    for t in range(T, 0, -1):
        B = budgets[t - 1]
        vt: dict[tuple[int, ...], float] = {}
        for Z in all_Z:
            best = -math.inf
            for pulls in bounded_compositions(B, Z):
                X = np.array([[z - x1, x1] for z, x1 in zip(Z, pulls)], dtype=np.int64)
                meter.spend(1)
                val = float((model.R[t - 1] * X).sum())
                if t < T:
                    succ = _successor_distribution(kernels[t - 1], X, meter)
                    val += sum(p * vnext[z2] for z2, p in succ.items())
                if val > best:
                    best = val
            vt[Z] = best
        if return_tables:
            tables.append(vt)
        vnext = vt
    z1 = tuple(N if s == model.s0 else 0 for s in range(S))
    value = vnext[z1]
    if return_tables:
        return value, list(reversed(tables))
    return value


def _scalar_allocator(model: ArmModel, policy) -> Callable[[int, np.ndarray], np.ndarray]:
    """Deterministic pulls (S,) of one count vector (S,): a bare callable
    (with ``allocate_batch``'s contract) on that vector as a one-row batch,
    anything else compiled by :class:`~fluidbandit.simulator.CompiledPolicy`
    and applied through the loop forms of ``reference_policies``."""
    if callable(policy):
        return lambda t, Z: np.asarray(policy(t, Z[None, :]))[0]
    if isinstance(policy, str):
        policy = parse_policy(policy)
    if getattr(policy, "kind", None) in ("rac", "ts"):
        raise NondeterministicPolicy(f"{policy.kind} is randomized; exact evaluation undefined")
    pol = _resolve_policy(model, policy)
    measure, scores, codes = pol.measure, pol.scores, pol.codes
    if pol.kind == "fluid":
        return lambda t, Z: fluid_priority_allocate(
            t, Z, measure, scores, alpha_t=float(model.alpha[t - 1]), codes=codes)
    if pol.kind == "relaxed":
        return lambda t, Z: budget_relaxed_allocate(
            t, Z, measure, scores, alpha_t=float(model.alpha[t - 1]), codes=codes)
    # index and ucb: greedy in the compiled score order
    return lambda t, Z: index_allocate(
        t, Z, scores, period_budget(float(model.alpha[t - 1]), int(Z.sum())))


def exact_policy_value(model: ArmModel, policy, N: int,
                       guard: int = DEFAULT_GUARD) -> float:
    """Exact expected total reward of a deterministic policy at arm count N.

    Propagates the full distribution over count vectors forward through
    the policy's allocations; raises NondeterministicPolicy for RAC/TS.
    """
    allocate = _scalar_allocator(model, policy)
    meter = _WorkMeter(guard)
    kernels = successors(model)
    S, T = model.S, model.T
    z1 = tuple(N if s == model.s0 else 0 for s in range(S))
    dist: dict[tuple[int, ...], float] = {z1: 1.0}
    total = 0.0
    for t in range(1, T + 1):
        new: dict[tuple[int, ...], float] = {}
        for Z, pz in dist.items():
            Z = np.array(Z, dtype=np.int64)
            X1 = allocate(t, Z)
            X = np.stack([Z - X1, X1], axis=1)
            total += pz * float((model.R[t - 1] * X).sum())
            if t < T:
                succ = _successor_distribution(kernels[t - 1], X, meter)
                for z2, p2 in succ.items():
                    new[z2] = new.get(z2, 0.0) + pz * p2
        dist = new
    return total
