"""Exact ground truth for tiny N: joint-count backward induction.

The N-arm system is a single MDP over count vectors (compositions of N
across states).  Backward induction over that space gives the exact
optimal value V*_N; forward distribution propagation gives the exact
value of any deterministic policy.  Both enumerate every multinomial
transition outcome, so they only fit tiny instances; a work guard
rejects anything larger instead of hanging.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import product
from typing import Callable

import numpy as np

from .errors import BudgetExceeded, NondeterministicPolicy, RangeError
from .mdp import AllocationPlan, ArmModel, CountState, period_budget, successors
from .occupancy import classify
from .policies import (PolicySpec, fluid_priority_allocate, budget_relaxed_allocate,
                       index_allocate, parse_policy, ucb_allocate)
from .priority import lambda_from_duals, q_recursion

# Enumeration guard: total (count-vector, allocation, outcome) work units.
DEFAULT_GUARD = 10 ** 7


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
    """Compositions of `total` with per-coordinate upper bounds."""
    n = len(bounds)

    def rec(i: int, rem: int):
        if i == n - 1:
            if rem <= bounds[i]:
                yield (rem,)
            return
        hi = min(rem, bounds[i])
        lo = max(0, rem - sum(bounds[i + 1:]))
        for v in range(lo, hi + 1):
            for rest in rec(i + 1, rem - v):
                yield (v,) + rest

    yield from rec(0, total)


class _WorkMeter:
    def __init__(self, guard: int):
        self.guard = guard
        self.used = 0

    def spend(self, units: int) -> None:
        self.used += units
        if self.used > self.guard:
            raise BudgetExceeded(f"enumeration exceeded {self.guard} work units")


@lru_cache(maxsize=100_000)
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
        outcomes = _group_outcomes(g, probs)
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


def _scalar_allocator(model: ArmModel, policy) -> Callable[[int, CountState], AllocationPlan]:
    """Deterministic per-count-state allocation via the public 1-row allocators."""
    if isinstance(policy, str):
        policy = parse_policy(policy)
    if callable(policy) and not isinstance(policy, PolicySpec):
        return policy
    kind = policy.kind
    if kind in ("rac", "ts"):
        raise NondeterministicPolicy(f"{kind} is randomized; exact evaluation undefined")
    if kind in ("fluid", "relaxed", "index"):
        measure = policy.measure
        if measure is None:
            from .lp import solve_relaxation

            measure = solve_relaxation(model)
        scores = policy.scores
        if scores is None:
            scores = q_recursion(model, lambda_from_duals(measure))
        part = classify(measure)
        if kind == "fluid":
            return lambda t, c: fluid_priority_allocate(
                t, c, measure, scores, c.N, alpha_t=float(model.alpha[t - 1]),
                partition=part)
        if kind == "relaxed":
            return lambda t, c: budget_relaxed_allocate(
                t, c, measure, scores, c.N, alpha_t=float(model.alpha[t - 1]),
                partition=part)
        return lambda t, c: index_allocate(
            t, c, scores, period_budget(float(model.alpha[t - 1]), c.N))
    if kind == "ucb":
        ann = model.annotations
        return lambda t, c: ucb_allocate(
            t, c, ann, policy.delta, period_budget(float(model.alpha[t - 1]), c.N))
    raise RangeError(f"unknown policy kind {kind!r}")


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
            counts = CountState(t=t, N=N, Z=np.array(Z, dtype=np.int64))
            plan = allocate(t, counts)
            total += pz * float((model.R[t - 1] * plan.X).sum())
            if t < T:
                succ = _successor_distribution(kernels[t - 1], plan.X, meter)
                for z2, p2 in succ.items():
                    new[z2] = new.get(z2, 0.0) + pz * p2
        dist = new
    return total
