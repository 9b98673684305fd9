"""Priority rules from budget prices: Q-recursion, dual function, fluid limit.

The per-period budget prices lambda turn the coupled N-arm problem into a
single-arm penalized DP.  The pull advantage P_t(s) = Q_t(s,1) - Q_t(s,0)
at the optimal prices ranks states for the index-style policies; those
prices are the LP's certified budget duals (see ``lp.solve_relaxation``).
``fluid_propagate`` runs such a ranking on the continuum of arms, and
``_price_rounds`` prices its boundary states to pick the scores whose
fluid vertex, split at those boundary states, starts the LP's simplex.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DimensionMismatch
from .mdp import ArmModel, distinct_periods, successors


def score_order(scores: np.ndarray, t: int, S: int) -> np.ndarray:
    """State visit order for period t: descending score, ties by ascending index.

    Scores are a full (T, S) array or a per-period (S,) vector.
    """
    sc = np.asarray(scores, dtype=np.float64)
    if sc.ndim == 2:
        sc = sc[t - 1]
    if sc.shape != (S,):
        raise DimensionMismatch(f"scores for period {t} have shape {sc.shape}, expected ({S},)")
    return np.lexsort((np.arange(S), -sc))


@dataclass
class PriorityScheme:
    """Priority data at fixed budget prices.

    The pull advantage ``P`` is derived from ``Q`` on first read, so the
    two cannot disagree.

    :lam: prices, shape (T,).
    :Q: penalized action values, shape (T, S, 2).
    """

    lam: np.ndarray
    Q: np.ndarray

    @cached_property
    def P(self) -> np.ndarray:
        """Pull advantage Q[..., 1] - Q[..., 0], shape (T, S)."""
        return self.Q[:, :, 1] - self.Q[:, :, 0]


def q_recursion(model: ArmModel, lam) -> PriorityScheme:
    """Backward penalized action values; kernel at period t is p_t."""
    lam = np.asarray(lam, dtype=np.float64)
    T, S = model.T, model.S
    Q = np.zeros((T, S, 2))
    price = np.array([0.0, 1.0])
    Q[T - 1] = model.R[T - 1] - lam[T - 1] * price
    for t in range(T - 2, -1, -1):
        vnext = np.maximum(Q[t + 1, :, 0], Q[t + 1, :, 1])
        cont = (successors(model)[t] @ vnext).reshape(S, 2)
        Q[t] = model.R[t] - lam[t] * price + cont
    return PriorityScheme(lam=lam, Q=Q)


def dual_value(model: ArmModel, lam) -> float:
    """g(lam) = sum_t lam_t alpha_t + the lam-penalized DP value from s0; convex in lam."""
    lam = np.asarray(lam, dtype=np.float64)
    value = float(q_recursion(model, lam).Q[0, model.s0].max())
    return float(lam @ model.alpha + value)


def fluid_propagate(model: ArmModel, scores) -> tuple[np.ndarray, float]:
    """Deterministic fluid limit of the greedy index policy.

    Pull mass is allocated in descending score (ties by ascending state
    index) until the period budget fraction is exhausted; the flow then
    advances through the kernel.  Returns (x_pi, value).  The output is
    always feasible for the relaxation, so value <= V-hat*_1.
    """
    x, value, _ = _fluid_pass(model, scores)
    return x, value


def _fluid_fill(masses: np.ndarray, budget: float) -> tuple[np.ndarray, int]:
    """The index rule on fluid masses in visit order: the pulls, and the
    position of the boundary, the first mass left partly idle (the last
    position when none is).

    The remainders are one running subtraction, in the order of the index
    rule's loop, so the pulls equal that loop's bit for bit.
    """
    rem = np.subtract.accumulate(np.concatenate(([max(budget, 0.0)], masses)))[:-1]
    idle = np.flatnonzero(rem < masses)
    k = int(idle[0]) if idle.size else masses.size - 1
    return np.minimum(masses, np.maximum(rem, 0.0)), k


def _fluid_pass(model: ArmModel, scores) -> tuple[np.ndarray, float, np.ndarray]:
    """``fluid_propagate``'s (x, value), plus each period's boundary state
    (see ``_fluid_fill``), which ``_price_rounds`` prices."""
    P = np.asarray(scores, dtype=np.float64)
    if P.shape != (model.T, model.S):
        raise DimensionMismatch(f"scores shape {P.shape}, expected ({model.T}, {model.S})")
    # the transpose of each distinct kernel matrix, built once
    kernel = successors(model)
    firsts, kernel_of = distinct_periods(kernel, key=id)
    flows = [kernel[t].T for t in firsts]
    x = np.zeros((model.T, model.S, 2))
    boundary = np.zeros(model.T, dtype=np.intp)
    z = np.zeros(model.S)
    z[model.s0] = 1.0
    value = 0.0
    for t in range(model.T):
        order = np.flatnonzero(z > 0.0)  # an empty state takes nothing
        order = order[score_order(P[t, order], t + 1, order.size)]
        pull, k = _fluid_fill(z[order], float(model.alpha[t]))
        boundary[t] = order[k]
        x[t, order, 1] = pull
        x[t, :, 0] = z - x[t, :, 1]
        value += float((model.R[t] * x[t]).sum())
        if t + 1 < model.T:
            z = flows[kernel_of[t]] @ x[t].reshape(-1)
    return x, value, boundary


def _price_rounds(model: ArmModel) -> tuple[np.ndarray, np.ndarray]:
    """Scores near the LP's budget prices and each period's boundary state
    under them, found by price rounds on the fluid limit.

    Round 0 is the fluid pass at the myopic advantage R[t, :, 1] - R[t, :, 0],
    and lambda_t is the score of period t's boundary state, the first state
    the pass leaves idle mass in (see ``_fluid_fill``).  Each later round
    runs the pass at the advantage P of ``q_recursion(model, lambda)`` and
    adds P_t at the new boundary to lambda_t, which moves the prices toward
    the budget duals, where the boundary state is neutral.  The rounds stop
    at the first one whose fluid value does not rise, and the best round's
    (scores, boundary) are returned.  When the measure is non-degenerate,
    the fluid limit at the dual prices is an optimal vertex, so the simplex
    then has few pivots left.
    """
    periods = np.arange(model.T)
    scores = model.R[:, :, 1] - model.R[:, :, 0]
    _, value, boundary = _fluid_pass(model, scores)
    lam = scores[periods, boundary]
    while True:
        P = q_recursion(model, lam).P
        _, value_next, boundary_next = _fluid_pass(model, P)
        if not value_next > value:
            return scores, boundary
        scores, boundary, value = P, boundary_next, value_next
        lam = lam + P[periods, boundary]
