"""Priority scores from budget prices: Q-recursion and the dual function.

The per-period budget prices lambda turn the coupled N-arm problem into a
single-arm penalized DP.  The pull advantage P_t(s) = Q_t(s,1) - Q_t(s,0)
at the optimal prices ranks states for the index-style policies.  The
prices come only from the LP's budget-row duals, which every unpinned
solve certifies as optimal Lagrange multipliers (|g(lambda) - V-hat| <=
1e-6, see ``lp.solve_relaxation``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

from .errors import DimensionMismatch
from .lp import OccupationMeasure
from .mdp import ArmModel, successors


def score_order(scores: Any, t: int, S: int) -> np.ndarray:
    """State visit order for period t: descending score, ties by ascending index.

    Scores may be a PriorityScheme, a full (T, S) array or a per-period
    (S,) vector.
    """
    sc = np.asarray(getattr(scores, "P", scores), dtype=np.float64)
    if sc.ndim == 2:
        sc = sc[t - 1]
    if sc.shape != (S,):
        raise DimensionMismatch(f"scores for period {t} have shape {sc.shape}, expected ({S},)")
    return np.lexsort((np.arange(S), -sc))


@dataclass
class PriorityScheme:
    """Priority data at fixed budget prices.

    :lam: prices, shape (T,).
    :Q: penalized action values, shape (T, S, 2).
    :P: pull advantage Q[..., 1] - Q[..., 0], shape (T, S).
    """

    lam: np.ndarray
    Q: np.ndarray
    P: np.ndarray


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
    return PriorityScheme(lam=lam, Q=Q, P=Q[:, :, 1] - Q[:, :, 0])


def lambda_from_duals(measure: OccupationMeasure) -> np.ndarray:
    """Budget prices carried by a solved (unpinned) measure."""
    return np.asarray(measure.require_duals(), dtype=np.float64)


def dual_value(model: ArmModel, lam) -> float:
    """g(lam) = sum_t lam_t alpha_t + the lam-penalized DP value from s0; convex in lam."""
    lam = np.asarray(lam, dtype=np.float64)
    value = float(q_recursion(model, lam).Q[0, model.s0].max())
    return float(lam @ model.alpha + value)
