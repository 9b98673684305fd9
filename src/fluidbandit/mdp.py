"""Core model and count-state types for finite-horizon budgeted bandits.

An :class:`ArmModel` describes one arm of an exchangeable N-arm system:
shared finite state space, two actions (0 = idle, 1 = pull), time-dependent
kernel and rewards, and a per-period pull-budget fraction.  Periods are
1-based in the math; arrays are 0-based, so period t lives at index t-1.

The kernel entry ``P[t-1, s, a, s']`` is the probability of moving to s'
after playing a in state s during period t.  Only rows for t = 1..T-1 drive
dynamics; the row at t = T must still be row-stochastic (generators may use
it to fold terminal lookahead rewards) but is never simulated.

:func:`successors` is the one reader of the kernel's sparsity.  The LP's
flow rows, the count engine's transitions, the exact oracle and
:func:`reachable_states` all read it, so they agree on what a successor is.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

import numpy as np
import scipy.sparse as sp

from .errors import DimensionMismatch, RangeError, RowSumError, ShapeError

# Row-stochasticity and range slack for validation.
ROW_SUM_TOL = 1e-9

# Relative slack used when flooring alpha*N, so that a fraction stored in
# binary (1/3, say) still yields the exact integer budget it denotes.
BUDGET_FLOOR_SLACK = 1e-9


@dataclass
class BeliefStateAnnotation:
    """Posterior descriptor for one state, used by UCB and TS baselines.

    :posterior_mean: mean of the per-arm belief in this state.
    :posterior_sd: standard deviation of that belief.
    :sampler: draws from the belief; called as sampler(rng, size) -> ndarray.
    :family: distribution family name, for serialization ("beta", "gamma").
    :params: family parameters as a tuple of floats.
    """

    posterior_mean: float
    posterior_sd: float
    sampler: Callable[[np.random.Generator, Any], np.ndarray]
    family: str = ""
    params: tuple[float, ...] = ()


@dataclass
class ArmModel:
    """Single-arm finite-horizon model shared by all N arms.

    :T: number of periods, >= 1.
    :states: hashable labels; index order fixes every array axis.
    :s0: index of the common initial state.
    :P: kernel, shape (T, S, 2, S), each row a distribution.
    :R: rewards, shape (T, S, 2), finite.
    :alpha: pull-budget fractions, shape (T,), each in [0, 1].
    :metadata: free-form dict; generators put name/params/annotations here.
    """

    T: int
    states: list[Any]
    s0: int
    P: np.ndarray
    R: np.ndarray
    alpha: np.ndarray
    metadata: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.P = np.asarray(self.P, dtype=np.float64)
        self.R = np.asarray(self.R, dtype=np.float64)
        self.alpha = np.asarray(self.alpha, dtype=np.float64)

    @property
    def S(self) -> int:
        return len(self.states)

    def state_index(self, label: Any) -> int:
        return self.states.index(label)

    @property
    def annotations(self) -> list[BeliefStateAnnotation] | None:
        return self.metadata.get("annotations")


@dataclass
class CountState:
    """Counts of arms per state at the start of one period.

    :t: 1-based period.
    :N: total number of arms; sum(Z) == N.
    :Z: integer counts, shape (S,).
    """

    t: int
    N: int
    Z: np.ndarray

    def __post_init__(self) -> None:
        self.Z = np.asarray(self.Z, dtype=np.int64)


@dataclass
class AllocationPlan:
    """Integer action counts chosen for one period.

    :t: 1-based period.
    :X: counts, shape (S, 2); X[s, a] arms of state s playing action a.
    :relaxed: True when the plan may overspend or underspend the budget
        (budget-relaxed plans, and index plans that run out of arms), False
        when it spends floor(alpha_t * N) exactly.
    """

    t: int
    X: np.ndarray
    relaxed: bool = False

    def __post_init__(self) -> None:
        self.X = np.asarray(self.X, dtype=np.int64)

    @property
    def pulls(self) -> np.ndarray:
        return self.X[:, 1]


def validate_model(model: ArmModel) -> None:
    """Check shapes, ranges, and row sums; raise a typed error on failure.

    Raises ShapeError / DimensionMismatch / RangeError / RowSumError.
    """
    if not isinstance(model.T, (int, np.integer)) or model.T < 1:
        raise RangeError(f"T must be a positive integer, got {model.T!r}")
    S = model.S
    if S < 1:
        raise ShapeError("state list is empty")
    if not (0 <= model.s0 < S):
        raise RangeError(f"s0={model.s0} outside [0, {S})")
    if model.P.ndim != 4 or model.P.shape[1:] != (S, 2, S) or model.P.shape[0] != model.T:
        if model.P.ndim == 4 and model.P.shape[1:] == (model.P.shape[1], 2, model.P.shape[1]):
            raise DimensionMismatch(
                f"kernel shape {model.P.shape} disagrees with T={model.T}, S={S}")
        raise ShapeError(f"kernel shape {model.P.shape}, expected ({model.T}, {S}, 2, {S})")
    if model.R.shape != (model.T, S, 2):
        raise ShapeError(f"reward shape {model.R.shape}, expected ({model.T}, {S}, 2)")
    if model.alpha.shape != (model.T,):
        raise ShapeError(f"alpha shape {model.alpha.shape}, expected ({model.T},)")
    if not np.isfinite(model.R).all():
        raise RangeError("rewards must be finite")
    if not np.isfinite(model.P).all() or (model.P < -ROW_SUM_TOL).any() or (model.P > 1 + ROW_SUM_TOL).any():
        raise RangeError("kernel entries must lie in [0, 1]")
    if (model.alpha < 0).any() or (model.alpha > 1).any():
        raise RangeError("alpha entries must lie in [0, 1]")
    rowsum = model.P.sum(axis=3)
    bad = np.abs(rowsum - 1.0) > ROW_SUM_TOL
    if bad.any():
        t, s, a = np.argwhere(bad)[0]
        raise RowSumError(
            f"kernel row (t={t + 1}, s={model.states[s]}, a={a}) sums to {rowsum[t, s, a]!r}")


def period_budget(alpha_t: float, N: int) -> int:
    """floor(alpha_t * N), robust to binary representation dust.

    A fraction like 1/3 stored as a float times N = 9600 lands a hair below
    3200; the floor must still be 3200.  The slack never crosses a genuine
    integer boundary because it is far below 1/N for any feasible N.
    """
    if N < 1:
        raise RangeError(f"N must be >= 1, got {N}")
    return int(math.floor(alpha_t * N + BUDGET_FLOOR_SLACK * max(1.0, alpha_t * N) + 1e-12))


def successors(model: ArmModel) -> list[sp.csr_matrix]:
    """The kernel's sparse form: one (2S, S) CSR matrix per period t = 1..T-1.

    Row 2s+a of entry t-1 holds the positive entries of P[t-1, s, a] in
    ascending target order, with no explicit zeros.  Entries <= 0 (the
    negative dust that validate_model tolerates among them) are not
    successors.  Every support list in the package derives from this.
    """
    S = model.S
    return [sp.csr_matrix(np.where(Pt > 0.0, Pt, 0.0).reshape(2 * S, S))
            for Pt in model.P[:-1]]


def reachable_states(model: ArmModel) -> list[np.ndarray]:
    """Boolean masks, one per period, of states reachable from (1, s0).

    Reachability ignores the budget: any action may be played anywhere, so
    the mask is a superset of states any policy can occupy.
    """
    masks = [np.zeros(model.S, dtype=bool) for _ in range(model.T)]
    masks[0][model.s0] = True
    for t, K in enumerate(successors(model)):
        # any successor of a reachable state under either action
        masks[t + 1][K[np.repeat(masks[t], 2)].indices] = True
    return masks


def model_to_dict(model: ArmModel) -> dict[str, Any]:
    """JSON-ready dict; annotations are stored as (family, params) only."""
    meta = {k: v for k, v in model.metadata.items() if k != "annotations"}
    ann = model.metadata.get("annotations")
    if ann is not None:
        meta["annotations"] = [
            {"posterior_mean": a.posterior_mean, "posterior_sd": a.posterior_sd,
             "family": a.family, "params": list(a.params)}
            for a in ann
        ]
    return {
        "T": int(model.T),
        "states": [list(s) if isinstance(s, tuple) else s for s in model.states],
        "s0": int(model.s0),
        "P": model.P.tolist(),
        "R": model.R.tolist(),
        "alpha": model.alpha.tolist(),
        "metadata": meta,
    }


def _sampler_for(family: str, params: Sequence[float]):
    if family == "beta":
        a, b = params
        return lambda rng, size=None: rng.beta(a, b, size)
    if family == "gamma":
        shape, rate = params
        return lambda rng, size=None: rng.gamma(shape, 1.0 / rate, size)
    raise RangeError(f"unknown annotation family {family!r}")


def model_from_dict(payload: dict[str, Any]) -> ArmModel:
    meta = dict(payload.get("metadata", {}))
    ann_payload = meta.pop("annotations", None)
    model = ArmModel(
        T=int(payload["T"]),
        states=[tuple(s) if isinstance(s, list) else s for s in payload["states"]],
        s0=int(payload["s0"]),
        P=np.asarray(payload["P"], dtype=np.float64),
        R=np.asarray(payload["R"], dtype=np.float64),
        alpha=np.asarray(payload["alpha"], dtype=np.float64),
        metadata=meta,
    )
    if ann_payload is not None:
        model.metadata["annotations"] = [
            BeliefStateAnnotation(
                posterior_mean=float(a["posterior_mean"]),
                posterior_sd=float(a["posterior_sd"]),
                sampler=_sampler_for(a["family"], a["params"]),
                family=a["family"],
                params=tuple(a["params"]),
            )
            for a in ann_payload
        ]
    validate_model(model)
    return model


def model_to_json(model: ArmModel) -> str:
    return json.dumps(model_to_dict(model), indent=2, sort_keys=True)


def model_from_json(text: str) -> ArmModel:
    return model_from_dict(json.loads(text))
