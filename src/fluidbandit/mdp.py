"""Core model and count-state types for finite-horizon budgeted bandits.

An :class:`ArmModel` describes one arm of an exchangeable N-arm system:
shared finite state space, two actions (0 = idle, 1 = pull), time-dependent
kernel and rewards, and a per-period pull-budget fraction.  Periods are
1-based in the math; arrays are 0-based, so period t lives at index t-1.

The kernel is stored once, sparse: period t is a (2S, S) CSR matrix whose
row 2s+a holds the positive probabilities of the next state after playing
a in s, targets ascending.  Only periods t = 1..T-1 drive dynamics; the
period-T matrix must still be row-stochastic (generators may use it to
fold terminal lookahead rewards) but is never simulated.  Every reader of
the dynamics takes them from :func:`successors`.  Model JSON version 2
stores each period's CSR triplets; version 1 (no version field) holds the
dense (T, S, 2, S) array and still loads.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

import numpy as np
import scipy.sparse as sp

from .errors import ConfigError, DimensionMismatch, RangeError, RowSumError, ShapeError

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
    :family: "beta" (params a, b) or "gamma" (params shape, rate).
    :params: family parameters as a tuple of floats.
    :sampler: sampler(rng, size) -> draws from the belief, used by the
        per-arm engine's TS; derived from family and params, a plain
        attribute afterwards.  The count engine's TS reads family and
        params directly.
    """

    posterior_mean: float
    posterior_sd: float
    family: str
    params: tuple[float, ...]
    sampler: Callable[[np.random.Generator, Any], np.ndarray] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.sampler = _sampler_for(self.family, self.params)


@dataclass(init=False)
class ArmModel:
    """Single-arm finite-horizon model shared by all N arms.

    :T: number of periods, >= 1.
    :states: hashable labels; index order fixes every array axis.
    :s0: index of the common initial state.
    :kernel: T CSR matrices (2S, S) laid out as the module docstring says;
        periods may share one.  ``P=`` passes it instead as a dense array
        P[t-1, s, a, s'] of shape (T, S, 2, S), converted once, not kept.
    :R: rewards, shape (T, S, 2), finite.
    :alpha: pull-budget fractions, shape (T,), each in [0, 1].
    :metadata: free-form dict; generators put name/params/annotations here.
    """

    T: int
    states: list[Any]
    s0: int
    kernel: list[sp.csr_matrix]
    R: np.ndarray
    alpha: np.ndarray
    metadata: dict[str, Any]

    def __init__(self, T: int, states: list[Any], s0: int, *, R, alpha,
                 kernel=None, P=None, metadata: dict[str, Any] | None = None) -> None:
        if (kernel is None) == (P is None):
            raise TypeError("ArmModel takes exactly one of kernel= and P=")
        self.T, self.states, self.s0, self.metadata = T, states, s0, metadata or {}
        self.kernel = list(kernel) if P is None else _kernel_from_dense(P)
        self.R, self.alpha = np.asarray(R, dtype=np.float64), np.asarray(alpha, dtype=np.float64)

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
    shapes = {K.shape if getattr(K, "format", None) == "csr" else None for K in model.kernel}
    if shapes != {(2 * S, S)} or len(model.kernel) != model.T:
        if None not in shapes and len(shapes) <= 1 and all(m == 2 * n for m, n in shapes):
            raise DimensionMismatch(f"kernel of {len(model.kernel)} periods shaped {shapes} "
                                    f"disagrees with T={model.T}, S={S}")
        raise ShapeError(f"kernel must be {model.T} CSR matrices of shape ({2 * S}, {S})")
    if model.R.shape != (model.T, S, 2):
        raise ShapeError(f"reward shape {model.R.shape}, expected ({model.T}, {S}, 2)")
    if model.alpha.shape != (model.T,):
        raise ShapeError(f"alpha shape {model.alpha.shape}, expected ({model.T},)")
    if not np.isfinite(model.R).all():
        raise RangeError("rewards must be finite")
    for t, K in enumerate(model.kernel):
        if not K.has_canonical_format:
            raise ShapeError(f"kernel period {t + 1} rows need ascending, distinct targets")
        if K.nnz and (K.indices.min() < 0 or K.indices.max() >= S):
            raise RangeError(f"kernel period {t + 1} has a target outside [0, {S})")
        if not ((K.data > 0.0) & (K.data <= 1 + ROW_SUM_TOL)).all():  # NaN fails too
            raise RangeError("kernel entries must lie in (0, 1]")
    if (model.alpha < 0).any() or (model.alpha > 1).any():
        raise RangeError("alpha entries must lie in [0, 1]")
    rowsum = np.array([K @ np.ones(S) for K in model.kernel])
    bad = np.abs(rowsum - 1.0) > ROW_SUM_TOL
    if bad.any():
        t, r = np.argwhere(bad)[0]
        raise RowSumError(f"kernel row (t={t + 1}, s={model.states[r // 2]}, a={r % 2}) "
                          f"sums to {rowsum[t, r]!r}")


def _kernel_from_dense(P) -> list[sp.csr_matrix]:
    """Per-period CSR form of a dense (T, S, 2, S) kernel.  Zeros and tolerated
    dust (>= -ROW_SUM_TOL) are no successors; other entries stay to be validated."""
    P = np.asarray(P, dtype=np.float64)
    if P.ndim != 4 or P.shape[2] != 2 or P.shape[1] != P.shape[3]:
        raise ShapeError(f"dense kernel shape {P.shape}, expected (T, S, 2, S)")
    P = np.where((P >= -ROW_SUM_TOL) & (P <= 0.0), 0.0, P)
    return [sp.csr_matrix(Pt.reshape(2 * P.shape[1], P.shape[1])) for Pt in P]


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
    """The stored kernel matrices of the dynamic periods t = 1..T-1."""
    return model.kernel[:-1]


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
    """JSON-ready version-2 dict: CSR triplets per period; annotations as (family, params)."""
    meta = {k: v for k, v in model.metadata.items() if k != "annotations"}
    ann = model.metadata.get("annotations")
    if ann is not None:
        meta["annotations"] = [
            {"posterior_mean": a.posterior_mean, "posterior_sd": a.posterior_sd,
             "family": a.family, "params": list(a.params)}
            for a in ann
        ]
    return {
        "version": 2,
        "T": int(model.T),
        "states": [list(s) if isinstance(s, tuple) else s for s in model.states],
        "s0": int(model.s0),
        "kernel": [{"data": K.data.tolist(), "indices": K.indices.tolist(),
                    "indptr": K.indptr.tolist()} for K in model.kernel],
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
    """Model from a version-2 dict, or a version-1 one (no version field, dense "P")."""
    meta = dict(payload.get("metadata", {}))
    ann_payload = meta.pop("annotations", None)
    states = [tuple(s) if isinstance(s, list) else s for s in payload["states"]]
    version, S = payload.get("version", 1), len(states)
    if version not in (1, 2):
        raise ConfigError(f"unknown model JSON version {version!r}")
    kernel = (_kernel_from_dense(payload["P"]) if version == 1 else
              [sp.csr_matrix((K["data"], K["indices"], K["indptr"]), shape=(2 * S, S),
                             dtype=np.float64) for K in payload["kernel"]])
    model = ArmModel(
        T=int(payload["T"]), states=states, s0=int(payload["s0"]), kernel=kernel,
        R=np.asarray(payload["R"], dtype=np.float64),
        alpha=np.asarray(payload["alpha"], dtype=np.float64),
        metadata=meta,
    )
    if ann_payload is not None:
        model.metadata["annotations"] = [
            BeliefStateAnnotation(
                posterior_mean=float(a["posterior_mean"]),
                posterior_sd=float(a["posterior_sd"]),
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
