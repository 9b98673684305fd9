"""Core model types for finite-horizon budgeted bandits.

An :class:`ArmModel` describes one arm of an exchangeable N-arm system:
shared finite state space, two actions (0 = idle, 1 = pull), time-dependent
kernel and rewards, and a per-period pull-budget fraction.  Periods are
1-based in the math; arrays are 0-based, so period t lives at index t-1.

The kernel is stored once, sparse: period t is a (2S, S) CSR matrix whose
row 2s+a holds the positive probabilities of the next state after playing
a in s, targets ascending.  Only periods t = 1..T-1 drive dynamics; the
period-T matrix must still be row-stochastic (generators may use it to
fold terminal lookahead rewards) but is never simulated.  Every reader of
the dynamics takes them from :func:`successors`.  Model JSON version 3
stores each distinct kernel matrix once as CSR triplets, and each distinct
reward slab R[t] once, with index lists ``kernel_of_period`` and
``reward_of_period`` mapping every period to its entry; "distinct" is byte
equality (:func:`distinct_periods`).  Version 2 (one CSR triplet and one
reward slab per period) and version 1 (no version field, the dense
(T, S, 2, S) array) still load.  A posterior annotation is stored as its family
and params alone; older files' ``posterior_mean`` and ``posterior_sd`` are not read.
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

# Slack in ulps of alpha*N added before flooring it, so that a fraction
# stored in binary (1/3, say) still yields the exact integer budget it denotes.
BUDGET_FLOOR_ULPS = 8


@dataclass
class BeliefStateAnnotation:
    """Posterior of the per-arm belief in one state, used by UCB and TS.

    :family: "beta" (params a, b) or "gamma" (params shape, rate).
    :params: family parameters as a tuple of floats, the only stored belief.
    :posterior_mean, posterior_sd: read-only, derived from family and params.
    :sampler: sampler(rng, size) -> draws from the belief; derived from
        family and params (building it checks the family), a plain
        attribute afterwards.  No engine calls it: TS in both engines reads
        family and params through the count law ``policies.ts_pulls``.  It
        serves per-arm reference draws and tracers that wrap it.
    """

    family: str
    params: tuple[float, ...]
    sampler: Callable[[np.random.Generator, Any], np.ndarray] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.sampler = _sampler_for(self.family, self.params)

    @property
    def posterior_mean(self) -> float:
        """a / (a + b) for Beta(a, b), shape / rate for Gamma(shape, rate)."""
        x, y = self.params
        return x / (x + y) if self.family == "beta" else x / y

    @property
    def posterior_sd(self) -> float:
        """sqrt(ab / ((a + b)^2 (a + b + 1))) for Beta(a, b), sqrt(shape) / rate."""
        x, y = self.params
        return (math.sqrt(x * y / ((x + y) ** 2 * (x + y + 1.0))) if self.family == "beta"
                else math.sqrt(x) / y)


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


def is_integer(value) -> bool:
    """True for a Python or NumPy integer that is not a bool."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _require_horizon(T) -> None:
    if not is_integer(T) or T < 1:
        raise RangeError(f"T must be a positive integer, got {T!r}")


def validate_model(model: ArmModel) -> None:
    """Check shapes, ranges, row sums and posterior annotations (one per
    state, with finite params > 0 whose mean and sd are finite); raise a
    typed error on failure.

    Raises ShapeError / DimensionMismatch / RangeError / RowSumError.
    """
    _require_horizon(model.T)
    S = model.S
    if S < 1:
        raise ShapeError("state list is empty")
    if not is_integer(model.s0) or not 0 <= model.s0 < S:
        raise RangeError(f"s0 must be an integer in [0, {S}), got {model.s0!r}")
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
    # a matrix shared by periods is checked once, under the first period using it
    periods, _ = distinct_periods(model.kernel, key=id)
    for t in periods:
        K = model.kernel[t]
        if not K.has_canonical_format:
            raise ShapeError(f"kernel period {t + 1} rows need ascending, distinct targets")
        if K.nnz and (K.indices.min() < 0 or K.indices.max() >= S):
            raise RangeError(f"kernel period {t + 1} has a target outside [0, {S})")
        if not ((K.data > 0.0) & (K.data <= 1 + ROW_SUM_TOL)).all():  # NaN fails too
            raise RangeError("kernel entries must lie in (0, 1]")
    if not ((model.alpha >= 0) & (model.alpha <= 1)).all():  # NaN fails too
        raise RangeError("alpha entries must lie in [0, 1]")
    ann = model.annotations
    if ann is not None:
        if len(ann) != S:
            raise DimensionMismatch(f"{len(ann)} posterior annotations for {S} states")
        bad = [s for s, a in zip(model.states, ann) if not _sound_belief(a)]
        if bad:
            raise RangeError(f"annotation of state {bad[0]!r} needs finite params > 0 "
                             "and a finite mean and sd")
    rowsum = np.array([model.kernel[t] @ np.ones(S) for t in periods])
    bad = np.abs(rowsum - 1.0) > ROW_SUM_TOL
    if bad.any():
        u, r = np.argwhere(bad)[0]
        raise RowSumError(f"kernel row (t={periods[u] + 1}, s={model.states[r // 2]}, "
                          f"a={r % 2}) sums to {rowsum[u, r]!r}")


def _sound_belief(a: BeliefStateAnnotation) -> bool:
    """Finite numeric params > 0, then a finite mean and sd, which huge or tiny
    params put out of float range (an inf, or a Beta variance's 0 / 0)."""
    try:
        return (all(0 < p < math.inf for p in a.params)
                and math.isfinite(a.posterior_mean) and math.isfinite(a.posterior_sd))
    except (TypeError, ZeroDivisionError, OverflowError):
        return False


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
    3200, which must still floor to 3200.  Storing alpha_t and rounding the
    product move x = alpha_t * N by about one ulp of x, so x + 8 ulp(x) is
    floored: an integer closer than that above x is one that alpha_t's own
    rounding cannot tell from x.
    """
    if N < 1:
        raise RangeError(f"N must be >= 1, got {N}")
    x = alpha_t * N
    return int(math.floor(x + BUDGET_FLOOR_ULPS * math.ulp(x)))


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
        # any successor of a reachable state under either action; kernel
        # entries are validated > 0, so a positive product is exact
        masks[t + 1] = (np.repeat(masks[t], 2) @ K) > 0
    return masks


def _period_key(x) -> tuple:
    """Two periods' data are equal when this key is: a kernel matrix's dtype
    and the bytes of its indptr, indices and data, or an array's dtype,
    shape and bytes.  Bytes keep -0.0 apart from 0.0."""
    if sp.issparse(x):
        return x.dtype.str, x.indptr.tobytes(), x.indices.tobytes(), x.data.tobytes()
    return x.dtype.str, x.shape, x.tobytes()


def distinct_periods(items: Sequence[Any], key: Callable[[Any], Any] = _period_key
                     ) -> tuple[list[int], list[int]]:
    """Per-period items grouped by equal key (by default equal data, the
    rule model files and the oracle's law memo share): the first period of
    each group, and each period's group, groups numbered in order of first
    appearance."""
    group: dict[Any, int] = {}
    firsts, index = [], []
    for t, x in enumerate(items):
        g = group.setdefault(key(x), len(group))
        if g == len(firsts):
            firsts.append(t)
        index.append(g)
    return firsts, index


def model_to_dict(model: ArmModel) -> dict[str, Any]:
    """JSON-ready version-3 dict: each distinct kernel matrix once as CSR
    triplets and each distinct reward slab once, with the entry of every
    period; annotations as (family, params)."""
    meta = {k: v for k, v in model.metadata.items() if k != "annotations"}
    ann = model.metadata.get("annotations")
    if ann is not None:
        meta["annotations"] = [{"family": a.family, "params": list(a.params)} for a in ann]
    firsts, kernel_of_period = distinct_periods(model.kernel)
    kernels = [model.kernel[t] for t in firsts]
    firsts, reward_of_period = distinct_periods(model.R)
    return {
        "version": 3,
        "T": int(model.T),
        "states": [list(s) if isinstance(s, tuple) else s for s in model.states],
        "s0": int(model.s0),
        "kernel": [{"data": K.data.tolist(), "indices": K.indices.tolist(),
                    "indptr": K.indptr.tolist()} for K in kernels],
        "kernel_of_period": kernel_of_period,
        "R": model.R[firsts].tolist(),
        "reward_of_period": reward_of_period,
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


def _period_index(payload: dict[str, Any], name: str, entries: int, T: int) -> list[int]:
    """A version-3 index list, checked: T ints that use each of `entries` stored
    entries.  An out-of-range or negative index would fail or wrap when
    indexed, and an unused entry would never be validated."""
    index = payload[name]
    if (not isinstance(index, list) or len(index) != T
            or not all(type(g) is int and 0 <= g < entries for g in index)
            or len(set(index)) != entries):
        raise ConfigError(f"{name} must list {T} indices in [0, {entries}), "
                          "using each stored entry")
    return index


def _numbers(value, name: str) -> np.ndarray:
    """A model file's numeric field as a float64 array, once every entry of
    its nested lists is checked to be a JSON number: NumPy would read true
    as 1 and "0.5" as 0.5."""
    a = np.asarray(value, dtype=object)
    if not set(map(type, a.ravel().tolist())) <= {int, float}:
        raise ConfigError(f"{name} must hold numbers only (no booleans)")
    return a.astype(np.float64)


def _csr(K: dict[str, Any], S: int) -> sp.csr_matrix:
    """One kernel matrix of a model file from its CSR triplet, checked before
    SciPy reads it, which would read true as 1, truncate 1.5 to 1 and fail
    on 10**20 with an OverflowError: JSON numbers in ``data``, JSON
    integers in ``indices`` and ``indptr`` (int64 once converted, so none
    passes 2^63), targets in [0, S) and row pointers in [0, len(indices)]."""
    data, indices, indptr = K["data"], K["indices"], K["indptr"]
    if not isinstance(data, list) or not set(map(type, data)) <= {int, float}:
        raise ConfigError("kernel data must list JSON numbers (no booleans)")
    for name, index in (("indices", indices), ("indptr", indptr)):
        if not isinstance(index, list) or not set(map(type, index)) <= {int}:
            raise ConfigError(f"kernel {name} must list JSON integers")
    data, indices, indptr = np.array(data, dtype=np.float64), np.array(indices), np.array(indptr)
    if indices.size and not (indices.dtype == np.int64 and 0 <= indices.min()
                             and indices.max() < S):
        raise RangeError(f"a kernel target lies outside [0, {S})")
    if indptr.size and not (indptr.dtype == np.int64 and 0 <= indptr.min()
                            and indptr.max() <= indices.size):
        raise ConfigError(f"kernel indptr entries must lie in [0, {indices.size}]")
    return sp.csr_matrix((data, indices, indptr), shape=(2 * S, S))


def model_from_dict(payload: dict[str, Any]) -> ArmModel:
    """Model from a version-3 or version-2 dict, or a version-1 one (no version
    field, dense "P").  Periods that share a version-3 kernel entry share
    one matrix object.  Every number is checked to be a JSON number, and
    every index an integer in range, before NumPy or SciPy reads it."""
    if not isinstance(payload, dict):
        raise ConfigError(f"a model file holds a JSON object, not {type(payload).__name__}")
    if not isinstance(payload["metadata"], dict):
        raise ConfigError("metadata must be a JSON object")
    meta = dict(payload["metadata"])
    if not isinstance(meta.get("annotations", []), list):
        raise ConfigError("metadata annotations must be a list")
    ann_payload = meta.pop("annotations", None)
    states = [tuple(s) if isinstance(s, list) else s for s in payload["states"]]
    version, S, T = payload.get("version", 1), len(states), payload["T"]
    _require_horizon(T)  # before a version-3 index list is checked against it
    if version not in (1, 2, 3):
        raise ConfigError(f"unknown model JSON version {version!r}")
    R = _numbers(payload["R"], "R")
    if version == 1:
        kernel = _kernel_from_dense(_numbers(payload["P"], "P"))
    else:
        kernel = [_csr(K, S) for K in payload["kernel"]]
    if version == 3:
        kernel = [kernel[g] for g in _period_index(payload, "kernel_of_period", len(kernel), T)]
        R = R[_period_index(payload, "reward_of_period", len(R), T)]
    model = ArmModel(
        T=T, states=states, s0=payload["s0"], kernel=kernel, R=R,
        alpha=_numbers(payload["alpha"], "alpha"), metadata=meta,
    )
    if ann_payload is not None:
        params = _numbers([a["params"] for a in ann_payload], "annotation params").tolist()
        model.metadata["annotations"] = [BeliefStateAnnotation(a["family"], tuple(p))
                                         for a, p in zip(ann_payload, params)]
    validate_model(model)
    return model


def model_to_json(model: ArmModel) -> str:
    return json.dumps(model_to_dict(model), indent=2, sort_keys=True)


def model_from_json(text: str) -> ArmModel:
    return model_from_dict(json.loads(text))
