"""Reference forms of simulator helpers.

``_step_arms`` is the per-arm engine's step in gather form: it expands
the (X0, X1) stack into each arm's kernel row and draws each arm's
successor through ``_next_states``, which compares one uniform per arm
with the whole (R, N, W) gather of its padded CDF row.  ``_chunk`` is the
stacked period loop, which copies X0 and the (X0, X1) stack every
period.  Each returns what its ``fluidbandit.simulator`` counterpart
returns, from the same random numbers, and uses none of that module's
code: they are the references that ``CompiledPolicy.step_arms``'s
counting draw and the three-array period loop are checked against,
array for array and run for run.
"""

from __future__ import annotations

import math

import numpy as np


def _next_states(cdf: np.ndarray, targets: np.ndarray, k: np.ndarray,
                 rng: np.random.Generator) -> np.ndarray:
    """Successors of the arms in kernel rows k = 2s+a from one (R, N, 1)
    uniform draw compared with the whole (R, N, W) gather of their padded
    CDF rows."""
    R, N = k.shape
    u = rng.random((R, N, 1))
    slot = np.minimum((u > cdf[k]).sum(axis=2), cdf.shape[1] - 1)
    return targets[k, slot]


def _chunk(pol, N, R, rng, engine, diffusion):
    """The stacked period loop, for ``fluidbandit.simulator._chunk``: X0 =
    Z - X1 as an array of its own, the figures read after the rewards, the
    bracketing masses from column-subset sums, and the step handed the
    (R, S, 2) stack of (X0, X1), read as columns 2s+a."""
    model, measure = pol.model, pol.measure
    T, S = model.T, model.S
    step = _step_counts if engine == "counts" else _step_arms
    failed = np.zeros((R, T), dtype=bool) if measure is not None else None
    moments = np.zeros((2, T)) if measure is not None and diffusion else None
    Z = np.zeros((R, S), dtype=np.int64)
    Z[:, model.s0] = N
    rewards = np.zeros(R)
    for t in range(1, T + 1):
        X1 = pol.allocate_batch(t, Z, rng)
        X0 = Z - X1
        rewards += X1 @ model.R[t - 1, :, 1] + X0 @ model.R[t - 1, :, 0]
        if failed is not None:
            codes = pol.codes[t - 1]
            target = float(model.alpha[t - 1] * N)
            lo = Z[:, codes == 1].sum(axis=1)
            hi = lo + Z[:, codes == 0].sum(axis=1)
            failed[:, t - 1] = (lo > target) | (target > hi)
        if moments is not None:
            sqrtN = math.sqrt(N)
            zt, xt = measure.z[t - 1], measure.x[t - 1]
            moments[0, t - 1] = float((((Z - N * zt) / sqrtN) ** 2).sum())
            moments[1, t - 1] = float((((X0 - N * xt[:, 0]) / sqrtN) ** 2).sum()
                                      + (((X1 - N * xt[:, 1]) / sqrtN) ** 2).sum())
        if t == T:
            break
        Z = step(pol, t, np.stack([X0, X1], axis=2), rng)
    return rewards, failed, moments


def _step_counts(pol, t, X, rng):
    """Grouped multinomial step over the columns 2s+a of the stack X."""
    R = X.shape[0]
    Znext = np.zeros((R, pol.model.S), dtype=np.int64)
    K = pol._support[t - 1]
    Xsa = X.reshape(R, -1)
    for r in np.flatnonzero(Xsa.any(axis=0)):
        n = Xsa[:, r]
        targets = K.indices[K.indptr[r]:K.indptr[r + 1]]
        probs = K.data[K.indptr[r]:K.indptr[r + 1]]
        if targets.size == 1:
            Znext[:, targets[0]] += n
            continue
        remaining = n.copy()
        mass = float(probs.sum())
        for j in range(targets.size - 1):
            p = min(max(probs[j] / mass, 0.0), 1.0)
            k = rng.binomial(remaining, p)
            Znext[:, targets[j]] += k
            remaining -= k
            mass -= probs[j]
            if not remaining.any():
                break
        Znext[:, targets[-1]] += remaining
    return Znext


def _step_arms(pol, t, X, rng):
    """Arm-by-arm step over the occupied columns 2s+a of the stack X."""
    R, S = X.shape[0], pol.model.S
    Xsa = X.reshape(R, -1)
    cols = np.flatnonzero(Xsa.any(axis=0))
    k = np.repeat(np.tile(cols, R), Xsa[:, cols].reshape(-1)).reshape(R, -1)
    nxt = _next_states(*pol._tables[t - 1], k, rng)
    return np.bincount((nxt + np.arange(0, R * S, S)[:, None]).reshape(-1),
                       minlength=R * S).reshape(R, S)
