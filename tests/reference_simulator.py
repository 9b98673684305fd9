"""Reference per-arm steps: the mask-scan and gather forms of the per-arm
engine's pull tagging and successor draw.

Each takes the arguments of the ``fluidbandit.simulator`` helper of the
same name and returns what it returns, from the same random numbers.
They are the reference that the by-state forms in the simulator are
checked against, array for array and run for run.
"""

from __future__ import annotations

import numpy as np


def _tag_pulls(states: np.ndarray, Z: np.ndarray, X1: np.ndarray) -> np.ndarray:
    """The first X1[r, s] arms of state s in row r, in index order, pulled:
    a stable argsort of the states and three gathers."""
    R, N = states.shape
    order = np.argsort(states, axis=1, kind="stable")
    st_sorted = np.take_along_axis(states, order, axis=1)
    cumZ_prev = np.concatenate([np.zeros((R, 1), dtype=np.int64),
                                np.cumsum(Z, axis=1)[:, :-1]], axis=1)
    start = np.take_along_axis(cumZ_prev, st_sorted, axis=1)
    quota = np.take_along_axis(X1, st_sorted, axis=1)
    pos = np.arange(N)[None, :]
    chosen_sorted = (pos - start) < quota
    act = np.zeros((R, N), dtype=np.int64)
    np.put_along_axis(act, order, chosen_sorted.astype(np.int64), axis=1)
    return act


def _next_states(cdf: np.ndarray, targets: np.ndarray, k: np.ndarray,
                 rng: np.random.Generator) -> np.ndarray:
    """Successors of the arms in kernel rows k = 2s+a from one (R, N, 1)
    uniform draw compared with the whole (R, N, W) gather of their padded
    CDF rows."""
    R, N = k.shape
    u = rng.random((R, N, 1))
    slot = np.minimum((u > cdf[k]).sum(axis=2), cdf.shape[1] - 1)
    return targets[k, slot]
