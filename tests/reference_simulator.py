"""Reference per-arm step: the gather form of the per-arm engine's
successor draw.

It takes the arguments of the ``fluidbandit.simulator`` helper of the
same name and returns what it returns, from the same random numbers.
It is the reference that the simulator's slot-by-slot form is checked
against, array for array and run for run.
"""

from __future__ import annotations

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
