"""Loop reference builder for the occupation-measure LP.

The row-by-row assembly that scans the dense form of the model's kernel
(``conftest.dense_kernel``) state by state.  It is the reference that
``fluidbandit.lp.build_lp`` (a block assembly from ``mdp.successors``) is
checked against, bit for bit.  ``build_lp_kron`` keeps the Kronecker
block form that ``build_lp`` used before it assembled its triplets
directly; the two are checked for identical arrays.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from conftest import dense_kernel
from fluidbandit.lp import LpInstance
from fluidbandit.mdp import ArmModel, successors, validate_model


def build_lp(model: ArmModel) -> LpInstance:
    """Assemble the full-size relaxation (no reachability pruning here)."""
    validate_model(model)
    T, S = model.T, model.S
    n = T * S * 2
    P = dense_kernel(model)

    def var(t: int, s: int, a: int) -> int:
        return ((t - 1) * S + s) * 2 + a

    rows: list[int] = []
    cols: list[int] = []
    vals: list[float] = []
    rhs: list[float] = []

    def add(r: int, cidx: int, v: float) -> None:
        rows.append(r)
        cols.append(cidx)
        vals.append(v)

    r = 0
    # flow balance: mass entering (t, s) equals mass sitting at (t, s)
    for t in range(2, T + 1):
        Pprev = P[t - 2]
        for s in range(S):
            for a in (0, 1):
                add(r, var(t, s, a), 1.0)
            for sp_ in range(S):
                for a in (0, 1):
                    p = Pprev[sp_, a, s]
                    if p != 0.0:
                        add(r, var(t - 1, sp_, a), -p)
            rhs.append(0.0)
            r += 1
    # budget: pull mass is exactly alpha_t each period
    for t in range(1, T + 1):
        for s in range(S):
            add(r, var(t, s, 1), 1.0)
        rhs.append(float(model.alpha[t - 1]))
        r += 1
    # all mass starts on s0
    for a in (0, 1):
        add(r, var(1, model.s0, a), 1.0)
    rhs.append(1.0)
    r += 1
    # and totals one
    for s in range(S):
        for a in (0, 1):
            add(r, var(1, s, a), 1.0)
    rhs.append(1.0)
    r += 1

    A = sp.csr_matrix((vals, (rows, cols)), shape=(r, n))
    c = model.R.reshape(-1).astype(np.float64).copy()
    return LpInstance(c=c, A=A, b=np.asarray(rhs), T=T, S=S)


def build_lp_kron(model: ArmModel) -> sp.csr_matrix:
    """Constraint matrix of the relaxation from Kronecker blocks: flow
    rows kron(I_S, [1, 1]) on block t beside -K_{t-1}^T on block t-1,
    budget rows kron(I_T, [0, 1] * S), then the initial and mass rows."""
    T, S = model.T, model.S
    pair, first = np.ones((1, 2)), sp.eye(1, T)
    # kron in csr: scipy's default bsr would keep explicit zeros
    return sp.vstack([
        sp.kron(sp.eye(T - 1, T, k=1), sp.kron(sp.identity(S), pair), "csr")
        - sp.block_diag([K.T for K in successors(model)] + [sp.csr_matrix((0, 2 * S))]),
        sp.kron(sp.identity(T), np.tile([0.0, 1.0], S), "csr"),
        sp.kron(first, sp.kron(sp.eye(1, S, k=model.s0), pair), "csr"),
        sp.kron(first, np.ones((1, 2 * S)), "csr"),
    ], format="csr")
