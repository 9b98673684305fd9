"""Occupation-measure LP: builder, solvers, and pinned re-solves.

The relaxation treats the empirical distribution of arms as a continuum:
variables x_t(s, a) >= 0 carry the expected fraction of arms in state s
playing action a during period t, subject to flow balance, an exact
per-period pull-budget fraction, and unit initial mass on s0.  The
optimal value bounds the N-arm problem from above after scaling by N.

Row order is part of the public contract (duals are read off by row),
and this paragraph is its only description: (T-1)*S flow rows for
t = 2..T in state order, then T budget rows for t = 1..T, then the
initial-state row, then the total-mass row.

Columns come in period blocks of 2S with (s, a) at offset 2s+a, the row
of (s, a) in the period's kernel K_t from ``mdp.successors``.  So the
flow rows of period t are kron(I_S, [1, 1]) on block t beside -K_{t-1}^T
on block t-1, and the budget rows are kron(I_T, [0, 1] * S);
``build_lp`` writes the entries of these blocks as one triplet list.

Every LP goes to the package's exact simplex (``simplex.solve_lp``), which
returns basic vertices whose nonbasic entries are identically 0, as the
1e-9 category threshold needs.  It starts at a feasible basis of the
relaxation, the fluid-priority vertex (``_vertex_basis``) at scores that a
few price rounds on the fluid limit bring near the budget duals
(``priority._price_rounds``); on the zoo models the simplex then makes 0-5 pivots.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp

from . import simplex
from .errors import DimensionMismatch, MissingDuals, PinInfeasible, SolverFailure
from .mdp import ArmModel, reachable_states, successors, validate_model
from .priority import _price_rounds, dual_value, score_order

# Residual tolerances for the solved-measure invariants.
RESIDUAL_TOL = 1e-7
# Strong-duality residual |dual_value(lambda) - value| a solve may leave.
DUALITY_TOL = 1e-6


@dataclass
class LpInstance:
    """Equality-form LP over the full (t, s, a) grid, to be maximised.

    :c: objective (reward) coefficients, shape (n_vars,).
    :A: constraint matrix, CSR, rows in the module docstring's order.
    :b: right-hand sides, one per row.
    :T, S: model dimensions; var (t, s, a) sits at ((t-1)*S + s)*2 + a.
    """

    c: np.ndarray
    A: sp.csr_matrix
    b: np.ndarray
    T: int
    S: int

    @property
    def n_vars(self) -> int:
        return self.T * self.S * 2


@dataclass
class OccupationMeasure:
    """Solved relaxation: fractions of arms per (period, state, action).

    The state marginals ``z`` are derived from ``x`` on first read, so the
    two cannot disagree.

    :x: shape (T, S, 2), entries >= 0.
    :value: optimal per-arm value of the relaxation.
    :duals: budget-row duals, shape (T,), or None for pinned re-solves.
    :pivots: simplex pivots of the solve (0 when not solved, e.g. combined).
    :rows: rows of the reduced LP the solve ran on (0 when not solved).
    :lu_nnz: nonzeros of L + U in the solve's last basis factor (0 when
        not solved).
    """

    x: np.ndarray
    value: float
    duals: np.ndarray | None
    pivots: int = 0
    rows: int = 0
    lu_nnz: int = 0

    @cached_property
    def z(self) -> np.ndarray:
        """State marginals, z[t, s] = sum_a x[t, s, a]."""
        return self.x.sum(axis=2)

    def require_duals(self) -> np.ndarray:
        if self.duals is None:
            raise MissingDuals("measure carries no budget duals (pinned re-solve?)")
        return self.duals


def build_lp(model: ArmModel) -> LpInstance:
    """Assemble the full-size relaxation (no reachability pruning here)."""
    validate_model(model)
    T, S = model.T, model.S
    F = (T - 1) * S  # flow rows; budget rows follow, then initial and mass
    # flow row of (t, s) at (t-2)S + s: +1 on both actions of (t, s) ...
    rows = [np.repeat(np.arange(F), 2)]
    cols = [2 * S + np.arange(2 * F)]
    vals = [np.ones(2 * F)]
    # ... and -K_{t-1}[2s'+a, s] on (t-1, s', a)
    for u, K in enumerate(successors(model)):
        rows.append(u * S + K.indices)
        cols.append(u * 2 * S + np.repeat(np.arange(2 * S), np.diff(K.indptr)))
        vals.append(-K.data)
    # budget rows pull on every (t, s); initial on (1, s0); mass on all of period 1
    rows += [F + np.arange(T * S) // S, np.full(2, F + T), np.full(2 * S, F + T + 1)]
    cols += [2 * np.arange(T * S) + 1, 2 * model.s0 + np.arange(2), np.arange(2 * S)]
    vals += [np.ones(T * S), np.ones(2), np.ones(2 * S)]
    # the triplets are distinct, and CSR conversion sorts each row's columns
    A = sp.csr_matrix((np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
                      shape=(F + T + 2, 2 * T * S))
    b = np.concatenate([np.zeros(F), model.alpha, [1.0, 1.0]])
    c = model.R.reshape(-1).astype(np.float64).copy()
    return LpInstance(c=c, A=A, b=b, T=T, S=S)


@dataclass
class _Reduced:
    """Reachability-pruned copy of an LpInstance plus the embeddings."""

    A: sp.csc_matrix
    b: np.ndarray
    c: np.ndarray
    keep_cols: np.ndarray
    budget_row_pos: np.ndarray  # rows of A that are budget rows
    basis: np.ndarray  # crash start: _vertex_basis at the scores of _price_rounds


def _reduce(inst: LpInstance, model: ArmModel) -> _Reduced:
    masks = np.array(reachable_states(model))
    keep_cols = np.flatnonzero(np.repeat(masks.reshape(-1), 2))
    # flow rows of unreachable (t, s) go; budget, initial and mass rows stay
    keep_rows = np.flatnonzero(np.concatenate([masks[1:].reshape(-1),
                                               np.ones(inst.T + 2, dtype=bool)]))
    A = sp.csc_matrix(inst.A[keep_rows][:, keep_cols])
    budget_pos = int(masks[1:].sum()) + np.arange(inst.T)
    return _Reduced(A=A, b=inst.b[keep_rows], c=inst.c[keep_cols],
                    keep_cols=keep_cols, budget_row_pos=budget_pos,
                    basis=_vertex_basis(model, masks, keep_cols, keep_rows.size,
                                        *_price_rounds(model)))


def _vertex_basis(model: ArmModel, masks: np.ndarray, keep_cols: np.ndarray, n_rows: int,
                  scores: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Basis of the reduced LP at x, the fluid-priority measure of scores.

    Each period walks its reachable states in ``score_order``.  The
    boundary is the first state the fluid limit leaves idle mass in, or
    the last state if none: states before it take their active column,
    states after it their passive column, and the boundary takes both.
    Each period's diagonal block (its flow rows and budget row) then has
    determinant +-1, and the basis is block lower-triangular in time, so
    it is nonsingular; its values are x, so it is feasible.  Period 1
    holds only s0, so the initial row duplicates the mass row and keeps
    its artificial.
    """
    pick = np.zeros((model.T, model.S, 2), dtype=bool)
    for t in range(model.T):
        order = score_order(scores, t + 1, model.S)
        order = order[masks[t][order]]
        idle = np.flatnonzero(x[t, order, 0] > 0.0)
        k = int(idle[0]) if idle.size else order.size - 1
        pick[t, order[:k + 1], 1] = True
        pick[t, order[k:], 0] = True
    cols = np.searchsorted(keep_cols, np.flatnonzero(pick))
    # the initial row is the second last; its artificial is column n + row
    return np.append(cols, keep_cols.size + n_rows - 2)


def _embed(inst: LpInstance, red: _Reduced, res: simplex.SimplexResult,
           duals: np.ndarray | None) -> OccupationMeasure:
    x_full = np.zeros(inst.n_vars)
    x_full[red.keep_cols] = res.x  # the simplex returns no negative entry
    # numpy's own sum, not a BLAS dot, which threads above 10 000 entries
    # (bern24's grid) and then rounds by the thread count
    value = float((inst.c * x_full).sum())
    x = x_full.reshape(inst.T, inst.S, 2)
    # one dual per row of the LP solved
    measure = OccupationMeasure(x=x, value=value, duals=duals,
                                pivots=res.iterations, rows=res.y.size, lu_nnz=res.lu_nnz)
    _check_measure(inst, measure)
    return measure


def _check_measure(inst: LpInstance, measure: OccupationMeasure) -> None:
    resid = np.abs(inst.A @ measure.x.reshape(-1) - inst.b)
    F = (inst.T - 1) * inst.S  # the row blocks in the module docstring's order
    blocks = np.split(resid, [F, F + inst.T, F + inst.T + 1])
    for kind, block in zip(("flow", "budget", "initial", "mass"), blocks):
        v = float(block.max(initial=0.0))
        if v > RESIDUAL_TOL:
            raise SolverFailure(f"{kind} residual {v:.3e} exceeds {RESIDUAL_TOL}")


def solve_relaxation(model: ArmModel) -> OccupationMeasure:
    """Solve the relaxation to a vertex; attach budget duals.

    Duals follow the maximisation convention: value decrease per unit of extra
    budget fraction is -duals; concretely lambda_t prices one unit of pull
    mass in period t and feeds the priority recursion.

    The result certifies itself: primal residuals within RESIDUAL_TOL and
    strong duality, |dual_value(lambda) - value| <= DUALITY_TOL, or
    SolverFailure.
    """
    inst = build_lp(model)
    red = _reduce(inst, model)
    res = simplex.solve_lp(red.A, red.b, -red.c, red.basis)  # max r'x == -min(-r)'x
    if res.status != "optimal":
        raise SolverFailure(f"relaxation solve failed: {res.status}")
    lam = -res.y[red.budget_row_pos]
    measure = _embed(inst, red, res, lam)
    gap = abs(dual_value(model, lam) - measure.value)
    if gap > DUALITY_TOL:
        raise SolverFailure(f"duality residual {gap:.3e} exceeds {DUALITY_TOL}")
    return measure


def resolve_with_pins(model: ArmModel, functional: np.ndarray,
                      value: float) -> OccupationMeasure:
    """Minimize `functional` over the exact optimal face of the relaxation.

    The face is the feasible set with the objective pinned to `value` by
    one equality row; degeneracy certification needs exactly this face,
    since any slack on the value admits slightly suboptimal points whose
    categories can differ from every truly optimal measure.  The result
    carries duals=None; budget duals of a pinned solve price the wrong
    problem.

    Raises PinInfeasible when the pinned value is unattainable.
    """
    inst = build_lp(model)
    red = _reduce(inst, model)
    f = np.asarray(functional, dtype=np.float64).reshape(-1)
    if f.shape != (inst.n_vars,):
        raise DimensionMismatch(
            f"functional has {f.size} entries, expected T*S*2 = {inst.n_vars}")
    A = sp.vstack([red.A, sp.csr_matrix(red.c)], format="csc")
    # the pin row starts on its artificial, the last column
    res = simplex.solve_lp(A, np.concatenate([red.b, [value]]), f[red.keep_cols],
                           np.append(red.basis, sum(A.shape) - 1))
    if res.status == "infeasible":
        raise PinInfeasible(f"no optimal measure at pinned value {value}")
    if res.status != "optimal":
        raise SolverFailure(f"pinned solve failed: {res.status}")
    return _embed(inst, red, res, None)
