"""Occupation-measure LP: builder, solvers, and pinned re-solves.

The relaxation treats the empirical distribution of arms as a continuum:
variables x_t(s, a) >= 0 carry the expected fraction of arms in state s
playing action a during period t, subject to flow balance, an exact
per-period pull-budget fraction, and unit initial mass on s0.  The
optimal value bounds the N-arm problem from above after scaling by N.

Row order is part of the public contract (duals are read off by row):
flow rows for t = 2..T in state order, then budget rows for t = 1..T,
then the initial-state row, then the total-mass row.

Columns come in period blocks of 2S with (s, a) at offset 2s+a, the row
of (s, a) in the period's kernel K_t from ``mdp.successors``.  So the
flow rows of period t are kron(I_S, [1, 1]) on block t beside -K_{t-1}^T
on block t-1, and the budget rows are kron(I_T, [0, 1] * S);
``build_lp`` writes the entries of these blocks as one triplet list.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from . import simplex
from .errors import DimensionMismatch, MissingDuals, PinInfeasible, SolverFailure
from .mdp import ArmModel, reachable_states, successors, validate_model

# Entries of a solved measure may undershoot zero by at most this much
# before being clamped; anything worse is a solver failure.
NEG_TOL = 1e-9
# Residual tolerances for the solved-measure invariants.
RESIDUAL_TOL = 1e-7
# Strong-duality residual |dual_value(lambda) - value| a solve may leave.
DUALITY_TOL = 1e-6
# The one engine choice: an LP with at most this many reduced rows goes to
# the exact simplex, a larger one to HiGHS.  Own simplex (sparse LU,
# single-threaded): ~0.5 s at 696 rows (bern15), ~3.6 s at 2590 (assort8)
# and 2625 (bern24), where HiGHS takes 19 s and 0.3 s.  The simplex
# returns exact basic vertices (nonbasic entries identically 0), which the
# 1e-9 category threshold needs; HiGHS leaves 1e-8-scale junk at its
# default tolerances.  Keep every instance that classification cares
# about on the exact path and defer only truly large ones.
AUTO_SIMPLEX_MAX_ROWS = 2600


@dataclass
class LpInstance:
    """Equality-form LP over the full (t, s, a) grid, to be maximised.

    :c: objective (reward) coefficients, shape (n_vars,).
    :A: constraint matrix, CSR, shape (n_rows, n_vars).
    :b: right-hand sides, shape (n_rows,).
    :row_kind: one tag per row: ("flow", t, s), ("budget", t),
        ("initial",), ("mass",); t and s are 1-based / index form.
    :T, S: model dimensions; var (t, s, a) sits at ((t-1)*S + s)*2 + a.
    """

    c: np.ndarray
    A: sp.csr_matrix
    b: np.ndarray
    row_kind: list[tuple]
    T: int
    S: int

    def var(self, t: int, s: int, a: int) -> int:
        return ((t - 1) * self.S + s) * 2 + a

    @property
    def n_vars(self) -> int:
        return self.T * self.S * 2

    @property
    def n_rows(self) -> int:
        return len(self.row_kind)

    def budget_rows(self) -> list[int]:
        return [i for i, k in enumerate(self.row_kind) if k[0] == "budget"]


@dataclass
class OccupationMeasure:
    """Solved relaxation: fractions of arms per (period, state, action).

    :x: shape (T, S, 2), entries >= 0 (clamped within NEG_TOL).
    :z: state marginals, z[t, s] = sum_a x[t, s, a].
    :value: optimal per-arm value of the relaxation.
    :duals: budget-row duals, shape (T,), or None for pinned re-solves.
    """

    x: np.ndarray
    z: np.ndarray
    value: float
    duals: np.ndarray | None

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
    row_kind = ([("flow", t, s) for t in range(2, T + 1) for s in range(S)]
                + [("budget", t) for t in range(1, T + 1)] + [("initial",), ("mass",)])
    c = model.R.reshape(-1).astype(np.float64).copy()
    return LpInstance(c=c, A=A, b=b, row_kind=row_kind, T=T, S=S)


@dataclass
class _Reduced:
    """Reachability-pruned copy of an LpInstance plus the embeddings."""

    A: sp.csc_matrix
    b: np.ndarray
    c: np.ndarray
    keep_cols: np.ndarray
    budget_row_pos: np.ndarray  # rows of A that are budget rows


def _reduce(inst: LpInstance, model: ArmModel) -> _Reduced:
    masks = np.array(reachable_states(model))
    keep_cols = np.flatnonzero(np.repeat(masks.reshape(-1), 2))
    # flow rows of unreachable (t, s) go; budget, initial and mass rows stay
    keep_rows = np.flatnonzero(np.concatenate([masks[1:].reshape(-1),
                                               np.ones(inst.T + 2, dtype=bool)]))
    A = sp.csc_matrix(inst.A[keep_rows][:, keep_cols])
    budget_pos = int(masks[1:].sum()) + np.arange(inst.T)
    return _Reduced(A=A, b=inst.b[keep_rows], c=inst.c[keep_cols],
                    keep_cols=keep_cols, budget_row_pos=budget_pos)


def _solve_reduced_min(A: sp.csc_matrix, b: np.ndarray, cmin: np.ndarray):
    """min cmin'x s.t. Ax = b, x >= 0; returns (x, y, status).

    The row count alone picks the engine: the exact simplex up to
    AUTO_SIMPLEX_MAX_ROWS rows, HiGHS above.
    """
    if A.shape[0] <= AUTO_SIMPLEX_MAX_ROWS:
        res = simplex.solve_lp(A, b, cmin)
        return res.x, res.y, res.status
    from scipy.optimize import linprog

    # HiGHS defaults allow 1e-7 primal slop; the measure invariant
    # requires raw entries >= -1e-9, so tighten the solver, backing
    # off only when it reports numerical trouble at a tolerance, and
    # saying so when a looser tolerance is accepted.
    failed = []
    for tol in (1e-10, 1e-9, None):
        opts = ({} if tol is None else
                {"primal_feasibility_tolerance": tol,
                 "dual_feasibility_tolerance": tol})
        res = linprog(cmin, A_eq=A, b_eq=b, bounds=[(0, None)] * A.shape[1],
                      method="highs", options=opts)
        if res.status != 4:
            break
        failed.append(tol)
    if failed and res.status != 4:
        tried = ", ".join(f"{t:g}" for t in failed)
        accepted = "HiGHS default" if tol is None else f"{tol:g}"
        warnings.warn(f"HiGHS reported numerical trouble (status 4) at tolerance "
                      f"{tried}; accepted tolerance {accepted}",
                      RuntimeWarning, stacklevel=2)
    if res.status == 2:
        return None, None, "infeasible"
    if res.status != 0:
        return None, None, f"highs status {res.status}"
    return res.x, np.asarray(res.eqlin.marginals), "optimal"


def _embed(inst: LpInstance, red: _Reduced, x_red: np.ndarray,
           duals: np.ndarray | None) -> OccupationMeasure:
    x_full = np.zeros(inst.n_vars)
    x_full[red.keep_cols] = x_red
    if x_full.min() < -NEG_TOL:
        raise SolverFailure(f"negative mass {x_full.min():.3e} beyond tolerance")
    np.maximum(x_full, 0.0, out=x_full)
    value = float(inst.c @ x_full)
    x = x_full.reshape(inst.T, inst.S, 2)
    measure = OccupationMeasure(x=x, z=x.sum(axis=2), value=value, duals=duals)
    _check_measure(inst, measure)
    return measure


def _check_measure(inst: LpInstance, measure: OccupationMeasure) -> None:
    resid = inst.A @ measure.x.reshape(-1) - inst.b
    kinds = np.array([k[0] for k in inst.row_kind])
    worst = {kind: float(np.abs(resid[kinds == kind]).max(initial=0.0))
             for kind in ("flow", "budget", "initial", "mass")}
    for kind, v in worst.items():
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
    cmin = -red.c  # max r'x == -min(-r)'x
    x_red, y_min, status = _solve_reduced_min(red.A, red.b, cmin)
    if status != "optimal":
        raise SolverFailure(f"relaxation solve failed: {status}")
    lam = -np.asarray(y_min)[red.budget_row_pos]
    measure = _embed(inst, red, x_red, lam)
    from .priority import dual_value  # priority imports this module

    gap = abs(dual_value(model, lam) - measure.value)
    if gap > DUALITY_TOL:
        raise SolverFailure(f"duality residual {gap:.3e} exceeds {DUALITY_TOL}")
    return measure


def upper_bound(measure: OccupationMeasure, N: int) -> float:
    """N-arm optimal value is at most N times the per-arm relaxation value."""
    return float(N * measure.value)


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
    x, _, status = _solve_reduced_min(A, np.concatenate([red.b, [value]]),
                                      f[red.keep_cols])
    if status == "infeasible":
        raise PinInfeasible(f"no optimal measure at pinned value {value}")
    if status != "optimal":
        raise SolverFailure(f"pinned solve failed: {status}")
    return _embed(inst, red, x, None)
