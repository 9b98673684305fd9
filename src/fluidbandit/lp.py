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
on block t-1, and the budget rows are kron(I_T, [0, 1] * S).
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
# Half-width of the value band used by pinned re-solves.
PIN_TOL = 1e-7
# Reduced row count above which the "auto" backend defers to HiGHS.
# Own simplex (sparse LU, single-threaded): ~0.5 s at 696 rows (bern15),
# ~3.6 s at 2590 (assort8) and 2625 (bern24), where HiGHS takes 19 s and
# 0.3 s.  The simplex returns exact basic vertices (nonbasic entries
# identically 0), which the 1e-9 category threshold needs; HiGHS leaves
# 1e-8-scale junk at its default tolerances.  Keep every instance that
# classification cares about on the exact path and defer only truly
# large ones.
AUTO_SIMPLEX_MAX_ROWS = 2600


@dataclass
class LpInstance:
    """Equality-form LP over the full (t, s, a) grid, max sense.

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
    pair, first = np.ones((1, 2)), sp.eye(1, T)
    # kron in csr: scipy's default bsr would keep explicit zeros
    A = sp.vstack([
        # flow: mass sitting at (t, s) minus the mass K_{t-1} moves into it
        sp.kron(sp.eye(T - 1, T, k=1), sp.kron(sp.identity(S), pair), "csr")
        - sp.block_diag([K.T for K in successors(model)] + [sp.csr_matrix((0, 2 * S))]),
        sp.kron(sp.identity(T), np.tile([0.0, 1.0], S), "csr"),          # budget
        sp.kron(first, sp.kron(sp.eye(1, S, k=model.s0), pair), "csr"),  # initial
        sp.kron(first, np.ones((1, 2 * S)), "csr"),                      # mass
    ], format="csr")
    b = np.concatenate([np.zeros((T - 1) * S), model.alpha, [1.0, 1.0]])
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
    keep_rows: np.ndarray
    budget_row_pos: np.ndarray  # positions of budget rows inside keep_rows


def _reduce(inst: LpInstance, model: ArmModel) -> _Reduced:
    masks = np.array(reachable_states(model))
    keep_cols = np.flatnonzero(np.repeat(masks.reshape(-1), 2))
    # flow rows of unreachable (t, s) go; budget, initial and mass rows stay
    keep_rows = np.flatnonzero(np.concatenate([masks[1:].reshape(-1),
                                               np.ones(inst.T + 2, dtype=bool)]))
    A = sp.csc_matrix(inst.A[keep_rows][:, keep_cols])
    budget_pos = int(masks[1:].sum()) + np.arange(inst.T)
    return _Reduced(A=A, b=inst.b[keep_rows], c=inst.c[keep_cols],
                    keep_cols=keep_cols, keep_rows=keep_rows,
                    budget_row_pos=budget_pos)


def _solve_reduced_min(red: _Reduced, cmin: np.ndarray, backend: str):
    """min cmin'x on the reduced LP; returns (x, y, status_ok)."""
    if backend == "auto":
        backend = "simplex" if red.A.shape[0] <= AUTO_SIMPLEX_MAX_ROWS else "highs"
    if backend == "simplex":
        res = simplex.solve_lp(red.A, red.b, cmin)
        return res.x, res.y, res.status
    if backend == "highs":
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
            res = linprog(cmin, A_eq=red.A, b_eq=red.b,
                          bounds=[(0, None)] * red.A.shape[1],
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
    raise ValueError(f"unknown backend {backend!r}")


def _embed(inst: LpInstance, model: ArmModel, red: _Reduced, x_red: np.ndarray,
           duals: np.ndarray | None) -> OccupationMeasure:
    x_full = np.zeros(inst.n_vars)
    x_full[red.keep_cols] = x_red
    if x_full.min() < -NEG_TOL:
        raise SolverFailure(f"negative mass {x_full.min():.3e} beyond tolerance")
    np.maximum(x_full, 0.0, out=x_full)
    value = float(inst.c @ x_full)
    x = x_full.reshape(inst.T, inst.S, 2)
    measure = OccupationMeasure(x=x, z=x.sum(axis=2), value=value, duals=duals)
    _check_measure(inst, model, measure)
    return measure


def _check_measure(inst: LpInstance, model: ArmModel, measure: OccupationMeasure) -> None:
    resid = inst.A @ measure.x.reshape(-1) - inst.b
    kinds = np.array([k[0] for k in inst.row_kind])
    worst = {kind: float(np.abs(resid[kinds == kind]).max(initial=0.0))
             for kind in ("flow", "budget", "initial", "mass")}
    for kind, v in worst.items():
        if v > RESIDUAL_TOL:
            raise SolverFailure(f"{kind} residual {v:.3e} exceeds {RESIDUAL_TOL}")


def solve_relaxation(model: ArmModel, backend: str = "auto") -> OccupationMeasure:
    """Solve the relaxation to a vertex; attach budget duals.

    Duals follow the max-sense convention: value decrease per unit of extra
    budget fraction is -duals; concretely lambda_t prices one unit of pull
    mass in period t and feeds the priority recursion.

    The result certifies itself: primal residuals within RESIDUAL_TOL and
    strong duality, |dual_value(lambda) - value| <= DUALITY_TOL, or
    SolverFailure.
    """
    inst = build_lp(model)
    red = _reduce(inst, model)
    cmin = -red.c  # max r'x == -min(-r)'x
    x_red, y_min, status = _solve_reduced_min(red, cmin, backend)
    if status != "optimal":
        raise SolverFailure(f"relaxation solve failed: {status}")
    lam = -np.asarray(y_min)[red.budget_row_pos]
    measure = _embed(inst, model, red, x_red, lam)
    from .priority import dual_value  # priority imports this module

    gap = abs(dual_value(model, lam) - measure.value)
    if gap > DUALITY_TOL:
        raise SolverFailure(f"duality residual {gap:.3e} exceeds {DUALITY_TOL}")
    return measure


def upper_bound(measure: OccupationMeasure, N: int) -> float:
    """N-arm optimal value is at most N times the per-arm relaxation value."""
    return float(N * measure.value)


def resolve_with_pins(model: ArmModel, functional: np.ndarray, value: float,
                      backend: str = "auto", sense: str = "min",
                      band: float = PIN_TOL) -> OccupationMeasure:
    """Optimize `functional` over the (near-)optimal face of the relaxation.

    With band > 0 the face is the feasible set intersected with a value
    band of half-width `band`, encoded by two slack rows.  With band = 0
    the objective is pinned by a single equality row; this is the exact
    optimal face and is what degeneracy certification needs, since any
    positive band admits slightly suboptimal points whose categories can
    differ from every truly optimal measure.  The result carries
    duals=None; budget duals of a pinned solve price the wrong problem.

    Raises PinInfeasible when the pinned value is unattainable.
    """
    inst = build_lp(model)
    red = _reduce(inst, model)
    f = np.asarray(functional, dtype=np.float64).reshape(-1)
    if f.shape != (inst.n_vars,):
        raise DimensionMismatch(
            f"functional has {f.size} entries, expected T*S*2 = {inst.n_vars}")
    fred = f[red.keep_cols]
    if sense == "max":
        fred = -fred
    elif sense != "min":
        raise ValueError(f"bad sense {sense!r}")
    if band < 0:
        raise ValueError("band must be >= 0")

    m, n = red.A.shape
    rband = red.c
    if band > 0:
        # rows:  r'x - s1 = value - band ;  r'x + s2 = value + band
        A_aug = sp.vstack([
            sp.hstack([red.A, sp.csc_matrix((m, 2))]),
            sp.hstack([sp.csr_matrix(rband), sp.csr_matrix([[-1.0, 0.0]])]),
            sp.hstack([sp.csr_matrix(rband), sp.csr_matrix([[0.0, 1.0]])]),
        ], format="csc")
        b_aug = np.concatenate([red.b, [value - band, value + band]])
        c_aug = np.concatenate([fred, [0.0, 0.0]])
    else:
        A_aug = sp.vstack([red.A, sp.csr_matrix(rband)], format="csc")
        b_aug = np.concatenate([red.b, [value]])
        c_aug = fred

    red_aug = _Reduced(A=A_aug, b=b_aug, c=c_aug, keep_cols=red.keep_cols,
                       keep_rows=red.keep_rows, budget_row_pos=red.budget_row_pos)
    x_aug, _, status = _solve_reduced_min(red_aug, c_aug, backend)
    if status == "infeasible":
        raise PinInfeasible(f"no optimal measure at pinned value {value}")
    if status != "optimal":
        raise SolverFailure(f"pinned solve failed: {status}")
    return _embed(inst, model, red, x_aug[:n], None)


def pin_objective(inst_or_model, pairs: list[tuple[int, int, int]],
                  T: int | None = None, S: int | None = None) -> np.ndarray:
    """Indicator functional over (t, s, a) triples, full-size layout."""
    if isinstance(inst_or_model, ArmModel):
        T, S = inst_or_model.T, inst_or_model.S
    f = np.zeros((T, S, 2))
    for t, s, a in pairs:
        f[t - 1, s, a] = 1.0
    return f
