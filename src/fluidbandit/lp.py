"""Occupation-measure LP: builder, solvers, and pinned re-solves.

The relaxation treats the empirical distribution of arms as a continuum:
variables x_t(s, a) >= 0 carry the expected fraction of arms in state s
playing action a during period t, subject to flow balance, an exact
per-period pull-budget fraction, and unit initial mass on s0.  The
optimal value bounds the N-arm problem from above after scaling by N.

Row order is part of the public contract (duals are read off by row):
flow rows for t = 2..T in state order, then budget rows for t = 1..T,
then the initial-state row, then the total-mass row.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from . import simplex
from .errors import MissingDuals, PinInfeasible, SolverFailure
from .mdp import ArmModel, reachable_states, validate_model

# Entries of a solved measure may undershoot zero by at most this much
# before being clamped; anything worse is a solver failure.
NEG_TOL = 1e-9
# Residual tolerances for the solved-measure invariants.
RESIDUAL_TOL = 1e-7
# Half-width of the value band used by pinned re-solves.
PIN_TOL = 1e-7
# Reduced row count above which the "auto" backend defers to HiGHS.
# Own simplex: ~1 s at 700 rows, ~9 s at 1600, ~33 s at 2600, but returns
# exact basic vertices (nonbasic entries identically 0), which the 1e-9
# category threshold needs; HiGHS leaves 1e-8-scale junk at its default
# tolerances.  Keep every instance that classification cares about on the
# exact path and defer only truly large ones.
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
    n = T * S * 2

    def var(t: int, s: int, a: int) -> int:
        return ((t - 1) * S + s) * 2 + a

    rows: list[int] = []
    cols: list[int] = []
    vals: list[float] = []
    rhs: list[float] = []
    row_kind: list[tuple] = []

    def add(r: int, cidx: int, v: float) -> None:
        rows.append(r)
        cols.append(cidx)
        vals.append(v)

    r = 0
    # flow balance: mass entering (t, s) equals mass sitting at (t, s)
    for t in range(2, T + 1):
        Pprev = model.P[t - 2]
        for s in range(S):
            for a in (0, 1):
                add(r, var(t, s, a), 1.0)
            for sp_ in range(S):
                for a in (0, 1):
                    p = Pprev[sp_, a, s]
                    if p != 0.0:
                        add(r, var(t - 1, sp_, a), -p)
            rhs.append(0.0)
            row_kind.append(("flow", t, s))
            r += 1
    # budget: pull mass is exactly alpha_t each period
    for t in range(1, T + 1):
        for s in range(S):
            add(r, var(t, s, 1), 1.0)
        rhs.append(float(model.alpha[t - 1]))
        row_kind.append(("budget", t))
        r += 1
    # all mass starts on s0
    for a in (0, 1):
        add(r, var(1, model.s0, a), 1.0)
    rhs.append(1.0)
    row_kind.append(("initial",))
    r += 1
    # and totals one
    for s in range(S):
        for a in (0, 1):
            add(r, var(1, s, a), 1.0)
    rhs.append(1.0)
    row_kind.append(("mass",))
    r += 1

    A = sp.csr_matrix((vals, (rows, cols)), shape=(r, n))
    c = model.R.reshape(-1).astype(np.float64).copy()
    return LpInstance(c=c, A=A, b=np.asarray(rhs), row_kind=row_kind, T=T, S=S)


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
    masks = reachable_states(model)
    keep_col = np.zeros(inst.n_vars, dtype=bool)
    for t in range(1, inst.T + 1):
        for s in np.flatnonzero(masks[t - 1]):
            keep_col[inst.var(t, int(s), 0)] = True
            keep_col[inst.var(t, int(s), 1)] = True
    keep_row = np.zeros(inst.n_rows, dtype=bool)
    for i, kind in enumerate(inst.row_kind):
        if kind[0] == "flow":
            _, t, s = kind
            keep_row[i] = masks[t - 1][s]
        else:
            keep_row[i] = True
    keep_cols = np.flatnonzero(keep_col)
    keep_rows = np.flatnonzero(keep_row)
    A = sp.csc_matrix(inst.A[keep_rows][:, keep_cols])
    budget_pos = np.array([np.searchsorted(keep_rows, i) for i in inst.budget_rows()])
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
        # off only when it reports numerical trouble at a tolerance.
        res = None
        for tol in (1e-10, 1e-9, None):
            opts = ({} if tol is None else
                    {"primal_feasibility_tolerance": tol,
                     "dual_feasibility_tolerance": tol})
            res = linprog(cmin, A_eq=red.A, b_eq=red.b,
                          bounds=[(0, None)] * red.A.shape[1],
                          method="highs", options=opts)
            if res.status != 4:
                break
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
    """
    inst = build_lp(model)
    red = _reduce(inst, model)
    cmin = -red.c  # max r'x == -min(-r)'x
    x_red, y_min, status = _solve_reduced_min(red, cmin, backend)
    if status != "optimal":
        raise SolverFailure(f"relaxation solve failed: {status}")
    lam = -np.asarray(y_min)[red.budget_row_pos]
    return _embed(inst, model, red, x_red, lam)


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
        f = np.asarray(functional, dtype=np.float64).reshape(inst.T, inst.S, 2).reshape(-1)
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
