"""Self-contained two-phase revised simplex for equality-form LPs.

Solves  min c'x  s.t.  A x = b,  x >= 0.  The basis inverse is kept in
product form (Dantzig & Orchard-Hays, 1954): a sparse LU factor of the
basis at the last refactorisation, from ``scipy.sparse.linalg.splu``,
followed by one eta (leave row, d) per pivot since.  FTRAN is the LU solve
and then the etas in order; BTRAN is the etas in reverse and then the
transposed LU solve.  The factor is rebuilt from the basis columns every
REFACTOR_EVERY pivots.  No dense m x m array is kept; the BLAS work left is
length-m dot products and SuperLU's kernels on its small supernodal
blocks, too small for OpenBLAS to split across threads, so the pivot
sequence, the returned vertex and the solve time do not depend on the BLAS
thread count (tests/test_simplex.py checks one against two threads).

Pricing is sparse, with Dantzig's entering rule and a permanent switch to
Bland's rule after a long degenerate streak.  Artificial variables are
unit columns that are retained and never re-enter, so redundant rows need
no preprocessing; an artificial that is basic at zero is forced out the
moment an entering column crosses its row.

This is the package's LP engine up to ``lp.AUTO_SIMPLEX_MAX_ROWS`` reduced
rows; scipy's HiGHS solves larger instances, and the tests hold the
cross-check of the two engines on the same LPs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

# Reduced-cost threshold for entering candidates.
OPT_TOL = 1e-9
# Ordinary pivot magnitude floor.
PIV_TOL = 1e-10
# Forced removal of a zero-valued artificial needs a safer pivot.
FORCE_PIV_TOL = 1e-7
# Phase-1 objective above this means infeasible.
FEAS_TOL = 1e-7
# Basic values at or below this are roundoff on a degenerate basic
# variable (1e-17 scale on the model LPs) and are returned as exact zeros.
ZERO_TOL = 1e-12
# Degenerate steps before switching to Bland's rule for good.
BLAND_TRIGGER = 300
# Pivots between sparse refactorisations.  Every FTRAN and BTRAN applies
# each eta since the last one, so eta work per pivot grows with this while
# the amortised factor cost shrinks.
REFACTOR_EVERY = 64


@dataclass
class SimplexResult:
    """Outcome of one solve.

    :status: "optimal", "infeasible", "unbounded", "iteration_limit", or
        "singular_basis" when the sparse LU finds a basis exactly singular.
    :x: primal solution over structural variables, shape (n,).
    :y: row duals for the min problem, original row order and sign.
    :obj: c'x at the final point.
    :iterations: total pivots across both phases.
    :basis: final basic variable indices (artificials >= n may appear).
    """

    status: str
    x: np.ndarray
    y: np.ndarray
    obj: float
    iterations: int
    basis: np.ndarray


class _SingularBasis(Exception):
    """The LU factorisation found the basis exactly singular."""


class _Factor:
    """B^{-1} = E_k ... E_1 B_0^{-1}: an LU factor of B_0 and k etas.

    ``lu`` is None while B_0 is the all-artificial start basis, the
    identity, so small LPs that never refactor during phase 1 pay for no
    factorisation there.  Eta (r, d) replaces basis row r by a column whose
    FTRAN was d.
    """

    def __init__(self) -> None:
        self.lu = None
        self.etas: list[tuple[int, np.ndarray]] = []

    def refactor(self, Aext: sp.csc_matrix, basis: np.ndarray) -> None:
        try:
            self.lu = splu(Aext[:, basis])
        except RuntimeError as exc:  # "Factor is exactly singular"
            raise _SingularBasis(str(exc)) from exc
        self.etas = []

    def ftran(self, v: np.ndarray) -> np.ndarray:
        """B^{-1} v; v may be overwritten."""
        if self.lu is not None:
            v = self.lu.solve(v)
        for r, d in self.etas:
            vr = v[r] / d[r]
            if vr != 0.0:
                v -= vr * d
            v[r] = vr
        return v

    def btran(self, w: np.ndarray) -> np.ndarray:
        """B^{-T} w; w may be overwritten."""
        for r, d in reversed(self.etas):
            w[r] -= (d @ w - w[r]) / d[r]
        return w if self.lu is None else self.lu.solve(w, trans="T")


def solve_lp(A: sp.spmatrix, b: np.ndarray, c: np.ndarray) -> SimplexResult:
    """Two-phase revised simplex on min c'x, Ax=b, x>=0; stops with status
    "iteration_limit" after 50 000 + 20 m pivots."""
    A = sp.csc_matrix(A, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64).copy()
    c = np.asarray(c, dtype=np.float64)
    m, n = A.shape
    if b.shape != (m,) or c.shape != (n,):
        raise ValueError("inconsistent LP dimensions")
    maxiter = 50_000 + 20 * m

    # Normalize to b >= 0 for the artificial start; remember flipped rows.
    flip = b < 0
    if flip.any():
        A = sp.csc_matrix(sp.diags(np.where(flip, -1.0, 1.0)) @ A)
        b = np.abs(b)
    AT = sp.csr_matrix(A.T)  # fast A'y products for pricing
    Aext = sp.hstack([A, sp.identity(m, format="csc")], format="csc")  # + artificials
    col_ind, col_ptr, col_val = A.indices, A.indptr, A.data

    basis = np.arange(n, n + m)  # start from the all-artificial basis
    factor = _Factor()
    xB = b.copy()
    in_basis = np.zeros(n, dtype=bool)

    iterations = 0
    bland = False
    degen_streak = 0

    def refactor() -> None:
        nonlocal xB
        factor.refactor(Aext, basis)
        xB = np.maximum(factor.ftran(b.copy()), 0.0)

    def duals(cost: np.ndarray, phase_two: bool) -> np.ndarray:
        struct = basis < n
        cb_full = np.zeros(m)
        cb_full[struct] = cost[basis[struct]]
        if not phase_two:
            cb_full[~struct] = 1.0
        return factor.btran(cb_full)

    def column_dense(j: int) -> np.ndarray:
        lo, hi = col_ptr[j], col_ptr[j + 1]
        a = np.zeros(m)
        a[col_ind[lo:hi]] = col_val[lo:hi]
        return factor.ftran(a)

    def run_phase(cost: np.ndarray, phase_two: bool) -> str:
        nonlocal iterations, bland, degen_streak, xB
        while True:
            if iterations >= maxiter:
                return "iteration_limit"
            struct_mask = basis < n
            red = cost - AT @ duals(cost, phase_two)
            red[in_basis] = 0.0
            if bland:
                cand = np.flatnonzero(red < -OPT_TOL)
                if cand.size == 0:
                    return "optimal"
                enter = int(cand[0])
            else:
                enter = int(np.argmin(red))
                if red[enter] >= -OPT_TOL:
                    return "optimal"
            d = column_dense(enter)

            # force out an artificial basic at zero whose row is crossed
            leave = -1
            theta = 0.0
            if phase_two and not struct_mask.all():
                forced = np.flatnonzero(~struct_mask & (np.abs(d) > FORCE_PIV_TOL))
                if forced.size:
                    leave = int(forced[np.argmax(np.abs(d[forced]))])
            if leave < 0:
                pos = d > PIV_TOL
                if not pos.any():
                    return "unbounded" if phase_two else "optimal"
                idx = np.flatnonzero(pos)
                ratios = xB[idx] / d[idx]
                theta = float(ratios.min())
                ties = idx[ratios <= theta + 1e-9 * (1.0 + theta)]
                if bland:
                    leave = int(ties[np.argmin(basis[ties])])
                else:
                    leave = int(ties[np.argmax(d[ties])])

            if theta <= 1e-12:
                degen_streak += 1
                if degen_streak > BLAND_TRIGGER:
                    bland = True
            else:
                degen_streak = 0

            xB -= theta * d
            xB[leave] = theta
            np.maximum(xB, 0.0, out=xB)
            old = basis[leave]
            if old < n:
                in_basis[old] = False
            basis[leave] = enter
            in_basis[enter] = True
            factor.etas.append((leave, d))
            iterations += 1
            if len(factor.etas) >= REFACTOR_EVERY:
                refactor()

    def result(status: str) -> SimplexResult:
        return SimplexResult(status, np.zeros(n), np.zeros(m), float("nan"),
                             iterations, basis.copy())

    try:
        status = run_phase(np.zeros(n), phase_two=False)
        if status != "optimal":
            return result(status)
        refactor()
        art_mass = float(xB[basis >= n].sum())
        if art_mass > FEAS_TOL:
            return result("infeasible")

        degen_streak = 0
        bland = False
        # Eta drift can both corrupt xB and stop the phase early on stale
        # reduced costs, so certify termination against a fresh factor and
        # resume if anything still prices in.
        for _ in range(5):
            status = run_phase(c, phase_two=True)
            refactor()
            y = duals(c, phase_two=True)
            if status != "optimal":
                break
            red = c - AT @ y
            red[in_basis] = 0.0
            if red.min() >= -OPT_TOL:
                break
    except _SingularBasis:
        return result("singular_basis")

    struct = basis < n
    x = np.zeros(n)
    x[basis[struct]] = np.where(xB[struct] > ZERO_TOL, xB[struct], 0.0)
    y = np.where(flip, -y, y)
    return SimplexResult(status, x, y, float(c @ x), iterations, basis.copy())
