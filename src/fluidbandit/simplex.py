"""Self-contained two-phase revised simplex for equality-form LPs.

Solves  min c'x  s.t.  A x = b,  x >= 0.  The basis inverse is kept in
product form (Dantzig & Orchard-Hays, 1954): a sparse LU factor of the
basis at the last refactorisation, from ``scipy.sparse.linalg.splu``,
followed by one eta (leave row, d) per pivot since.  FTRAN is the LU solve
and then the etas in order; BTRAN is the etas in reverse and then the
transposed LU solve.  The factor is rebuilt from the basis columns every
REFACTOR_EVERY pivots.

SuperLU factors the basis columns in the order they sit in the basis
(``permc_spec="NATURAL"``), not in COLAMD's fill-reducing order.  The
caller's start basis arrives in time-staircase order, block
lower-triangular, and a pivot puts its entering column in the leaving
column's place, so the order mostly survives; an LU that keeps a nearly
triangular LP basis in its own order fills little (Suhl & Suhl 1990).
COLAMD breaks the staircase: on bern24's last basis after 89 pivots from
its myopic vertex, L + U holds about 99 000 nonzeros under COLAMD and
13 000 in the basis's own order (tests/test_simplex.py bounds the fill).
SuperLU's partial row pivoting still picks each pivot by magnitude, so
the factor stays stable.

No dense m x m array is kept; the BLAS work left is length-m dot products
and SuperLU's kernels on its small supernodal blocks, too small for
OpenBLAS to split across threads (its dot product threads above 10 000
entries), so up to that many rows the pivot sequence, the returned vertex
and the solve time do not depend on the BLAS thread count
(tests/test_simplex.py checks one against two threads).

Pricing is sparse, with Dantzig's entering rule and a permanent switch to
Bland's rule after a long degenerate streak.  Artificial variables are
unit columns that are retained and never re-enter, so redundant rows need
no preprocessing; an artificial that is basic at zero is forced out the
moment an entering column crosses its row.

Every solve starts from a basis its caller names.  ``lp`` passes a
fluid-priority vertex of each relaxation at scores near its budget duals
(a structural crash start, Bixby 1992), so phase 1 only has artificials
left that start above zero, such as a pin row's, and phase 2 few pivots;
the columns n + arange(m) are the all-artificial start.
This is the package's only LP engine; the tests cross-check it against
scipy's HiGHS on the same LPs.
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
    :lu_nnz: nonzeros of L + U in the last factor; 0 when the solve stops
        before phase 2 ends.
    """

    status: str
    x: np.ndarray
    y: np.ndarray
    obj: float
    iterations: int
    lu_nnz: int = 0


class _SingularBasis(Exception):
    """The LU factorisation found the basis exactly singular."""


class _Factor:
    """B^{-1} = E_k ... E_1 B_0^{-1}: an LU factor of B_0 and k etas.

    Eta (r, d) replaces basis row r by a column whose FTRAN was d.
    """

    def refactor(self, Aext: sp.csc_matrix, basis: np.ndarray) -> None:
        try:
            self.lu = splu(Aext[:, basis], permc_spec="NATURAL")
        except RuntimeError as exc:  # "Factor is exactly singular"
            raise _SingularBasis(str(exc)) from exc
        self.etas = []

    def ftran(self, v: np.ndarray) -> np.ndarray:
        """B^{-1} v; v may be overwritten."""
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
        return self.lu.solve(w, trans="T")


def solve_lp(A: sp.spmatrix, b: np.ndarray, c: np.ndarray,
             basis: np.ndarray) -> SimplexResult:
    """Two-phase revised simplex on min c'x, Ax=b, x>=0; stops with status
    "iteration_limit" after 50 000 + 20 m pivots.

    ``basis`` names m start columns, j < n for structural j and n + i for
    the artificial of row i; n + arange(m) is the all-artificial start.  Its
    basic solution must be nonnegative on its structural columns, and
    phase 1 then only drives out the artificials that start above zero.
    A start basis the sparse LU finds singular is status "singular_basis".
    """
    A = sp.csc_matrix(A, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64).copy()
    c = np.asarray(c, dtype=np.float64)
    m, n = A.shape
    if b.shape != (m,) or c.shape != (n,):
        raise ValueError("inconsistent LP dimensions")
    maxiter = 50_000 + 20 * m

    basis = np.array(basis, dtype=np.intp)
    if basis.shape != (m,):
        raise ValueError("a start basis needs one column per row")
    art = basis >= n
    Aext = sp.hstack([A, sp.identity(m, format="csc")], format="csc")  # + artificials
    factor = _Factor()
    try:
        factor.refactor(Aext, basis)
        xB = factor.ftran(b.copy())
        # Flip the rows whose artificial starts basic below zero (for the
        # all-artificial start, the rows with b < 0), which negates just
        # that artificial's value; remember flipped rows.
        flip = np.zeros(m, dtype=bool)
        flip[basis[art] - n] = xB[art] < 0
        if flip.any():
            A = sp.csc_matrix(sp.diags(np.where(flip, -1.0, 1.0)) @ A)
            b = np.where(flip, -b, b)
            Aext = sp.hstack([A, sp.identity(m, format="csc")], format="csc")
            factor.refactor(Aext, basis)
    except _SingularBasis:
        return SimplexResult("singular_basis", np.zeros(n), np.zeros(m), float("nan"), 0)
    xB[art] = np.abs(xB[art])
    np.maximum(xB, 0.0, out=xB)
    AT = sp.csr_matrix(A.T)  # fast A'y products for pricing
    col_ind, col_ptr, col_val = A.indices, A.indptr, A.data
    in_basis = np.zeros(n, dtype=bool)
    in_basis[basis[~art]] = True

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
        return SimplexResult(status, np.zeros(n), np.zeros(m), float("nan"), iterations)

    try:
        status = run_phase(np.zeros(n), phase_two=False)
        if status != "optimal":
            return result(status)
        if factor.etas:  # else the last factor and xB stand
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
            if factor.etas:
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
    lu_nnz = factor.lu.L.nnz + factor.lu.U.nnz  # builds L and U, once per solve
    return SimplexResult(status, x, y, float(c @ x), iterations, lu_nnz)
