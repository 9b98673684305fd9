"""Revised simplex: values and duals against scipy, statuses, anticycling,
long solves across refactorisations, BLAS-thread independence."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.optimize import linprog

from conftest import myopic_basis
from fluidbandit import lp, simplex
from fluidbandit.errors import SolverFailure
from fluidbandit.simplex import solve_lp


def _cold(A, b, c):
    """solve_lp from the all-artificial basis."""
    m, n = A.shape
    return solve_lp(sp.csc_matrix(A), b, c, n + np.arange(m))


def _check_against_scipy(A, b, c):
    res = _cold(A, b, c)
    ref = linprog(c, A_eq=A, b_eq=b, bounds=(0, None), method="highs")
    assert ref.status == 0
    assert res.status == "optimal"
    scale = 1.0 + abs(ref.fun)
    assert abs(res.obj - ref.fun) <= 1e-7 * scale
    # primal feasibility of our vertex
    assert res.x.min() >= 0.0
    assert np.abs(A @ res.x - b).max() <= 1e-7 * (1.0 + np.abs(b).max())
    # dual feasibility and strong duality for min c'x, Ax = b, x >= 0
    assert (A.T @ res.y - c).max() <= 1e-6
    assert abs(b @ res.y - res.obj) <= 1e-6 * scale
    return res


def _random_lps():
    rng = np.random.default_rng(7)
    for m, n in [(3, 6), (4, 9), (6, 12), (8, 16), (10, 24)]:
        for _ in range(4):
            A = rng.normal(size=(m, n))
            x0 = rng.uniform(0.5, 2.0, size=n)
            b = A @ x0  # mixed signs exercise the row-flip path
            c = rng.uniform(0.0, 1.0, size=n)  # c >= 0 keeps the LP bounded
            yield A, b, c


def test_random_lps_match_scipy():
    for A, b, c in _random_lps():
        _check_against_scipy(A, b, c)


def test_degenerate_doubly_stochastic_lp():
    # row/column sum constraints of a k x k matrix: rank-deficient and
    # massively degenerate at permutation vertices
    rng = np.random.default_rng(3)
    k = 4
    n = k * k
    rows = []
    for i in range(k):
        r = np.zeros(n)
        r[i * k:(i + 1) * k] = 1.0
        rows.append(r)
    for j in range(k):
        r = np.zeros(n)
        r[j::k] = 1.0
        rows.append(r)
    A = np.array(rows)
    b = np.ones(2 * k)
    c = rng.uniform(0.0, 1.0, size=n)
    _check_against_scipy(A, b, c)


def test_redundant_rows():
    A = np.array([[1.0, 1.0], [1.0, 1.0]])
    b = np.array([1.0, 1.0])
    c = np.array([-1.0, 0.0])
    res = _cold(A, b, c)
    assert res.status == "optimal"
    assert abs(res.obj - (-1.0)) <= 1e-9
    np.testing.assert_allclose(res.x, [1.0, 0.0], atol=1e-9)


def _cycling_lp():
    """Standard-form encoding of a problem known to cycle under naive
    largest-coefficient pivoting; optimum is -1/20."""
    A = np.array([
        [0.25, -60.0, -1.0 / 25.0, 9.0, 1.0, 0.0, 0.0],
        [0.5, -90.0, -1.0 / 50.0, 3.0, 0.0, 1.0, 0.0],
        [0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0],
    ])
    b = np.array([0.0, 0.0, 1.0])
    c = np.array([-0.75, 150.0, -0.02, 6.0, 0.0, 0.0, 0.0])
    return A, b, c


def test_anticycling_classic_example():
    res = _cold(*_cycling_lp())
    assert res.status == "optimal"
    assert abs(res.obj - (-0.05)) <= 1e-9


def test_blands_rule_solves_the_same_lps(monkeypatch):
    # the switch to Bland's rule waits for BLAND_TRIGGER degenerate steps in
    # a row, which no model LP makes; at 0 it comes on the first one
    dantzig = _cold(*_cycling_lp())
    monkeypatch.setattr(simplex, "BLAND_TRIGGER", 0)
    bland = _cold(*_cycling_lp())
    assert bland.status == "optimal"
    assert abs(bland.obj - (-0.05)) <= 1e-9
    # Bland's entering and leaving choices took another pivot path
    assert bland.iterations != dantzig.iterations
    for A, b, c in _random_lps():
        _check_against_scipy(A, b, c)


def test_infeasible():
    A = np.array([[1.0, 1.0]])
    b = np.array([-1.0])
    c = np.zeros(2)
    assert _cold(A, b, c).status == "infeasible"


def test_unbounded():
    A = np.array([[1.0, -1.0]])
    b = np.array([0.0])
    c = np.array([-1.0, 0.0])
    assert _cold(A, b, c).status == "unbounded"


def test_nonbasic_entries_exactly_zero():
    # vertex solutions carry exact zeros, not near-zero junk; the
    # category classifier depends on this
    rng = np.random.default_rng(11)
    A = rng.normal(size=(5, 12))
    b = A @ rng.uniform(0.5, 2.0, size=12)
    c = rng.uniform(0.0, 1.0, size=12)
    res = _cold(A, b, c)
    assert res.status == "optimal"
    assert ((res.x == 0.0) | (res.x > 1e-9)).all()


# bern15 and crowd7 start from the all-artificial basis, which keeps a long
# eta file in play; bern24 starts from its myopic fluid-priority vertex, the
# package's crash start before price rounds, 89 pivots from the optimum
def test_start_basis():
    # x0 + x1 = 1 and x0 - x1 = 0.5 from the basis {x0, artificial of row 1}:
    # that artificial starts at -0.5, so row 1 is flipped and phase 1
    # drives the artificial out
    A = np.array([[1.0, 1.0], [1.0, -1.0]])
    b, c = np.array([1.0, 0.5]), np.array([1.0, 2.0])
    res = solve_lp(sp.csc_matrix(A), b, c, np.array([0, 3]))
    assert res.status == "optimal" and res.iterations == 1
    np.testing.assert_allclose(res.x, [0.75, 0.25], atol=1e-12)
    np.testing.assert_allclose(A.T @ res.y, c, atol=1e-12)  # duals in the rows' own signs
    assert solve_lp(sp.csc_matrix(A), b, c, np.array([0, 0])).status == "singular_basis"
    with pytest.raises(ValueError, match="one column per row"):
        solve_lp(sp.csc_matrix(A), b, c, np.array([0]))


LONG_SOLVES = ["bern15", "crowd7", "bern24"]


@pytest.fixture(scope="module")
def bern24():
    from fluidbandit.zoo import bernoulli_bandit

    return bernoulli_bandit(24, 1.0 / 3.0)


@pytest.mark.parametrize("name", LONG_SOLVES)
def test_long_solve_exact_vertex(name, request):
    # the model LPs run past REFACTOR_EVERY pivots, so eta files, in-loop
    # refactorisations and the phase-2 certification all take part
    model = request.getfixturevalue(name)
    red = lp._reduce(lp.build_lp(model), model)
    A, b, c = red.A, red.b, -red.c
    res = solve_lp(A, b, c, myopic_basis(model, red)) if name == "bern24" else _cold(A, b, c)
    assert res.status == "optimal"
    assert res.iterations > simplex.REFACTOR_EVERY
    ref = linprog(c, A_eq=A, b_eq=b, bounds=(0, None), method="highs")
    assert abs(res.obj - ref.fun) <= 1e-9 * abs(ref.fun)
    assert ((res.x == 0.0) | (res.x > 1e-9)).all()
    assert np.abs(A @ res.x - b).max() <= 1e-9
    assert (A.T @ res.y - c).max() <= 1e-9


_THREADS_SCRIPT = """
import hashlib, json
from conftest import myopic_basis
from fluidbandit import lp, simplex, zoo
iterations = []
solve_lp = simplex.solve_lp
def counted(*args, **kwargs):
    res = solve_lp(*args, **kwargs)
    iterations.append(res.iterations)
    return res
simplex.solve_lp = counted
out = {}
for name, model in [("bern15", zoo.bernoulli_bandit(15, 1.0 / 3.0)),
                    ("crowd7", zoo.crowdsourcing(7, 0.25)),
                    ("bern24", zoo.bernoulli_bandit(24, 1.0 / 3.0)),
                    ("bern30", zoo.bernoulli_bandit(30, 1.0 / 3.0)),
                    ("assort8", zoo.assortment(8, 0.25))]:
    iterations.clear()
    m = lp.solve_relaxation(model)
    out[name] = [hashlib.sha256(m.x.tobytes()).hexdigest(),
                 hashlib.sha256(m.duals.tobytes()).hexdigest(),
                 m.value.hex(), list(iterations)]
# bern24 from its myopic vertex runs past REFACTOR_EVERY, so in-loop
# refactors take part too
bern24 = zoo.bernoulli_bandit(24, 1.0 / 3.0)
red = lp._reduce(lp.build_lp(bern24), bern24)
res = simplex.solve_lp(red.A, red.b, -red.c, myopic_basis(bern24, red))
out["bern24-myopic"] = [hashlib.sha256(res.x.tobytes()).hexdigest(),
                        hashlib.sha256(res.y.tobytes()).hexdigest(),
                        res.obj.hex(), res.iterations]
print(json.dumps(out))
"""


def test_results_do_not_depend_on_blas_threads():
    # a threaded BLAS call may sum in another order, and one changed bit
    # can send the pivot path, and so the vertex, elsewhere; bern30 and
    # assort8 (4991 and 2590 rows) run 8 and 6 price rounds before the solve
    tests = Path(__file__).resolve().parent
    paths = [str(tests.parent / "src"), str(tests), os.environ.get("PYTHONPATH")]
    runs = {}
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(filter(None, paths)))
        proc = subprocess.run([sys.executable, "-c", _THREADS_SCRIPT], env=env,
                              capture_output=True, text=True, timeout=600)
        assert proc.returncode == 0, proc.stderr
        runs[threads] = json.loads(proc.stdout.splitlines()[-1])
    assert runs["1"] == runs["2"]


def test_basis_factor_keeps_the_staircase_sparse(monkeypatch, bern24):
    # a fluid-priority vertex is block lower-triangular in time and pivots
    # mostly keep that order, so an LU in the basis's own column order stays
    # within 2.04x of the basis nonzeros over bern24's 89 pivots from its
    # myopic vertex; COLAMD's reordering reads 16.4x
    splu = simplex.splu
    fills = []

    def recorded(B, **kwargs):
        lu = splu(B, **kwargs)
        fills.append((B.nnz, lu.L.nnz + lu.U.nnz))
        return lu

    monkeypatch.setattr(simplex, "splu", recorded)
    red = lp._reduce(lp.build_lp(bern24), bern24)
    res = solve_lp(red.A, red.b, -red.c, myopic_basis(bern24, red))
    assert res.status == "optimal"
    assert len(fills) > 2  # start, in-loop and closing refactors
    assert all(lu_nnz <= 3 * b_nnz for b_nnz, lu_nnz in fills), fills
    assert res.lu_nnz == fills[-1][1]


def test_singular_factor_is_a_status_and_a_solver_failure(monkeypatch, bern5):
    def singular(*args, **kwargs):
        raise RuntimeError("Factor is exactly singular")

    monkeypatch.setattr(simplex, "splu", singular)
    A = np.array([[1.0, 1.0, 0.0], [0.0, 1.0, 1.0]])
    res = _cold(A, np.array([1.0, 1.0]), np.array([1.0, 2.0, 1.0]))
    assert res.status == "singular_basis"
    with pytest.raises(SolverFailure, match="singular_basis"):
        lp.solve_relaxation(bern5)
    f = np.zeros((bern5.T, bern5.S, 2))
    f[0, 0, 1] = 1.0
    with pytest.raises(SolverFailure, match="singular_basis"):
        lp.resolve_with_pins(bern5, f, 1.0)
