"""Per-arm relaxation: frozen fixture solutions, invariants, duality, pins."""

import numpy as np
import pytest
import scipy.sparse as sp

import fluidbandit.lp as lp
import reference_lp as ref
from conftest import make_random_model
from fluidbandit.errors import (DimensionMismatch, MissingDuals, PinInfeasible,
                                SolverFailure)
from fluidbandit.lp import (RESIDUAL_TOL, build_lp, resolve_with_pins,
                            solve_relaxation, upper_bound)
from fluidbandit.priority import dual_value, lambda_from_duals

ENGINES = ["simplex", "highs"]


def _use(monkeypatch, engine):
    """Send every LP of the test to one engine through the row threshold."""
    rows = {"simplex": 10 ** 9, "highs": 0}[engine]
    monkeypatch.setattr(lp, "AUTO_SIMPLEX_MAX_ROWS", rows)


def _indicator(model, t, s, a):
    f = np.zeros((model.T, model.S, 2))
    f[t - 1, s, a] = 1.0
    return f


def _max_residual(model, x):
    """Independent recheck of every constraint straight from the model."""
    T, S = model.T, model.S
    errs = [abs(float(x[0, model.s0].sum()) - 1.0)]
    off = np.ones(S, dtype=bool)
    off[model.s0] = False
    if off.any():
        errs.append(float(x[0, off].sum()))
    for t in range(T):
        errs.append(abs(float(x[t, :, 1].sum()) - float(model.alpha[t])))
        errs.append(abs(float(x[t].sum()) - 1.0))
        if t + 1 < T:
            inflow = np.einsum("sa,sap->p", x[t], model.P[t])
            errs.append(float(np.abs(x[t + 1].sum(axis=1) - inflow).max()))
    return max(errs)


@pytest.mark.parametrize("engine", ENGINES)
def test_single_frozen(single, engine, monkeypatch):
    _use(monkeypatch, engine)
    m = solve_relaxation(single)
    assert abs(m.value - 1.0) <= 1e-10
    np.testing.assert_allclose(m.x, 0.5, atol=1e-9)
    np.testing.assert_allclose(m.duals, [1.0, 1.0], atol=1e-8)


@pytest.mark.parametrize("engine", ENGINES)
def test_two_frozen(two, engine, monkeypatch):
    _use(monkeypatch, engine)
    m = solve_relaxation(two)
    assert abs(m.value - 1.0) <= 1e-10
    want = np.array([
        [[0.5, 0.5], [0.0, 0.0]],
        [[0.0, 0.5], [0.5, 0.0]],
    ])
    np.testing.assert_allclose(m.x, want, atol=1e-9)


def test_bern2_frozen(bern2_measure):
    assert abs(bern2_measure.value - 13.0 / 36.0) <= 1e-9
    np.testing.assert_allclose(bern2_measure.duals, [7.0 / 12.0, 0.5], atol=1e-8)


def test_backends_agree(bern5, monkeypatch):
    _use(monkeypatch, "simplex")
    a = solve_relaxation(bern5)
    _use(monkeypatch, "highs")
    b = solve_relaxation(bern5)
    assert abs(a.value - b.value) <= 1e-8
    np.testing.assert_allclose(a.duals, b.duals, atol=1e-6)


def test_highs_tolerance_retry_is_reported(monkeypatch, bern5):
    import scipy.optimize

    real = scipy.optimize.linprog
    calls = []

    def trouble_once(*args, **kwargs):
        calls.append(kwargs["options"])
        res = real(*args, **kwargs)
        if len(calls) == 1:
            res.status = 4
        return res

    monkeypatch.setattr(scipy.optimize, "linprog", trouble_once)
    _use(monkeypatch, "highs")
    with pytest.warns(RuntimeWarning, match=r"at tolerance 1e-10; accepted tolerance 1e-09"):
        m = solve_relaxation(bern5)
    assert [c["primal_feasibility_tolerance"] for c in calls] == [1e-10, 1e-9]
    _use(monkeypatch, "simplex")
    assert abs(m.value - solve_relaxation(bern5).value) <= 1e-8


def test_row_count_alone_picks_the_engine(monkeypatch):
    import scipy.optimize

    from fluidbandit import simplex

    calls = []

    def simplex_stub(A, b, c):
        calls.append(("simplex", A.shape[0]))
        return simplex.SimplexResult(status="infeasible", x=None, y=None, obj=0.0,
                                     iterations=0, basis=None)

    def highs_stub(c, A_eq, b_eq, **kwargs):
        calls.append(("highs", A_eq.shape[0]))
        return scipy.optimize.OptimizeResult(status=2)

    monkeypatch.setattr(simplex, "solve_lp", simplex_stub)
    monkeypatch.setattr(scipy.optimize, "linprog", highs_stub)
    for m in (lp.AUTO_SIMPLEX_MAX_ROWS, lp.AUTO_SIMPLEX_MAX_ROWS + 1):
        A = sp.identity(m, format="csc")
        lp._solve_reduced_min(A, np.ones(m), np.ones(m))
    assert calls == [("simplex", lp.AUTO_SIMPLEX_MAX_ROWS),
                     ("highs", lp.AUTO_SIMPLEX_MAX_ROWS + 1)]


def test_measure_invariants(single_measure, two_measure, bern2_measure,
                            bern5_measure, single, two, bern2, bern5):
    for model, m in [(single, single_measure), (two, two_measure),
                     (bern2, bern2_measure), (bern5, bern5_measure)]:
        assert m.x.min() >= 0.0
        assert _max_residual(model, m.x) <= RESIDUAL_TOL
        np.testing.assert_allclose(m.z, m.x.sum(axis=2), atol=1e-12)


def test_random_models_duality_and_residuals():
    rng = np.random.default_rng(21)
    for _ in range(8):
        model = make_random_model(rng)
        m = solve_relaxation(model)
        assert m.x.min() >= 0.0
        assert _max_residual(model, m.x) <= RESIDUAL_TOL
        lam = lambda_from_duals(m)
        assert abs(dual_value(model, lam) - m.value) <= 1e-6


def test_upper_bound_scales(two_measure):
    assert upper_bound(two_measure, 7) == pytest.approx(7.0, abs=1e-9)


def test_build_lp_structure(two):
    inst = build_lp(two)
    assert inst.n_vars == two.T * two.S * 2
    assert len(inst.budget_rows()) == two.T
    for i, r in enumerate(inst.budget_rows()):
        assert inst.b[r] == pytest.approx(two.alpha[i])


def test_build_lp_matches_loop_reference(fix, bern5, crowd7, assort8):
    """The block assembly equals the row-by-row loop builder bit for bit."""
    rng = np.random.default_rng(33)
    models = list(fix.values()) + [bern5, crowd7, assort8]
    models += [make_random_model(rng) for _ in range(30)]
    for model in models:
        got, want = build_lp(model), ref.build_lp(model)
        assert got.A.shape == want.A.shape
        for part in ("indptr", "indices", "data"):
            a, b = getattr(got.A, part), getattr(want.A, part)
            assert a.dtype == b.dtype
            np.testing.assert_array_equal(a, b)
        assert got.b.dtype == want.b.dtype
        np.testing.assert_array_equal(got.b, want.b)
        np.testing.assert_array_equal(got.c, want.c)
        assert got.row_kind == want.row_kind


def test_solve_certifies_strong_duality(bern5, monkeypatch):
    orig = lp._solve_reduced_min

    def perturbed(A, b, cmin):
        x, y, status = orig(A, b, cmin)
        y = np.array(y, dtype=np.float64)
        y[A.shape[0] - bern5.T - 2] -= 0.5  # first budget row
        return x, y, status

    monkeypatch.setattr(lp, "_solve_reduced_min", perturbed)
    with pytest.raises(SolverFailure, match="duality residual"):
        solve_relaxation(bern5)


def test_pin_functional_size_is_checked(two, two_measure):
    f = np.zeros((two.T, two.S))  # missing the action axis
    with pytest.raises(DimensionMismatch):
        resolve_with_pins(two, f, two_measure.value)


@pytest.mark.parametrize("engine", ENGINES)
def test_pins_two_exact_min_and_max(two, two_measure, engine, monkeypatch):
    _use(monkeypatch, engine)
    f = _indicator(two, 2, 0, 1)  # mass on pull of state G at t=2
    lo = resolve_with_pins(two, f, two_measure.value)
    assert abs(float(lo.x[1, 0, 1]) - 0.5) <= 1e-9
    hi = resolve_with_pins(two, -f, two_measure.value)  # max f == min -f
    assert abs(float(hi.x[1, 0, 1]) - 0.5) <= 1e-9


def test_pinned_measure_is_feasible_and_dualless(two, two_measure):
    f = _indicator(two, 1, 0, 1)
    m = resolve_with_pins(two, f, two_measure.value)
    assert _max_residual(two, m.x) <= RESIDUAL_TOL
    with pytest.raises(MissingDuals):
        m.require_duals()


def test_pin_infeasible(two, two_measure):
    f = _indicator(two, 2, 0, 1)
    with pytest.raises(PinInfeasible):
        resolve_with_pins(two, f, two_measure.value + 0.5)
