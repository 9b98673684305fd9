"""Per-arm relaxation: frozen fixture solutions, invariants, duality, pins,
and the simplex's crash start at the fluid-priority vertex."""

import warnings

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.optimize import linprog

import fluidbandit.lp as lp
import reference_lp as ref
from conftest import dense_kernel, make_random_model, myopic_basis
from fluidbandit import simplex
from fluidbandit.errors import (DimensionMismatch, MissingDuals, PinInfeasible,
                                SolverFailure)
from fluidbandit.lp import (RESIDUAL_TOL, OccupationMeasure, build_lp, resolve_with_pins,
                            solve_relaxation)
from fluidbandit.mdp import ArmModel
from fluidbandit.priority import _price_rounds, dual_value, fluid_propagate, score_order
from fluidbandit.zoo import bernoulli_bandit

# "simplex" is the package's solve; "highs" solves the same reduced LP with
# scipy's HiGHS here in the test, as a reference.
ENGINES = ["simplex", "highs"]


def _highs(model, functional=None, value=None):
    """HiGHS reference for the relaxation or, given a functional and a
    value, for the pinned re-solve; a measure embedded like the package's."""
    inst = build_lp(model)
    red = lp._reduce(inst, model)
    A, b, c = red.A, red.b, -red.c
    if functional is not None:
        A = sp.vstack([A, sp.csr_matrix(red.c)], format="csc")
        b = np.append(b, value)
        c = np.asarray(functional, dtype=np.float64).reshape(-1)[red.keep_cols]
    res = linprog(c, A_eq=A, b_eq=b, bounds=(0, None), method="highs",
                  options={"primal_feasibility_tolerance": 1e-10,
                           "dual_feasibility_tolerance": 1e-10})
    assert res.status == 0, res.message
    x = np.zeros(inst.n_vars)
    x[red.keep_cols] = np.maximum(res.x, 0.0)
    duals = None if functional is not None else -res.eqlin.marginals[red.budget_row_pos]
    x = x.reshape(inst.T, inst.S, 2)
    return OccupationMeasure(x=x, value=float(inst.c @ x.reshape(-1)), duals=duals)


def _relax(model, engine):
    return solve_relaxation(model) if engine == "simplex" else _highs(model)


def _pin(model, functional, value, engine):
    if engine == "simplex":
        return resolve_with_pins(model, functional, value)
    return _highs(model, functional, value)


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
    P = dense_kernel(model)
    for t in range(T):
        errs.append(abs(float(x[t, :, 1].sum()) - float(model.alpha[t])))
        errs.append(abs(float(x[t].sum()) - 1.0))
        if t + 1 < T:
            inflow = np.einsum("sa,sap->p", x[t], P[t])
            errs.append(float(np.abs(x[t + 1].sum(axis=1) - inflow).max()))
    return max(errs)


@pytest.mark.parametrize("engine", ENGINES)
def test_single_frozen(single, engine):
    m = _relax(single, engine)
    assert abs(m.value - 1.0) <= 1e-10
    np.testing.assert_allclose(m.x, 0.5, atol=1e-9)
    np.testing.assert_allclose(m.duals, [1.0, 1.0], atol=1e-8)


@pytest.mark.parametrize("engine", ENGINES)
def test_two_frozen(two, engine):
    m = _relax(two, engine)
    assert abs(m.value - 1.0) <= 1e-10
    want = np.array([
        [[0.5, 0.5], [0.0, 0.0]],
        [[0.0, 0.5], [0.5, 0.0]],
    ])
    np.testing.assert_allclose(m.x, want, atol=1e-9)


def test_bern2_frozen(bern2_measure):
    assert abs(bern2_measure.value - 13.0 / 36.0) <= 1e-9
    np.testing.assert_allclose(bern2_measure.duals, [7.0 / 12.0, 0.5], atol=1e-8)


def test_backends_agree(bern5):
    a = solve_relaxation(bern5)
    b = _highs(bern5)
    assert abs(a.value - b.value) <= 1e-8
    np.testing.assert_allclose(a.duals, b.duals, atol=1e-6)


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
        lam = m.require_duals()
        assert abs(dual_value(model, lam) - m.value) <= 1e-6


def test_build_lp_structure(two):
    inst = build_lp(two)
    assert inst.n_vars == two.T * two.S * 2
    F = (two.T - 1) * two.S  # budget rows follow the flow rows
    assert inst.A.shape == (F + two.T + 2, inst.n_vars)
    for i in range(two.T):
        assert inst.b[F + i] == pytest.approx(two.alpha[i])


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


def test_build_lp_matches_kron_blocks():
    """The triplet assembly gives the arrays the Kronecker block form gave."""
    from fluidbandit.mdp import ArmModel
    from fluidbandit.zoo import assortment, bernoulli_bandit, crowdsourcing

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # assort3's truncation warning
        models = [bernoulli_bandit(15, 1.0 / 3.0), crowdsourcing(7, 0.25),
                  assortment(3, 0.25), bernoulli_bandit(24, 1.0 / 3.0)]
    rng = np.random.default_rng(8)
    for _ in range(40):  # dense random models, S 3-4 and T 3-4
        S, T = int(rng.integers(3, 5)), int(rng.integers(3, 5))
        models.append(ArmModel(T=T, states=[f"s{k}" for k in range(S)], s0=0,
                               P=rng.dirichlet(np.ones(S), size=(T, S, 2)),
                               R=rng.uniform(size=(T, S, 2)),
                               alpha=rng.uniform(0.2, 0.9, size=T), metadata={}))
    for model in models:
        got, want = build_lp(model).A, ref.build_lp_kron(model)
        assert got.shape == want.shape and got.has_sorted_indices
        for part in ("indptr", "indices", "data"):
            a, b = getattr(got, part), getattr(want, part)
            assert a.dtype == b.dtype
            np.testing.assert_array_equal(a, b)


def test_solve_certifies_strong_duality(bern5, monkeypatch):
    orig = simplex.solve_lp

    def perturbed(A, b, cmin, basis):
        res = orig(A, b, cmin, basis)
        res.y[A.shape[0] - bern5.T - 2] -= 0.5  # first budget row
        return res

    monkeypatch.setattr(simplex, "solve_lp", perturbed)
    with pytest.raises(SolverFailure, match="duality residual"):
        solve_relaxation(bern5)


def test_solve_checks_primal_residuals(bern5, monkeypatch):
    orig = simplex.solve_lp

    def perturbed(A, b, cmin, basis):
        res = orig(A, b, cmin, basis)
        res.x[0] += 0.5  # x_1(s0, idle): its initial, mass and period-2 flow rows
        return res

    monkeypatch.setattr(simplex, "solve_lp", perturbed)
    with pytest.raises(SolverFailure, match="^flow residual .* exceeds"):
        solve_relaxation(bern5)


def test_pin_functional_size_is_checked(two, two_measure):
    f = np.zeros((two.T, two.S))  # missing the action axis
    with pytest.raises(DimensionMismatch):
        resolve_with_pins(two, f, two_measure.value)


@pytest.mark.parametrize("engine", ENGINES)
def test_pins_two_exact_min_and_max(two, two_measure, engine):
    f = _indicator(two, 2, 0, 1)  # mass on pull of state G at t=2
    lo = _pin(two, f, two_measure.value, engine)
    assert abs(float(lo.x[1, 0, 1]) - 0.5) <= 1e-9
    hi = _pin(two, -f, two_measure.value, engine)  # max f == min -f
    assert abs(float(hi.x[1, 0, 1]) - 0.5) <= 1e-9


def test_pins_below_the_crash_value():
    # the pin row's artificial starts at value - r'x_crash, below zero for
    # these values, so the simplex flips that row before phase 1
    model = bernoulli_bandit(3, 1.0 / 3.0)
    crash = fluid_propagate(model, model.R[:, :, 1] - model.R[:, :, 0])[1]
    f = _indicator(model, 2, 0, 1)
    for value in (crash - 0.1, crash - 0.05):
        m = resolve_with_pins(model, f, value)
        assert abs(m.value - value) <= 1e-9
        assert abs(float(m.x[1, 0, 1]) - float(_highs(model, f, value).x[1, 0, 1])) <= 1e-9


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


def test_crash_start_pivot_counts(bern5_measure, bern15_measure, assort8_measure):
    # the all-artificial start took 58 and 1418 pivots on bern5 and bern15;
    # the myopic vertex took 27 on bern15, 89 on bern24 and 487 on assort8
    assert bern5_measure.pivots == 0
    assert bern15_measure.pivots <= 5
    assert solve_relaxation(bernoulli_bandit(24, 1.0 / 3.0)).pivots <= 5
    assert assort8_measure.pivots <= 5
    assert (bern15_measure.rows, bern5_measure.rows) == (696, 41)


def test_crowd7_crash_stays_at_the_myopic_vertex(crowd7, crowd7_measure):
    # the first price round does not raise crowd7's fluid value, so the
    # crash is the myopic vertex and the simplex still makes its 5 pivots
    red = lp._reduce(build_lp(crowd7), crowd7)
    np.testing.assert_array_equal(red.basis, myopic_basis(crowd7, red))
    assert crowd7_measure.pivots == 5


def _edge_alphas(model, rng):
    """A copy of the model with one period at alpha 0, one at alpha 1, and
    the last one's budget exactly the mass of its first k myopic-order states."""
    T, S = model.T, model.S
    alpha = model.alpha.copy()
    t0, t1 = rng.choice(T - 1, size=2, replace=False)
    alpha[t0], alpha[t1] = 0.0, 1.0
    scores = model.R[:, :, 1] - model.R[:, :, 0]
    edged = ArmModel(T, model.states, model.s0, R=model.R, alpha=alpha,
                     kernel=model.kernel, metadata=model.metadata)
    z = fluid_propagate(edged, scores)[0][-1].sum(axis=1)
    order = score_order(scores, T, S)
    alpha[-1] = min(float(np.cumsum(z[order])[int(rng.integers(0, S - 1))]), 1.0)
    return ArmModel(T, model.states, model.s0, R=model.R, alpha=alpha,
                    kernel=model.kernel, metadata=model.metadata)


def test_crash_basis_is_the_fluid_vertex(fix, bern5, bern15, crowd7, assort8):
    """The crash basis factors, its values are the fluid measure at the
    scores its price rounds chose, whose fluid value is at least the myopic
    one, and it leaves phase 1 nothing to do; so does the vertex builder at
    the myopic scores."""
    rng = np.random.default_rng(44)
    models = list(fix.values()) + [bern5, bern15, crowd7, assort8]
    edged = [_edge_alphas(make_random_model(rng, T=int(rng.integers(3, 5))), rng)
             for _ in range(30)]
    for model in models + edged:
        red = lp._reduce(build_lp(model), model)
        myopic = model.R[:, :, 1] - model.R[:, :, 0]
        chosen = _price_rounds(model)[0]
        assert fluid_propagate(model, chosen)[1] >= fluid_propagate(model, myopic)[1]
        for basis, scores in ((red.basis, chosen), (myopic_basis(model, red), myopic)):
            assert np.unique(basis).size == red.A.shape[0]
            # phase 1 ignores the cost, and a zero cost leaves phase 2 nothing
            # to price, so this solve's pivots are the phase-1 pivots
            res = simplex.solve_lp(red.A, red.b, np.zeros(red.c.size), basis)
            assert res.status == "optimal" and res.iterations == 0
            x = np.zeros(model.T * model.S * 2)
            x[red.keep_cols] = res.x
            fluid, _ = fluid_propagate(model, scores)
            np.testing.assert_allclose(x.reshape(fluid.shape), fluid, rtol=0, atol=1e-12)
    for model in edged:
        m = solve_relaxation(model)
        assert abs(m.value - _highs(model).value) <= 1e-9
