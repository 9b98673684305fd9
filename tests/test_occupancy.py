"""Category codes, degeneracy reports and search, fluid propagation."""

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.optimize import linprog

import fluidbandit.occupancy as occupancy
from conftest import dense_kernel, make_random_model
from fluidbandit.cli import main
from fluidbandit.errors import DimensionMismatch, SolverFailure
from fluidbandit.lp import RESIDUAL_TOL, OccupationMeasure, build_lp, solve_relaxation
from fluidbandit.occupancy import CERT_TOL, classify, is_nondegenerate, search_nondegenerate
from fluidbandit.priority import fluid_propagate, score_order
from fluidbandit.zoo import crowdsourcing


def test_classify_single(single_measure):
    codes = classify(single_measure)
    assert codes.dtype == np.int8
    assert codes.tolist() == [[0], [0]]


def test_classify_two(two_measure):
    assert classify(two_measure).tolist() == [[0, -1], [1, -1]]


def test_classify_zero_pull_mass_is_inactive():
    x = np.array([[[0.3, 0.0], [0.35, 0.35]]])
    m = OccupationMeasure(x=x, value=0.0, duals=None)
    assert classify(m).tolist() == [[-1, 0]]


def test_partition_covers_every_state(bern5_measure):
    codes = classify(bern5_measure)
    assert codes.shape == bern5_measure.x.shape[:2]
    assert set(np.unique(codes)) <= {-1, 0, 1}


def test_is_nondegenerate_reports(single_measure, two_measure):
    rep = is_nondegenerate(classify(single_measure))
    assert rep.nondegenerate is True
    assert rep.neutral_counts.tolist() == [1, 1]
    rep = is_nondegenerate(classify(two_measure))
    assert rep.nondegenerate is False
    assert rep.certificate == [2]


def test_search_single(single, single_measure):
    rep = search_nondegenerate(single)
    assert rep.nondegenerate is True
    assert rep.stages == 1
    np.testing.assert_allclose(rep.witness.x, single_measure.x, atol=1e-9)


def test_search_two_certifies_degenerate(two):
    rep = search_nondegenerate(two)
    assert rep.nondegenerate is False
    assert rep.certificate == [2]
    assert rep.witness is None
    assert rep.neutral_counts.tolist() == [1, 0]


def test_search_witness_is_optimal_and_nondegenerate(bern5, bern5_measure):
    rep = search_nondegenerate(bern5)
    assert rep.nondegenerate is True
    w = rep.witness
    assert abs(w.value - bern5_measure.value) <= 1e-7
    assert w.x.min() >= 0.0
    assert (rep.neutral_counts >= 1).all()
    assert is_nondegenerate(classify(w)).nondegenerate


def test_search_stops_at_the_solution_cap(monkeypatch, capsys, crowd7):
    # crowd7's search combines pinned solutions, so one solution is too few
    monkeypatch.setattr(occupancy, "MAX_SOLUTIONS", 1)
    with pytest.raises(SolverFailure, match="solution cap"):
        search_nondegenerate(crowd7)
    assert main(["search-measure", "--gen", "crowd", "--T", "7", "--alpha", "0.25"]) == 7
    assert '"error": "SolverFailure"' in capsys.readouterr().err


def _highs_face_min(model, functional, value):
    """Minimum of a functional over the optimal face, by scipy's HiGHS."""
    inst = build_lp(model)
    res = linprog(functional.reshape(-1), A_eq=sp.vstack([inst.A, sp.csr_matrix(inst.c)]),
                  b_eq=np.append(inst.b, value), bounds=(0, None), method="highs",
                  options={"primal_feasibility_tolerance": 1e-10,
                           "dual_feasibility_tolerance": 1e-10})
    assert res.status == 0, res.message
    return res.fun


@pytest.mark.parametrize("T, alpha, stages, combines, certificate", [
    (2, 2 / 3, 2, 1, []),
    (4, 0.75, 3, 2, []),
    (5, 0.5, 5, 3, [4]),
], ids=["crowd2", "crowd4", "crowd5"])
def test_search_combines_pinned_solutions(monkeypatch, T, alpha, stages, combines,
                                          certificate):
    """The vertex lacks a neutral state; combining it with pinned re-solves
    gives one to every period but those certified degenerate."""
    model = crowdsourcing(T, alpha)
    base = solve_relaxation(model)
    assert not is_nondegenerate(classify(base)).nondegenerate
    combos, pins = [base], []  # pins: (functional, the combination it worked on)

    def combine(solutions, _combine=occupancy._combine):
        combos.append(_combine(solutions))
        return combos[-1]

    def pin(model, functional, value, _pin=occupancy.resolve_with_pins):
        pins.append((functional, combos[-1]))
        return _pin(model, functional, value)

    monkeypatch.setattr(occupancy, "_combine", combine)
    monkeypatch.setattr(occupancy, "resolve_with_pins", pin)
    rep = search_nondegenerate(model)
    assert (rep.stages, len(combos) - 1, rep.certificate) == (stages, combines, certificate)
    inst = build_lp(model)
    for m in combos[1:]:
        assert abs(m.value - base.value) <= 1e-7
        assert np.abs(inst.A @ m.x.reshape(-1) - inst.b).max() <= RESIDUAL_TOL
    counts = (classify(combos[-1]) == 0).sum(axis=1)
    assert [t + 1 for t in np.flatnonzero(counts == 0)] == certificate
    assert rep.nondegenerate == (not certificate)
    assert rep.witness is (None if certificate else combos[-1])
    for t in certificate:
        # the last pin at t found no optimal measure with less pull mass on
        # the combination's active set; HiGHS finds none either
        f, combo = next((f, m) for f, m in reversed(pins) if f[t - 1].any())
        low = _highs_face_min(model, f, base.value)
        assert low >= float((f * combo.x).sum()) - CERT_TOL


def test_fluid_propagate_two_recovers_optimum(two, two_measure):
    x, value = fluid_propagate(two, np.array([[1.0, 0.0], [1.0, 0.0]]))
    assert abs(value - 1.0) <= 1e-12
    np.testing.assert_allclose(x, two_measure.x, atol=1e-12)
    # reversed order: at t=2 the zero-reward state soaks the whole budget,
    # so half the value is lost and the measure departs from the optimum
    x2, value2 = fluid_propagate(two, np.array([[0.0, 1.0], [0.0, 1.0]]))
    assert abs(value2 - 0.5) <= 1e-12
    assert np.abs(x2 - two_measure.x).sum() >= 0.4


def test_fluid_propagate_feasible_and_below_optimum():
    rng = np.random.default_rng(13)
    for _ in range(6):
        model = make_random_model(rng)
        opt = solve_relaxation(model)
        scores = rng.normal(size=(model.T, model.S))
        x, value = fluid_propagate(model, scores)
        P = dense_kernel(model)
        assert value <= opt.value + 1e-9
        assert x.min() >= -1e-12
        for t in range(model.T):
            assert abs(float(x[t, :, 1].sum()) - float(model.alpha[t])) <= 1e-9
            assert abs(float(x[t].sum()) - 1.0) <= 1e-9
            if t + 1 < model.T:
                inflow = np.einsum("sa,sap->p", x[t], P[t])
                assert np.abs(x[t + 1].sum(axis=1) - inflow).max() <= 1e-9


@pytest.mark.parametrize("call", [
    lambda m: score_order(np.zeros(m.S + 1), 1, m.S),
    lambda m: score_order(np.zeros((m.T, m.S - 1)), 2, m.S),
    lambda m: fluid_propagate(m, np.zeros((2, 2))),
], ids=["score-order-vector", "score-order-table", "fluid-propagate"])
def test_scores_of_the_wrong_shape_are_refused(bern2, call):
    with pytest.raises(DimensionMismatch, match="scores"):
        call(bern2)
