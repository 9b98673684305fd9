"""Category partitions, degeneracy reports and search, fluid propagation."""

import numpy as np
import pytest

from conftest import dense_kernel, make_random_model
from fluidbandit.errors import DimensionMismatch
from fluidbandit.lp import OccupationMeasure, solve_relaxation
from fluidbandit.occupancy import classify, is_nondegenerate, search_nondegenerate
from fluidbandit.priority import fluid_propagate, score_order


def test_classify_single(single_measure):
    part = classify(single_measure)
    assert part.codes.tolist() == [[0], [0]]
    assert part.neutral(1) == frozenset({0})
    assert part.neutral(2) == frozenset({0})


def test_classify_two(two_measure):
    part = classify(two_measure)
    assert part.codes.tolist() == [[0, -1], [1, -1]]
    assert part.active(2) == frozenset({0})
    assert part.inactive(2) == frozenset({1})


def test_classify_zero_pull_mass_is_inactive():
    x = np.array([[[0.3, 0.0], [0.35, 0.35]]])
    m = OccupationMeasure(x=x, z=x.sum(axis=2), value=0.0, duals=None)
    part = classify(m)
    assert part.codes.tolist() == [[-1, 0]]


def test_partition_covers_every_state(bern5_measure):
    part = classify(bern5_measure)
    assert set(np.unique(part.codes)) <= {-1, 0, 1}
    for t in range(1, part.T + 1):
        groups = [part.active(t), part.neutral(t), part.inactive(t)]
        assert sum(len(g) for g in groups) == bern5_measure.x.shape[1]


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
