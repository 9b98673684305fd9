"""Model container: validation, budgets, reachability, serialization."""

import json

import numpy as np
import pytest

from conftest import make_random_model
from fluidbandit.errors import (DimensionMismatch, RangeError, RowSumError,
                                ShapeError)
from fluidbandit.lp import build_lp
from fluidbandit.mdp import (AllocationPlan, ArmModel, CountState,
                             model_from_dict, model_to_dict, period_budget,
                             reachable_states, successors, validate_model)
from fluidbandit.oracle import _WorkMeter, _successor_distribution
from fluidbandit.policies import parse_policy
from fluidbandit.simulator import CompiledPolicy


def _copy(model):
    return ArmModel(T=model.T, states=list(model.states), s0=model.s0,
                    P=model.P.copy(), R=model.R.copy(),
                    alpha=model.alpha.copy(), metadata=dict(model.metadata))


def test_fixtures_validate(single, two, bern2):
    for m in (single, two, bern2):
        validate_model(m)


def test_row_sum_error(two):
    m = _copy(two)
    m.P[0, 0, 1, 0] = 0.7
    with pytest.raises(RowSumError) as exc:
        validate_model(m)
    assert "0.7" in str(exc.value)


def test_range_errors(two):
    m = _copy(two)
    m.alpha[0] = 1.5
    with pytest.raises(RangeError):
        validate_model(m)

    m = _copy(two)
    m.s0 = 5
    with pytest.raises(RangeError):
        validate_model(m)

    m = _copy(two)
    m.P[0, 0, 0, :] = [1.2, -0.2]
    with pytest.raises(RangeError):
        validate_model(m)

    m = _copy(two)
    m.R[1, 0, 1] = np.inf
    with pytest.raises(RangeError):
        validate_model(m)


def test_shape_errors(two):
    m = _copy(two)
    m.states = []
    with pytest.raises(ShapeError):
        validate_model(m)

    m = _copy(two)
    m.P = m.P[:, :, :1, :]
    with pytest.raises(ShapeError):
        validate_model(m)

    m = _copy(two)
    m.P = m.P[:1]
    with pytest.raises((ShapeError, DimensionMismatch)):
        validate_model(m)


def test_period_budget_exact_fractions():
    assert period_budget(0.5, 4) == 2
    assert period_budget(0.25, 3) == 0
    # 1/3 stored in binary is slightly below the rational; the floor must
    # still hit the denoted integer
    assert period_budget(1.0 / 3.0, 3) == 1
    assert period_budget(1.0 / 3.0, 9600) == 3200
    assert period_budget(0.3333, 300) == 99


def test_budget_monotone_in_n():
    prev = 0
    for n in range(1, 200):
        b = period_budget(1.0 / 3.0, n)
        assert b in (prev, prev + 1)
        assert 0 <= b <= n
        prev = b


def test_reachable_states(single, two):
    masks = reachable_states(two)
    assert masks[0].tolist() == [True, False]
    assert masks[1].tolist() == [True, True]
    masks = reachable_states(single)
    assert all(m.all() for m in masks)


def test_successors_are_the_positive_kernel(fix, bern5, crowd7):
    rng = np.random.default_rng(34)
    models = list(fix.values()) + [bern5, crowd7]
    models += [make_random_model(rng) for _ in range(10)]
    for model in models:
        kernels = successors(model)
        assert len(kernels) == model.T - 1
        for t, K in enumerate(kernels):
            P = model.P[t]
            assert K.shape == (2 * model.S, model.S)
            assert K.has_sorted_indices
            assert (K.data > 0.0).all()
            np.testing.assert_array_equal(
                K.toarray(), np.where(P > 0, P, 0).reshape(2 * model.S, model.S))


def test_negative_dust_is_no_successor():
    """A kernel entry of -5e-10 passes validation yet is a successor nowhere:
    not in the LP's flow rows, the count engine or the exact oracle."""
    model = make_random_model(np.random.default_rng(35), S=3, T=3)
    model.P[0, 1, 0] = [0.6 + 5e-10, 0.4, -5e-10]
    validate_model(model)
    # flow row of (t=2, s=2) must not see x_1(1, 0)
    inst = build_lp(model)
    row = inst.row_kind.index(("flow", 2, 2))
    assert inst.A[row, inst.var(1, 1, 0)] == 0.0
    pol = CompiledPolicy(model, parse_policy("fluid"))
    assert pol._support[0][2 * 1 + 0].indices.tolist() == [0, 1]
    X = np.array([[0, 0], [3, 0], [0, 0]])
    dist = _successor_distribution(successors(model)[0], X, _WorkMeter(10 ** 6))
    assert all(z[2] == 0 for z in dist)


def test_json_round_trip(bern2):
    payload = json.dumps(model_to_dict(bern2))
    back = model_from_dict(json.loads(payload))
    validate_model(back)
    assert back.T == bern2.T
    assert back.states == bern2.states
    assert back.s0 == bern2.s0
    np.testing.assert_array_equal(back.P, bern2.P)
    np.testing.assert_array_equal(back.R, bern2.R)
    np.testing.assert_array_equal(back.alpha, bern2.alpha)


def test_json_round_trip_rebuilds_samplers(bern2):
    back = model_from_dict(json.loads(json.dumps(model_to_dict(bern2))))
    anns = back.annotations
    assert anns is not None and len(anns) == bern2.S
    rng = np.random.default_rng(0)
    draws = anns[0].sampler(rng, 2000)
    assert draws.shape == (2000,)
    assert np.isfinite(draws).all()
    assert abs(float(draws.mean()) - anns[0].posterior_mean) < 5 * anns[0].posterior_sd / np.sqrt(2000)


def test_count_state_and_plan():
    cs = CountState(t=1, N=4, Z=np.array([2, 2], dtype=np.int64))
    assert int(cs.Z.sum()) == cs.N
    plan = AllocationPlan(t=1, X=np.array([[1, 1], [2, 0]], dtype=np.int64))
    np.testing.assert_array_equal(plan.pulls, [1, 0])
    assert plan.relaxed is False
