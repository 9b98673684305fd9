"""Priority scores: Q-recursion, duality identity, tie rule."""

import numpy as np

from conftest import dense_kernel, make_random_model
from fluidbandit.mdp import ArmModel
from fluidbandit.priority import PriorityScheme, dual_value, q_recursion, score_order


def test_q_recursion_single_zero_prices(single):
    scheme = q_recursion(single, [0.0, 0.0])
    np.testing.assert_allclose(scheme.Q[1], [[0.0, 1.0]], atol=0)
    np.testing.assert_allclose(scheme.Q[0], [[1.0, 2.0]], atol=0)
    np.testing.assert_allclose(scheme.P, [[1.0], [1.0]], atol=0)


def test_q_recursion_single_unit_prices(single):
    scheme = q_recursion(single, [1.0, 1.0])
    np.testing.assert_allclose(scheme.P, 0.0, atol=0)


def test_q_recursion_two_zero_prices(two):
    scheme = q_recursion(two, [0.0, 0.0])
    np.testing.assert_allclose(scheme.P, [[2.0, 0.0], [1.0, 0.0]], atol=0)


def test_q_recursion_residual(bern5, bern5_measure):
    lam = bern5_measure.require_duals()
    scheme = q_recursion(bern5, lam)
    T, S = bern5.T, bern5.S
    price = np.array([0.0, 1.0])
    np.testing.assert_allclose(scheme.Q[T - 1],
                               bern5.R[T - 1] - lam[T - 1] * price, atol=1e-9)
    for t in range(T - 1):
        cont = dense_kernel(bern5)[t] @ scheme.Q[t + 1].max(axis=1)
        np.testing.assert_allclose(scheme.Q[t],
                                   bern5.R[t] - lam[t] * price + cont, atol=1e-9)
    np.testing.assert_allclose(scheme.P, scheme.Q[:, :, 1] - scheme.Q[:, :, 0],
                               atol=0)


def test_duality_identity_fixtures(single, single_measure, two, two_measure,
                                   bern2, bern2_measure):
    for model, m in [(single, single_measure), (two, two_measure),
                     (bern2, bern2_measure)]:
        lam = m.require_duals()
        assert abs(dual_value(model, lam) - m.value) <= 1e-6


def test_reward_shift_keeps_priority_order():
    rng = np.random.default_rng(5)
    model = make_random_model(rng, S=3, T=3)
    lam = rng.normal(size=3)
    base = q_recursion(model, lam)
    shift = rng.uniform(-2.0, 2.0, size=3)
    shifted = ArmModel(T=model.T, states=model.states, s0=model.s0,
                       kernel=model.kernel, R=model.R + shift[:, None, None],
                       alpha=model.alpha, metadata={})
    moved = q_recursion(shifted, lam)
    for t in range(1, model.T + 1):
        np.testing.assert_array_equal(score_order(base.P, t, model.S),
                                      score_order(moved.P, t, model.S))


def test_q_recursion_bitwise_deterministic(bern5):
    lam = np.linspace(0.1, 0.7, bern5.T)
    a = q_recursion(bern5, lam)
    b = q_recursion(bern5, lam)
    assert a.Q.tobytes() == b.Q.tobytes()
    assert a.P.tobytes() == b.P.tobytes()


def test_order_breaks_ties_by_state_index():
    scheme = PriorityScheme(lam=np.zeros(1),
                            Q=np.array([[[0.0, 2.0], [0.0, 2.0], [0.0, 1.0]]]))
    assert score_order(scheme.P, 1, 3).tolist() == [0, 1, 2]
