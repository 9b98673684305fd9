"""Exact joint-count oracle: small-N values, sandwich bound, guard rails."""

import math

import numpy as np
import pytest

from conftest import make_random_model
from fluidbandit.errors import BudgetExceeded, NondeterministicPolicy
from fluidbandit.mdp import ArmModel, validate_model
from fluidbandit.oracle import (bounded_compositions, compositions,
                                exact_policy_value, optimal_value)
from fluidbandit.simulator import simulate


def test_compositions():
    got = set(compositions(2, 2))
    assert got == {(0, 2), (1, 1), (2, 0)}
    assert len(list(compositions(4, 3))) == math.comb(4 + 2, 2)


def test_bounded_compositions():
    got = set(bounded_compositions(2, (1, 2)))
    assert got == {(0, 2), (1, 1)}
    for combo in bounded_compositions(3, (2, 2, 2)):
        assert sum(combo) == 3
        assert all(c <= b for c, b in zip(combo, (2, 2, 2)))


def test_two_exact_values(two):
    assert optimal_value(two, 2) == pytest.approx(2.0, abs=1e-12)
    assert exact_policy_value(two, "fluid", 2) == pytest.approx(2.0, abs=1e-12)


def test_single_flooring_slack(single, single_measure):
    # odd N: the floored budget costs one pull per period against N*V-hat
    assert optimal_value(single, 3) == pytest.approx(2.0, abs=1e-12)
    assert 3 * single_measure.value == pytest.approx(3.0, abs=1e-12)
    assert exact_policy_value(single, "fluid", 3) == pytest.approx(2.0, abs=1e-12)


def test_zero_reward_model():
    rng = np.random.default_rng(2)
    model = make_random_model(rng, S=2, T=2)
    model = ArmModel(T=model.T, states=model.states, s0=model.s0, kernel=model.kernel,
                     R=np.zeros_like(model.R), alpha=model.alpha, metadata={})
    validate_model(model)
    assert optimal_value(model, 3) == pytest.approx(0.0, abs=1e-12)


def test_value_tables(two):
    value, tables = optimal_value(two, 2, return_tables=True)
    assert len(tables) == two.T
    root = tuple(2 if s == two.s0 else 0 for s in range(two.S))
    assert tables[0][root] == pytest.approx(value, abs=1e-12)
    # value-to-go at the last period is the best single-period reward
    for Z, v in tables[-1].items():
        assert v >= -1e-12


def test_sandwich_on_bernoulli(bern2, bern2_measure):
    rmax = float(np.abs(bern2.R).max())
    ceil_inv = max(math.ceil(1.0 / a) for a in bern2.alpha)
    slack = bern2.T * (1 + ceil_inv) * rmax
    for N in (2, 3, 4, 6):
        vstar = optimal_value(bern2, N)
        vpol = exact_policy_value(bern2, "fluid", N)
        assert vpol <= vstar + 1e-9
        assert vstar <= N * bern2_measure.value + slack + 1e-9


def test_exact_matches_unfloored_bound_when_divisible(bern2, bern2_measure):
    # N divisible by 3 keeps the budget un-floored; relaxation is tight here
    assert optimal_value(bern2, 3) == pytest.approx(3 * bern2_measure.value,
                                                    abs=1e-9)


def test_budget_guard(bern5):
    with pytest.raises(BudgetExceeded):
        optimal_value(bern5, 30, guard=10)


def test_nondeterministic_policies_rejected(two, bern2):
    with pytest.raises(NondeterministicPolicy):
        exact_policy_value(two, "rac", 2)
    with pytest.raises(NondeterministicPolicy):
        exact_policy_value(bern2, "ts", 2)


def test_oracle_agrees_with_simulation(bern2):
    exact = exact_policy_value(bern2, "fluid", 4)
    rep = simulate(bern2, "fluid", N=4, reps=30_000, seed=17)
    assert abs(exact - rep.mean_reward) <= 3.0 * rep.ci_halfwidth + 1e-9


def test_outcome_memo_lives_for_one_call(monkeypatch):
    # a process-wide cache of outcome tables grew with every model seen;
    # each call now builds its own tables and drops them when it returns
    import fluidbandit.oracle as oracle

    model = make_random_model(np.random.default_rng(404), S=3, T=3)
    real = oracle.compositions
    calls = []

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(oracle, "compositions", counted)
    runs = []
    for _ in range(2):
        calls.clear()
        value = optimal_value(model, 5)
        runs.append((value.hex(), len(calls)))
    assert runs[0] == runs[1]
    assert runs[0][1] > len(list(real(5, 3)))  # tables were built, not only Z
