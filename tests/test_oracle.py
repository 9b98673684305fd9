"""Exact joint-count oracle: small-N values, sandwich bound, guard rails."""

import math

import numpy as np
import pytest

import reference_oracle as ref
from conftest import make_random_model
from fluidbandit.errors import BudgetExceeded, NondeterministicPolicy, RangeError
from fluidbandit.mdp import AllocationPlan, ArmModel, period_budget, validate_model
from fluidbandit.oracle import (bounded_compositions, compositions,
                                exact_policy_value, optimal_value)
from fluidbandit.policies import PolicySpec
from fluidbandit.simulator import CompiledPolicy, simulate


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


def test_exact_policy_value_needs_an_arm(two):
    # like optimal_value, and like the budget rule every policy spends
    with pytest.raises(RangeError):
        exact_policy_value(two, lambda t, c: pytest.fail("allocated at N=0"), 0)
    with pytest.raises(RangeError):
        exact_policy_value(two, "fluid", -1)


def test_ucb_without_delta_is_a_range_error(bern2):
    # the oracle compiles policies as the simulator does, so both refuse alike
    with pytest.raises(RangeError, match="delta"):
        exact_policy_value(bern2, PolicySpec("ucb"), 2)
    with pytest.raises(RangeError, match="delta"):
        simulate(bern2, PolicySpec("ucb"), N=2, reps=10, seed=0)


def test_index_with_explicit_scores_solves_no_lp(monkeypatch, bern2):
    import fluidbandit.lp as lp
    import fluidbandit.simulator as simulator

    policies = (PolicySpec("index", scores=np.arange(bern2.S, dtype=np.float64)), "ucb:0.5")
    want = [exact_policy_value(bern2, policy, 3) for policy in policies]

    def refuse(model):
        raise AssertionError("the relaxation was solved")

    monkeypatch.setattr(lp, "solve_relaxation", refuse)
    monkeypatch.setattr(simulator, "solve_relaxation", refuse)
    assert [exact_policy_value(bern2, policy, 3) for policy in policies] == want


def test_oracle_takes_a_compiled_policy(bern2):
    pol = CompiledPolicy(bern2, PolicySpec("fluid"))
    assert exact_policy_value(bern2, pol, 4) == exact_policy_value(bern2, "fluid", 4)
    with pytest.raises(NondeterministicPolicy):
        exact_policy_value(bern2, CompiledPolicy(bern2, PolicySpec("rac")), 2)


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


def _with_alpha(model, alpha):
    return ArmModel(T=model.T, states=model.states, s0=model.s0, kernel=model.kernel,
                    R=model.R, alpha=np.full(model.T, alpha), metadata={})


def _same_optimum(model, N):
    value, tables = optimal_value(model, N, return_tables=True)
    want, want_tables = ref.optimal_value(model, N, return_tables=True)
    assert value == pytest.approx(want, abs=1e-12)
    assert len(tables) == len(want_tables)
    for got_t, want_t in zip(tables, want_tables):
        assert list(got_t) == list(want_t)
        assert max(abs(got_t[Z] - v) for Z, v in want_t.items()) <= 1e-12


def test_optimal_value_matches_reference_on_random_models():
    # the A2 instance family: S 1-3, T 1-3, N 2-4
    rng = np.random.default_rng(2024)
    for _ in range(100):
        model = make_random_model(rng, S=int(rng.integers(1, 4)),
                                  T=int(rng.integers(1, 4)))
        _same_optimum(model, int(rng.integers(2, 5)))


def test_optimal_value_matches_reference_on_fixtures(single, two, bern2):
    for N in (1, 2, 3):
        _same_optimum(single, N)
        _same_optimum(two, N)
    for N in range(2, 7):
        _same_optimum(bern2, N)


def test_optimal_value_matches_reference_at_the_edges():
    rng = np.random.default_rng(77)
    base = make_random_model(rng, S=3, T=3)
    assert period_budget(0.1, 4) == 0
    _same_optimum(_with_alpha(base, 0.1), 4)  # B_t = 0: nothing is pulled
    _same_optimum(_with_alpha(base, 1.0), 4)  # B_t = N: everything is pulled
    _same_optimum(make_random_model(rng, S=1, T=3), 5)
    _same_optimum(make_random_model(rng, S=3, T=1), 5)


def test_small_pair_blocks_change_nothing(monkeypatch, bern2):
    # both DPs work through their pairs in blocks; blocks of three pairs
    # cross every boundary the default size never reaches here
    import fluidbandit.oracle as oracle

    monkeypatch.setattr(oracle, "PAIR_BLOCK", 3)
    rng = np.random.default_rng(911)
    for model in (bern2, make_random_model(rng, S=3, T=3)):
        _same_optimum(model, 5)
        got = exact_policy_value(model, "fluid", 5)
        assert got == pytest.approx(ref.exact_policy_value(model, "fluid", 5), abs=1e-12)


def _pull_fewer(model):
    """Pulls B_t - 1 arms (none when B_t = 0), highest states first."""
    def allocate(t, counts):
        left = max(period_budget(float(model.alpha[t - 1]), counts.N) - 1, 0)
        X = np.zeros((model.S, 2), dtype=np.int64)
        for s in range(model.S - 1, -1, -1):
            X[s, 1] = min(left, int(counts.Z[s]))
            left -= X[s, 1]
        X[:, 0] = counts.Z - X[:, 1]
        return AllocationPlan(t=t, X=X, relaxed=True)
    return allocate


def test_exact_policy_value_matches_reference():
    rng = np.random.default_rng(505)
    for _ in range(12):
        model = make_random_model(rng, annotate=True)
        N = int(rng.integers(2, 6))
        for policy in ("fluid", "relaxed", "index", "ucb:0.5", _pull_fewer(model)):
            got = exact_policy_value(model, policy, N)
            assert got == pytest.approx(ref.exact_policy_value(model, policy, N), abs=1e-12)


def test_exact_policy_value_matches_reference_on_bernoulli(bern2, bern5):
    for N in (2, 3, 5):
        for policy in ("fluid", "ucb:1.0", _pull_fewer(bern2)):
            got = exact_policy_value(bern2, policy, N)
            assert got == pytest.approx(ref.exact_policy_value(bern2, policy, N), abs=1e-12)
    # S = 15: the group laws stay as sparse as the few states an arm can reach
    got = exact_policy_value(bern5, "fluid", 8)
    assert got == pytest.approx(ref.exact_policy_value(bern5, "fluid", 8), abs=1e-12)


def test_work_meter_guard(bern2):
    # the size estimate (90 for bern2 at N=4) passes a guard of 10, so the
    # work meter is what refuses the first call; the policy DP has no estimate
    with pytest.raises(BudgetExceeded, match="enumeration exceeded 10 work units"):
        optimal_value(bern2, 4, guard=10)
    with pytest.raises(BudgetExceeded, match="enumeration exceeded 2 work units"):
        exact_policy_value(bern2, "fluid", 4, guard=2)
    assert optimal_value(bern2, 4) == pytest.approx(ref.optimal_value(bern2, 4), abs=1e-12)
