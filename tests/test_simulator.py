"""Monte Carlo engines: determinism, exact fixtures, cross-validation."""

import numpy as np
import pytest

from conftest import make_random_model
from fluidbandit.errors import DimensionMismatch, RangeError
from fluidbandit.mdp import successors
from fluidbandit.policies import PolicySpec
from fluidbandit.simulator import (CompiledPolicy, _successor_table, default_reps, gap_sweep,
                                   simulate, simulate_per_arm, violation_rate_sweep)
from fluidbandit.zoo import bernoulli_bandit


def test_two_fluid_deterministic(two):
    rep = simulate(two, "fluid", N=2, reps=300, seed=5)
    assert rep.mean_reward == 2.0
    assert rep.ci_halfwidth == 0.0
    assert rep.union_violation_rate == 0.0
    assert max(rep.per_t_violation_rate) == 0.0


def test_single_any_policy_is_exact(single):
    rep = simulate(single, "fluid", N=10, reps=5, seed=1)
    assert rep.mean_reward == 10.0
    rep = simulate(single, "index", N=10, reps=5, seed=1)
    assert rep.mean_reward == 10.0


def test_two_odd_parity_always_violates(two):
    rep = simulate(two, "fluid", N=3, reps=200, seed=2)
    assert rep.union_violation_rate == 1.0
    rep = simulate(two, "fluid", N=2, reps=200, seed=2)
    assert rep.union_violation_rate == 0.0


def test_bitwise_determinism(bern2):
    a = simulate(bern2, "fluid", N=9, reps=2_000, seed=42)
    b = simulate(bern2, "fluid", N=9, reps=2_000, seed=42)
    assert a.mean_reward == b.mean_reward
    assert a.ci_halfwidth == b.ci_halfwidth
    np.testing.assert_array_equal(a.per_t_violation_rate,
                                  b.per_t_violation_rate)
    c = simulate(bern2, "fluid", N=9, reps=2_000, seed=43)
    assert c.mean_reward != a.mean_reward


def test_crn_changes_stream_not_policy(bern2):
    base = simulate(bern2, "fluid", N=9, reps=2_000, seed=42)
    crn = simulate(bern2, "fluid", N=9, reps=2_000, seed=42, crn=True)
    again = simulate(bern2, "fluid", N=9, reps=2_000, seed=42, crn=True)
    assert crn.mean_reward == again.mean_reward
    assert crn.mean_reward != base.mean_reward


def test_report_fields(bern2):
    rep = simulate(bern2, "fluid", N=9, reps=500, seed=3)
    assert rep.reps == 500
    assert rep.N == 9
    assert rep.seed == 3
    assert rep.engine == "counts"
    assert rep.ci_reliable is False  # below the normal-approximation floor
    assert rep.ci_halfwidth >= 0.0
    assert all(0.0 <= v <= 1.0 for v in rep.per_t_violation_rate)
    moments = rep.diffusion_second_moments
    assert set(moments) == {"Z", "X"}
    for key in ("Z", "X"):
        assert moments[key].shape == (bern2.T,)
        assert np.isfinite(moments[key]).all()
        assert (moments[key] >= 0.0).all()
    rep = simulate(bern2, "fluid", N=9, reps=1_000, seed=3)
    assert rep.ci_reliable is True


def test_engines_agree_exactly_on_deterministic_fixtures(two, single):
    a = simulate(two, "fluid", N=2, reps=50, seed=9)
    b = simulate_per_arm(two, "fluid", N=2, reps=50, seed=9)
    assert a.mean_reward == b.mean_reward == 2.0
    a = simulate(single, "fluid", N=10, reps=20, seed=9)
    b = simulate_per_arm(single, "fluid", N=10, reps=20, seed=9)
    assert a.mean_reward == b.mean_reward == 10.0


def test_engines_agree_statistically(bern2):
    a = simulate(bern2, "fluid", N=8, reps=4_000, seed=11)
    b = simulate_per_arm(bern2, "fluid", N=8, reps=4_000, seed=11)
    se = np.hypot(a.ci_halfwidth, b.ci_halfwidth) / 1.959963984540054
    assert abs(a.mean_reward - b.mean_reward) <= 3.0 * se + 1e-12


def test_mean_below_upper_bound(bern5, bern5_measure):
    rep = simulate(bern5, "fluid", N=60, reps=3_000, seed=13)
    assert rep.mean_reward <= 60 * bern5_measure.value + 3 * rep.ci_halfwidth


def test_diffusion_moments_stay_bounded(bern5):
    reps = {}
    for N in (400, 1_600):
        reps[N] = simulate(bern5, "fluid", N=N, reps=2_000, seed=7)
    znorm = {N: float(r.diffusion_second_moments["Z"].max())
             for N, r in reps.items()}
    assert znorm[1_600] <= 4.0 * znorm[400]
    assert znorm[1_600] >= znorm[400] / 4.0


def test_gap_sweep_single(single):
    rows = gap_sweep(single, "fluid", [2, 4, 8], reps_per_N=50, seed=1)
    for row, n in zip(rows, [2, 4, 8]):
        assert row.N == n
        assert row.upper_bound == pytest.approx(float(n), abs=1e-9)
        assert row.gap_upper_bound == pytest.approx(0.0, abs=1e-12)
        assert row.report.ci_halfwidth == 0.0


def test_violation_rate_sweep_single(single):
    table = violation_rate_sweep(single, "fluid", [2, 4], reps=100, seed=1)
    for rep in table:
        assert max(rep.per_t_violation_rate) == 0.0
        assert rep.union_violation_rate == 0.0


def test_default_reps_rule():
    assert default_reps(100) == 5_000
    assert default_reps(100_000) == 200_000



def test_default_reps_takes_a_cap():
    assert default_reps(4, cap=300) == 200
    assert default_reps(100, cap=300) == 300


@pytest.mark.parametrize("N_list", [[6, 3, 3], [], [3, 3]])
def test_both_sweeps_refuse_a_bad_n_list(two, N_list):
    with pytest.raises(RangeError, match="N_list"):
        gap_sweep(two, "fluid", N_list, reps_per_N=5, seed=0)
    with pytest.raises(RangeError, match="N_list"):
        violation_rate_sweep(two, "fluid", N_list, reps=5, seed=0)


def test_one_replication_has_a_zero_ci(bern2):
    rep = simulate(bern2, "fluid", N=3, reps=1, seed=0)
    assert rep.reps == 1 and rep.ci_halfwidth == 0.0 and not rep.ci_reliable


@pytest.mark.parametrize("alpha", [0.0, 1.0])
def test_per_arm_ts_at_no_budget_and_full_budget(alpha):
    # B = 0 pulls no arm and B = N every arm, so TS draws no sample and,
    # on common random numbers, makes the transitions an index rule makes
    model = bernoulli_bandit(3, alpha)
    ts = simulate_per_arm(model, "ts", N=4, reps=300, seed=2, crn=True)
    ucb = simulate_per_arm(model, "ucb:1", N=4, reps=300, seed=2, crn=True)
    assert ts.mean_reward == ucb.mean_reward
    assert (ts.mean_reward > 0.0) == (alpha == 1.0)


@pytest.mark.parametrize("kind", ["fluid", "rac", "index"])
def test_spec_measure_of_another_model_is_refused(bern2, bern5_measure, kind):
    # fluid and rac once failed with a raw IndexError; index ran silently
    with pytest.raises(DimensionMismatch, match="measure"):
        CompiledPolicy(bern2, PolicySpec(kind, measure=bern5_measure))


def test_score_table_of_another_horizon_is_refused(bern2):
    CompiledPolicy(bern2, PolicySpec("index", scores=np.zeros((bern2.T, bern2.S))))
    with pytest.raises(DimensionMismatch, match="scores"):
        CompiledPolicy(bern2, PolicySpec("index", scores=np.zeros((5, bern2.S))))

def test_successor_table_draws_like_the_dense_cdf(bern5, crowd7):
    """The per-arm engine's padded per-row CDF picks the successor that
    counting the dense row's cumulative sums below the uniform picks."""
    rng = np.random.default_rng(41)
    for model in (bern5, crowd7, make_random_model(rng, S=5, T=3)):
        for K in successors(model):
            cdf, targets = _successor_table(K)
            dense = np.cumsum(K.toarray(), axis=1)
            rows = rng.integers(0, K.shape[0], size=20_000)
            u = rng.random((20_000, 1))
            slot = np.minimum((u > cdf[rows]).sum(axis=1), cdf.shape[1] - 1)
            want = np.minimum((u > dense[rows]).sum(axis=1), model.S - 1)
            np.testing.assert_array_equal(targets[rows, slot], want)
