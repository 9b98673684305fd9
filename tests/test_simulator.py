"""Monte Carlo engines: determinism, exact fixtures, cross-validation."""

import dataclasses
import tracemalloc

import numpy as np
import pytest

import fluidbandit.policies as policies
import fluidbandit.simulator as simulator
import reference_simulator as ref
import report_digest
from conftest import make_random_model
from fluidbandit.errors import DimensionMismatch, MissingMetadata, RangeError
from fluidbandit.lp import solve_relaxation
from fluidbandit.mdp import ArmModel, successors
from fluidbandit.oracle import exact_policy_value, optimal_value
from fluidbandit.policies import PolicySpec, parse_policy
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
    assert rep.wall_time > 0.0
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


def test_reps_rule_may_return_a_numpy_integer(single):
    rows = gap_sweep(single, "fluid", [2, 4], reps_per_N=lambda N: np.int64(5 * N), seed=1)
    assert [row.report.reps for row in rows] == [10, 20]
    assert all(type(row.report.reps) is int for row in rows)


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


@pytest.mark.parametrize("cap", [0, -3, 2.5, True])
def test_default_reps_refuses_a_cap_that_is_no_positive_integer(cap):
    # a cap of 0 once made 0 reps, refused as "reps must be a positive integer"
    with pytest.raises(RangeError, match="reps cap must be a positive integer"):
        default_reps(4, cap=cap)


ENTRY_POINTS = {
    "simulate": lambda model, pol: simulate(model, pol, N=4, reps=5, seed=1),
    "simulate_per_arm": lambda model, pol: simulate_per_arm(model, pol, N=4, reps=5, seed=1),
    "gap_sweep": lambda model, pol: gap_sweep(model, pol, [4], reps_per_N=5, seed=1),
    "violation_rate_sweep": lambda model, pol: violation_rate_sweep(model, pol, [4], reps=5,
                                                                    seed=1),
    "exact_policy_value": lambda model, pol: exact_policy_value(model, pol, 4),
}


@pytest.mark.parametrize("entry", ENTRY_POINTS.values(), ids=ENTRY_POINTS.keys())
def test_policy_compiled_for_another_model_is_refused(bern2, bern5, entry):
    # a model of the same shape once ran the compiled model's policy and
    # reported its figures, and one of another shape died in a raw matmul
    # ValueError; an equal model built anew is another model too
    pol = CompiledPolicy(bern2, PolicySpec("fluid"))
    for model in (bernoulli_bandit(2, 0.25), bern5, bernoulli_bandit(2, 1.0 / 3.0)):
        with pytest.raises(RangeError, match="compiled for another model"):
            entry(model, pol)
    entry(bern2, pol)


@pytest.mark.parametrize("N_list", [[6, 3, 3], [], [3, 3]])
def test_both_sweeps_refuse_a_bad_n_list(two, N_list):
    with pytest.raises(RangeError, match="N_list"):
        gap_sweep(two, "fluid", N_list, reps_per_N=5, seed=0)
    with pytest.raises(RangeError, match="N_list"):
        violation_rate_sweep(two, "fluid", N_list, reps=5, seed=0)


@pytest.mark.parametrize("engine", ["count", "per-arm", "bogus"])
def test_gap_sweep_refuses_an_unknown_engine(two, engine):
    # "count" is the CLI's spelling; it and any other name once ran the
    # per-arm engine silently
    with pytest.raises(RangeError, match="engine"):
        gap_sweep(two, "fluid", [2], reps_per_N=5, seed=1, engine=engine)


@pytest.mark.parametrize("delta", [float("nan"), float("inf"), -float("inf")])
def test_ucb_delta_must_be_finite(bern2, delta):
    # the one check in CompiledPolicy covers both engines and the oracle
    spec = PolicySpec("ucb", delta=delta)
    with pytest.raises(RangeError, match="finite delta"):
        simulate(bern2, spec, N=2, reps=5, seed=0)
    with pytest.raises(RangeError, match="finite delta"):
        simulate_per_arm(bern2, spec, N=2, reps=5, seed=0)
    with pytest.raises(RangeError, match="finite delta"):
        exact_policy_value(bern2, spec, 2)


@pytest.mark.parametrize("seed", [-3, 1.5, "7", True])
def test_seed_must_be_a_nonnegative_integer(two, seed):
    # SeedSequence once raised its own ValueError or TypeError here
    with pytest.raises(RangeError, match="seed"):
        simulate(two, "fluid", 2, 5, seed)
    with pytest.raises(RangeError, match="seed"):
        simulate_per_arm(two, "fluid", 2, 5, seed)


@pytest.mark.parametrize("N, reps", [(2.5, 5), (2, 5.0), (True, 5), (2, True), (0, 5),
                                     (2, -1), ("2", 5)])
def test_n_and_reps_must_be_positive_integers(two, N, reps):
    # N = 2.5 once ran at N = 2 and reported N = 2.5, and N = True ran as 1
    with pytest.raises(RangeError, match="must be a positive integer"):
        simulate(two, "fluid", N, reps, 0)
    with pytest.raises(RangeError, match="must be a positive integer"):
        simulate_per_arm(two, "fluid", N, reps, 0)


@pytest.mark.parametrize("N", [2.5, True, 0, "2"])
def test_oracle_n_must_be_a_positive_integer(two, N):
    # N = 2.5 once raised a raw TypeError in the oracle's lattice
    with pytest.raises(RangeError, match="N must be a positive integer"):
        exact_policy_value(two, "fluid", N)
    with pytest.raises(RangeError, match="N must be a positive integer"):
        optimal_value(two, N)


def test_ucb_and_ts_validate_a_model_built_in_code():
    # ucb and ts solve no relaxation, so compiling them validates the model
    model = make_random_model(np.random.default_rng(1), annotate=True)
    model.annotations[0].posterior_mean = float("nan")
    with pytest.raises(RangeError, match="finite mean"):
        simulate(model, "ucb:0.5", N=6, reps=5, seed=1)
    model = make_random_model(np.random.default_rng(1), annotate=True)
    model.annotations.pop()
    with pytest.raises(DimensionMismatch, match="annotations"):
        simulate(model, "ts", N=6, reps=5, seed=1)
    with pytest.raises(DimensionMismatch, match="annotations"):
        simulate_per_arm(model, "ts", N=6, reps=5, seed=1)


def test_every_compile_validates_the_model_once(monkeypatch, bern2, bern2_measure):
    """Each kind, with or without a given measure or scores, validates the
    model exactly once per compile, directly or through the LP build."""
    import fluidbandit.lp as lp

    calls = []
    validate = simulator.validate_model

    def counted(model):
        calls.append(model)
        validate(model)

    monkeypatch.setattr(simulator, "validate_model", counted)
    monkeypatch.setattr(lp, "validate_model", counted)
    scores = np.arange(bern2.S, dtype=np.float64)
    specs = [PolicySpec(kind) for kind in ("fluid", "relaxed", "index", "rac", "ts")]
    specs += [PolicySpec(kind, measure=bern2_measure)
              for kind in ("fluid", "relaxed", "index", "rac")]
    specs += [PolicySpec("index", scores=scores), PolicySpec("ucb", delta=0.5),
              PolicySpec("fluid", measure=bern2_measure, scores=scores)]
    for spec in specs:
        calls.clear()
        CompiledPolicy(bern2, spec)
        assert len(calls) == 1, spec


def test_a_nan_reward_is_refused_with_a_given_measure_or_scores():
    model = make_random_model(np.random.default_rng(1), annotate=True)
    measure = solve_relaxation(model)
    model.R[0, 0, 0] = np.nan
    for spec in (PolicySpec("index", scores=np.arange(model.S, dtype=np.float64)),
                 PolicySpec("fluid", measure=measure), PolicySpec("rac", measure=measure)):
        with pytest.raises(RangeError, match="rewards must be finite"):
            simulate(model, spec, N=6, reps=5, seed=1)
        if spec.kind != "rac":
            with pytest.raises(RangeError, match="rewards must be finite"):
                exact_policy_value(model, spec, 3)


@pytest.mark.parametrize("call, error, match", [
    (lambda bern2, crowd3: CompiledPolicy(bern2, PolicySpec("bogus")), RangeError,
     "policy kind"),
    (lambda bern2, crowd3: CompiledPolicy(crowd3, PolicySpec("ts")), MissingMetadata,
     "annotations"),
    (lambda bern2, crowd3: simulate(bern2, 42, N=2, reps=5, seed=0), RangeError,
     "interpret policy"),
    (lambda bern2, crowd3: gap_sweep(bern2, "fluid", [2], reps_per_N="x", seed=0),
     RangeError, "reps rule"),
    (lambda bern2, crowd3: gap_sweep(bern2, "fluid", [2], reps_per_N=True, seed=0),
     RangeError, "reps rule"),
    (lambda bern2, crowd3: gap_sweep(bern2, "fluid", [2], reps_per_N=lambda N: 2.7, seed=0),
     RangeError, r"reps rule returned 2\.7 at N=2"),
    (lambda bern2, crowd3: gap_sweep(bern2, "fluid", [2], reps_per_N=lambda N: True, seed=0),
     RangeError, "reps rule returned True at N=2"),
    (lambda bern2, crowd3: violation_rate_sweep(bern2, "fluid", [2], lambda N: 0.5, seed=0),
     RangeError, r"reps rule returned 0\.5 at N=2"),
    (lambda bern2, crowd3: violation_rate_sweep(bern2, "index", [2], reps=5, seed=0),
     RangeError, "measure-carrying"),
], ids=["unknown-kind", "ts-without-annotations", "policy-42", "reps-rule-x", "reps-rule-true",
        "reps-rule-gives-float", "reps-rule-gives-bool", "reps-rule-gives-half",
        "violations-of-index"])
def test_simulator_refusals(bern2, crowd3, call, error, match):
    with pytest.raises(error, match=match):
        call(bern2, crowd3)


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


def _random_states(rng, R, N, S):
    # some states left empty, so the helpers meet unoccupied states too
    live = rng.choice(S, size=max(1, S // 2), replace=False)
    return rng.choice(live, size=(R, N)).astype(np.int64)


def _counts(states, S):
    R = len(states)
    return np.bincount((states + np.arange(R)[:, None] * S).ravel(),
                       minlength=R * S).reshape(R, S)


@pytest.mark.parametrize("S, N", [(1, 5), (3, 1), (7, 40), (20, 300)])
def test_step_arms_lands_every_arm(S, N):
    """Period 1's kernel sends row 2s+a to one state only, so Z_{t+1} is
    exact; period 2's is dense.  Each row lands N arms from R * N uniforms."""
    rng = np.random.default_rng(S * 1000 + N)
    dest = rng.integers(0, S, size=2 * S)
    dense = rng.dirichlet(np.ones(S), size=(S, 2))
    P = np.stack([np.eye(S)[dest].reshape(S, 2, S), dense, dense])
    model = ArmModel(3, list(range(S)), 0, P=P, R=np.zeros((3, S, 2)), alpha=[0.5] * 3)
    pol = CompiledPolicy(model, PolicySpec("index", scores=np.zeros((3, S))))
    states = _random_states(rng, 9, N, S)
    Z = _counts(states, S)
    # no pull (B = 0), every arm pulled (B = N) and random quotas
    for X1 in (np.zeros_like(Z), Z, rng.integers(0, Z + 1)):
        X = np.stack([Z - X1, X1], axis=2)
        for t in (1, 2):
            a, b = np.random.default_rng(6), np.random.default_rng(6)
            Znext = pol.step_arms(t, Z - X1, X1, a)
            assert Znext.dtype == np.int64
            np.testing.assert_array_equal(Znext.sum(axis=1), N)
            if t == 1:
                np.testing.assert_array_equal(Znext, X.reshape(9, -1) @ np.eye(S, dtype=np.int64)[dest])
            b.random(9 * N)
            assert a.bit_generator.state == b.bit_generator.state


def _same_steps(pol, t, X0, X1, seed):
    # the counting step lands what the reference's per-arm gather lands,
    # from the same uniforms, and leaves the stream where it leaves it
    a, b = np.random.default_rng(seed), np.random.default_rng(seed)
    Znext = pol.step_arms(t, X0, X1, a)
    assert Znext.dtype == np.int64
    np.testing.assert_array_equal(Znext, ref._step_arms(pol, t, np.stack([X0, X1], axis=2), b))
    assert a.random() == b.random()


def test_step_arms_matches_the_reference(bern5, crowd7):
    # bern5 and crowd7 rows have two successors; the random model's rows
    # are dense (W = 5)
    rng = np.random.default_rng(43)
    for model in (bern5, crowd7, make_random_model(rng, S=5, T=3)):
        pol = CompiledPolicy(model, PolicySpec("index", scores=np.zeros((model.T, model.S))))
        for t in range(1, model.T):
            Z = _counts(_random_states(rng, 13, 70, model.S), model.S)
            X1 = rng.integers(0, Z + 1)
            _same_steps(pol, t, Z - X1, X1, 6)
    # rows whose totals fall short of 1: a uniform above a row's total
    # takes the row's last slot, not a slot of the next row; and the first
    # arm's row has every CDF value equal to its uniform, which stays in
    # slot 0 (a uniform goes past a CDF value only when above it)
    pol = CompiledPolicy(bern5, PolicySpec("index", scores=np.zeros((bern5.T, bern5.S))))
    cdf = np.resize([[0.25, 0.5, 0.5], [0.5, 0.5, 0.5], [0.2, 0.6, 0.9]], (2 * bern5.S, 3))
    targets = np.resize([[0, 1, 1], [2, 2, 2], [0, 1, 3]], (2 * bern5.S, 3))
    Z = _counts(_random_states(rng, 13, 70, bern5.S), bern5.S)
    X1 = rng.integers(0, Z + 1)
    first = np.flatnonzero(np.column_stack([Z[0] - X1[0], X1[0]]).reshape(-1))[0]
    cdf[first] = np.random.default_rng(7).random()
    targets[first] = [0, 1, 3]
    pol.__dict__["_tables"] = [(cdf, targets)] * (bern5.T - 1)
    _same_steps(pol, 1, Z - X1, X1, 7)


@pytest.mark.parametrize("policy", ["fluid", "relaxed", "index", "rac", "ucb:0.5", "ts"])
def test_per_arm_runs_match_the_reference_helpers(bern5, monkeypatch, policy):
    # a cell budget of 500 splits the 60 replications into six chunks
    monkeypatch.setattr(simulator, "CHUNK_CELL_BUDGET", 500)
    pol = CompiledPolicy(bern5, parse_policy(policy))
    assert simulator._chunk_sizes(60, bern5.S + 9 * 3) == [11] * 5 + [5]
    new = simulate_per_arm(bern5, pol, N=9, reps=60, seed=17)
    monkeypatch.setattr(CompiledPolicy, "step_arms", lambda pol, t, X0, X1, rng:
                        ref._step_arms(pol, t, np.stack([X0, X1], axis=2), rng))
    old = simulate_per_arm(bern5, pol, N=9, reps=60, seed=17)
    _same_reports(new, old)


def _same_reports(new, old):
    for name, value in vars(new).items():
        if name == "wall_time":
            continue
        if isinstance(value, dict):
            assert value.keys() == vars(old)[name].keys()
            for key in value:
                np.testing.assert_array_equal(value[key], vars(old)[name][key])
        else:
            np.testing.assert_array_equal(value, vars(old)[name])


def _same_reports_and_near_moments(new, old, N):
    """Every field but wall_time bit-identical, and each moment within
    8 N eps of the dense reference's: the integer-tally form cancels terms
    of at most a few N per replication (||y||^2 <= 1), so it rounds by a
    few N eps, while one arm more in one cell moves a moment by the order
    of 1 / (N reps), far above the bound."""
    bound = 8 * N * np.finfo(float).eps
    moments, ref_moments = new.diffusion_second_moments, old.diffusion_second_moments
    assert (moments is None) == (ref_moments is None)
    if moments is not None:
        assert moments.keys() == ref_moments.keys()
        for key in moments:
            assert np.abs(moments[key] - ref_moments[key]).max() <= bound, key
    _same_reports(dataclasses.replace(new, diffusion_second_moments=None),
                  dataclasses.replace(old, diffusion_second_moments=None))


@pytest.mark.parametrize("engine", ["counts", "per_arm"])
@pytest.mark.parametrize("policy", ["fluid", "relaxed", "index", "rac", "ucb:0.5", "ts"])
def test_runs_match_the_stacked_reference_loop(bern5, crowd7, monkeypatch, engine, policy):
    # the three-array loop draws what the stacked loop draws, and books
    # the dense loop's moments to within 8 N eps; a cell budget of 500
    # gives every run several chunks
    monkeypatch.setattr(simulator, "CHUNK_CELL_BUDGET", 500)
    run = simulate if engine == "counts" else simulate_per_arm
    for model, N in ((bern5, 9), (crowd7, 23)):
        if policy in ("ucb:0.5", "ts") and not model.annotations:
            continue
        pol = CompiledPolicy(model, parse_policy(policy))
        new = [run(model, pol, N=N, reps=70, seed=seed) for seed in (17, 18)]
        with monkeypatch.context() as m:
            m.setattr(simulator, "_chunk", ref._chunk)
            old = [run(model, pol, N=N, reps=70, seed=seed) for seed in (17, 18)]
        for a, b in zip(new, old):
            _same_reports_and_near_moments(a, b, N)


@pytest.mark.parametrize("N, reps", [pytest.param(9600, 1000, id="9600"),
                                     pytest.param(10**8, 1000, id="100000000"),
                                     pytest.param(4 * 10**9, 20, id="4000000000"),
                                     pytest.param(10**16, 1000, id="10000000000000000")])
def test_square_sums_do_not_wrap(bern15, monkeypatch, N, reps):
    # at N = 1e8 one 1000-row chunk has R N^2 = 1e19 > 2^63, so a
    # whole-array int64 square sum wraps; at N = 4e9 one row's square
    # sum N^2 = 1.6e19 does too, so the rows are summed in float64; at
    # N = 1e16 a column sum of the chunk, up to R N = 1e19, would too
    pol = CompiledPolicy(bern15, parse_policy("fluid"))
    assert simulator._chunk_sizes(reps, bern15.S) == [reps]
    new = simulate(bern15, pol, N, reps, 5)
    monkeypatch.setattr(simulator, "_chunk", ref._chunk)
    _same_reports_and_near_moments(new, simulate(bern15, pol, N, reps, 5), N)


def test_run_folds_the_chunk_figures(two, monkeypatch):
    """Three synthetic chunks of 2, 2 and 1 rows: the rewards fold by
    Welford, a row failing in two periods counts once in the union, the
    moment sums add in chunk order (1e16 + 1 + 1 is not 1 + 1 + 1e16),
    a policy without a measure reports NaN rates and no moments, and
    collect_diffusion=False reports rates and no moments."""
    failed = [np.array([[True, True], [False, False]]),
              np.array([[False, True], [True, False]]),
              np.array([[False, True]])]
    a, b = [1e16, 1.0, 1.0], [1.0, 1.0, 1e16]
    sums = [np.array([[a[k], b[k]], [b[k], a[k]]]) for k in range(3)]
    calls = []

    def synthetic(pol, N, R, rng, engine, diffusion):
        k = len(calls)
        calls.append((R, diffusion))
        rewards = np.arange(1.0, 6.0)[2 * k:2 * k + R]
        if pol.measure is None:
            return rewards, None, None
        return rewards, failed[k], sums[k] if diffusion else None

    monkeypatch.setattr(simulator, "CHUNK_CELL_BUDGET", 2 * two.S)
    monkeypatch.setattr(simulator, "_chunk", synthetic)
    rep = simulate(two, "fluid", N=2, reps=5, seed=0)
    assert calls == [(2, True), (2, True), (1, True)]
    assert rep.mean_reward == 3.0
    assert rep.ci_halfwidth == pytest.approx(simulator.Z95 * np.sqrt(2.5 / 5), rel=1e-12)
    np.testing.assert_array_equal(rep.per_t_violation_rate, [2 / 5, 3 / 5])
    assert rep.union_violation_rate == 4 / 5
    in_order = ((np.zeros((2, 2)) + sums[0]) + sums[1]) + sums[2]
    assert not np.array_equal(in_order, (sums[2] + sums[1]) + sums[0])
    np.testing.assert_array_equal(rep.diffusion_second_moments["Z"], in_order[0] / 5)
    np.testing.assert_array_equal(rep.diffusion_second_moments["X"], in_order[1] / 5)

    calls.clear()
    rep = simulate(two, "index", N=2, reps=5, seed=0)
    assert np.isnan(rep.per_t_violation_rate).all() and rep.per_t_violation_rate.shape == (2,)
    assert np.isnan(rep.union_violation_rate) and rep.diffusion_second_moments is None
    assert rep.mean_reward == 3.0

    calls.clear()
    rep = simulate(two, "fluid", N=2, reps=5, seed=0, collect_diffusion=False)
    assert calls == [(2, False), (2, False), (1, False)]
    np.testing.assert_array_equal(rep.per_t_violation_rate, [2 / 5, 3 / 5])
    assert rep.union_violation_rate == 4 / 5 and rep.diffusion_second_moments is None


def test_report_digest_repeats_and_follows_every_field_but_wall_time(bern5):
    line = report_digest.run_line("bern5", "rac", "counts", 8, 50, 3, cells=500)
    assert report_digest.run_line("bern5", "rac", "counts", 8, 50, 3, cells=500) == line
    other = report_digest.run_line("bern5", "rac", "counts", 8, 50, 4, cells=500)
    assert other.split()[-2] != line.split()[-2] and other.split()[-1] != line.split()[-1]
    rep = simulate(bern5, "fluid", N=8, reps=50, seed=3)
    digest = report_digest.digest(rep)
    fields, moments = digest.split()
    assert report_digest.digest(dataclasses.replace(rep, wall_time=rep.wall_time + 1)) == digest
    # the moments have their own last column, and no other field moves it
    moved = rep.per_t_violation_rate.copy()
    moved[0] = np.nextafter(moved[0], 1.0)
    moved_fields, same_moments = report_digest.digest(
        dataclasses.replace(rep, per_t_violation_rate=moved)).split()
    assert moved_fields != fields and same_moments == moments
    Z = rep.diffusion_second_moments["Z"].copy()
    Z[-1] = np.nextafter(Z[-1], np.inf)
    same_fields, moved_moments = report_digest.digest(dataclasses.replace(
        rep, diffusion_second_moments={**rep.diffusion_second_moments, "Z": Z})).split()
    assert same_fields == fields and moved_moments != moments


def test_count_chunk_sizes_are_pinned(bern15, monkeypatch):
    # chunk k draws from stream (seed, tag, k), so the count engine's chunk
    # widths S, and S plus the TS working set, fix every count-engine result
    seen = []

    def no_work(pol, N, R, rng, engine, diffusion):
        seen.append(R)
        return np.zeros(R), None, None

    monkeypatch.setattr(simulator, "_chunk", no_work)
    simulate(bern15, "fluid", N=1200, reps=60_000, seed=0)
    assert seen == [17476] * 3 + [7572]
    seen.clear()
    simulate(bern15, "ts", N=1200, reps=4000, seed=0)
    assert seen == [621] * 6 + [274]


# Kernel row widths, by row 2s+a, of ``_mixed_width_model``: runs of
# two-target rows with rows of 3 to 5 targets between them, and single-target
# rows that draw nothing.
MIXED_WIDTHS = [2, 2, 2, 4, 2, 1, 2, 2, 3, 5, 2, 1] * 2


def _mixed_width_model(seed=0, T=5):
    """An annotated random model on S = 12 states whose kernel rows have the
    widths MIXED_WIDTHS, each to random targets with Dirichlet weights."""
    rng = np.random.default_rng(seed)
    S = len(MIXED_WIDTHS) // 2
    P = np.zeros((T, 2 * S, S))
    for t in range(T):
        for r, w in enumerate(MIXED_WIDTHS):
            P[t, r, rng.choice(S, size=w, replace=False)] = rng.dirichlet(np.ones(w))
    base = make_random_model(rng, S=S, T=T, annotate=True)
    return ArmModel(T, base.states, 0, P=P.reshape(T, S, 2, S), R=base.R,
                    alpha=base.alpha, metadata=base.metadata)


@pytest.mark.parametrize("cap", [1, 2, 3, 10**6])
def test_count_step_matches_the_sequential_reference(monkeypatch, cap):
    """Blocks of `cap` two-target rows draw what the row-by-row conditioning
    of the reference draws, and leave the generator where it leaves it; with
    cap 2 and 3 a row of 3 to 5 targets falls between two blocks."""
    model = _mixed_width_model()
    S, R = model.S, 7
    pol = CompiledPolicy(model, PolicySpec("index", scores=np.zeros((model.T, S))))
    monkeypatch.setattr(simulator, "BLOCK_CELLS", cap * R)
    rng = np.random.default_rng(cap)
    for trial in range(5):
        X = rng.integers(0, 4 if trial < 2 else 40, size=(R, S, 2))
        X[:, rng.choice(S, size=3, replace=False), rng.integers(0, 2)] = 0  # empty rows
        for t in range(1, model.T):
            a, b = np.random.default_rng(trial), np.random.default_rng(trial)
            new = pol.step_counts(t, X[..., 0].copy(), X[..., 1].copy(), a)
            np.testing.assert_array_equal(new, ref._step_counts(pol, t, X, b))
            assert a.bit_generator.state == b.bit_generator.state


@pytest.mark.parametrize("engine", ["counts", "per_arm"])
@pytest.mark.parametrize("policy", ["fluid", "relaxed", "index", "rac", "ucb:0.5", "ts"])
def test_block_cells_change_no_result(bern5, monkeypatch, engine, policy):
    # the step's blocks of two-target rows and rac's blocks of coin rows
    # fill their draws in C order, so one cell a block and 2**30 cells a
    # block give the same reports and leave every chunk's generator alike
    run = simulate if engine == "counts" else simulate_per_arm
    monkeypatch.setattr(simulator, "CHUNK_CELL_BUDGET", 500)
    for model, N in ((bern5, 9), (_mixed_width_model(1), 23)):
        pol = CompiledPolicy(model, parse_policy(policy))
        reports, states = [], []
        for cells in (1, 2**30):
            streams = []
            with monkeypatch.context() as m:
                m.setattr(simulator, "BLOCK_CELLS", cells)
                m.setattr(policies, "BLOCK_CELLS", cells)
                m.setattr(simulator, "_stream",
                          lambda *key, stream=simulator._stream: streams.append(stream(*key))
                          or streams[-1])
                reports.append(run(model, pol, N=N, reps=70, seed=4))
            assert len(streams) > 1
            states.append([repr(g.bit_generator.state) for g in streams])
        _same_reports(*reports)
        assert states[0] == states[1]


def test_bern15_count_step_draws_once_a_period(bern15, monkeypatch):
    # at R = 50 every two-target row of a period fits one block, and bern15
    # has no wider row, so each of the T - 1 steps makes one binomial call
    calls = []

    class Counting:
        def __init__(self, rng):
            self.rng = rng

        def binomial(self, n, p):
            calls.append(np.shape(n))
            return self.rng.binomial(n, p)

    stream = simulator._stream
    monkeypatch.setattr(simulator, "_stream", lambda *key: Counting(stream(*key)))
    simulate(bern15, "fluid", N=1200, reps=50, seed=0)
    assert len(calls) == bern15.T - 1
    assert all(len(shape) == 2 and shape[1] == 50 for shape in calls)


def test_bern15_rac_cuts_in_log2_k_draws(bern15, monkeypatch):
    # at R = 50 the coins and every level of the cut fit one block, so a
    # rac_pulls call over k occupied states makes ceil(log2 k)
    # hypergeometric calls if a row's coins exceed B, and none otherwise
    draws, seen = [], []

    class Counting:
        def __init__(self, rng):
            self.rng = rng

        def binomial(self, n, p):
            draws.append(self.rng.binomial(n, p))
            return draws[-1]

        def hypergeometric(self, good, bad, take):
            draws.append(None)
            return self.rng.hypergeometric(good, bad, take)

    def counted(Z, q, B, rng):
        draws.clear()
        X1 = policies.rac_pulls(Z, q, B, rng)
        coins, *cut = draws
        k = int(np.count_nonzero(Z.any(axis=0)))
        over = (coins.sum(axis=1) > B).any()
        seen.append((k, over))
        assert all(d is None for d in cut) and len(cut) == ((k - 1).bit_length() if over else 0)
        return X1

    stream = simulator._stream
    monkeypatch.setattr(simulator, "_stream", lambda *key: Counting(stream(*key)))
    monkeypatch.setattr(simulator, "rac_pulls", counted)
    simulate(bern15, "rac", N=1200, reps=50, seed=0)
    assert len(seen) == bern15.T and max(k for k, over in seen if over) >= 9


@pytest.mark.parametrize("policy, bound", [
    ("fluid", 3.5), ("index", 3.5), ("relaxed", 3.5), ("ucb:0.5", 3.5), ("ts", 3.5),
    ("rac", 3.75)], ids=["fluid", "index", "relaxed", "ucb:0.5", "ts", "rac"])
def test_count_engine_holds_three_arrays(bern15, policy, bound):
    # counts, pulls and next counts: the period's figures, the allocation
    # and the step copy no (R, S) array beyond them, so one 4000-row chunk peaks near
    # three arrays of R * S int64 (a stacked (X0, X1) copy peaked near six).
    # The step's blocks and rac's coin and cut blocks add at most a few
    # arrays of BLOCK_CELLS cells; rac also holds, while it cuts them, the
    # coin prefix sums P (m, k + 1) of its m rows over budget (3.57 arrays
    # at peak; a gathered (R, k) copy of Z for the coins peaked at 4.07)
    pol = CompiledPolicy(bern15, parse_policy(policy))
    simulate(bern15, pol, N=1200, reps=10, seed=0)  # first-call caches
    tracemalloc.start()
    try:
        simulate(bern15, pol, N=1200, reps=4000, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    array = 4000 * bern15.S * 8
    assert peak <= bound * array + (1 << 18)


@pytest.mark.parametrize("policy, bound", [
    ("fluid", 2.7), ("index", 2.7), ("relaxed", 2.7), ("ucb:0.5", 2.7), ("ts", 3.0),
    ("rac", 2.75)], ids=["fluid", "index", "relaxed", "ucb:0.5", "ts", "rac"])
def test_per_arm_step_holds_no_per_arm_index(bern15, policy, bound):
    # step_arms holds the (R, N) uniforms, one repeated CDF value per arm
    # and the comparison's bool (2.125 arrays of R * N float64), plus its
    # tallies per (replication, kernel row) segment; one 400-row chunk at
    # N = 1200 peaks at 2.65 of them (rac 2.69, ts 2.94, whose allocation
    # holds more).  Per-arm int64 kernel-row, slot and successor arrays
    # with their gathers peaked at 4.33.
    pol = CompiledPolicy(bern15, parse_policy(policy))
    simulate_per_arm(bern15, pol, N=1200, reps=10, seed=0)  # first-call caches
    tracemalloc.start()
    try:
        simulator._chunk(pol, 1200, 400, simulator._stream(0, 1, 0), "per_arm", True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    array = 400 * 1200 * 8
    assert peak <= bound * array + (1 << 18)


def test_per_arm_chunk_sizes_are_pinned(bern15, monkeypatch):
    # chunk k draws from stream (seed, tag, k), so a change of the per-arm
    # chunk width N * (1 + W) would move every per-arm result
    seen = []

    def no_work(pol, N, R, rng, engine, diffusion):
        seen.append(R)
        return np.zeros(R), None, None

    monkeypatch.setattr(simulator, "_chunk", no_work)
    simulate_per_arm(bern15, "ucb:0.5", N=1200, reps=4000, seed=0)
    assert seen == [563] * 7 + [59]
