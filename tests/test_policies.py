"""Allocation rules: hand-traced plans, invariants, baseline policies."""

import numpy as np
import pytest

import reference_policies as ref
from conftest import make_random_model
from fluidbandit.errors import DegeneratePosterior, MissingMetadata, QOutOfRange
from fluidbandit.lp import OccupationMeasure, solve_relaxation
from fluidbandit.mdp import BeliefStateAnnotation, CountState, period_budget
from fluidbandit.occupancy import classify
from fluidbandit.policies import (PolicySpec, _mass, activation_probabilities,
                                  budget_relaxed_allocate,
                                  fluid_priority_allocate, index_allocate,
                                  index_pulls, parse_policy, rac_pulls, ts_pulls,
                                  ucb_allocate, ucb_scores, violation_event)
from fluidbandit.simulator import CompiledPolicy, _violations

G_FIRST = np.array([[1.0, 0.0], [1.0, 0.0]])


def _cs(t, Z):
    Z = np.asarray(Z, dtype=np.int64)
    return CountState(t=t, N=int(Z.sum()), Z=Z)


def _row(Z):
    return np.asarray(Z, dtype=np.int64)[None, :]


def test_fluid_two_t1_neutral_quota(two, two_measure):
    plan = fluid_priority_allocate(1, _cs(1, [2, 0]), two_measure, G_FIRST,
                                   N=2, alpha_t=0.5)
    np.testing.assert_array_equal(plan.X, [[1, 1], [0, 0]])
    assert plan.relaxed is False


def test_fluid_single_one_state(single, single_measure):
    plan = fluid_priority_allocate(1, _cs(1, [4]), single_measure,
                                   np.ones((2, 1)), N=4, alpha_t=0.5)
    np.testing.assert_array_equal(plan.X, [[2, 2]])


def test_fluid_two_t2_active_first(two, two_measure):
    plan = fluid_priority_allocate(2, _cs(2, [1, 1]), two_measure, G_FIRST,
                                   N=2, alpha_t=0.5)
    np.testing.assert_array_equal(plan.pulls, [1, 0])


def test_relaxed_two_overspends_on_active(two, two_measure):
    plan = budget_relaxed_allocate(2, _cs(2, [2, 0]), two_measure, G_FIRST,
                                   N=2, alpha_t=0.5)
    np.testing.assert_array_equal(plan.pulls, [2, 0])
    assert plan.relaxed is True


def test_relaxed_two_never_pulls_inactive(two, two_measure):
    plan = budget_relaxed_allocate(2, _cs(2, [0, 2]), two_measure, G_FIRST,
                                   N=2, alpha_t=0.5)
    np.testing.assert_array_equal(plan.pulls, [0, 0])


def test_violation_event_two(two_measure):
    part = classify(two_measure)
    assert violation_event(2, _cs(2, [1, 3]), part, 0.5) is True
    assert violation_event(2, _cs(2, [3, 1]), part, 0.5) is True
    assert violation_event(2, _cs(2, [2, 2]), part, 0.5) is False


def test_violation_event_single_never(single_measure):
    part = classify(single_measure)
    for n in (1, 3, 10, 17):
        assert violation_event(1, _cs(1, [n]), part, 0.5) is False
        assert violation_event(2, _cs(2, [n]), part, 0.5) is False


def test_fluid_fixed_point(two, two_measure, single, single_measure):
    # counts on the fluid trajectory with integral N*x reproduce N*x
    plan = fluid_priority_allocate(1, _cs(1, [4, 0]), two_measure, G_FIRST,
                                   N=4, alpha_t=0.5)
    np.testing.assert_array_equal(plan.X, (4 * two_measure.x[0]).astype(int))
    plan = fluid_priority_allocate(2, _cs(2, [2, 2]), two_measure, G_FIRST,
                                   N=4, alpha_t=0.5)
    np.testing.assert_array_equal(plan.X, (4 * two_measure.x[1]).astype(int))
    plan = fluid_priority_allocate(1, _cs(1, [10]), single_measure,
                                   np.ones((2, 1)), N=10, alpha_t=0.5)
    np.testing.assert_array_equal(plan.X, (10 * single_measure.x[0]).astype(int))


def test_fluid_invariants_random():
    rng = np.random.default_rng(17)
    for _ in range(40):
        model = make_random_model(rng)
        measure = solve_relaxation(model)
        part = classify(measure)
        scores = rng.normal(size=(model.T, model.S))
        N = int(rng.integers(1, 30))
        for t in range(1, model.T + 1):
            Z = rng.multinomial(N, np.full(model.S, 1.0 / model.S))
            plan = fluid_priority_allocate(t, _cs(t, Z), measure, scores, N,
                                           alpha_t=float(model.alpha[t - 1]),
                                           partition=part)
            B = period_budget(float(model.alpha[t - 1]), N)
            assert int(plan.pulls.sum()) == B
            assert (plan.pulls <= Z).all()
            assert (plan.X >= 0).all()
            np.testing.assert_array_equal(plan.X.sum(axis=1), Z)


def test_relaxed_equals_fluid_off_violation():
    rng = np.random.default_rng(19)
    checked = 0
    for _ in range(40):
        model = make_random_model(rng)
        measure = solve_relaxation(model)
        part = classify(measure)
        scores = rng.normal(size=(model.T, model.S))
        N = int(rng.integers(2, 40))
        for t in range(1, model.T + 1):
            Z = rng.multinomial(N, np.full(model.S, 1.0 / model.S))
            cs = _cs(t, Z)
            a_t = float(model.alpha[t - 1])
            if violation_event(t, cs, part, a_t):
                continue
            strict = fluid_priority_allocate(t, cs, measure, scores, N,
                                             alpha_t=a_t, partition=part)
            relaxed = budget_relaxed_allocate(t, cs, measure, scores, N,
                                              alpha_t=a_t, partition=part)
            np.testing.assert_array_equal(strict.X, relaxed.X)
            checked += 1
    assert checked > 30


def test_index_allocate_traces():
    scores = np.array([1.0, 0.0])
    plan = index_allocate(2, _cs(2, [3, 1]), scores, B=2)
    np.testing.assert_array_equal(plan.pulls, [2, 0])
    plan = index_allocate(2, _cs(2, [1, 3]), scores, B=2)
    np.testing.assert_array_equal(plan.pulls, [1, 1])


def test_index_argsort_invariance():
    rng = np.random.default_rng(23)
    for _ in range(20):
        S = 4
        scores = rng.normal(size=S)
        Z = rng.multinomial(12, np.full(S, 0.25))
        a = index_allocate(1, _cs(1, Z), scores, B=5)
        b = index_allocate(1, _cs(1, Z), 3.0 * scores + 11.0, B=5)
        np.testing.assert_array_equal(a.X, b.X)


def test_activation_probabilities(single_measure, two_measure):
    np.testing.assert_allclose(activation_probabilities(single_measure, 1),
                               [0.5], atol=1e-9)
    np.testing.assert_allclose(activation_probabilities(two_measure, 2),
                               [1.0, 0.0], atol=1e-9)


def test_activation_probabilities_out_of_range():
    x = np.array([[[0.2, 0.9]]])
    m = OccupationMeasure(x=x, z=np.array([[0.5]]), value=0.0, duals=None)
    with pytest.raises(QOutOfRange):
        activation_probabilities(m, 1)


def _rac_row(Z, measure, B, rng):
    return rac_pulls(_row(Z), activation_probabilities(measure, 1), B, rng)[0]


def test_rac_truncated_binomial(single_measure):
    rng = np.random.default_rng(0)
    pulls = _rac_row([10_000], single_measure, B=5_000, rng=rng)
    assert 4_700 <= int(pulls.sum()) <= 5_000


def test_rac_extreme_probabilities():
    x1 = np.array([[[0.0, 0.5], [0.5, 0.0]]])
    m1 = OccupationMeasure(x=x1, z=x1.sum(axis=2), value=0.0, duals=None)
    rng = np.random.default_rng(1)
    np.testing.assert_array_equal(_rac_row([6, 6], m1, B=12, rng=rng), [6, 0])

    x0 = np.array([[[0.5, 0.0], [0.5, 0.0]]])
    m0 = OccupationMeasure(x=x0, z=x0.sum(axis=2), value=0.0, duals=None)
    assert int(_rac_row([6, 6], m0, B=12, rng=rng).sum()) == 0


def test_ucb_scores_and_allocation(bern2):
    ann = bern2.annotations
    means = np.array([a.posterior_mean for a in ann])
    np.testing.assert_allclose(ucb_scores(ann, 0.0), means, atol=0)
    np.testing.assert_allclose(means, [0.5, 1.0 / 3.0, 2.0 / 3.0], atol=1e-12)
    Z = np.array([2, 2, 2], dtype=np.int64)
    a = ucb_allocate(2, _cs(2, Z), ann, delta=0.0, B=3)
    b = index_allocate(2, _cs(2, Z), means, B=3)
    np.testing.assert_array_equal(a.X, b.X)
    # state (1,1) outranks (0,0) outranks (1,0) on posterior mean
    np.testing.assert_array_equal(a.pulls, [1, 0, 2])


def test_ucb_requires_annotations(crowd3):
    with pytest.raises(MissingMetadata):
        ucb_allocate(1, _cs(1, [3] + [0] * (crowd3.S - 1)), crowd3.annotations,
                     delta=0.5, B=1)


def test_ts_allocation(bern2):
    ann = bern2.annotations
    Z = np.array([3, 2, 1], dtype=np.int64)
    pulls = ts_pulls(_row(Z), ann, 2, np.random.default_rng(4))[0]
    assert int(pulls.sum()) == 2
    assert (pulls <= Z).all()
    again = ts_pulls(_row(Z), ann, 2, np.random.default_rng(4))[0]
    np.testing.assert_array_equal(pulls, again)
    full = ts_pulls(_row(Z), ann, 10, np.random.default_rng(4))[0]
    assert int(full.sum()) == 6
    none = ts_pulls(_row(Z), ann, 0, np.random.default_rng(4))[0]
    assert int(none.sum()) == 0
    # one row at a time: some seeds settle the row by bisection alone,
    # others finish it with truncated draws
    Z = np.array([30, 20, 10], dtype=np.int64)
    for seed in range(200):
        pulls = ts_pulls(_row(Z), ann, 20, np.random.default_rng(seed))[0]
        assert int(pulls.sum()) == 20 and (pulls <= Z).all()


def _law_gap(new, ref):
    """Per-state (max |mean difference| in standard errors, variance ratios
    where the reference varies by at least 0.1) of two pull samples (R, S);
    states where neither sample varies must agree exactly."""
    R = len(new)
    vn, vr = new.var(axis=0, ddof=1), ref.var(axis=0, ddof=1)
    flat = (vn == 0.0) & (vr == 0.0)
    np.testing.assert_array_equal(new[0, flat], ref[0, flat])
    se = np.sqrt((vn + vr)[~flat] / R)
    z = np.abs(new.mean(axis=0) - ref.mean(axis=0))[~flat] / se
    wide = vr >= 0.1
    return (float(z.max()) if z.size else 0.0), vn[wide] / vr[wide]


def _ann(family, *params):
    return BeliefStateAnnotation(posterior_mean=0.5, posterior_sd=0.1, family=family,
                                 params=tuple(float(p) for p in params))


def _ts_cases(bern5, assort8):
    """(name, annotations, count row Z) for the TS law tests."""
    mixed = [_ann("beta", 2, 3), _ann("gamma", 4, 6), _ann("beta", 5, 1), _ann("gamma", 1, 3)]
    # Gamma(m, 0.1 + j) at (m, j) = (1, 0), (1, 5), (2, 8), (5, 4), (7, 7)
    gamma = [assort8.annotations[s] for s in (0, 5, 17, 40, 61)]
    return [
        ("bern", bern5.annotations, np.r_[[6, 5, 4, 5, 3, 2, 4, 1], np.zeros(7, np.int64)]),
        ("gamma", gamma, np.array([9, 7, 6, 5, 3])),
        ("tied", [_ann("beta", 2, 3), _ann("beta", 2, 3), _ann("beta", 3, 2)], np.array([12, 12, 6])),
        ("mixed", mixed, np.array([8, 8, 4, 10])),
        ("single", bern5.annotations, np.r_[0, 0, 30, np.zeros(12, np.int64)]),
    ]


@pytest.mark.parametrize("case", range(5))
def test_ts_law_matches_per_arm_reference(case, bern5, assort8):
    """Count-level TS pulls per state have the reference's mean and
    variance (4 SE, ratio within 0.85-1.15) at B = 0, 1, N/2, N-1 and N, and
    every row pulls exactly B arms, none beyond its counts."""
    name, ann, Z = _ts_cases(bern5, assort8)[case]
    N = int(Z.sum())
    Zs = np.tile(Z, (20_000, 1))
    for B in (0, 1, N // 2, N - 1, N):
        new = ts_pulls(Zs, ann, B, np.random.default_rng(100 + B))
        ref_pulls = ref.ts_pulls(Zs, ann, B, np.random.default_rng(200 + B))
        assert (new.sum(axis=1) == B).all() and (new >= 0).all() and (new <= Zs).all()
        z, ratios = _law_gap(new, ref_pulls)
        assert z <= 4.0, (name, B, z)
        assert ((ratios > 0.85) & (ratios < 1.15)).all(), (name, B, ratios)


@pytest.mark.parametrize("B", [4, 15, 40])
def test_rac_law_matches_per_arm_reference(B):
    """Count-level RAC pulls per state match the visit-order reference with
    q in {0, 1, interior}, both where the successes fit the budget (B=40)
    and where they exceed it; no row pulls more than B or more than Z."""
    q = np.array([0.0, 1.0, 0.3, 0.8])
    Zs = np.tile([6, 5, 10, 8], (20_000, 1))
    new = rac_pulls(Zs, q, B, np.random.default_rng(300 + B))
    ref_pulls = ref.rac_pulls(Zs, q, B, np.random.default_rng(400 + B))
    assert (new.sum(axis=1) <= B).all() and (new >= 0).all() and (new <= Zs).all()
    assert (new[:, 0] == 0).all()
    z, ratios = _law_gap(new, ref_pulls)
    assert z <= 4.0
    assert ((ratios > 0.85) & (ratios < 1.15)).all(), ratios


def test_ts_draws_no_arm_at_large_n(bern5, monkeypatch):
    """At N = 10**6 the count-level TS still places exactly B pulls without
    calling any per-arm posterior sampler."""
    def no_draws(rng, size=None):
        raise AssertionError("per-arm posterior draw")

    for a in bern5.annotations:
        monkeypatch.setattr(a, "sampler", no_draws)
    rng = np.random.default_rng(5)
    N, B = 10**6, 333_333
    Zs = rng.multinomial(N, np.r_[np.full(6, 1 / 6), np.zeros(9)], size=2)
    pulls = ts_pulls(Zs, bern5.annotations, B, rng)
    assert (pulls.sum(axis=1) == B).all() and (pulls <= Zs).all()


def test_ts_unsplittable_bracket_goes_to_leaf():
    """Posteriors with sd near 3e-18 pile a thousand arms into a bracket that
    floating point cannot halve; those go to the leaf step whatever their
    number, and their indistinguishable draws are ordered at random, so
    two identical states share the pulls evenly."""
    for family in ("beta", "gamma"):
        ann = [_ann(family, 1e35, 1e35)] * 2
        Zs = np.tile([1000, 1000], (200, 1))
        pulls = ts_pulls(Zs, ann, 700, np.random.default_rng(7))
        assert (pulls.sum(axis=1) == 700).all() and (pulls <= Zs).all()
        assert abs(pulls[:, 0].mean() - 350.0) <= 4.0, pulls.mean(axis=0)


def test_ts_degenerate_posterior_is_typed():
    ann = [_ann("beta", 2, 3), _ann("beta", float("nan"), 3)]
    for n in (1, 25):  # two arms go straight to the leaf; fifty are split first
        with pytest.raises(DegeneratePosterior):
            ts_pulls(np.array([[n, n]]), ann, n, np.random.default_rng(0))
    # a bracket that holds arms of a state with no mass in it
    s, low, empty = np.array([1]), np.array([True]), np.array([0.25])
    with pytest.raises(DegeneratePosterior):
        _mass(s, low, empty, 1.0 - empty, empty, 1.0 - empty)


def test_kernels_match_scalar_reference():
    """Batch kernels and the 1-row public functions equal the scalar loops
    row for row: fluid, relaxed, index, ucb:0.5 and the bracketing event."""
    rng = np.random.default_rng(29)
    rows = 0
    for i in range(40):
        model = make_random_model(rng, annotate=True)
        T, S = model.T, model.S
        scores = rng.normal(size=(T, S))
        if i % 2:
            # ties, broken by ascending state index; and budget masses
            # alpha_t * N that hit the bracket's integer edges
            scores = np.round(scores)
            model.alpha = rng.choice([0.25, 0.5, 0.75], size=T)
        measure = solve_relaxation(model)
        part = classify(measure)
        ucb = ucb_scores(model.annotations, 0.5)
        pols = {kind: CompiledPolicy(model, PolicySpec(kind, measure=measure, scores=scores))
                for kind in ("fluid", "relaxed", "index")}
        pols["ucb"] = CompiledPolicy(model, parse_policy("ucb:0.5"))
        for N in rng.integers(1, 61, size=4):
            N = int(N)
            Zs = rng.multinomial(N, rng.dirichlet(np.ones(S)), size=16)
            for t in range(1, T + 1):
                a_t = float(model.alpha[t - 1])
                B = period_budget(a_t, N)
                batch = {kind: pol.allocate_batch(t, Zs, rng)
                         for kind, pol in pols.items()}
                viol = _violations(pols["fluid"], t, Zs)
                for r, Z in enumerate(Zs):
                    cs = _cs(t, Z)
                    kw = dict(alpha_t=a_t, partition=part)
                    cases = {
                        "fluid": (ref.fluid_priority_allocate(t, cs, measure, scores, N, **kw),
                                  fluid_priority_allocate(t, cs, measure, scores, N, **kw)),
                        "relaxed": (ref.budget_relaxed_allocate(t, cs, measure, scores, N, **kw),
                                    budget_relaxed_allocate(t, cs, measure, scores, N, **kw)),
                        "index": (ref.index_allocate(t, cs, scores, B),
                                  index_allocate(t, cs, scores, B)),
                        "ucb": (ref.index_allocate(t, cs, ucb, B),
                                ucb_allocate(t, cs, model.annotations, 0.5, B)),
                    }
                    for kind, (want, got) in cases.items():
                        np.testing.assert_array_equal(got.X, want.X)
                        assert got.relaxed is want.relaxed
                        np.testing.assert_array_equal(batch[kind][r], want.pulls)
                    event = ref.violation_event(t, cs, part, a_t)
                    assert violation_event(t, cs, part, a_t) is event
                    assert bool(viol[r]) is event
                    rows += 1
    assert rows >= 5000


def test_index_pulls_on_fluid_mass():
    # same float operations in the same order as the loop: equal bit for bit
    rng = np.random.default_rng(31)
    for _ in range(500):
        S = int(rng.integers(1, 12))
        z = rng.dirichlet(np.ones(S))
        order = rng.permutation(S)
        alpha = float(rng.uniform(0.0, 1.0))
        got = index_pulls(z[None, :], order, alpha)[0]
        np.testing.assert_array_equal(got, ref.fluid_greedy_pulls(z, order, alpha))


def test_parse_policy():
    assert parse_policy("fluid").kind == "fluid"
    assert parse_policy("ucb:0.5").delta == 0.5
    from fluidbandit.errors import ConfigError
    with pytest.raises(ConfigError):
        parse_policy("ucb:half")
    with pytest.raises(ConfigError):
        parse_policy("bogus")
