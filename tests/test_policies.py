"""Allocation rules: hand-traced plans, invariants, baseline policies."""

import dataclasses

import numpy as np
import pytest
from scipy.stats import chi2, multivariate_hypergeom

import fluidbandit.policies as policies
import fluidbandit.simulator as simulator
import reference_policies as ref
from conftest import make_random_model
from fluidbandit.errors import (DegeneratePosterior, DimensionMismatch, MissingMetadata,
                                QOutOfRange)
from fluidbandit.lp import OccupationMeasure, solve_relaxation
from fluidbandit.mdp import BeliefStateAnnotation, period_budget
from fluidbandit.occupancy import classify
from fluidbandit.policies import (PolicySpec, _mass, activation_probabilities,
                                  fluid_priority_allocate, fluid_pulls, index_pulls,
                                  parse_policy, rac_pulls, ts_posterior, ts_pulls,
                                  ucb_scores, violation_rows)
from fluidbandit.priority import _fluid_fill, score_order
from fluidbandit.simulator import CompiledPolicy, simulate, simulate_per_arm

G_FIRST = np.array([[1.0, 0.0], [1.0, 0.0]])


def _plan(t, Z, measure, scores, alpha_t, codes=None):
    """The action counts (S, 2), idle and pulled arms per state, of
    ``fluid_priority_allocate``'s pulls for count vector Z."""
    Z = np.asarray(Z, dtype=np.int64)
    X1 = fluid_priority_allocate(t, Z, measure, scores, alpha_t, codes=codes)
    return np.stack([Z - X1, X1], axis=1)


def _row(Z):
    return np.asarray(Z, dtype=np.int64)[None, :]


def _relaxed_pulls(t, Z, measure, scores, alpha_t, codes=None):
    """The budget-relaxed rule's pulls for one count row, as
    ``CompiledPolicy.allocate_batch`` computes them."""
    N = int(np.sum(Z))
    codes = codes if codes is not None else classify(measure)
    quota = np.floor(N * measure.x[t - 1, :, 1]).astype(np.int64)
    return fluid_pulls(_row(Z), codes[t - 1], score_order(scores, t, len(Z)), quota,
                       period_budget(alpha_t, N), relaxed=True)[0]


def _violated(t, Z, codes, alpha_t):
    """The bracketing event at one count row, at budget mass alpha_t * N."""
    return bool(violation_rows(_row(Z), codes[t - 1], alpha_t * int(np.sum(Z)))[0])


def _index_pulls(t, Z, scores, B):
    """The index rule's pulls for one count row, in the scores' order."""
    return index_pulls(_row(Z), score_order(scores, t, len(Z)), B)[0]


def test_fluid_two_t1_neutral_quota(two, two_measure):
    plan = _plan(1, [2, 0], two_measure, G_FIRST, alpha_t=0.5)
    np.testing.assert_array_equal(plan, [[1, 1], [0, 0]])


def test_fluid_single_one_state(single, single_measure):
    plan = _plan(1, [4], single_measure, np.ones((2, 1)), alpha_t=0.5)
    np.testing.assert_array_equal(plan, [[2, 2]])


def test_fluid_two_t2_active_first(two, two_measure):
    pulls = fluid_priority_allocate(2, np.array([1, 1]), two_measure, G_FIRST, alpha_t=0.5)
    np.testing.assert_array_equal(pulls, [1, 0])


def test_relaxed_two_overspends_on_active(two, two_measure):
    pulls = _relaxed_pulls(2, [2, 0], two_measure, G_FIRST, alpha_t=0.5)
    np.testing.assert_array_equal(pulls, [2, 0])


def test_relaxed_two_never_pulls_inactive(two, two_measure):
    pulls = _relaxed_pulls(2, [0, 2], two_measure, G_FIRST, alpha_t=0.5)
    np.testing.assert_array_equal(pulls, [0, 0])


def test_violation_event_two(two_measure):
    codes = classify(two_measure)
    assert _violated(2, [1, 3], codes, 0.5) is True
    assert _violated(2, [3, 1], codes, 0.5) is True
    assert _violated(2, [2, 2], codes, 0.5) is False


def test_violation_event_single_never(single_measure):
    codes = classify(single_measure)
    for n in (1, 3, 10, 17):
        assert _violated(1, [n], codes, 0.5) is False
        assert _violated(2, [n], codes, 0.5) is False


def test_fluid_fixed_point(two, two_measure, single, single_measure):
    # counts on the fluid trajectory with integral N*x reproduce N*x
    plan = _plan(1, [4, 0], two_measure, G_FIRST, alpha_t=0.5)
    np.testing.assert_array_equal(plan, (4 * two_measure.x[0]).astype(int))
    plan = _plan(2, [2, 2], two_measure, G_FIRST, alpha_t=0.5)
    np.testing.assert_array_equal(plan, (4 * two_measure.x[1]).astype(int))
    plan = _plan(1, [10], single_measure, np.ones((2, 1)), alpha_t=0.5)
    np.testing.assert_array_equal(plan, (10 * single_measure.x[0]).astype(int))


@pytest.mark.parametrize("counts, message", [
    ([1, 1, 1], "state count"),  # three states where the measure has two
], ids=["states-vs-measure"])
def test_fluid_allocate_refuses_mismatched_counts(two_measure, counts, message):
    with pytest.raises(DimensionMismatch, match=message):
        fluid_priority_allocate(1, np.array(counts), two_measure, G_FIRST, alpha_t=0.5)


def test_fluid_invariants_random():
    rng = np.random.default_rng(17)
    for _ in range(40):
        model = make_random_model(rng)
        measure = solve_relaxation(model)
        codes = classify(measure)
        scores = rng.normal(size=(model.T, model.S))
        N = int(rng.integers(1, 30))
        for t in range(1, model.T + 1):
            Z = rng.multinomial(N, np.full(model.S, 1.0 / model.S))
            plan = _plan(t, Z, measure, scores, alpha_t=float(model.alpha[t - 1]),
                         codes=codes)
            B = period_budget(float(model.alpha[t - 1]), N)
            assert int(plan[:, 1].sum()) == B
            assert (plan[:, 1] <= Z).all()
            assert (plan >= 0).all()
            np.testing.assert_array_equal(plan.sum(axis=1), Z)


def test_relaxed_equals_fluid_off_violation():
    rng = np.random.default_rng(19)
    checked = 0
    for _ in range(40):
        model = make_random_model(rng)
        measure = solve_relaxation(model)
        codes = classify(measure)
        scores = rng.normal(size=(model.T, model.S))
        N = int(rng.integers(2, 40))
        for t in range(1, model.T + 1):
            Z = rng.multinomial(N, np.full(model.S, 1.0 / model.S))
            a_t = float(model.alpha[t - 1])
            if _violated(t, Z, codes, a_t):
                continue
            strict = fluid_priority_allocate(t, Z, measure, scores, alpha_t=a_t, codes=codes)
            relaxed = _relaxed_pulls(t, Z, measure, scores, a_t, codes=codes)
            np.testing.assert_array_equal(strict, relaxed)
            checked += 1
    assert checked > 30


def test_index_allocate_traces():
    scores = np.array([1.0, 0.0])
    np.testing.assert_array_equal(_index_pulls(2, [3, 1], scores, B=2), [2, 0])
    np.testing.assert_array_equal(_index_pulls(2, [1, 3], scores, B=2), [1, 1])


def test_index_argsort_invariance():
    rng = np.random.default_rng(23)
    for _ in range(20):
        S = 4
        scores = rng.normal(size=S)
        Z = rng.multinomial(12, np.full(S, 0.25))
        a = _index_pulls(1, Z, scores, B=5)
        b = _index_pulls(1, Z, 3.0 * scores + 11.0, B=5)
        np.testing.assert_array_equal(a, b)


def test_activation_probabilities(single_measure, two_measure):
    np.testing.assert_allclose(activation_probabilities(single_measure, 1),
                               [0.5], atol=1e-9)
    np.testing.assert_allclose(activation_probabilities(two_measure, 2),
                               [1.0, 0.0], atol=1e-9)


def test_activation_probabilities_out_of_range():
    x = np.array([[[-0.4, 0.9]]])  # negative idle mass: z = 0.5, so q = 1.8
    m = OccupationMeasure(x=x, value=0.0, duals=None)
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
    m1 = OccupationMeasure(x=x1, value=0.0, duals=None)
    rng = np.random.default_rng(1)
    np.testing.assert_array_equal(_rac_row([6, 6], m1, B=12, rng=rng), [6, 0])

    x0 = np.array([[[0.5, 0.0], [0.5, 0.0]]])
    m0 = OccupationMeasure(x=x0, value=0.0, duals=None)
    assert int(_rac_row([6, 6], m0, B=12, rng=rng).sum()) == 0


def test_ucb_scores_and_allocation(bern2):
    ann = bern2.annotations
    means = np.array([a.posterior_mean for a in ann])
    np.testing.assert_allclose(ucb_scores(ann, 0.0), means, atol=0)
    np.testing.assert_allclose(means, [0.5, 1.0 / 3.0, 2.0 / 3.0], atol=1e-12)
    Z = np.array([2, 2, 2], dtype=np.int64)
    a = _index_pulls(2, Z, ucb_scores(ann, 0.0), B=3)
    b = _index_pulls(2, Z, means, B=3)
    np.testing.assert_array_equal(a, b)
    # state (1,1) outranks (0,0) outranks (1,0) on posterior mean
    np.testing.assert_array_equal(a, [1, 0, 2])


def test_ucb_requires_annotations(crowd3):
    with pytest.raises(MissingMetadata):
        ucb_scores(crowd3.annotations, 0.5)


def test_ts_allocation(bern2):
    post = ts_posterior(bern2.annotations)
    Z = np.array([3, 2, 1], dtype=np.int64)
    pulls = ts_pulls(_row(Z), post, 2, np.random.default_rng(4))[0]
    assert int(pulls.sum()) == 2
    assert (pulls <= Z).all()
    again = ts_pulls(_row(Z), post, 2, np.random.default_rng(4))[0]
    np.testing.assert_array_equal(pulls, again)
    full = ts_pulls(_row(Z), post, 10, np.random.default_rng(4))[0]
    assert int(full.sum()) == 6
    none = ts_pulls(_row(Z), post, 0, np.random.default_rng(4))[0]
    assert int(none.sum()) == 0
    # one row at a time: some seeds settle the row by bisection alone,
    # others finish it with truncated draws
    Z = np.array([30, 20, 10], dtype=np.int64)
    for seed in range(200):
        pulls = ts_pulls(_row(Z), post, 20, np.random.default_rng(seed))[0]
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
    N, post = int(Z.sum()), ts_posterior(ann)
    Zs = np.tile(Z, (20_000, 1))
    for B in (0, 1, N // 2, N - 1, N):
        new = ts_pulls(Zs, post, B, np.random.default_rng(100 + B))
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


def test_rac_cut_is_multivariate_hypergeometric():
    """With every coin a success, an over-budget row pulls B of its coins
    drawn without replacement.  Over k = 7 occupied states (a range the
    halving splits unevenly) with one coinless state among them, each
    state's mean and every covariance is within 4 SE of
    ``multivariate_hypergeom``; on a three-state row the frequencies of
    the five joint outcomes pass a chi-square test at level 1e-3."""
    c, B, R = np.array([3, 0, 2, 4, 1, 5, 2]), 6, 60_000
    q = (c > 0).astype(float)  # state 1 holds arms but flips no success
    X = rac_pulls(np.tile(np.where(c > 0, c, 4), (R, 1)), q, B, np.random.default_rng(21))
    assert (X.sum(axis=1) == B).all() and (X <= c).all()
    law = multivariate_hypergeom(c, B)
    D, cov = X - law.mean(), law.cov()
    checks = [(D[:, i], 0.0) for i in range(c.size)]
    checks += [(D[:, i] * D[:, j], cov[i, j]) for i in range(c.size) for j in range(i, c.size)]
    for u, exact in checks:
        se = u.std() / np.sqrt(R)
        if se == 0.0:  # a coinless state never pulls
            assert (u == exact).all()
        else:
            assert abs(u.mean() - exact) <= 4.0 * se, (u.mean(), exact)

    c, B, R = np.array([2, 1, 2]), 2, 20_000
    X = rac_pulls(np.tile(c, (R, 1)), np.ones(3), B, np.random.default_rng(22))
    outcomes, seen = np.unique(X, axis=0, return_counts=True)
    expected = R * multivariate_hypergeom.pmf(outcomes, c, B)
    assert len(outcomes) == 5 and np.isclose(expected.sum(), R)
    assert ((seen - expected) ** 2 / expected).sum() <= chi2.ppf(1.0 - 1e-3, len(outcomes) - 1)


@pytest.mark.parametrize("B", [5, 15, 30])
def test_rac_law_on_a_deep_cut(B):
    """Count-level RAC pulls per state match the visit-order reference over
    12 occupied states with uneven counts, q in {0, 1, interior} and an
    unoccupied state among them, so the cut to B runs four levels."""
    q = np.array([0.0, 1.0, 0.3, 0.5, 0.8, 0.1, 0.65, 1.0, 0.2, 0.9, 0.45, 0.0, 0.7])
    Zs = np.tile([6, 5, 10, 0, 8, 3, 12, 1, 7, 4, 9, 2, 11], (20_000, 1))
    new = rac_pulls(Zs, q, B, np.random.default_rng(500 + B))
    ref_pulls = ref.rac_pulls(Zs, q, B, np.random.default_rng(600 + B))
    assert (new.sum(axis=1) <= B).all() and (new >= 0).all() and (new <= Zs).all()
    assert (new[:, q == 0.0] == 0).all()
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
    pulls = ts_pulls(Zs, ts_posterior(bern5.annotations), B, rng)
    assert (pulls.sum(axis=1) == B).all() and (pulls <= Zs).all()


def test_ts_unsplittable_bracket_goes_to_leaf():
    """Posteriors with sd near 3e-18 pile a thousand arms into a bracket that
    floating point cannot halve; those go to the leaf step whatever their
    number, and their indistinguishable draws are ordered at random, so
    two identical states share the pulls evenly."""
    for family in ("beta", "gamma"):
        ann = [_ann(family, 1e35, 1e35)] * 2
        Zs = np.tile([1000, 1000], (200, 1))
        pulls = ts_pulls(Zs, ts_posterior(ann), 700, np.random.default_rng(7))
        assert (pulls.sum(axis=1) == 700).all() and (pulls <= Zs).all()
        assert abs(pulls[:, 0].mean() - 350.0) <= 4.0, pulls.mean(axis=0)


def test_ts_degenerate_posterior_is_typed():
    # a CDF that is not a number fails where the tables are built, before
    # any count row is seen
    with pytest.raises(DegeneratePosterior):
        ts_posterior([_ann("beta", 2, 3), _ann("beta", float("nan"), 3)])
    # and in ts_pulls, given tables whose parameters are not numbers
    post = ts_posterior([_ann("beta", 2, 3), _ann("beta", 2, 3)])
    post = dataclasses.replace(post, p0=np.array([2.0, float("nan")]))
    for n in (1, 25):  # two arms go straight to the leaf; fifty are split first
        with pytest.raises(DegeneratePosterior):
            ts_pulls(np.array([[n, n]]), post, n, np.random.default_rng(0))
    # a bracket that holds arms of a state with no mass in it
    s, low, empty = np.array([1]), np.array([True]), np.array([0.25])
    with pytest.raises(DegeneratePosterior):
        _mass(s, low, empty, 1.0 - empty, empty, 1.0 - empty)


@pytest.mark.parametrize("case", ["bern15", "mixed"])
def test_ts_law_matches_per_arm_reference_at_larger_n(case, bern15, assort8):
    """About 300 arms spread over many states, where rows take several
    aimed splits: the per-state pull laws still match the per-arm reference
    (4 SE, variance ratio within 0.85-1.15) at B = 1, N/3 and N-1."""
    if case == "bern15":
        ann = bern15.annotations
        Z = np.r_[np.resize([9, 1, 6, 3, 7, 2, 5, 4], 60), np.zeros(60, np.int64)]
    else:
        ann = bern15.annotations[:20] + [assort8.annotations[s] for s in range(0, 80, 8)]
        Z = np.resize([12, 3, 8, 1, 15, 6], 30)
    N, post = int(Z.sum()), ts_posterior(ann)
    Zs = np.tile(Z, (20_000, 1))
    for B in (1, N // 3, N - 1):
        new = ts_pulls(Zs, post, B, np.random.default_rng(500 + B))
        ref_pulls = ref.ts_pulls(Zs, ann, B, np.random.default_rng(600 + B))
        assert (new.sum(axis=1) == B).all() and (new >= 0).all() and (new <= Zs).all()
        z, ratios = _law_gap(new, ref_pulls)
        assert z <= 4.0, (case, B, z)
        assert ((ratios > 0.85) & (ratios < 1.15)).all(), (case, B, ratios)


def test_ts_and_rac_tables_are_built_once_per_compiled_policy(bern5, monkeypatch):
    """A compiled ts policy builds its posterior tables, and a compiled rac
    policy its (T, S) activation probabilities, when it is compiled and
    never again: not per chunk of a multi-chunk count run, not per period,
    not in a per-arm run."""
    calls = []

    def counted(name):
        call = getattr(simulator, name)
        monkeypatch.setattr(simulator, name, lambda *a: calls.append(name) or call(*a))

    for name in ("ts_posterior", "activation_probabilities", "_chunk"):
        counted(name)
    monkeypatch.setattr(simulator, "CHUNK_CELL_BUDGET", 2_000)
    for kind, table in (("ts", "ts_posterior"), ("rac", "activation_probabilities")):
        pol = CompiledPolicy(bern5, parse_policy(kind))
        simulate(bern5, pol, N=30, reps=400, seed=3)
        assert calls.count("_chunk") >= 2
        simulate_per_arm(bern5, pol, N=30, reps=40, seed=3)
        builds = [c for c in calls if c != "_chunk"]
        assert builds == [table] * (1 if kind == "ts" else bern5.T), (kind, builds)
        calls.clear()


def test_ts_cdf_cells_are_pinned(bern15, monkeypatch):
    """The CDF evaluations of simulate(bern15, "ts", 1200, 50, 103), the
    table included, stay at or below a recorded ceiling: 63 757 when
    recorded (120 767 when every split halved its bracket)."""
    cells = []
    tails = policies._tails

    def counted(post, s, v):
        cells.append(s.size)
        return tails(post, s, v)

    monkeypatch.setattr(policies, "_tails", counted)
    simulate(bern15, "ts", 1200, 50, 103)
    assert sum(cells) <= 66_000, sum(cells)


def test_kernels_match_scalar_reference():
    """Batch kernels and the 1-row fluid_priority_allocate equal the scalar
    loops row for row: fluid, relaxed, index, ucb:0.5 and the bracketing
    event."""
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
        codes = classify(measure)
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
                viol = violation_rows(Zs, pols["fluid"].codes[t - 1], a_t * N)
                for r, Z in enumerate(Zs):
                    kw = dict(alpha_t=a_t, codes=codes)
                    want = {
                        "fluid": ref.fluid_priority_allocate(t, Z, measure, scores, **kw),
                        "relaxed": ref.budget_relaxed_allocate(t, Z, measure, scores, **kw),
                        "index": ref.index_allocate(t, Z, scores, B),
                        "ucb": ref.index_allocate(t, Z, ucb, B),
                    }
                    got = fluid_priority_allocate(t, Z, measure, scores, **kw)
                    np.testing.assert_array_equal(got, want["fluid"])
                    for kind, pulls in want.items():
                        np.testing.assert_array_equal(batch[kind][r], pulls)
                    assert bool(viol[r]) is ref.violation_event(t, Z, codes, a_t)
                    rows += 1
    assert rows >= 5000


def test_index_pulls_on_fluid_mass():
    # fluid_propagate's fill makes the loop's float operations in the same
    # order: equal bit for bit, and its boundary is the first state the
    # loop leaves idle mass in (the last one if none)
    rng = np.random.default_rng(31)
    for _ in range(500):
        S = int(rng.integers(1, 12))
        z = rng.dirichlet(np.ones(S))
        order = rng.permutation(S)
        alpha = float(rng.uniform(0.0, 1.0))
        want = ref.fluid_greedy_pulls(z, order, alpha)
        fill, k = _fluid_fill(z[order], alpha)
        got = np.zeros(S)
        got[order] = fill
        np.testing.assert_array_equal(got, want)
        idle = np.flatnonzero(want[order] < z[order])
        assert k == (idle[0] if idle.size else S - 1)


def test_parse_policy():
    assert parse_policy("fluid").kind == "fluid"
    assert parse_policy("ucb:0.5").delta == 0.5
    from fluidbandit.errors import ConfigError
    with pytest.raises(ConfigError):
        parse_policy("ucb:half")
    with pytest.raises(ConfigError):
        parse_policy("bogus")


def test_ucb_label_without_a_delta_prints():
    assert PolicySpec("ucb").label == "ucb"
    assert PolicySpec("ucb", delta=0.5).label == "ucb:0.5"
