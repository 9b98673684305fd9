"""End-to-end acceptance runs: one test and one printed verdict per claim.

Each test prints a single "[A<k>] PASS/FAIL ..." line on the real stdout
(bypassing capture) so the verdicts are visible in plain pytest output,
then asserts.  Tolerances and runtime ceilings are stated inline.
"""

import math
import sys
import time

import numpy as np
import pytest

import conftest
from conftest import make_random_model
from fluidbandit.lp import solve_relaxation
from fluidbandit.mdp import CountState
from fluidbandit.occupancy import (classify, fluid_propagate,
                                   is_nondegenerate, search_nondegenerate)
from fluidbandit.oracle import exact_policy_value, optimal_value
from fluidbandit.policies import (PolicySpec, budget_relaxed_allocate,
                                  fluid_priority_allocate, ucb_scores,
                                  violation_event)
from fluidbandit.priority import dual_value, lambda_from_duals
from fluidbandit.simulator import (CompiledPolicy, gap_sweep, simulate,
                                   simulate_per_arm, violation_rate_sweep)
from fluidbandit.zoo import bernoulli_bandit

N_SWEEP = [300, 600, 1200, 2400, 4800, 9600]


def _verdict(tag: str, ok: bool, detail: str) -> None:
    line = "[%s] %s %s" % (tag, "PASS" if ok else "FAIL", detail)
    conftest.ACCEPTANCE_LINES.append(line)
    sys.__stdout__.write(line + "\n")
    sys.__stdout__.flush()
    assert ok, line


@pytest.fixture(scope="module")
def bern15_fluid_rows(bern15, bern15_measure):
    pol = CompiledPolicy(bern15, PolicySpec(kind="fluid",
                                            measure=bern15_measure))
    return gap_sweep(bern15, pol, N_SWEEP,
                     reps_per_N=lambda N: min(50 * N, 100_000), seed=97)


def test_a01_fixture_relaxations_exact(single, two):
    t0 = time.perf_counter()
    ms = solve_relaxation(single)
    mt = solve_relaxation(two)
    ok = abs(ms.value - 1.0) <= 1e-8 and abs(mt.value - 1.0) <= 1e-8
    ok &= bool(np.abs(ms.x - 0.5).max() <= 1e-8)
    want_two = np.array([[[0.5, 0.5], [0.0, 0.0]], [[0.0, 0.5], [0.5, 0.0]]])
    ok &= bool(np.abs(mt.x - want_two).max() <= 1e-8)
    ok &= classify(ms).codes.tolist() == [[0], [0]]
    ok &= classify(mt).codes.tolist() == [[0, -1], [1, -1]]
    ok &= is_nondegenerate(classify(ms)).nondegenerate is True
    rep_two = search_nondegenerate(two)
    ok &= rep_two.nondegenerate is False and rep_two.certificate == [2]
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 1.0
    _verdict("A1", ok,
             "values (%.10f, %.10f), verdicts (nondeg, deg@2), %.2fs < 1s"
             % (ms.value, mt.value, elapsed))


def test_a02_oracle_sandwich_random_instances():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    bad = 0
    worst = 0.0
    for _ in range(100):
        model = make_random_model(rng, S=int(rng.integers(1, 4)),
                                  T=int(rng.integers(1, 4)))
        N = int(rng.integers(2, 5))
        measure = solve_relaxation(model)
        pol = PolicySpec(kind="fluid", measure=measure)
        vpol = exact_policy_value(model, pol, N)
        vstar = optimal_value(model, N)
        slack = model.T * (1 + max(math.ceil(1.0 / a) for a in model.alpha)) \
            * float(np.abs(model.R).max())
        lo_ok = vpol <= vstar + 1e-9
        hi_ok = vstar <= N * measure.value + slack + 1e-9
        if not (lo_ok and hi_ok):
            bad += 1
        worst = max(worst, vpol - vstar, vstar - N * measure.value - slack)
    elapsed = time.perf_counter() - t0
    ok = bad == 0 and elapsed < 300.0
    _verdict("A2", ok,
             "0 of 100 sandwich violations required, saw %d (worst excess "
             "%.2e), %.1fs < 300s" % (bad, worst, elapsed))


def test_a03_degeneracy_verdicts(bern15, crowd7, assort8):
    t0 = time.perf_counter()
    rep15 = search_nondegenerate(bern15)
    rep20 = search_nondegenerate(bernoulli_bandit(20, 1.0 / 3.0))
    rep7 = search_nondegenerate(crowd7)
    rep8 = search_nondegenerate(assort8)
    elapsed = time.perf_counter() - t0
    ok = rep15.nondegenerate and rep20.nondegenerate
    ok &= not rep7.nondegenerate
    ok &= rep8.nondegenerate and bool((rep8.neutral_counts == 1).all())
    ok &= elapsed < 120.0
    _verdict("A3", ok,
             "bernoulli T=15/T=20 nondeg (%s/%s), crowd T=7 degenerate (%s), "
             "assort T=8 one neutral per period (%s), %.1fs < 120s"
             % (rep15.nondegenerate, rep20.nondegenerate,
                not rep7.nondegenerate, rep8.neutral_counts.tolist(), elapsed))


def test_a04_constant_gap_fluid(bern15_fluid_rows):
    t0 = time.perf_counter()
    rows = bern15_fluid_rows
    gaps = {r.N: r.gap_upper_bound for r in rows}
    cis = {r.N: r.ci for r in rows}
    all_small = all(g <= 2.0 for g in gaps.values())
    combined = math.hypot(cis[300], cis[9600])
    flat = gaps[9600] <= gaps[300] + 3.0 * combined
    elapsed = time.perf_counter() - t0
    ok = all_small and flat and elapsed < 900.0
    _verdict("A4", ok,
             "fluid gaps %s all <= 2.0 (%s), gap(9600)=%.3f <= gap(300)=%.3f"
             " + 3*%.3f (%s)"
             % ({n: round(g, 3) for n, g in gaps.items()}, all_small,
                gaps[9600], gaps[300], combined, flat))


def test_a05_linear_gap_baselines(bern15, bern15_measure, bern15_fluid_rows):
    t0 = time.perf_counter()
    fluid_gap = {r.N: r.gap_upper_bound for r in bern15_fluid_rows}[9600]
    results = {}
    for label, reps_cap, seed in (("ucb:0.5", 100_000, 101),
                                  ("ts", 10_000, 103)):
        rows = gap_sweep(bern15, label, N_SWEEP,
                         reps_per_N=lambda N: min(50 * N, reps_cap), seed=seed)
        gaps = {r.N: r.gap_upper_bound for r in rows}
        per_n_keeps_growing = (gaps[9600] / 9600) >= 0.5 * (gaps[1200] / 1200)
        dominates_fluid = gaps[9600] >= 10.0 * fluid_gap
        results[label] = (per_n_keeps_growing, dominates_fluid, gaps)
    scores = np.tile(ucb_scores(bern15.annotations, 0.5), (bern15.T, 1))
    _, prop_value = fluid_propagate(bern15, scores)
    suboptimal = prop_value < bern15_measure.value - 1e-3
    elapsed = time.perf_counter() - t0
    ok = all(r[0] and r[1] for r in results.values())
    ok &= suboptimal and elapsed < 300.0
    _verdict("A5", ok,
             "ucb gap(9600)=%.1f ts gap(9600)=%.1f vs fluid %.3f (>=10x: "
             "%s/%s), gap/N growth kept (%s/%s), greedy-score fluid value "
             "%.6f < %.6f - 1e-3 (%s), %.0fs < 300s"
             % (results["ucb:0.5"][2][9600], results["ts"][2][9600],
                fluid_gap, results["ucb:0.5"][1], results["ts"][1],
                results["ucb:0.5"][0], results["ts"][0], prop_value,
                bern15_measure.value, suboptimal, elapsed))


def test_a06_sqrt_gap_degenerate(crowd7, crowd7_measure):
    t0 = time.perf_counter()
    pol = CompiledPolicy(crowd7, PolicySpec(kind="fluid",
                                            measure=crowd7_measure))
    rows = gap_sweep(crowd7, pol, [250, 1000, 4000],
                     reps_per_N=lambda N: min(50 * N, 100_000), seed=107)
    gaps = np.array([r.gap_upper_bound for r in rows])
    ns = np.array([r.N for r in rows], dtype=float)
    slope = float(np.polyfit(np.log(ns), np.log(gaps), 1)[0])
    elapsed = time.perf_counter() - t0
    ok = (gaps > 0).all() and slope <= 0.75 and elapsed < 900.0
    _verdict("A6", ok,
             "gaps %s, log-log slope %.3f <= 0.75, %.0fs < 900s"
             % (np.round(gaps, 3).tolist(), slope, elapsed))


def test_a07_violation_decay():
    # alpha = 3/8 puts the smallest active-mass margin near 0.027, so the
    # exponential decay is resolvable on the N grid below; fatter margins
    # (e.g. alpha = 1/3, min margin 0.083) finish decaying before N = 400
    t0 = time.perf_counter()
    model = bernoulli_bandit(5, 0.375)
    measure = solve_relaxation(model)
    assert is_nondegenerate(classify(measure)).nondegenerate
    pol = CompiledPolicy(model, PolicySpec(kind="fluid", measure=measure))
    reports = violation_rate_sweep(model, pol, [400, 1600, 6400],
                                   reps=100_000, seed=29)
    rates = [r.union_violation_rate for r in reports]
    decreasing = rates[0] > rates[1] > rates[2]
    small_tail = rates[2] < 1e-3
    elapsed = time.perf_counter() - t0
    ok = decreasing and small_tail and elapsed < 600.0
    _verdict("A7", ok,
             "union violation rates %s strictly decreasing (%s), tail < 1e-3"
             " (%s), reps=100000, %.0fs < 600s"
             % ([float("%.2e" % r) for r in rates], decreasing, small_tail,
                elapsed))


def test_a08_policy_identity_off_violation():
    t0 = time.perf_counter()
    rng = np.random.default_rng(31)
    states = 0
    compared = 0
    mismatches = 0
    while states < 10_000:
        model = make_random_model(rng)
        measure = solve_relaxation(model)
        part = classify(measure)
        scores = rng.normal(size=(model.T, model.S))
        for _ in range(40):
            t = int(rng.integers(1, model.T + 1))
            N = int(rng.integers(1, 60))
            Z = rng.multinomial(N, rng.dirichlet(np.ones(model.S)))
            states += 1
            cs = CountState(t=t, N=N, Z=Z.astype(np.int64))
            a_t = float(model.alpha[t - 1])
            if violation_event(t, cs, part, a_t):
                continue
            strict = fluid_priority_allocate(t, cs, measure, scores, N,
                                             alpha_t=a_t, partition=part)
            relaxed = budget_relaxed_allocate(t, cs, measure, scores, N,
                                              alpha_t=a_t, partition=part)
            compared += 1
            if not np.array_equal(strict.X, relaxed.X):
                mismatches += 1
    elapsed = time.perf_counter() - t0
    ok = mismatches == 0 and compared > 1000
    _verdict("A8", ok,
             "%d count states, %d off-violation comparisons, %d mismatches "
             "(0 required), %.0fs" % (states, compared, mismatches, elapsed))


def test_a09_engine_cross_validation(single, two):
    t0 = time.perf_counter()
    a = simulate(two, "fluid", N=2, reps=200, seed=9)
    b = simulate_per_arm(two, "fluid", N=2, reps=200, seed=9)
    exact_ok = a.mean_reward == b.mean_reward == 2.0
    c = simulate(single, "fluid", N=10, reps=50, seed=9)
    d = simulate_per_arm(single, "fluid", N=10, reps=50, seed=9)
    exact_ok &= c.mean_reward == d.mean_reward == 10.0

    kinds = ["fluid", "relaxed", "index", "ucb:0.5", "ts", "rac"]
    rng = np.random.default_rng(41)
    worst = 0.0
    agree = 0
    for i in range(20):
        model = make_random_model(rng, annotate=True)
        policy = kinds[i % len(kinds)]
        ra = simulate(model, policy, N=8, reps=100_000, seed=5000 + i)
        rb = simulate_per_arm(model, policy, N=8, reps=100_000, seed=5000 + i)
        se = math.hypot(ra.ci_halfwidth, rb.ci_halfwidth) / 1.959963984540054
        dev = abs(ra.mean_reward - rb.mean_reward) / max(se, 1e-300)
        worst = max(worst, dev)
        if dev <= 3.0:
            agree += 1
    elapsed = time.perf_counter() - t0
    ok = exact_ok and agree == 20 and elapsed < 600.0
    _verdict("A9", ok,
             "deterministic fixtures identical (%s), %d/20 random pairs "
             "within 3 SE (worst %.2f SE), %.0fs < 600s"
             % (exact_ok, agree, worst, elapsed))


def test_a10_strong_duality_models(bern15, bern15_measure, crowd7,
                                   crowd7_measure, assort8, assort8_measure):
    errs = {}
    for name, model, measure in (("bernoulli", bern15, bern15_measure),
                                 ("crowd", crowd7, crowd7_measure),
                                 ("assort", assort8, assort8_measure)):
        lam = lambda_from_duals(measure)
        errs[name] = abs(dual_value(model, lam) - measure.value)
    ok = all(e <= 1e-6 for e in errs.values())
    _verdict("A10", ok,
             "duality residuals %s all <= 1e-6"
             % ({k: "%.2e" % v for k, v in errs.items()}))
