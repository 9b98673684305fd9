"""Exact joint-count oracle: small-N values, sandwich bound, guard rails."""

import math

import numpy as np
import pytest

import reference_oracle as ref
from conftest import make_random_model, v2_payload
from fluidbandit.errors import (BudgetExceeded, DimensionMismatch, NondeterministicPolicy,
                               RangeError)
from fluidbandit.mdp import ArmModel, model_from_dict, period_budget, validate_model
from fluidbandit.oracle import (bounded_compositions, compositions,
                                exact_policy_value, optimal_value)
from fluidbandit.policies import PolicySpec, fluid_priority_allocate
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


def test_optimal_dp_enumerates_no_pull_vectors(monkeypatch, bern2):
    # a period's (count vector, pull vector) pairs are the cells of its
    # (passive, active) grid, so no pull vector is enumerated one by one
    import fluidbandit.oracle as oracle

    rng = np.random.default_rng(606)
    models = [(bern2, 5), (make_random_model(rng, S=3, T=3), 5),
              (_with_alpha(make_random_model(rng, S=3, T=2), 1.0), 4)]  # B_t = N
    want = [ref.optimal_value(model, N, return_tables=True) for model, N in models]

    def refuse(*args):
        raise AssertionError("bounded_compositions was called")

    monkeypatch.setattr(oracle, "bounded_compositions", refuse)
    for (model, N), (value, tables) in zip(models, want):
        got, got_tables = optimal_value(model, N, return_tables=True)
        assert got == pytest.approx(value, abs=1e-12)
        assert [list(tab) for tab in got_tables] == [list(tab) for tab in tables]


def test_policy_dp_allocates_once_per_period(monkeypatch, bern2):
    # one allocate_batch call per period covers every reachable count vector
    calls = []
    real = CompiledPolicy.allocate_batch

    def counted(self, t, Z, rng):
        calls.append((t, len(Z)))
        return real(self, t, Z, rng)

    monkeypatch.setattr(CompiledPolicy, "allocate_batch", counted)
    model = make_random_model(np.random.default_rng(707), S=3, T=4, annotate=True)
    for m, policy in ((bern2, "fluid"), (model, "relaxed"), (model, "index"),
                      (model, "ucb:0.5")):
        calls.clear()
        exact_policy_value(m, policy, 5)
        assert [t for t, _ in calls] == list(range(1, m.T + 1))
        assert calls[0][1] == 1 and max(rows for _, rows in calls) > 1


def test_callable_policy_equals_its_spec(bern2):
    # a bare callable maps the public one-vector allocator over the rows;
    # the spec goes through one allocate_batch call per period
    pol = CompiledPolicy(bern2, PolicySpec("fluid"))

    def fluid(t, Z):
        return np.array([fluid_priority_allocate(t, z, pol.measure, pol.scores,
                                                 alpha_t=float(bern2.alpha[t - 1]),
                                                 codes=pol.codes) for z in Z])

    for N in (2, 3, 5, 6):
        assert exact_policy_value(bern2, fluid, N) == exact_policy_value(bern2, pol, N)



@pytest.mark.parametrize("edit, error", [("negative", RangeError), ("overdraw", RangeError),
                                         ("shape", DimensionMismatch), ("half", RangeError)])
def test_callable_plan_must_split_the_counts(two, edit, error):
    # a -1 count once sent the group-law peel into an endless loop, a plan
    # pulling more arms than a state holds was valued as if possible, and
    # half an arm is no pull
    def allocate(t, Z):
        rows, s = np.arange(len(Z)), np.argmax(Z, axis=1)
        X1 = np.zeros_like(Z, dtype=float if edit == "half" else None)
        if edit == "negative":
            X1[rows, s] = -1
        elif edit == "overdraw":
            X1[rows, s] = Z[rows, s] + 1
        elif edit == "half":
            X1[rows, s] = 0.5
        else:
            X1 = np.zeros((len(Z), two.S + 1), dtype=np.int64)
        return X1

    with pytest.raises(error):
        exact_policy_value(two, allocate, 2)

def _pull_fewer(model, rows=lambda Z: True):
    """A bare callable that pulls B_t - 1 arms (none when B_t = 0) in the
    rows Z where rows(Z) holds and B_t in the others, highest states first."""
    def allocate(t, Z):
        X1 = np.zeros_like(Z)
        for z, x1 in zip(Z, X1):
            left = max(period_budget(float(model.alpha[t - 1]), int(z.sum())) - bool(rows(z)), 0)
            for s in range(model.S - 1, -1, -1):
                x1[s] = min(left, int(z[s]))
                left -= x1[s]
        return X1
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


def test_exact_policy_value_matches_reference_at_n14():
    # a dense model where one period's rows pull different totals, so their
    # landing vectors of one action have different totals too
    model = make_random_model(np.random.default_rng(1414), S=3, T=4)
    for policy in ("relaxed", _pull_fewer(model, lambda Z: Z[0] % 2)):
        got = exact_policy_value(model, policy, 14)
        assert got == pytest.approx(ref.exact_policy_value(model, policy, 14), abs=1e-12)


def test_work_meter_guard(bern2):
    # the size estimate (90 for bern2 at N=4) passes a guard of 10, so the
    # work meter is what refuses the first call; the policy DP has no estimate
    with pytest.raises(BudgetExceeded, match="enumeration exceeded 10 work units"):
        optimal_value(bern2, 4, guard=10)
    with pytest.raises(BudgetExceeded, match="enumeration exceeded 2 work units"):
        exact_policy_value(bern2, "fluid", 4, guard=2)
    assert optimal_value(bern2, 4) == pytest.approx(ref.optimal_value(bern2, 4), abs=1e-12)


# units of a bare callable that pulls B_t - 1 arms: its laws are requested
# out of level order, from partly memoised chains
FEWER_UNITS = {"bern2": 5, "bern5": 45}


@pytest.mark.parametrize("name, N, optimal_units, fluid_units", [
    ("bern2", 4, 156, 7),
    ("bern5", 6, 3_679_415, 256),
])
def test_work_units_are_pinned(monkeypatch, request, name, N, optimal_units, fluid_units):
    # a refused call is user-visible (exit 12), so a refactor must not move
    # the count, and a model read from a version-2 file, which holds one
    # equal matrix per period, must spend what the generated model spends
    import fluidbandit.oracle as oracle

    spent = []
    real = oracle._Lattice.spend

    def spend(self, units):
        spent.append(units)
        real(self, units)

    monkeypatch.setattr(oracle._Lattice, "spend", spend)
    model = request.getfixturevalue(name)
    for m in (model, model_from_dict(v2_payload(model))):
        spent.clear()
        optimal_value(m, N)
        assert sum(spent) == optimal_units
        spent.clear()
        exact_policy_value(m, "fluid", N)
        assert sum(spent) == fluid_units
        spent.clear()
        exact_policy_value(m, _pull_fewer(m), N)
        assert sum(spent) == FEWER_UNITS[name]


def _laws_match_the_chain(monkeypatch, model, run):
    """Run `run()`, recording every group-law request of each oracle call,
    then replay each call's requests through the per-composition chain of
    the reference: every request must cost the same work units, and each
    call's memo must hold the same keys, rows and probability bits."""
    import fluidbandit.oracle as oracle

    requests = []
    real = oracle._Lattice.laws

    def laws(self, t, a, comps):
        comps, used = list(comps), self.used
        out = real(self, t, a, comps)
        requests.append((self, t, a, comps, self.used - used))
        return out

    monkeypatch.setattr(oracle._Lattice, "laws", laws)
    run()
    chains = {}
    for lattice, t, a, comps, units in requests:
        chain = chains.setdefault(lattice, ref.ChainLaws(model))
        used = chain.used
        for P in comps:
            chain.law(t, a, P)
        assert chain.used - used == units
    assert chains
    for lattice, chain in chains.items():
        assert set(lattice.memo) == set(chain.memo)
        for key, (Y, p) in chain.memo.items():
            cols, q = lattice.memo[key]
            np.testing.assert_array_equal(cols.T, Y)
            assert q.tobytes() == p.tobytes()


def _oracle_calls(model, N, policies):
    def run():
        optimal_value(model, N, return_tables=True)
        for policy in policies:
            exact_policy_value(model, policy, N)
    return run


def test_batched_laws_match_the_chain_on_random_models(monkeypatch):
    rng = np.random.default_rng(1515)
    for _ in range(6):
        model = make_random_model(rng, annotate=True)
        _laws_match_the_chain(monkeypatch, model, _oracle_calls(
            model, int(rng.integers(2, 7)),
            ("fluid", "relaxed", "index", "ucb:0.5", _pull_fewer(model))))


def test_batched_laws_match_the_chain_on_bern5(monkeypatch, bern5):
    _laws_match_the_chain(monkeypatch, bern5, _oracle_calls(bern5, 6, ("fluid",)))
    _laws_match_the_chain(monkeypatch, bern5, lambda: [
        exact_policy_value(bern5, policy, 8) for policy in ("fluid", _pull_fewer(bern5))])


def test_batched_laws_match_the_chain_after_json(monkeypatch, crowd3):
    # every period of a model read from a version-2 file holds its own
    # equal matrix
    model = model_from_dict(v2_payload(crowd3))
    assert model.kernel[0] is not model.kernel[1]
    _laws_match_the_chain(monkeypatch, model, _oracle_calls(
        model, 4, ("fluid", _pull_fewer(model))))


def test_batched_laws_match_the_chain_in_blocks_of_three(monkeypatch):
    # three policies on a model whose periods land many pairs: the sparse
    # product adds each vector's terms in a fixed order, so a repeated call
    # keeps its bits, and the value matches the reference oracle
    model = make_random_model(np.random.default_rng(1616), S=3, T=4, annotate=True)
    policies = ("fluid", "ucb:0.5", _pull_fewer(model))
    want = [exact_policy_value(model, policy, 6) for policy in policies]
    got = []
    _laws_match_the_chain(monkeypatch, model, lambda: got.extend(
        exact_policy_value(model, policy, 6) for policy in policies))
    assert [v.hex() for v in got] == [v.hex() for v in want]
    for policy, v in zip(policies, got):
        assert v == pytest.approx(ref.exact_policy_value(model, policy, 6), abs=1e-12)


def _sparse_model(S, T, seed):
    """Each (state, action) moves to two random states."""
    rng = np.random.default_rng(seed)
    P = np.zeros((T, S, 2, S))
    for t, s, a in np.ndindex(T, S, 2):
        P[t, s, a, rng.choice(S, size=2, replace=False)] = rng.dirichlet(np.ones(2))
    return ArmModel(T=T, states=[f"s{k}" for k in range(S)], s0=0, P=P,
                    R=rng.uniform(0.0, 1.0, size=(T, S, 2)), alpha=np.full(T, 0.4),
                    metadata={})


def test_rank_is_exact_where_a_radix_key_overflows():
    # a mixed-radix key (N + 1) ** S = 4 ** 32 does not fit int64
    import fluidbandit.oracle as oracle

    model = _sparse_model(32, 2, 3232)
    validate_model(model)
    Y = np.array(list(compositions(3, 32)))
    ranks = oracle._Lattice(model, 3, 10 ** 6).rank(Y.T, 3, len(Y))
    assert ranks.tolist() == list(range(len(Y)))
    assert optimal_value(model, 3) == pytest.approx(ref.optimal_value(model, 3), abs=1e-12)
    for policy in ("fluid", _pull_fewer(model)):
        assert exact_policy_value(model, policy, 3) == pytest.approx(
            ref.exact_policy_value(model, policy, 3), abs=1e-12)
    # past int64 altogether: the compositions of 12 into 40 parts square
    # to more than 2 ** 63, so the ranks run on Python ints
    model = _sparse_model(40, 3, 4040)
    scores = PolicySpec("index", scores=np.arange(40, dtype=np.float64))
    assert oracle._Lattice(model, 12, 1).count.dtype == object
    assert exact_policy_value(model, scores, 12) == pytest.approx(
        ref.exact_policy_value(model, scores, 12), abs=1e-12)
