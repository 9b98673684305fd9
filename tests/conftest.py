"""Shared fixtures: canonical models, cached relaxation solves, random factories.

Expensive artifacts (zoo models and their LP solves) are session-scoped so
the module tests and the acceptance suite pay for each one exactly once.
"""

import numpy as np
import pytest

from fluidbandit import lp, priority
from fluidbandit.lp import solve_relaxation
from fluidbandit.mdp import (ArmModel, BeliefStateAnnotation, model_to_dict, reachable_states,
                             validate_model)
from fluidbandit.zoo import bernoulli_bandit, crowdsourcing, fixtures


@pytest.fixture(scope="session")
def fix():
    return fixtures()


@pytest.fixture(scope="session")
def single(fix):
    return fix["SINGLE"]


@pytest.fixture(scope="session")
def two(fix):
    return fix["TWO"]


@pytest.fixture(scope="session")
def single_measure(single):
    return solve_relaxation(single)


@pytest.fixture(scope="session")
def two_measure(two):
    return solve_relaxation(two)


@pytest.fixture(scope="session")
def bern2():
    return bernoulli_bandit(2, 1.0 / 3.0)


@pytest.fixture(scope="session")
def bern2_measure(bern2):
    return solve_relaxation(bern2)


@pytest.fixture(scope="session")
def bern5():
    return bernoulli_bandit(5, 1.0 / 3.0)


@pytest.fixture(scope="session")
def bern5_measure(bern5):
    return solve_relaxation(bern5)


@pytest.fixture(scope="session")
def crowd3():
    return crowdsourcing(3, 0.25)


@pytest.fixture(scope="session")
def bern15():
    return bernoulli_bandit(15, 1.0 / 3.0)


@pytest.fixture(scope="session")
def bern15_measure(bern15):
    return solve_relaxation(bern15)


@pytest.fixture(scope="session")
def crowd7():
    return crowdsourcing(7, 0.25)


@pytest.fixture(scope="session")
def crowd7_measure(crowd7):
    return solve_relaxation(crowd7)


@pytest.fixture(scope="session")
def assort8():
    import warnings

    from fluidbandit.zoo import assortment

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return assortment(8, 0.25)


@pytest.fixture(scope="session")
def assort8_measure(assort8):
    return solve_relaxation(assort8)


def make_random_model(rng, S=None, T=None, annotate=False):
    """Random valid model: dirichlet kernel rows, rewards in [0,1], s0=0.

    With annotate=True each state carries a Beta posterior annotation so
    the UCB and TS baselines can run on the model.
    """
    S = int(S if S is not None else rng.integers(2, 4))
    T = int(T if T is not None else rng.integers(2, 4))
    P = rng.dirichlet(np.ones(S), size=(T, S, 2))
    R = rng.uniform(0.0, 1.0, size=(T, S, 2))
    alpha = rng.uniform(0.2, 0.9, size=T)
    meta = {"name": "random"}
    if annotate:
        anns = []
        for _ in range(S):
            a = float(rng.uniform(0.5, 3.0))
            b = float(rng.uniform(0.5, 3.0))
            anns.append(BeliefStateAnnotation("beta", (a, b)))
        meta["annotations"] = anns
    model = ArmModel(T=T, states=[f"s{i}" for i in range(S)], s0=0,
                     P=P, R=R, alpha=alpha, metadata=meta)
    validate_model(model)
    return model


@pytest.fixture()
def make_model():
    return make_random_model


def dense_kernel(model):
    """The model's kernel as a dense (T, S, 2, S) array, for checks that index it."""
    return np.stack([K.toarray().reshape(model.S, 2, model.S) for K in model.kernel])


def myopic_basis(model, red):
    """The package's vertex builder at the fluid-priority vertex of the
    myopic scores R[t, :, 1] - R[t, :, 0], for the reduced LP red of model:
    the simplex start before price rounds."""
    scores = model.R[:, :, 1] - model.R[:, :, 0]
    return lp._vertex_basis(model, np.array(reachable_states(model)), red.keep_cols,
                            red.A.shape[0], scores, priority._fluid_pass(model, scores)[2])


def v2_payload(model):
    """The layout model_to_dict wrote before version 3: one CSR triplet and
    one reward slab per period."""
    payload = model_to_dict(model)
    del payload["kernel_of_period"], payload["reward_of_period"]
    payload.update(version=2, R=model.R.tolist(), kernel=[
        {"data": K.data.tolist(), "indices": K.indices.tolist(), "indptr": K.indptr.tolist()}
        for K in model.kernel])
    return payload


def v1_payload(model):
    """The dense layout model_to_dict wrote before version 2 (no version field)."""
    payload = v2_payload(model)
    del payload["version"], payload["kernel"]
    payload["P"] = dense_kernel(model).tolist()
    return payload


ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance verdicts")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
