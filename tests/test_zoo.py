"""Model generators: closed-form entries, kernel laws, annotations."""

import json
import warnings
from dataclasses import replace

import numpy as np
import pytest

from conftest import dense_kernel
from fluidbandit.errors import ConfigError, RangeError
from fluidbandit.mdp import (BeliefStateAnnotation, model_from_dict, model_to_dict,
                             period_budget, validate_model)
from fluidbandit.zoo import assortment, bernoulli_bandit, crowdsourcing, fixtures


def test_fixture_shapes(single, two):
    assert single.T == 2 and single.S == 1
    assert two.T == 2 and two.S == 2
    assert two.states[two.s0] == "G"
    np.testing.assert_allclose(single.alpha, 0.5)
    np.testing.assert_allclose(two.alpha, 0.5)
    validate_model(single)
    validate_model(two)


def test_bernoulli_structure(bern2):
    assert bern2.states == [(0, 0), (1, 0), (1, 1)]
    idx = bern2.state_index
    assert bern2.R[0, idx((0, 0)), 1] == pytest.approx(0.5, abs=0)
    assert bern2.R[0, idx((1, 1)), 1] == pytest.approx(2.0 / 3.0, abs=1e-15)
    P = dense_kernel(bern2)
    assert P[0, idx((0, 0)), 1, idx((1, 1))] == pytest.approx(0.5, abs=0)
    assert P[0, idx((0, 0)), 1, idx((1, 0))] == pytest.approx(0.5, abs=0)
    # idle self-loops
    assert P[0, idx((0, 0)), 0, idx((0, 0))] == 1.0
    validate_model(bern2)


def test_bernoulli_state_count(bern15):
    assert bern15.S == 15 * 16 // 2
    validate_model(bern15)


def test_bernoulli_martingale(bern15):
    means = np.array([a.posterior_mean for a in bern15.annotations])
    P = dense_kernel(bern15)
    for t in range(bern15.T):
        pulled_mean = P[t, :, 1, :] @ means
        np.testing.assert_allclose(pulled_mean, means, atol=1e-12)


def test_bernoulli_samplers(bern2):
    rng = np.random.default_rng(8)
    for ann in bern2.annotations:
        draws = ann.sampler(rng, 100_000)
        se = ann.posterior_sd / np.sqrt(100_000)
        assert abs(float(draws.mean()) - ann.posterior_mean) <= 5 * se


def test_annotation_samplers_follow_family_and_params(bern2):
    # each draw is the family's own generator call on the stored params
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assort = assortment(2, 0.25, m_cap=6, x_cap=4)
    for ann in bern2.annotations + assort.annotations[:6]:
        a, b = ann.params
        rng = np.random.default_rng(3)
        expect = rng.beta(a, b, 7) if ann.family == "beta" else rng.gamma(a, 1.0 / b, 7)
        np.testing.assert_array_equal(ann.sampler(np.random.default_rng(3), 7), expect)
    # the sampler stays a plain attribute that a tracer may wrap
    ann.sampler = len
    assert ann.sampler is len


def test_crowdsourcing_entries(crowd3):
    idx = crowd3.state_index
    T = crowd3.T
    # no data: either class equally likely
    assert crowd3.R[T - 1, idx((0, 0)), 0] == pytest.approx(0.5, abs=1e-12)
    # one vote for class 1
    assert crowd3.R[T - 1, idx((1, 0)), 0] == pytest.approx(0.75, abs=1e-12)
    acc_idle = crowd3.R[T - 1, :, 0]
    assert (acc_idle >= 0.5 - 1e-12).all() and (acc_idle <= 1.0 + 1e-12).all()
    assert (crowd3.R[: T - 1] == 0.0).all()
    validate_model(crowd3)


def test_crowdsourcing_kernel_rows(crowd3):
    P = dense_kernel(crowd3)
    sums = P.sum(axis=3)
    np.testing.assert_allclose(sums, 1.0, atol=1e-9)
    # pull from (0,0) is an even coin on the first label by symmetry
    idx = crowd3.state_index
    assert P[0, idx((0, 0)), 1, idx((1, 0))] == pytest.approx(0.5, abs=1e-12)
    assert P[0, idx((0, 0)), 1, idx((0, 1))] == pytest.approx(0.5, abs=1e-12)


def test_crowdsourcing_has_no_annotations(crowd3):
    assert crowd3.annotations is None


def test_assortment_entries():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        model = assortment(3, 0.25, m_cap=15, x_cap=12)
    idx = model.state_index
    assert model.R[0, idx((1, 0)), 1] == pytest.approx(10.0, abs=1e-9)
    # first-display demand is negative binomial with the Gamma(1, 0.1) prior
    p0 = 0.1 / 1.1
    P = dense_kernel(model)
    row = P[0, idx((1, 0)), 1]
    assert row[idx((1, 1))] == pytest.approx(p0, abs=1e-12)
    sums = P.sum(axis=3)
    np.testing.assert_allclose(sums, 1.0, atol=1e-12)
    validate_model(model)


def test_assortment_truncation_monitor():
    with pytest.warns(UserWarning):
        model = assortment(4, 0.25, m_cap=10, x_cap=5)
    assert model.metadata["truncation_mass"] >= 1e-4


def test_assortment_default_caps_mass(assort8):
    mass = assort8.metadata["truncation_mass"]
    assert 0.3 <= mass <= 0.7
    validate_model(assort8)
    assert assort8.S == 120 * 9


def test_assortment_annotations(assort8):
    ann = assort8.annotations
    assert len(ann) == assort8.S
    a0 = ann[assort8.state_index((1, 0))]
    assert a0.posterior_mean == pytest.approx(10.0, abs=1e-9)
    rng = np.random.default_rng(9)
    draws = a0.sampler(rng, 50_000)
    se = a0.posterior_sd / np.sqrt(50_000)
    assert abs(float(draws.mean()) - a0.posterior_mean) <= 5 * se


def test_zoo_round_trips(bern2, crowd3):
    for model in (bern2, crowd3):
        back = model_from_dict(json.loads(json.dumps(model_to_dict(model))))
        validate_model(back)
        np.testing.assert_array_equal(dense_kernel(back), dense_kernel(model))
        np.testing.assert_array_equal(back.R, model.R)
        assert back.states == model.states


def test_fixture_values_documented(single, two):
    fx = fixtures()
    assert set(fx) == {"SINGLE", "TWO"}
    np.testing.assert_array_equal(dense_kernel(fx["TWO"]), dense_kernel(two))
    np.testing.assert_array_equal(fx["SINGLE"].R, single.R)


@pytest.mark.parametrize("build, error, match", [
    (lambda: period_budget(0.5, 0), RangeError, "N must"),
    (lambda: bernoulli_bandit(0, 0.3), RangeError, "T must"),
    (lambda: crowdsourcing(0, 0.3), RangeError, "T must"),
    (lambda: assortment(0, 0.3), RangeError, "T must"),
    (lambda: assortment(2, 0.3, m_cap=0), RangeError, "caps"),
    (lambda: model_from_dict({**model_to_dict(fixtures()["TWO"]), "version": 4}),
     ConfigError, "version"),
    (lambda: BeliefStateAnnotation(0.5, 0.1, "normal", (0.5, 0.1)), RangeError, "family"),
    # T and s0 once went through int(): T 2.9 loaded as 2, s0 0.7 as 0, true as 1
    (lambda: model_from_dict({**model_to_dict(fixtures()["TWO"]), "T": 2.9}), RangeError,
     "T must"),
    (lambda: model_from_dict({**model_to_dict(fixtures()["TWO"]), "T": True}), RangeError,
     "T must"),
    (lambda: model_from_dict({**model_to_dict(fixtures()["TWO"]), "s0": 0.7}), RangeError,
     "s0 must"),
    (lambda: model_from_dict({**model_to_dict(fixtures()["TWO"]), "s0": True}), RangeError,
     "s0 must"),
    (lambda: validate_model(replace(fixtures()["TWO"], T=True)), RangeError, "T must"),
    (lambda: validate_model(replace(fixtures()["TWO"], s0=0.0)), RangeError, "s0 must"),
], ids=["budget-at-no-arm", "bernoulli-T0", "crowd-T0", "assort-T0", "assort-m-cap-0",
        "json-version-4", "normal-family", "json-T-float", "json-T-bool", "json-s0-float",
        "json-s0-bool", "model-T-bool", "model-s0-float"])
def test_model_building_refusals(build, error, match):
    with pytest.raises(error, match=match):
        build()
