"""Model container: validation, budgets, reachability, serialization."""

import json
import warnings

import numpy as np
import pytest

from conftest import dense_kernel, make_random_model, v1_payload, v2_payload
from fluidbandit.errors import (DimensionMismatch, RangeError, RowSumError,
                                ShapeError)
from fluidbandit.lp import build_lp
from fluidbandit.mdp import (ArmModel, model_from_dict, model_to_dict, model_to_json,
                             period_budget, reachable_states, successors,
                             validate_model)
from fluidbandit.oracle import _Lattice
from fluidbandit.policies import parse_policy
from fluidbandit.simulator import CompiledPolicy
from fluidbandit.zoo import assortment


def _copy(model, P=None):
    """A fresh copy of model; with P, its kernel is built from that dense array."""
    return ArmModel(T=model.T, states=list(model.states), s0=model.s0,
                    kernel=model.kernel if P is None else None, P=P, R=model.R.copy(),
                    alpha=model.alpha.copy(), metadata=dict(model.metadata))


def _same_kernel(a, b):
    assert len(a.kernel) == len(b.kernel)
    for Ka, Kb in zip(a.kernel, b.kernel):
        for part in ("data", "indices", "indptr"):
            np.testing.assert_array_equal(getattr(Ka, part), getattr(Kb, part))


def test_fixtures_validate(single, two, bern2):
    for m in (single, two, bern2):
        validate_model(m)


def test_row_sum_error(two):
    P = dense_kernel(two)
    P[0, 0, 1, 0] = 0.7
    with pytest.raises(RowSumError) as exc:
        validate_model(_copy(two, P))
    assert "0.7" in str(exc.value)


def test_shared_bad_matrix_is_named_by_its_first_period(bern5):
    # validate_model checks a matrix shared by periods once; its error
    # still names the first period that uses it
    K = bern5.kernel[0]
    short = K.copy()
    short.data[0] *= 0.5
    stray = K.copy()
    stray.indices[-1] = bern5.S
    for bad, error, where in ((short, RowSumError, r"t=3,"), (stray, RangeError, "period 3 ")):
        m = ArmModel(T=bern5.T, states=bern5.states, s0=bern5.s0, kernel=[K, K, bad, K, bad],
                     R=bern5.R, alpha=bern5.alpha)
        with pytest.raises(error, match=where):
            validate_model(m)


def test_range_errors(two):
    m = _copy(two)
    m.alpha[0] = 1.5
    with pytest.raises(RangeError):
        validate_model(m)

    m = _copy(two)
    m.s0 = 5
    with pytest.raises(RangeError):
        validate_model(m)

    P = dense_kernel(two)
    P[0, 0, 0, :] = [1.2, -0.2]
    with pytest.raises(RangeError):
        validate_model(_copy(two, P))

    m = _copy(two)
    m.R[1, 0, 1] = np.inf
    with pytest.raises(RangeError):
        validate_model(m)


def test_shape_errors(two):
    m = _copy(two)
    m.states = []
    with pytest.raises(ShapeError):
        validate_model(m)

    with pytest.raises(ShapeError):
        validate_model(_copy(two, dense_kernel(two)[:, :, :1, :]))

    with pytest.raises((ShapeError, DimensionMismatch)):
        validate_model(_copy(two, dense_kernel(two)[:1]))

    # each copy is otherwise valid, so only the named check can refuse it
    csc, short_R, short_alpha = _copy(two), _copy(two), _copy(two)
    csc.kernel[1] = csc.kernel[1].tocsc()
    short_R.R = short_R.R[:, :, :1]
    short_alpha.alpha = short_alpha.alpha[:-1]
    for m, message in ((csc, "kernel must be 2 CSR"), (short_R, "reward shape"),
                       (short_alpha, "alpha shape")):
        with pytest.raises(ShapeError, match=message):
            validate_model(m)


def test_unsorted_kernel_row_in_a_file_is_refused():
    model = make_random_model(np.random.default_rng(38), S=3, T=2)
    payload = json.loads(model_to_json(model))
    K = payload["kernel"][payload["kernel_of_period"][0]]
    row = slice(K["indptr"][0], K["indptr"][1])
    assert len(K["indices"][row]) == 3  # a dense row: reversed, its targets descend
    K["indices"][row], K["data"][row] = K["indices"][row][::-1], K["data"][row][::-1]
    with pytest.raises(ShapeError, match="kernel period 1 rows need ascending, distinct"):
        model_from_dict(payload)


def test_arm_model_takes_exactly_one_kernel_form(two):
    common = dict(T=two.T, states=list(two.states), s0=two.s0, R=two.R, alpha=two.alpha)
    for forms in ({}, {"kernel": two.kernel, "P": dense_kernel(two)}):
        with pytest.raises(TypeError, match="exactly one of kernel= and P="):
            ArmModel(**common, **forms)


def test_non_finite_alpha_is_a_range_error(two):
    # NaN fails both range comparisons, so a NaN alpha once passed
    m = _copy(two)
    m.alpha[0] = np.nan
    with pytest.raises(RangeError, match="alpha"):
        validate_model(m)
    payload = model_to_dict(two)
    payload["alpha"][1] = float("nan")
    with pytest.raises(RangeError, match="alpha"):
        model_from_dict(json.loads(json.dumps(payload)))


@pytest.mark.parametrize("edit, error", [
    (lambda anns: anns.pop(), DimensionMismatch),
    (lambda anns: anns[0].update(posterior_mean=float("nan")), RangeError),
    (lambda anns: anns[1].update(posterior_sd=-0.1), RangeError),
    (lambda anns: anns[1].update(posterior_sd=float("inf")), RangeError),
    (lambda anns: anns[2].update(params=[-1.0, 2.0]), RangeError),
    (lambda anns: anns[2].update(params=[1.0, float("nan")]), RangeError),
], ids=["one-short", "nan-mean", "negative-sd", "infinite-sd", "negative-param",
        "nan-param"])
def test_bad_annotations_are_refused_on_load(bern2, edit, error):
    # each once loaded: TS then raised a raw IndexError (one short) or
    # ValueError (per-arm Beta draws), or UCB ran on a NaN score
    payload = json.loads(json.dumps(model_to_dict(bern2)))
    edit(payload["metadata"]["annotations"])
    with pytest.raises(error, match="annotation"):
        model_from_dict(payload)


def test_period_budget_exact_fractions():
    assert period_budget(0.5, 4) == 2
    assert period_budget(0.25, 3) == 0
    # 1/3 stored in binary is slightly below the rational; the floor must
    # still hit the denoted integer
    assert period_budget(1.0 / 3.0, 3) == 1
    assert period_budget(1.0 / 3.0, 9600) == 3200
    assert period_budget(0.3333, 300) == 99


def test_period_budget_does_not_cross_a_genuine_integer():
    # alpha * N just below an integer: a slack relative to alpha * N once
    # rounded each of these up
    assert period_budget(0.123457, 58814) == 7260  # 7260.999998
    assert period_budget(0.61803, 53533) == 33084  # 33084.99999
    assert period_budget(1.0 / 3.0, 3 * 10**9 + 1) == 10**9
    assert period_budget(1.0 / 3.0, 10**10) == 3_333_333_333


def test_budget_monotone_in_n():
    prev = 0
    for n in range(1, 200):
        b = period_budget(1.0 / 3.0, n)
        assert b in (prev, prev + 1)
        assert 0 <= b <= n
        prev = b


def test_reachable_states(single, two):
    masks = reachable_states(two)
    assert masks[0].tolist() == [True, False]
    assert masks[1].tolist() == [True, True]
    masks = reachable_states(single)
    assert all(m.all() for m in masks)


def test_successors_are_the_positive_kernel(fix, bern5, crowd7):
    rng = np.random.default_rng(34)
    models = list(fix.values()) + [bern5, crowd7]
    models += [make_random_model(rng) for _ in range(10)]
    for model in models:
        kernels = successors(model)
        assert len(kernels) == model.T - 1
        for t, K in enumerate(kernels):
            assert K is model.kernel[t]
            assert K.shape == (2 * model.S, model.S)
            assert K.has_sorted_indices
            assert (K.data > 0.0).all()
    # a dense kernel with zero entries keeps exactly its positive ones
    for _ in range(10):
        P = rng.dirichlet(np.ones(4), size=(3, 4, 2))
        P[P < 0.1] = 0.0
        P /= P.sum(axis=3, keepdims=True)
        model = ArmModel(T=3, states=list(range(4)), s0=0, P=P,
                         R=np.zeros((3, 4, 2)), alpha=np.full(3, 0.5))
        validate_model(model)
        for t, K in enumerate(successors(model)):
            assert K.has_sorted_indices
            np.testing.assert_array_equal(K.toarray(), P[t].reshape(8, 4))


def test_negative_dust_is_no_successor():
    """A kernel entry of -5e-10 passes validation yet is a successor nowhere:
    not in the LP's flow rows, the count engine or the exact oracle."""
    base = make_random_model(np.random.default_rng(35), S=3, T=3)
    P = dense_kernel(base)
    P[0, 1, 0] = [0.6 + 5e-10, 0.4, -5e-10]
    model = _copy(base, P)
    validate_model(model)
    # flow row of (t=2, s=2) must not see x_1(1, 0)
    inst = build_lp(model)
    row = (2 - 2) * model.S + 2  # flow rows come first: (t, s) at (t-2)S + s
    col = ((1 - 1) * model.S + 1) * 2 + 0  # (t, s, a) at ((t-1)S + s)2 + a
    assert inst.A[row, col] == 0.0
    pol = CompiledPolicy(model, parse_policy("fluid"))
    assert pol._support[0][2 * 1 + 0].indices.tolist() == [0, 1]
    # where three idle arms of state 1 land in period 1
    Y, p, _ = _Lattice(model, 3, 10 ** 6).laws(1, 0, [(0, 3, 0)])
    assert (p > 0).all() and (Y[2] == 0).all()


def test_json_round_trip(bern2):
    payload = json.dumps(model_to_dict(bern2))
    back = model_from_dict(json.loads(payload))
    validate_model(back)
    assert back.T == bern2.T
    assert back.states == bern2.states
    assert back.s0 == bern2.s0
    _same_kernel(back, bern2)
    np.testing.assert_array_equal(back.R, bern2.R)
    np.testing.assert_array_equal(back.alpha, bern2.alpha)


def _annotations(model):
    return [(a.posterior_mean, a.posterior_sd, a.family, a.params,
             a.sampler(np.random.default_rng(4), 3).tolist())
            for a in model.annotations or ()]


def test_json_v1_dense_payload_loads_to_same_model(bern5, crowd3):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assort = assortment(3, 0.25, m_cap=15, x_cap=12)
    for model in (bern5, crowd3, assort):
        back = model_from_dict(json.loads(json.dumps(v1_payload(model))))
        _same_kernel(back, model)
        np.testing.assert_array_equal(back.R, model.R)
        np.testing.assert_array_equal(back.alpha, model.alpha)
        assert back.states == model.states and back.s0 == model.s0
        assert _annotations(back) == _annotations(model)


def test_json_v3_round_trip_is_exact(bern5, crowd3):
    rng = np.random.default_rng(36)
    for model in (bern5, crowd3, make_random_model(rng, annotate=True)):
        payload = json.loads(model_to_json(model))
        assert payload["version"] == 3 and "P" not in payload
        back = model_from_dict(payload)
        _same_kernel(back, model)
        np.testing.assert_array_equal(back.R, model.R)
        assert _annotations(back) == _annotations(model)
        assert model_to_json(back) == model_to_json(model)


def test_json_v2_round_trip_is_exact(bern5, crowd3):
    # a version-2 file loads to the same model, and re-saved it is the
    # version-3 file written from that model, byte for byte: equal period
    # data share an entry however the model was built
    rng = np.random.default_rng(36)
    for model in (bern5, crowd3, make_random_model(rng, annotate=True)):
        back = model_from_dict(json.loads(json.dumps(v2_payload(model))))
        _same_kernel(back, model)
        np.testing.assert_array_equal(back.R, model.R)
        np.testing.assert_array_equal(back.alpha, model.alpha)
        assert back.states == model.states and back.s0 == model.s0
        assert _annotations(back) == _annotations(model)
        assert model_to_json(back) == model_to_json(model)


def test_json_v3_stores_shared_period_data_once(bern5, assort8):
    # every zoo generator shares one kernel matrix and one reward slab
    # across its periods; the file stores each once, and the loaded model
    # shares one matrix object again
    for model in (bern5, assort8):
        payload = json.loads(model_to_json(model))
        assert len(payload["kernel"]) == len(payload["R"]) == 1
        assert payload["kernel_of_period"] == payload["reward_of_period"] == [0] * model.T
        back = model_from_dict(payload)
        assert back.kernel[0] is back.kernel[-1]
        _same_kernel(back, model)
        np.testing.assert_array_equal(back.R, model.R)


def test_json_v3_keeps_negative_zero_apart():
    # equal period data means equal bytes: a reward slab holding -0.0
    # is its own entry, so the loaded rewards keep their sign bits
    model = make_random_model(np.random.default_rng(5), S=3, T=3)
    model.R[:] = model.R[0]
    model.R[:, 0, 0] = [0.0, 0.0, -0.0]
    payload = json.loads(model_to_json(model))
    assert payload["reward_of_period"] == [0, 0, 1]
    back = model_from_dict(payload)
    assert np.signbit(back.R).tolist() == np.signbit(model.R).tolist()


def test_json_round_trip_rebuilds_samplers(bern2):
    back = model_from_dict(json.loads(json.dumps(model_to_dict(bern2))))
    anns = back.annotations
    assert anns is not None and len(anns) == bern2.S
    rng = np.random.default_rng(0)
    draws = anns[0].sampler(rng, 2000)
    assert draws.shape == (2000,)
    assert np.isfinite(draws).all()
    assert abs(float(draws.mean()) - anns[0].posterior_mean) < 5 * anns[0].posterior_sd / np.sqrt(2000)
