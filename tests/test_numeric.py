import math

import numpy as np
import pytest

from coreglab.numeric import (PROB_FLOOR, AdamState, adam_step, dropout_mask,
                              floored_nll, kl_terms, lr_at, softmax)
from coreglab.trainer import TrainConfig
from oracles import cross_entropy, finite_diff_grad, kl_divergence

# Frozen with a 50-digit decimal oracle.
SOFTMAX_2_0 = (0.8807970779778824, 0.11920292202211756)
LN_2 = 0.6931471805599453
KL_06_04_VS_HALF = 0.02013551355068887
KL_HALF_VS_06_04 = 0.020410997260044231
KL_ONEHOT_VS_HALF = 0.6931471805589453
ADAM_FIRST_DELTA = 0.09999999900000001


def test_softmax_symmetry():
    np.testing.assert_allclose(softmax(np.array([0.0, 0.0])), [0.5, 0.5], atol=1e-15)
    np.testing.assert_allclose(softmax(np.array([1.0, 1.0, 1.0])),
                               [1 / 3, 1 / 3, 1 / 3], atol=1e-15)


def test_softmax_frozen_value():
    np.testing.assert_allclose(softmax(np.array([2.0, 0.0])), SOFTMAX_2_0, rtol=1e-14)


def test_softmax_shift_invariance():
    rng = np.random.default_rng(0)
    for _ in range(50):
        logits = rng.normal(size=rng.integers(2, 8))
        shift = rng.uniform(-50, 50)
        np.testing.assert_allclose(softmax(logits + shift), softmax(logits),
                                   atol=1e-12)


def test_softmax_is_distribution():
    rng = np.random.default_rng(1)
    for _ in range(100):
        probs = softmax(rng.uniform(-30, 30, size=rng.integers(2, 10)))
        assert np.all(probs >= 0) and np.all(probs <= 1)
        assert abs(probs.sum() - 1.0) < 1e-9


def test_softmax_rowwise():
    logits = np.array([[2.0, 0.0], [0.0, 0.0]])
    out = softmax(logits)
    np.testing.assert_allclose(out[0], SOFTMAX_2_0, rtol=1e-14)
    np.testing.assert_allclose(out[1], [0.5, 0.5], atol=1e-15)


def test_softmax_rejects_non_finite():
    with pytest.raises(ValueError, match="non-finite"):
        softmax(np.array([1.0, np.inf]))
    with pytest.raises(ValueError, match="non-finite"):
        softmax(np.array([np.nan, 0.0]))


def test_cross_entropy_perfect_prediction():
    assert cross_entropy(np.array([[1.0, 0.0]]), np.array([0])) == 0.0


def test_cross_entropy_frozen_value():
    assert cross_entropy(np.array([[0.5, 0.5]]), np.array([0])) == pytest.approx(
        LN_2, rel=1e-14)


def test_cross_entropy_batch_of_copies():
    probs = np.array([[0.3, 0.7]])
    single = cross_entropy(probs, np.array([1]))
    repeated = cross_entropy(np.repeat(probs, 5, axis=0), np.array([1] * 5))
    assert repeated == pytest.approx(single, rel=1e-14)


def test_cross_entropy_nonnegative_and_floor():
    rng = np.random.default_rng(2)
    for _ in range(100):
        probs = softmax(rng.normal(size=(4, 3)))
        labels = rng.integers(0, 3, size=4)
        assert cross_entropy(probs, labels) >= 0.0
    # confident wrong prediction stays finite through the probability floor
    loss = cross_entropy(np.array([[1.0, 0.0]]), np.array([1]))
    assert math.isfinite(loss) and loss == pytest.approx(-math.log(1e-12))


def test_cross_entropy_errors():
    with pytest.raises(ValueError):
        cross_entropy(np.empty((0, 2)), np.empty(0, dtype=int))
    with pytest.raises(ValueError):
        cross_entropy(np.array([[0.5, 0.5]]), np.array([2]))
    with pytest.raises(ValueError):
        cross_entropy(np.array([[0.5, 0.5]]), np.array([-1]))
    with pytest.raises(ValueError):
        cross_entropy(np.array([[0.5, 0.5]]), np.array([0, 1]))


def test_floored_nll_per_model_rows_in_c_order():
    rng = np.random.default_rng(4)
    probs = softmax(rng.normal(size=(3, 6, 4)))
    labels = rng.integers(0, 4, size=6)
    probs[1, 2] = np.eye(4)[(labels[2] + 1) % 4]  # labeled class at 0: floored
    got = floored_nll(probs, labels)
    assert got.shape == (3, 6) and got.flags.c_contiguous
    for k in range(3):
        picked = np.maximum(probs[k][np.arange(6), labels], PROB_FLOOR)
        assert got[k].tobytes() == (-np.log(picked)).tobytes()
    assert got[1, 2] == -math.log(PROB_FLOOR)
    assert floored_nll(probs[0], labels).tobytes() == got[0].tobytes()


def test_kl_terms_broadcast_and_sum_to_kl():
    rng = np.random.default_rng(5)
    q = softmax(rng.normal(size=(5, 3)))
    p = softmax(rng.normal(size=(2, 5, 3)))
    terms = kl_terms(q[None, :, :], p, 1e-12)
    assert terms.shape == (2, 5, 3)
    for k in range(2):
        for i in range(5):
            assert np.sum(terms[k, i]) == pytest.approx(
                kl_divergence(q[i], p[k, i], 1e-12), rel=1e-14)


def test_kl_zero_when_equal():
    assert kl_divergence(np.array([0.3, 0.7]), np.array([0.3, 0.7]), 1e-12) == 0.0


def test_kl_frozen_values():
    assert kl_divergence(np.array([0.6, 0.4]), np.array([0.5, 0.5]),
                         1e-12) == pytest.approx(KL_06_04_VS_HALF, rel=1e-12)
    assert kl_divergence(np.array([0.5, 0.5]), np.array([0.6, 0.4]),
                         1e-12) == pytest.approx(KL_HALF_VS_06_04, rel=1e-12)
    assert kl_divergence(np.array([1.0, 0.0]), np.array([0.5, 0.5]),
                         1e-12) == pytest.approx(KL_ONEHOT_VS_HALF, rel=1e-12)


def test_kl_smoothed_lower_bound():
    rng = np.random.default_rng(3)
    eps = 1e-12
    for _ in range(300):
        c = rng.integers(2, 8)
        q = softmax(rng.normal(size=c) * 5)
        p = softmax(rng.normal(size=c) * 5)
        assert kl_divergence(q, p, eps) >= -10 * eps


def test_kl_errors():
    with pytest.raises(ValueError):
        kl_divergence(np.array([0.5, 0.5]), np.array([1.0]), 1e-12)
    with pytest.raises(ValueError):
        kl_divergence(np.array([0.5, 0.5]), np.array([0.5, 0.5]), 0.0)
    with pytest.raises(ValueError):
        kl_divergence(np.array([0.5, 0.5]), np.array([0.5, 0.5]), -1e-9)


def test_lr_schedule_endpoints():
    assert lr_at(3e-5, 100, 0) == 3e-5
    assert lr_at(3e-5, 100, 100) == 0.0
    assert lr_at(3e-5, 100, 50) == pytest.approx(1.5e-5, rel=1e-14)


def test_lr_schedule_monotone():
    values = [lr_at(0.1, 37, t) for t in range(38)]
    assert all(a >= b for a, b in zip(values, values[1:]))
    assert values[-1] == 0.0


def test_lr_schedule_errors():
    # A non-positive base rate is a training-config error, caught before the
    # first step.
    with pytest.raises(ValueError, match="base_lr"):
        TrainConfig(base_lr=0.0).validate()
    with pytest.raises(ValueError):
        lr_at(0.1, 0, 0)
    with pytest.raises(ValueError):
        lr_at(0.1, 10, 11)
    with pytest.raises(ValueError):
        lr_at(0.1, 10, -1)


def test_adam_zero_gradient_is_noop():
    state = AdamState.fresh(3)
    params = np.array([1.0, -2.0, 0.5])
    adam_step(params, np.zeros(3), state, 0.1)
    np.testing.assert_array_equal(params, [1.0, -2.0, 0.5])
    assert state.step == 1


def test_adam_single_step_frozen_value():
    params = np.array([0.0])
    state = AdamState.fresh(1)
    adam_step(params, np.array([1.0]), state, 0.1)
    assert params[0] == pytest.approx(-ADAM_FIRST_DELTA, rel=1e-14)
    assert state.step == 1


def test_adam_zero_lr_still_advances_state():
    params = np.array([1.0])
    state = AdamState.fresh(1)
    adam_step(params, np.array([2.0]), state, 0.0)
    np.testing.assert_array_equal(params, [1.0])
    assert state.step == 1
    assert state.first_moment[0] != 0.0


def test_adam_deterministic():
    grads = np.array([0.1, 0.2])
    runs = []
    for _ in range(2):
        params, state = np.array([0.3, -0.7]), AdamState.fresh(2)
        adam_step(params, grads, state, 0.01)
        runs.append((params.tobytes(), state.first_moment.tobytes(),
                     state.second_moment.tobytes()))
    assert runs[0] == runs[1]


def test_adam_shape_mismatch():
    with pytest.raises(ValueError):
        adam_step(np.zeros(2), np.zeros(3), AdamState.fresh(2), 0.1)
    with pytest.raises(ValueError):
        adam_step(np.zeros(3), np.zeros(3), AdamState.fresh(2), 0.1)


def test_dropout_mask_rate_zero():
    rng = np.random.default_rng(0)
    np.testing.assert_array_equal(dropout_mask(16, 0.0, rng), np.ones(16))


def test_dropout_mask_deterministic():
    m1 = dropout_mask(64, 0.3, np.random.default_rng(7))
    m2 = dropout_mask(64, 0.3, np.random.default_rng(7))
    assert m1.tobytes() == m2.tobytes()


def test_dropout_mask_statistics():
    mask = dropout_mask(100_000, 0.1, np.random.default_rng(11))
    zero_fraction = np.mean(mask == 0.0)
    assert abs(zero_fraction - 0.1) < 0.01
    kept = mask[mask != 0.0]
    np.testing.assert_allclose(kept, 1.0 / 0.9, rtol=1e-12)


def test_dropout_mask_rejects_bad_rate():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        dropout_mask(4, 1.0, rng)
    with pytest.raises(ValueError):
        dropout_mask(4, -0.1, rng)


def test_finite_diff_quadratic():
    grad = finite_diff_grad(lambda x: float(x[0] ** 2), np.array([3.0]), h=1e-4)
    assert grad[0] == pytest.approx(6.0, abs=1e-6)


def test_finite_diff_sum_of_squares():
    grad = finite_diff_grad(lambda x: float(np.sum(x ** 2)), np.array([1.0, 2.0]),
                            h=1e-4)
    np.testing.assert_allclose(grad, [2.0, 4.0], atol=1e-6)


def test_finite_diff_constant():
    grad = finite_diff_grad(lambda x: 1.5, np.array([0.1, 0.2, 0.3]))
    np.testing.assert_array_equal(grad, np.zeros(3))


def test_finite_diff_errors():
    with pytest.raises(ValueError):
        finite_diff_grad(lambda x: 0.0, np.array([1.0]), h=0.0)
    with pytest.raises(ValueError):
        finite_diff_grad(lambda x: float("nan"), np.array([1.0]))
