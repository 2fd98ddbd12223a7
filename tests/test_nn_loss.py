"""Tests for the cross-entropy criterion and accuracy helper."""

import numpy as np
import pytest

from repro.nn import CrossEntropyLoss, accuracy, log_softmax


def test_loss_matches_manual_nll():
    rng = np.random.default_rng(0)
    logits = rng.standard_normal((4, 5))
    y = np.array([0, 4, 2, 1])
    loss = CrossEntropyLoss().forward(logits, y)
    lp = log_softmax(logits, axis=1)
    manual = -np.mean([lp[i, y[i]] for i in range(4)])
    assert loss == pytest.approx(manual)


def test_loss_uniform_logits_is_log_k():
    k = 7
    logits = np.zeros((3, k))
    loss = CrossEntropyLoss().forward(logits, np.array([0, 1, 6]))
    assert loss == pytest.approx(np.log(k))


def test_perfect_prediction_loss_near_zero():
    logits = np.array([[100.0, 0.0], [0.0, 100.0]])
    loss = CrossEntropyLoss().forward(logits, np.array([0, 1]))
    assert loss == pytest.approx(0.0, abs=1e-6)


def test_gradient_is_softmax_minus_onehot_over_n():
    rng = np.random.default_rng(1)
    logits = rng.standard_normal((3, 4))
    y = np.array([1, 0, 3])
    crit = CrossEntropyLoss()
    crit.forward(logits, y)
    grad = crit.backward()
    expected = np.exp(log_softmax(logits, axis=1))
    expected[np.arange(3), y] -= 1.0
    expected /= 3
    np.testing.assert_allclose(grad, expected, rtol=1e-12)


def test_gradient_rows_sum_to_zero():
    rng = np.random.default_rng(2)
    logits = rng.standard_normal((5, 9))
    y = rng.integers(0, 9, size=5)
    crit = CrossEntropyLoss()
    crit.forward(logits, y)
    np.testing.assert_allclose(crit.backward().sum(axis=1), 0.0, atol=1e-12)


def test_backward_before_forward_raises():
    with pytest.raises(RuntimeError):
        CrossEntropyLoss().backward()


def test_backward_consumes_cache():
    crit = CrossEntropyLoss()
    crit.forward(np.zeros((1, 2)), np.array([0]))
    crit.backward()
    with pytest.raises(RuntimeError):
        crit.backward()


def test_shape_validation():
    crit = CrossEntropyLoss()
    with pytest.raises(ValueError):
        crit.forward(np.zeros((2, 3, 4)), np.array([0, 1]))
    with pytest.raises(ValueError):
        crit.forward(np.zeros((2, 3)), np.array([0]))
    with pytest.raises(ValueError):
        crit.forward(np.zeros((2, 3)), np.array([0, 3]))


def test_callable_alias():
    crit = CrossEntropyLoss()
    logits = np.zeros((1, 2))
    assert crit(logits, np.array([0])) == pytest.approx(np.log(2))


def test_accuracy_basic():
    logits = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0]])
    assert accuracy(logits, np.array([0, 1, 1])) == pytest.approx(2 / 3)


def test_accuracy_empty_batch():
    assert accuracy(np.zeros((0, 3)), np.array([], dtype=int)) == 0.0
