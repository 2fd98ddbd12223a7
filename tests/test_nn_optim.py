"""Tests for the optimiser module."""

import numpy as np
import pytest

from repro.nn import (
    Linear,
    MomentumSGD,
    SGD,
    Sequential,
    Tanh,
    flatten_module,
)


def make_flat(seed=0):
    rng = np.random.default_rng(seed)
    net = Sequential(Linear(4, 6, dtype=np.float64, rng=rng), Tanh(), Linear(6, 2, dtype=np.float64, rng=rng))
    return net, flatten_module(net)


def quadratic_step(flat, target):
    flat.grad[...] = flat.data - target


# -- SGD -----------------------------------------------------------------------


def test_sgd_validation():
    _, flat = make_flat()
    with pytest.raises(ValueError):
        SGD(flat, lr=0.0)
    with pytest.raises(ValueError):
        SGD(flat, lr=0.1, weight_decay=-1.0)


def test_sgd_step_rule():
    _, flat = make_flat()
    x0 = flat.copy_data()
    flat.grad[...] = 2.0
    SGD(flat, lr=0.25).step()
    np.testing.assert_allclose(flat.data, x0 - 0.5)


def test_sgd_weight_decay():
    _, flat = make_flat()
    x0 = flat.copy_data()
    flat.grad[...] = 0.0
    SGD(flat, lr=0.1, weight_decay=0.5).step()
    np.testing.assert_allclose(flat.data, x0 * (1 - 0.05))


def test_sgd_converges_on_quadratic():
    _, flat = make_flat()
    target = np.ones_like(flat.data)
    opt = SGD(flat, lr=0.3)
    for _ in range(100):
        quadratic_step(flat, target)
        opt.step()
    np.testing.assert_allclose(flat.data, target, atol=1e-8)
    assert opt.steps == 100


def test_sgd_zero_grad():
    _, flat = make_flat()
    flat.grad[...] = 3.0
    SGD(flat, lr=0.1).zero_grad()
    assert np.all(flat.grad == 0)


# -- MomentumSGD --------------------------------------------------------------


def test_momentum_validation():
    _, flat = make_flat()
    with pytest.raises(ValueError):
        MomentumSGD(flat, lr=0.1, momentum=1.0)


def test_momentum_zero_equals_sgd():
    _, flat_a = make_flat(seed=1)
    _, flat_b = make_flat(seed=1)
    target = np.zeros_like(flat_a.data)
    opt_a = SGD(flat_a, lr=0.1)
    opt_b = MomentumSGD(flat_b, lr=0.1, momentum=0.0)
    for _ in range(5):
        quadratic_step(flat_a, target)
        opt_a.step()
        quadratic_step(flat_b, target)
        opt_b.step()
    np.testing.assert_allclose(flat_a.data, flat_b.data, rtol=1e-12)


def test_momentum_accumulates_velocity():
    _, flat = make_flat()
    opt = MomentumSGD(flat, lr=0.1, momentum=0.9)
    flat.grad[...] = 1.0
    opt.step()
    v1 = opt.velocity.copy()
    flat.grad[...] = 1.0
    opt.step()
    np.testing.assert_allclose(opt.velocity, 0.9 * v1 - 0.1)


def test_momentum_faster_than_sgd_on_illconditioned():
    """Momentum reaches a tighter solution in equal steps on a quadratic."""
    _, flat_a = make_flat(seed=2)
    _, flat_b = make_flat(seed=2)
    scales = np.linspace(0.05, 1.0, flat_a.size)
    target = np.zeros_like(flat_a.data)

    def grad_of(flat):
        flat.grad[...] = scales * (flat.data - target)

    opt_a = SGD(flat_a, lr=0.5)
    opt_b = MomentumSGD(flat_b, lr=0.5, momentum=0.8)
    for _ in range(60):
        grad_of(flat_a)
        opt_a.step()
        grad_of(flat_b)
        opt_b.step()
    assert np.linalg.norm(flat_b.data) < np.linalg.norm(flat_a.data)


def test_nesterov_variant_runs():
    _, flat = make_flat()
    opt = MomentumSGD(flat, lr=0.1, momentum=0.9, nesterov=True)
    target = np.zeros_like(flat.data)
    for _ in range(50):
        quadratic_step(flat, target)
        opt.step()
    assert np.linalg.norm(flat.data) < 1.0

