"""Tests for the pure SASGD algorithm (paper Alg. 1)."""

import numpy as np
import pytest

from repro.core import SASGDConfig, SASGDLocalState, reference_sasgd, sasgd_global_step
from repro.nn import Linear, Sequential, Tanh, flatten_module


def make_flat(seed=0, dims=(4, 6, 3)):
    rng = np.random.default_rng(seed)
    layers = []
    for a, b in zip(dims, dims[1:]):
        layers.append(Linear(a, b, dtype=np.float64, rng=rng))
        layers.append(Tanh())
    net = Sequential(*layers[:-1])
    return net, flatten_module(net)


# -- config ---------------------------------------------------------------------


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(T=0, p=1, gamma=0.1, gamma_p=0.1),
        dict(T=1, p=0, gamma=0.1, gamma_p=0.1),
        dict(T=1, p=1, gamma=0.0, gamma_p=0.1),
        dict(T=1, p=1, gamma=0.1, gamma_p=-0.1),
        dict(T=1, p=1, gamma=0.1, gamma_p=0.1, update_base="bogus"),
    ],
)
def test_config_validation(kwargs):
    with pytest.raises(ValueError):
        SASGDConfig(**kwargs)


def test_model_averaging_factory():
    cfg = SASGDConfig.model_averaging(T=5, p=4, gamma=0.2)
    assert cfg.gamma_p == pytest.approx(0.05)


def test_global_step_formula():
    anchor = np.array([1.0, 2.0])
    gs = np.array([10.0, -10.0])
    np.testing.assert_allclose(sasgd_global_step(anchor, gs, 0.1), [0.0, 3.0])


# -- local state machine -----------------------------------------------------------


def test_local_step_before_begin_raises():
    _, flat = make_flat()
    st = SASGDLocalState(flat, SASGDConfig(T=2, p=1, gamma=0.1, gamma_p=0.1))
    with pytest.raises(RuntimeError):
        st.local_step()


def test_interval_step_limit():
    _, flat = make_flat()
    st = SASGDLocalState(flat, SASGDConfig(T=1, p=1, gamma=0.1, gamma_p=0.1))
    st.begin_interval()
    flat.grad[...] = 1.0
    st.local_step()
    assert st.steps_in_interval == st.config.T
    with pytest.raises(RuntimeError):
        st.local_step()


def test_apply_global_before_begin_raises():
    _, flat = make_flat()
    st = SASGDLocalState(flat, SASGDConfig(T=1, p=1, gamma=0.1, gamma_p=0.1))
    with pytest.raises(RuntimeError):
        st.apply_global(np.zeros_like(flat.data))


def test_local_step_updates_x_and_accumulates_gs():
    _, flat = make_flat()
    cfg = SASGDConfig(T=2, p=1, gamma=0.5, gamma_p=0.5)
    st = SASGDLocalState(flat, cfg)
    x0 = flat.copy_data()
    st.begin_interval()
    flat.grad[...] = 1.0
    st.local_step()
    flat.grad[...] = 2.0
    st.local_step()
    np.testing.assert_allclose(flat.data, x0 - 0.5 * 1.0 - 0.5 * 2.0)
    np.testing.assert_allclose(st.gs, 3.0)


def test_apply_global_interval_start_anchoring():
    """All learners end the interval with identical parameters."""
    _, flat = make_flat()
    cfg = SASGDConfig(T=1, p=1, gamma=0.3, gamma_p=0.2)
    st = SASGDLocalState(flat, cfg)
    x0 = flat.copy_data()
    st.begin_interval()
    flat.grad[...] = 1.0
    st.local_step()
    gs_sum = np.full_like(flat.data, 5.0)
    st.apply_global(gs_sum)
    np.testing.assert_allclose(flat.data, x0 - 0.2 * 5.0)
    assert st.intervals_done == 1


def test_apply_global_local_base_variant():
    _, flat = make_flat()
    cfg = SASGDConfig(T=1, p=1, gamma=0.3, gamma_p=0.2, update_base="local")
    st = SASGDLocalState(flat, cfg)
    x0 = flat.copy_data()
    st.begin_interval()
    flat.grad[...] = 1.0
    st.local_step()
    drifted = flat.copy_data()
    st.apply_global(np.full_like(flat.data, 5.0))
    np.testing.assert_allclose(flat.data, drifted - 0.2 * 5.0)
    # differs from the interval_start anchoring (x0 - gamma_p*gs)
    assert not np.allclose(flat.data, x0 - 0.2 * 5.0)


# -- reference implementation ---------------------------------------------------------


def quadratic_grad_fns(flats, targets, noise_seed=0):
    """Gradient of 0.5*||x - t||^2 with deterministic per-step noise."""
    rngs = [np.random.default_rng(noise_seed + i) for i in range(len(flats))]

    def make(i):
        def fn(step):
            flats[i].grad[...] = flats[i].data - targets[i] + 0.01 * rngs[i].standard_normal(
                flats[i].data.shape
            )

        return fn

    return [make(i) for i in range(len(flats))]


def test_reference_sasgd_p1_T1_equals_plain_sgd():
    net, flat = make_flat(seed=1)
    target = np.ones_like(flat.data)
    cfg = SASGDConfig(T=1, p=1, gamma=0.1, gamma_p=0.1)
    x0 = flat.copy_data()

    # manual SGD with the same noise stream
    rng = np.random.default_rng(0)
    x = x0.copy()
    for _ in range(10):
        g = x - target + 0.01 * rng.standard_normal(x.shape)
        x_drift = x - 0.1 * g      # local step
        x = x - 0.1 * g            # global step from the anchor (same here)

    flat.set_data(x0)
    fns = quadratic_grad_fns([flat], [target])
    out = reference_sasgd([flat], fns, cfg, n_intervals=10, x0=x0)
    np.testing.assert_allclose(out, x, rtol=1e-12)


def test_reference_sasgd_model_averaging_identity():
    """γp = γ/p with interval_start anchoring == averaging the drifted replicas."""
    p, T, gamma = 3, 4, 0.05
    nets = [make_flat(seed=s) for s in range(p)]
    flats = [f for _, f in nets]
    x0 = flats[0].copy_data()
    targets = [np.full_like(x0, float(i)) for i in range(p)]

    # run each learner's local T steps by hand from x0 and average
    manual = []
    for i in range(p):
        rng = np.random.default_rng(i)
        x = x0.copy()
        for _ in range(T):
            g = x - targets[i] + 0.01 * rng.standard_normal(x.shape)
            x = x - gamma * g
        manual.append(x)
    avg = np.mean(manual, axis=0)

    cfg = SASGDConfig.model_averaging(T=T, p=p, gamma=gamma)
    fns = quadratic_grad_fns(flats, targets)
    out = reference_sasgd(flats, fns, cfg, n_intervals=1, x0=x0)
    np.testing.assert_allclose(out, avg, rtol=1e-10)


def test_reference_sasgd_learners_agree_after_every_interval():
    p = 4
    nets = [make_flat(seed=s) for s in range(p)]
    flats = [f for _, f in nets]
    targets = [np.zeros_like(flats[0].data) for _ in range(p)]
    cfg = SASGDConfig(T=3, p=p, gamma=0.05, gamma_p=0.02)
    fns = quadratic_grad_fns(flats, targets)
    reference_sasgd(flats, fns, cfg, n_intervals=5)
    for f in flats[1:]:
        np.testing.assert_allclose(f.data, flats[0].data, rtol=1e-12)


def test_reference_sasgd_converges_on_quadratic():
    p = 2
    nets = [make_flat(seed=s) for s in range(p)]
    flats = [f for _, f in nets]
    target = np.ones_like(flats[0].data) * 2.0
    cfg = SASGDConfig(T=2, p=p, gamma=0.1, gamma_p=0.05)
    fns = quadratic_grad_fns(flats, [target, target])
    out = reference_sasgd(flats, fns, cfg, n_intervals=200)
    np.testing.assert_allclose(out, target, atol=0.05)


def test_reference_sasgd_argument_validation():
    _, flat = make_flat()
    cfg = SASGDConfig(T=1, p=2, gamma=0.1, gamma_p=0.1)
    with pytest.raises(ValueError):
        reference_sasgd([flat], [lambda s: None], cfg, n_intervals=1)
