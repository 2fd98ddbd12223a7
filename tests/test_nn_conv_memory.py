"""A network's ``nn`` memory is one training batch.

Three rules keep it so: ``Conv2d.backward`` sums its weight gradient one
example's GEMM at a time and then writes the input-gradient columns into the
im2col storage ``forward`` filled; an eval-mode ``Sequential`` runs its
leading per-example layers on slabs of at most the largest training batch it
has seen; and an eval-mode request is served from a pool only when it fits
what the pool holds, so evaluation never grows one.  None may change a bit:
``np.matmul`` runs one GEMM per example, and ``sum(axis=0)`` adds the
per-example products in batch order.
"""

import hashlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.algos.base import evaluate_model
from repro.algos.problems import CIFAR_SCALES, cifar_problem
from repro.data.synth_cifar import make_synthetic_cifar
from repro.nn import (
    Conv2d,
    Dropout,
    Linear,
    MaxPool2d,
    ReLU,
    Sequential,
    Tanh,
    TemporalConvolution,
)
from tests.nn_oracles import col2im, gradcheck_module, im2col, temporal_conv_backward_naive

MiB = 2**20

# (kernel, stride, pad): square and oblong kernels, strides 1-3, pads 0-2
_GEOMETRIES = st.sampled_from(
    [(3, 1, 1), (3, 1, 0), (5, 1, 2), (2, 2, 0), ((3, 2), 2, 1), (3, 3, 2), (1, 1, 0)]
)


def _conv_backward_oracle(x, weight, gout, stride, pad):
    """``(gx, gw, gb)`` through the row-major im2col/col2im oracles."""
    n, f = x.shape[0], weight.shape[0]
    kh, kw = weight.shape[2:]
    col = im2col(x, kh, kw, stride=stride, pad=pad)  # (N, P, K)
    g = gout.reshape(n, f, -1).transpose(0, 2, 1)  # (N, P, F)
    gx = col2im(g @ weight.reshape(f, -1), x.shape, kh, kw, stride=stride, pad=pad)
    gw = np.einsum("npf,npk->fk", g, col).reshape(weight.shape)
    return gx, gw, gout.sum(axis=(0, 2, 3))


PER_EXAMPLE = ["conv", "relu", "tanh", "pool", "dropout"]


def _chain(kinds, c, hw, geometries, dtype, seed):
    """The per-example layers ``kinds`` name (a conv takes the next of
    ``geometries``), skipping any the running shape cannot take, then a
    ``Linear`` head on the last axis."""
    rng = np.random.default_rng(seed)
    layers, (h, w) = [], (hw, hw)
    for kind in kinds:
        if kind == "conv":
            kernel, stride, pad = next(geometries)
            kh, kw = (kernel, kernel) if isinstance(kernel, int) else kernel
            if min(h + 2 * pad - kh, w + 2 * pad - kw) < 0:
                continue
            layers.append(Conv2d(c, 4, kernel, stride=stride, padding=pad, dtype=dtype, rng=rng))
            c, h, w = 4, (h + 2 * pad - kh) // stride + 1, (w + 2 * pad - kw) // stride + 1
        elif kind == "pool" and min(h, w) >= 2:
            layers.append(MaxPool2d(2))
            h, w = h // 2, w // 2
        elif kind in ("relu", "tanh", "dropout"):
            layers.append({"relu": ReLU, "tanh": Tanh, "dropout": Dropout}[kind]())
    return Sequential(*layers, Linear(w, 3, dtype=dtype, rng=rng))


def _held(model):
    return {
        (i, name): (buf.ctypes.data, buf.base.nbytes)
        for i, m in enumerate(model.modules()) if hasattr(m, "_pool")
        for name, buf in m._pool._bufs.items()
    }


@settings(max_examples=60, deadline=None)
@given(
    kinds=st.lists(st.sampled_from(PER_EXAMPLE), min_size=1, max_size=6),
    geometries=st.lists(_GEOMETRIES, min_size=6, max_size=6),
    seed=st.integers(0, 2**16),
    n=st.integers(1, 70),
    batch=st.integers(1, 16),
    c=st.integers(1, 3),
    hw=st.integers(4, 9),
    dtype=st.sampled_from([np.float32, np.float64]),
)
@example(kinds=["conv", "relu", "pool", "dropout"], geometries=[(5, 1, 2)] * 6, seed=0,
         n=64, batch=16, c=3, hw=8, dtype=np.float32)
def test_eval_in_training_batch_slabs_equals_the_whole_batch(
    kinds, geometries, seed, n, batch, c, hw, dtype
):
    rng = np.random.default_rng(seed)
    trained = _chain(kinds, c, hw, iter(geometries), dtype, seed)
    fresh = _chain(kinds, c, hw, iter(geometries), dtype, seed)  # never trains
    out = trained.forward(rng.standard_normal((batch, c, hw, hw)).astype(dtype))
    trained.backward(np.ones_like(out))  # sets the slab size; the weights stay
    held = _held(trained)
    trained.eval()
    fresh.eval()
    # an input too large for the pools: per example, 17 times a training batch
    for shape in ((n, c, hw, hw), (n, c, 17 * hw, hw)):
        x = rng.standard_normal(shape).astype(dtype)
        x_passed = x.copy()
        got = trained.forward(x).copy()
        np.testing.assert_array_equal(got, fresh.forward(x))  # the whole batch at once
        np.testing.assert_array_equal(x, x_passed)
        assert _held(trained) == held  # the slabs grew, moved and named no pool buffer
    for m in trained.modules():  # an eval forward keeps nothing for backward
        for state in ("_col", "_plan", "_mask", "_y", "_x", "_hits"):
            assert getattr(m, state, None) is None, (type(m).__name__, state)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    n=st.integers(1, 16),
    c=st.integers(1, 3),
    hw=st.integers(4, 8),
    geometry=_GEOMETRIES,
    dtype=st.sampled_from([np.float32, np.float64]),
)
def test_the_per_example_weight_gradient_equals_the_batched_sum(seed, n, c, hw, geometry, dtype):
    kernel, stride, pad = geometry
    rng = np.random.default_rng(seed)
    conv = Conv2d(c, 4, kernel, stride=stride, padding=pad, dtype=dtype, rng=rng)
    y = conv.forward(rng.standard_normal((n, c, hw, hw)).astype(dtype))
    col = conv._col.copy()
    gout = rng.standard_normal(y.shape).astype(dtype)
    conv.backward(gout)
    want = np.zeros_like(conv.weight.grad)
    want += np.matmul(gout.reshape(n, 4, -1), col.transpose(0, 2, 1)).sum(axis=0).reshape(want.shape)
    assert conv.weight.grad.dtype == want.dtype and np.array_equal(conv.weight.grad, want)
    assert "gw3" not in conv._pool._bufs


def test_an_untrained_conv_evaluates_like_its_training_forward():
    rng = np.random.default_rng(0)
    conv = Conv2d(2, 3, 3, padding=1, rng=rng)
    x = rng.standard_normal((5, 2, 6, 6)).astype(np.float32)
    conv.eval()
    got = conv.forward(x).copy()
    conv.train()
    np.testing.assert_array_equal(got, conv.forward(x))


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    n=st.integers(1, 4),
    c=st.integers(1, 3),
    hw=st.integers(4, 8),
    geometry=_GEOMETRIES,
)
def test_backward_into_the_col_storage_matches_the_oracle(seed, n, c, hw, geometry):
    kernel, stride, pad = geometry
    rng = np.random.default_rng(seed)
    conv = Conv2d(c, 3, kernel, stride=stride, padding=pad, dtype=np.float64, rng=rng)
    x = rng.standard_normal((n, c, hw, hw))
    for _ in range(2):  # the second round runs on reused buffers
        y = conv.forward(x)
        col = conv._col
        gout = rng.standard_normal(y.shape)
        want_gx, want_gw, want_gb = _conv_backward_oracle(x, conv.weight.data, gout, stride, pad)
        conv.zero_grad()
        gx = conv.backward(gout)
        np.testing.assert_allclose(gx, want_gx, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(conv.weight.grad, want_gw, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(conv.bias.grad, want_gb, rtol=1e-12, atol=1e-12)
        # the input-gradient columns went where the forward's im2col was
        gcol = np.einsum("fk,nfp->nkp", conv.weight.data.reshape(3, -1), gout.reshape(n, 3, -1))
        np.testing.assert_allclose(col, gcol, rtol=1e-12, atol=1e-12)
        assert "gcol" not in conv._pool._bufs


@pytest.mark.parametrize("stride,pad", [(1, 0), (1, 2), (2, 1), (3, 0)])
def test_gradcheck_with_the_input_gradient_in_col(stride, pad):
    rng = np.random.default_rng(11)
    conv = Conv2d(2, 3, 3, stride=stride, padding=pad, dtype=np.float64, rng=rng)
    perr, xerr = gradcheck_module(conv, rng.standard_normal((3, 2, 6, 7)), rng=rng)
    assert perr < 1e-6 and xerr < 1e-6
    assert "gcol" not in conv._pool._bufs


def test_temporal_backward_into_the_col_storage_matches_the_oracle():
    rng = np.random.default_rng(12)
    tc = TemporalConvolution(3, 4, 2, dtype=np.float64, rng=rng)
    x = rng.standard_normal((2, 7, 3))
    for _ in range(2):
        gout = rng.standard_normal(tc.forward(x).shape)
        tc.zero_grad()
        gx = tc.backward(gout)
        want_gx, want_gw, want_gb = temporal_conv_backward_naive(x, tc.weight.data, gout, 2)
        np.testing.assert_allclose(gx, want_gx, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(tc.weight.grad, want_gw, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(tc.bias.grad, want_gb, rtol=1e-12, atol=1e-12)
        assert "gcol" not in tc._pool._bufs


def test_cifar_bench_model_memory_is_one_training_batch():
    # bench-scale CIFAR (width 0.25), batch 16 as the e2e CIFAR workloads train
    problem = cifar_problem(scale="bench", seed=5)
    model, crit, _ = problem.build_model(np.random.default_rng(5))
    xb, yb = problem.train_set.batch(np.arange(16))
    crit.forward(model.forward(xb), yb)
    model.backward(crit.backward())  # with the input gradient: every fold runs
    pools = {id(m._pool): m._pool for m in model.modules() if hasattr(m, "_pool")}
    held = sum(v.base.nbytes for pool in pools.values() for v in pool._bufs.values())
    # 28.6 MiB with a second im2col-sized buffer for the input gradient,
    # 20.4 MiB while ReLU's y and gx and MaxPool's gx had pooled buffers, and
    # 15.1 MiB with an (N, F, K) buffer of per-example weight-gradient products
    assert held <= 13.6 * MiB, held / MiB
    tracemalloc.start()
    try:
        got = evaluate_model(model, problem.test_set, 64)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # 23.5 MiB when the first conv unfolds all 64 test images at once, 9.8 MiB
    # while each slab unfolded into fresh storage and ReLU copied, and 5.8 MiB
    # while conv1 held its 64-image output, ReLU and MaxPool evaluated on
    # fresh pools and each eval batch was a copy of the test images
    assert peak < 0.5 * MiB, peak / MiB
    # an untrained copy evaluates each batch whole, on storage of its own
    assert got == evaluate_model(problem.build_model(np.random.default_rng(5))[0],
                                 problem.test_set, 64)


def test_bench_cifar_data_is_synthesised_in_slabs_to_the_same_bits():
    scale = CIFAR_SCALES["bench"]
    tracemalloc.start()
    try:
        train, test = make_synthetic_cifar(
            n_train=scale["n_train"], n_test=scale["n_test"], noise=scale["noise"], seed=5
        )
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the float32 result is 8.3 MiB; 24.3 MiB with three full-size float64 temporaries
    assert peak < 12.2 * MiB, peak / MiB
    digest = hashlib.sha256()
    for ds in (train, test):
        digest.update(ds.x.tobytes())
        digest.update(ds.y.tobytes())
    assert digest.hexdigest() == (
        "c4544703988bc3b9480c497a5e1a84de833a0d49e70d33fbde879d8128358db5"
    )
