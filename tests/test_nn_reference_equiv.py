"""Numerical equivalence of the optimised kernels vs reference loops.

Every hot kernel is anchored against ``tests/nn_oracles.py``:

* plan/pool fast path  vs  naive Python loops
* Conv2d  vs  the historical ("legacy") row-major im2col/col2im formulation
  the plan's channel-major layout replaced
* gradcheck (central differences) on the optimised modules directly

im2col is a pure gather, so it must be **bit-identical** everywhere.  The
GEMM-based outputs (conv forward/backward, temporal conv) may differ from
the loop forms in the last float32 ulps because BLAS and a Python loop sum
products in different orders — IEEE addition is not associative — so those
compare with a tight float tolerance instead (and in float64 the slack is
never more than ~1e-12 at these sizes).
"""

import numpy as np
import pytest

from repro.nn import Conv2d, TemporalConvolution
from repro.nn.bufferpool import BufferPool
from repro.nn.functional import conv_plan
from tests.nn_oracles import (
    col2im,
    col2im_naive,
    conv2d_backward_naive,
    conv2d_forward_naive,
    gradcheck_module,
    im2col,
    im2col_naive,
    temporal_conv_backward_naive,
    temporal_conv_forward_naive,
)

# (n, c, h, w, kh, kw, stride, pad) — odd sizes, asymmetric kernels,
# stride > 1, and pad >= 1 all represented
CONV_CASES = [
    (2, 3, 8, 8, 3, 3, 1, 1),
    (1, 2, 7, 9, 3, 3, 1, 0),
    (2, 1, 6, 6, 2, 2, 2, 0),
    (3, 2, 9, 7, 3, 5, 1, 2),
    (2, 4, 11, 5, 5, 3, 2, 1),
    (1, 3, 10, 10, 4, 4, 2, 2),
    (2, 2, 5, 5, 5, 5, 1, 2),
    (1, 1, 8, 6, 3, 1, 3, 0),
]


@pytest.mark.parametrize("case", CONV_CASES)
def test_im2col_bit_identical_to_naive(case):
    n, c, h, w, kh, kw, stride, pad = case
    rng = np.random.default_rng(0)
    x = rng.standard_normal((n, c, h, w)).astype(np.float32)
    fast = im2col(x, kh, kw, stride=stride, pad=pad)
    naive = im2col_naive(x, kh, kw, stride=stride, pad=pad)
    # pure gather: must be exact, not merely close
    assert fast.dtype == naive.dtype
    assert np.array_equal(fast, naive)


@pytest.mark.parametrize("case", CONV_CASES)
def test_plan_extract_matches_naive_im2col(case):
    n, c, h, w, kh, kw, stride, pad = case
    rng = np.random.default_rng(1)
    x = rng.standard_normal((n, c, h, w)).astype(np.float32)
    plan = conv_plan(n, c, h, w, kh, kw, stride, pad)
    col = plan.extract(x, BufferPool())  # (n, c*kh*kw, oh*ow) channel-major
    naive = im2col_naive(x, kh, kw, stride=stride, pad=pad)  # (n, p, k)
    assert np.array_equal(col.transpose(0, 2, 1), naive)


@pytest.mark.parametrize("case", CONV_CASES)
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_col2im_matches_naive(case, dtype):
    n, c, h, w, kh, kw, stride, pad = case
    rng = np.random.default_rng(2)
    plan = conv_plan(n, c, h, w, kh, kw, stride, pad)
    cols = rng.standard_normal((n, plan.p, plan.k)).astype(dtype)
    fast = col2im(cols, (n, c, h, w), kh, kw, stride=stride, pad=pad)
    naive = col2im_naive(cols, (n, c, h, w), kh, kw, stride=stride, pad=pad)
    # the scatter-add accumulates ≤ kh*kw float terms per cell in a
    # different order than the per-window loop
    tol = 1e-5 if dtype == np.float32 else 1e-12
    np.testing.assert_allclose(fast, naive, rtol=tol, atol=tol)


@pytest.mark.parametrize("case", CONV_CASES)
def test_conv2d_forward_matches_naive_and_legacy(case):
    n, c, h, w, kh, kw, stride, pad = case
    rng = np.random.default_rng(3)
    conv = Conv2d(c, 4, (kh, kw), stride=stride, padding=pad, rng=rng)
    x = rng.standard_normal((n, c, h, w)).astype(np.float32)
    y = conv.forward(x)
    y_naive = conv2d_forward_naive(x, conv.weight.data, conv.bias.data, stride, pad)
    cols = im2col(x, kh, kw, stride=stride, pad=pad)  # (n, p, k) row-major
    y_legacy = (cols @ conv.weight.data.reshape(4, -1).T + conv.bias.data).transpose(0, 2, 1)
    np.testing.assert_allclose(y, y_naive, rtol=1e-5, atol=1e-5)
    # same GEMM, different layout: bit-identical is too strong a claim across
    # BLAS kernels, but the float32 agreement is much tighter than vs loops
    np.testing.assert_allclose(y.reshape(n, 4, -1), y_legacy, rtol=1e-6, atol=1e-6)


@pytest.mark.parametrize("case", CONV_CASES)
def test_conv2d_backward_matches_legacy(case):
    n, c, h, w, kh, kw, stride, pad = case
    rng = np.random.default_rng(4)
    conv = Conv2d(c, 4, (kh, kw), stride=stride, padding=pad, rng=rng)
    x = rng.standard_normal((n, c, h, w)).astype(np.float32)
    y = conv.forward(x)
    gout = rng.standard_normal(y.shape).astype(np.float32)
    conv.zero_grad()
    gx = conv.backward(gout)

    wmat = conv.weight.data.reshape(4, -1)
    g = gout.reshape(n, 4, -1).transpose(0, 2, 1)  # (n, p, f) row-major
    gx_l = col2im(g @ wmat, x.shape, kh, kw, stride=stride, pad=pad)
    gw_l = np.einsum("npf,npk->fk", g, im2col(x, kh, kw, stride=stride, pad=pad))
    gx_n, gw_n, gb_n = conv2d_backward_naive(x, conv.weight.data, gout, stride, pad)
    for gx_ref, gw_ref in ((gx_l, gw_l.reshape(conv.weight.data.shape)), (gx_n, gw_n)):
        np.testing.assert_allclose(gx, gx_ref, rtol=1e-5, atol=1e-5)
        np.testing.assert_allclose(conv.weight.grad, gw_ref, rtol=1e-4, atol=1e-4)
    np.testing.assert_allclose(conv.bias.grad, gb_n, rtol=1e-5, atol=1e-5)


def test_temporal_forward_matches_naive():
    rng = np.random.default_rng(5)
    for n, ell, cin, cout, kw in [(2, 9, 3, 4, 3), (1, 7, 2, 5, 5), (3, 12, 4, 2, 1)]:
        tc = TemporalConvolution(cin, cout, kw, rng=rng)
        x = rng.standard_normal((n, ell, cin)).astype(np.float32)
        y = tc.forward(x)
        y_naive = temporal_conv_forward_naive(x, tc.weight.data, tc.bias.data, kw)
        np.testing.assert_allclose(y, y_naive, rtol=1e-5, atol=1e-5)


def test_temporal_backward_matches_naive():
    rng = np.random.default_rng(6)
    for n, ell, cin, cout, kw in [(2, 9, 3, 4, 3), (1, 7, 2, 5, 5), (3, 12, 4, 2, 1)]:
        tc = TemporalConvolution(cin, cout, kw, rng=rng)
        x = rng.standard_normal((n, ell, cin)).astype(np.float32)
        y = tc.forward(x)
        gout = rng.standard_normal(y.shape).astype(np.float32)
        tc.zero_grad()
        gx = tc.backward(gout)

        gx_n, gw_n, gb_n = temporal_conv_backward_naive(x, tc.weight.data, gout, kw)
        np.testing.assert_allclose(gx, gx_n, rtol=1e-5, atol=1e-5)
        np.testing.assert_allclose(tc.weight.grad, gw_n, rtol=1e-4, atol=1e-4)
        np.testing.assert_allclose(tc.bias.grad, gb_n, rtol=1e-5, atol=1e-5)


@pytest.mark.parametrize(
    "stride,pad", [(1, 0), (1, 1), (2, 0), (2, 2), (3, 1)]
)
def test_gradcheck_conv2d_strided(stride, pad):
    rng = np.random.default_rng(7)
    conv = Conv2d(2, 3, 3, stride=stride, padding=pad, dtype=np.float64, rng=rng)
    x = rng.standard_normal((2, 2, 7, 7))
    perr, xerr = gradcheck_module(conv, x, rng=rng)
    assert perr < 1e-6
    assert xerr < 1e-6


@pytest.mark.parametrize("kw", [1, 2, 4])
def test_gradcheck_temporal_conv(kw):
    rng = np.random.default_rng(8)
    tc = TemporalConvolution(3, 4, kw, dtype=np.float64, rng=rng)
    x = rng.standard_normal((2, 8, 3))
    perr, xerr = gradcheck_module(tc, x, rng=rng)
    assert perr < 1e-6
    assert xerr < 1e-6
