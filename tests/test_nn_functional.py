"""Unit and property tests for the array kernels."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn import log_softmax
from repro.nn.functional import conv2d_output_hw
from tests.nn_oracles import col2im, im2col


def test_conv_output_dims():
    assert conv2d_output_hw(32, 32, 5, 5, 1, 2) == (32, 32)
    assert conv2d_output_hw(32, 32, 5, 5, 1, 0) == (28, 28)
    assert conv2d_output_hw(8, 8, 2, 2, 2, 0) == (4, 4)


def test_conv_output_dims_empty_raises():
    with pytest.raises(ValueError):
        conv2d_output_hw(3, 3, 5, 5, 1, 0)


def test_im2col_shape():
    x = np.zeros((2, 3, 8, 8))
    col = im2col(x, 3, 3, stride=1, pad=1)
    assert col.shape == (2, 64, 27)


def test_im2col_known_values():
    x = np.arange(16, dtype=np.float64).reshape(1, 1, 4, 4)
    col = im2col(x, 2, 2, stride=2, pad=0)
    # first window is the top-left 2x2 block
    assert col[0, 0].tolist() == [0, 1, 4, 5]
    # windows enumerate row-major over output positions
    assert col[0, 1].tolist() == [2, 3, 6, 7]
    assert col[0, 2].tolist() == [8, 9, 12, 13]


def test_im2col_channel_ordering_matches_weight_reshape():
    """col's last axis must match weight.reshape(F, C*kh*kw) ordering."""
    rng = np.random.default_rng(0)
    x = rng.standard_normal((1, 2, 5, 5))
    w = rng.standard_normal((3, 2, 3, 3))
    col = im2col(x, 3, 3, 1, 0)
    y_gemm = (col @ w.reshape(3, -1).T).transpose(0, 2, 1).reshape(1, 3, 3, 3)
    # direct correlation
    y_ref = np.zeros((1, 3, 3, 3))
    for f in range(3):
        for i in range(3):
            for j in range(3):
                y_ref[0, f, i, j] = np.sum(x[0, :, i : i + 3, j : j + 3] * w[f])
    np.testing.assert_allclose(y_gemm, y_ref, rtol=1e-12)


@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(1, 3),
    c=st.integers(1, 3),
    hw=st.integers(4, 9),
    k=st.integers(1, 3),
    stride=st.integers(1, 2),
    pad=st.integers(0, 2),
    seed=st.integers(0, 1000),
)
def test_col2im_is_adjoint_of_im2col(n, c, hw, k, stride, pad, seed):
    """<im2col(x), y> == <x, col2im(y)> — the defining adjoint property."""
    if (hw + 2 * pad - k) < 0:
        return
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, c, hw, hw))
    col = im2col(x, k, k, stride, pad)
    y = rng.standard_normal(col.shape)
    lhs = float((col * y).sum())
    back = col2im(y, x.shape, k, k, stride, pad)
    rhs = float((x * back).sum())
    assert lhs == pytest.approx(rhs, rel=1e-9)


def test_col2im_counts_overlaps():
    x_shape = (1, 1, 3, 3)
    col = im2col(np.zeros(x_shape), 2, 2, 1, 0)
    ones = np.ones_like(col)
    back = col2im(ones, x_shape, 2, 2, 1, 0)
    # centre pixel participates in all four 2x2 windows
    assert back[0, 0, 1, 1] == 4.0
    assert back[0, 0, 0, 0] == 1.0


def test_log_softmax_normalises():
    rng = np.random.default_rng(0)
    z = rng.standard_normal((5, 7))
    lp = log_softmax(z)
    np.testing.assert_allclose(np.exp(lp).sum(axis=1), 1.0, rtol=1e-12)


def test_log_softmax_stable_for_huge_logits():
    z = np.array([[1e4, 0.0, -1e4]])
    lp = log_softmax(z)
    assert np.isfinite(lp).all()
    assert lp[0, 0] == pytest.approx(0.0, abs=1e-6)
