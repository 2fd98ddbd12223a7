"""The pre-optimisation kernels, kept verbatim as a fixed semantic anchor.

``*_legacy`` are the exact pre-optimisation module code paths of
:mod:`repro.nn.conv` and :mod:`repro.nn.temporal` (im2col via
``sliding_window_view`` + transpose copy, einsum weight gradient, Python
``kh×kw`` col2im loop, per-step allocations).  ``repro bench`` times these
against the plan/pool kernels to report the speedup factor; the equivalence
tests compare both against naive loop oracles.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .functional import conv2d_output_hw

__all__ = [
    "conv2d_forward_legacy",
    "conv2d_backward_legacy",
    "temporal_conv_forward_legacy",
    "temporal_conv_backward_legacy",
]


# --------------------------------------------------------------------------
# legacy vectorised paths (pre-optimisation module code, kept verbatim)
# --------------------------------------------------------------------------


def _im2col_legacy(x: np.ndarray, kh: int, kw: int, stride: int, pad: int) -> np.ndarray:
    n, c, h, w = x.shape
    oh, ow = conv2d_output_hw(h, w, kh, kw, stride, pad)
    if pad > 0:
        x = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    win = sliding_window_view(x, (kh, kw), axis=(2, 3))
    win = win[:, :, ::stride, ::stride]
    col = win.transpose(0, 2, 3, 1, 4, 5).reshape(n, oh * ow, c * kh * kw)
    return np.ascontiguousarray(col)


def _col2im_legacy(
    cols: np.ndarray,
    x_shape: Tuple[int, int, int, int],
    kh: int,
    kw: int,
    stride: int,
    pad: int,
) -> np.ndarray:
    n, c, h, w = x_shape
    oh, ow = conv2d_output_hw(h, w, kh, kw, stride, pad)
    grad = np.zeros((n, c, h + 2 * pad, w + 2 * pad), dtype=cols.dtype)
    cols6 = cols.reshape(n, oh, ow, c, kh, kw).transpose(0, 3, 4, 5, 1, 2)
    for i in range(kh):
        i_hi = i + stride * oh
        for j in range(kw):
            j_hi = j + stride * ow
            grad[:, :, i:i_hi:stride, j:j_hi:stride] += cols6[:, :, i, j]
    if pad > 0:
        grad = grad[:, :, pad : pad + h, pad : pad + w]
    return grad


def conv2d_forward_legacy(
    x: np.ndarray,
    weight: np.ndarray,
    bias: Optional[np.ndarray],
    stride: int = 1,
    pad: int = 0,
) -> Tuple[np.ndarray, np.ndarray]:
    """Pre-PR ``Conv2d.forward``; returns ``(y, col)`` (col feeds backward)."""
    n, c, h, w = x.shape
    f = weight.shape[0]
    kh, kw = weight.shape[2], weight.shape[3]
    oh, ow = conv2d_output_hw(h, w, kh, kw, stride, pad)
    col = _im2col_legacy(x, kh, kw, stride, pad)
    wmat = weight.reshape(f, -1)
    y = col @ wmat.T  # (N, OH*OW, F)
    if bias is not None:
        y += bias
    return np.ascontiguousarray(y.transpose(0, 2, 1).reshape(n, f, oh, ow)), col


def conv2d_backward_legacy(
    col: np.ndarray,
    x_shape: Tuple[int, int, int, int],
    weight: np.ndarray,
    grad_out: np.ndarray,
    stride: int = 1,
    pad: int = 0,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Pre-PR ``Conv2d.backward``; returns ``(grad_x, grad_w, grad_b)``."""
    f = weight.shape[0]
    kh, kw = weight.shape[2], weight.shape[3]
    n, _, oh, ow = grad_out.shape
    gomat = grad_out.reshape(n, f, oh * ow).transpose(0, 2, 1)  # (N, OH*OW, F)
    wmat = weight.reshape(f, -1)
    gw = np.einsum("nif,nik->fk", gomat, col, optimize=True).reshape(weight.shape)
    gb = grad_out.sum(axis=(0, 2, 3))
    gcol = gomat @ wmat  # (N, OH*OW, C*kh*kw)
    return _col2im_legacy(gcol, x_shape, kh, kw, stride, pad), gw, gb


def temporal_conv_forward_legacy(
    x: np.ndarray, weight: np.ndarray, bias: Optional[np.ndarray], kw: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Pre-PR ``TemporalConvolution.forward``; returns ``(y, col)``."""
    n, ell, c = x.shape
    lo = ell - kw + 1
    win = sliding_window_view(x, kw, axis=1)  # (N, LO, C, kw)
    col = np.ascontiguousarray(win.transpose(0, 1, 3, 2)).reshape(n, lo, kw * c)
    y = col @ weight.T
    if bias is not None:
        y += bias
    return y, col


def temporal_conv_backward_legacy(
    col: np.ndarray,
    x_shape: Tuple[int, ...],
    weight: np.ndarray,
    grad_out: np.ndarray,
    kw: int,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Pre-PR ``TemporalConvolution.backward``: Python loop over ``kw``."""
    n, ell, c = x_shape
    lo = ell - kw + 1
    cout = weight.shape[0]
    go2 = grad_out.reshape(-1, cout)
    col2 = col.reshape(-1, kw * c)
    gw = go2.T @ col2
    gb = go2.sum(axis=0)
    gcol = (grad_out @ weight).reshape(n, lo, kw, c)
    gx = np.zeros(x_shape, dtype=grad_out.dtype)
    for k in range(kw):
        gx[:, k : k + lo, :] += gcol[:, :, k, :]
    return gx, gw, gb
