"""Test oracles for :mod:`repro.nn`: finite differences and naive loops.

Every analytic ``backward`` in :mod:`repro.nn` is validated against central
differences.  The scalar probe is ``sum(output * R)`` for a fixed
random ``R`` so every output element contributes to the check.

Use float64 modules: at eps≈1e-6 the truncation + rounding error of central
differences is ~1e-9 relative, far below the tolerances used.

:func:`im2col`/:func:`col2im` are the vectorised row-major layout
``(N, OH*OW, C*kh*kw)`` (the natural shape for ``col @ W.T``) that
:class:`~repro.nn.functional.ConvPlan`'s channel-major layout is pinned
against.  The ``*_naive`` kernels are straight loops over output positions,
the "obviously correct" form the plan/pool and legacy kernels are compared
with on small shapes.
"""

from __future__ import annotations

from typing import Callable, Optional, Tuple

import numpy as np

from numpy.lib.stride_tricks import sliding_window_view

from repro.nn.functional import conv2d_output_hw, conv_plan
from repro.nn.module import Module


def numeric_gradient(
    f: Callable[[], float], arr: np.ndarray, eps: float = 1e-6
) -> np.ndarray:
    """Central-difference gradient of scalar ``f()`` w.r.t. ``arr`` in place.

    ``f`` must re-evaluate from current array contents each call.
    """
    grad = np.zeros_like(arr, dtype=np.float64)
    flat = arr.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        fp = f()
        flat[i] = orig - eps
        fm = f()
        flat[i] = orig
        gflat[i] = (fp - fm) / (2.0 * eps)
    return grad


def gradcheck_module(
    module: Module,
    x: np.ndarray,
    rng: Optional[np.random.Generator] = None,
    eps: float = 1e-6,
    check_input: bool = True,
) -> Tuple[float, float]:
    """Compare analytic vs numeric gradients.

    Returns ``(max_param_err, max_input_err)`` where each err is the max
    absolute difference normalised by ``1 + |numeric|``.  Stochastic layers
    must be in eval mode (or have p=0) — finite differences need a
    deterministic forward.
    """
    rng = rng if rng is not None else np.random.default_rng(0)
    x = np.asarray(x, dtype=np.float64)
    out0 = module.forward(x.copy())
    probe = rng.standard_normal(out0.shape)

    def scalar_from(inp: np.ndarray) -> float:
        return float((module.forward(inp) * probe).sum())

    # analytic pass
    module.zero_grad()
    out = module.forward(x.copy())
    module.backward(probe.astype(out.dtype))
    analytic_params = [p.grad.copy() for p in module.parameters()]

    max_param_err = 0.0
    for p, ag in zip(module.parameters(), analytic_params):
        ng = numeric_gradient(lambda: scalar_from(x.copy()), p.data, eps)
        err = np.abs(ag - ng) / (1.0 + np.abs(ng))
        max_param_err = max(max_param_err, float(err.max(initial=0.0)))

    max_input_err = 0.0
    if check_input:
        module.zero_grad()
        out = module.forward(x.copy())
        gin = module.backward(probe.astype(out.dtype))
        x_work = x.copy()
        ng_in = numeric_gradient(lambda: scalar_from(x_work), x_work, eps)
        err = np.abs(gin - ng_in) / (1.0 + np.abs(ng_in))
        max_input_err = float(err.max(initial=0.0))
    return max_param_err, max_input_err




def im2col(
    x: np.ndarray, kh: int, kw: int, stride: int = 1, pad: int = 0
) -> np.ndarray:
    """Unfold NCHW input into GEMM form (historical row-major layout).

    Returns a ``(N, OH*OW, C*kh*kw)`` array whose last axis enumerates the
    receptive field in ``(c, i, j)`` order — matching a weight matrix of shape
    ``(F, C*kh*kw)`` built from ``(F, C, kh, kw)`` filters via ``reshape``.
    """
    n, c, h, w = x.shape
    oh, ow = conv2d_output_hw(h, w, kh, kw, stride, pad)
    if pad > 0:
        x = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    # windows: (N, C, H', W', kh, kw) where H'=h+2p-kh+1
    win = sliding_window_view(x, (kh, kw), axis=(2, 3))
    win = win[:, :, ::stride, ::stride]  # (N, C, OH, OW, kh, kw)
    # -> (N, OH, OW, C, kh, kw) -> (N, OH*OW, C*kh*kw)
    col = win.transpose(0, 2, 3, 1, 4, 5).reshape(n, oh * ow, c * kh * kw)
    return np.ascontiguousarray(col)


def col2im(
    cols: np.ndarray,
    x_shape: Tuple[int, int, int, int],
    kh: int,
    kw: int,
    stride: int = 1,
    pad: int = 0,
) -> np.ndarray:
    """Fold a ``(N, OH*OW, C*kh*kw)`` gradient back onto the NCHW input.

    Overlapping windows scatter-add, the adjoint of :func:`im2col`.
    """
    n, c, h, w = x_shape
    plan = conv_plan(n, c, h, w, kh, kw, stride, pad)
    oh, ow = plan.oh, plan.ow
    grad = np.zeros(plan.padded_shape, dtype=cols.dtype)
    # back to (N, C, kh, kw, OH, OW)
    cols6 = cols.reshape(n, oh, ow, c, kh, kw).transpose(0, 3, 4, 5, 1, 2)
    for i, j, si, sj in plan.fold_slices:
        grad[:, :, si, sj] += cols6[:, :, i, j]
    if pad > 0:
        grad = grad[:, :, pad : pad + h, pad : pad + w]
    return grad


def im2col_naive(
    x: np.ndarray, kh: int, kw: int, stride: int = 1, pad: int = 0
) -> np.ndarray:
    """Loop form of :func:`im2col` (same layout)."""
    n, c, h, w = x.shape
    oh, ow = conv2d_output_hw(h, w, kh, kw, stride, pad)
    if pad > 0:
        x = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    col = np.empty((n, oh * ow, c * kh * kw), dtype=x.dtype)
    for b in range(n):
        for oi in range(oh):
            for oj in range(ow):
                patch = x[b, :, oi * stride : oi * stride + kh, oj * stride : oj * stride + kw]
                col[b, oi * ow + oj] = patch.reshape(-1)
    return col


def col2im_naive(
    cols: np.ndarray,
    x_shape: Tuple[int, int, int, int],
    kh: int,
    kw: int,
    stride: int = 1,
    pad: int = 0,
) -> np.ndarray:
    """Loop form of :func:`col2im` (scatter per window)."""
    n, c, h, w = x_shape
    oh, ow = conv2d_output_hw(h, w, kh, kw, stride, pad)
    grad = np.zeros((n, c, h + 2 * pad, w + 2 * pad), dtype=cols.dtype)
    for b in range(n):
        for oi in range(oh):
            for oj in range(ow):
                patch = cols[b, oi * ow + oj].reshape(c, kh, kw)
                grad[b, :, oi * stride : oi * stride + kh, oj * stride : oj * stride + kw] += patch
    if pad > 0:
        grad = grad[:, :, pad : pad + h, pad : pad + w]
    return grad


def conv2d_forward_naive(
    x: np.ndarray,
    weight: np.ndarray,
    bias: Optional[np.ndarray],
    stride: int = 1,
    pad: int = 0,
) -> np.ndarray:
    """Direct correlation: loops over batch, filter, and output position."""
    n, c, h, w = x.shape
    f, _, kh, kw = weight.shape
    oh, ow = conv2d_output_hw(h, w, kh, kw, stride, pad)
    if pad > 0:
        x = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    y = np.zeros((n, f, oh, ow), dtype=np.result_type(x, weight))
    for b in range(n):
        for fi in range(f):
            for oi in range(oh):
                for oj in range(ow):
                    patch = x[b, :, oi * stride : oi * stride + kh, oj * stride : oj * stride + kw]
                    y[b, fi, oi, oj] = np.sum(patch * weight[fi])
    if bias is not None:
        y += bias[None, :, None, None]
    return y


def temporal_conv_forward_naive(
    x: np.ndarray, weight: np.ndarray, bias: Optional[np.ndarray], kw: int
) -> np.ndarray:
    """Loop form of the Torch-layout 1-D convolution (stride 1)."""
    n, ell, c = x.shape
    cout = weight.shape[0]
    lo = ell - kw + 1
    y = np.zeros((n, lo, cout), dtype=np.result_type(x, weight))
    for b in range(n):
        for t in range(lo):
            window = x[b, t : t + kw, :].reshape(-1)  # (kw*C,) in (k, c) order
            y[b, t] = weight @ window
    if bias is not None:
        y += bias
    return y


def temporal_conv_backward_naive(
    x: np.ndarray, weight: np.ndarray, grad_out: np.ndarray, kw: int
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Returns ``(grad_x, grad_weight, grad_bias)`` via per-window loops."""
    n, ell, c = x.shape
    lo = ell - kw + 1
    gx = np.zeros_like(x)
    gw = np.zeros_like(weight)
    gb = grad_out.sum(axis=(0, 1))
    for b in range(n):
        for t in range(lo):
            window = x[b, t : t + kw, :].reshape(-1)
            go = grad_out[b, t]
            gw += np.outer(go, window)
            gx[b, t : t + kw, :] += (go @ weight).reshape(kw, c)
    return gx, gw, gb
