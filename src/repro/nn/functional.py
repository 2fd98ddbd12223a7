"""Stateless array kernels shared by the layers.

im2col/col2im are the workhorses: convolution becomes one GEMM per batch,
which is both the fast way to do it in NumPy (guide rule: replace loops with
matmul) and faithful to how the GPU frameworks the paper used implement it.

:class:`ConvPlan` (what :class:`~repro.nn.conv.Conv2d` runs) uses the
channel-major layout ``(N, C*kh*kw, OH*OW)``: patches are read through a
zero-copy ``as_strided`` window view straight into that order, so the forward
GEMM ``W @ col`` lands directly in NCHW without a transpose, the backward
input-gradient GEMM does too, and the col2im scatter-add walks contiguous
rows.  Plans are cached per ``(shape, kernel, stride, pad)`` so the slice
bookkeeping is computed once per distinct geometry per process.  The
historical row-major pair ``(N, OH*OW, C*kh*kw)`` the equivalence tests pin
the plan against lives with the test oracles (``tests/nn_oracles.py``).
"""

from __future__ import annotations

from functools import lru_cache
from typing import Optional, Sequence, Tuple

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .bufferpool import BufferPool

__all__ = [
    "ConvPlan",
    "conv_plan",
    "conv2d_output_hw",
    "max_over_views",
    "log_softmax",
]


def conv2d_output_hw(
    h: int, w: int, kh: int, kw: int, stride: int, pad: int
) -> Tuple[int, int]:
    """Output spatial dims for a 2-D convolution (floor semantics)."""
    oh = (h + 2 * pad - kh) // stride + 1
    ow = (w + 2 * pad - kw) // stride + 1
    if oh < 1 or ow < 1:
        raise ValueError(
            f"conv output would be empty: in {h}x{w}, kernel {kh}x{kw}, "
            f"stride {stride}, pad {pad}"
        )
    return oh, ow


class ConvPlan:
    """Precomputed geometry for one conv configuration.

    Holds the padded shape, the strided-window recipe for zero-copy patch
    extraction, and the scatter-add slice table for the adjoint — everything
    that only depends on ``(N, C, H, W, kh, kw, stride, pad)``.  Plans carry
    no buffers and may be shared between modules.
    """

    __slots__ = (
        "n", "c", "h", "w", "kh", "kw", "stride", "pad",
        "oh", "ow", "hp", "wp", "k", "p", "padded_shape", "fold_slices",
    )

    def __init__(
        self, n: int, c: int, h: int, w: int, kh: int, kw: int, stride: int, pad: int
    ) -> None:
        self.n, self.c, self.h, self.w = n, c, h, w
        self.kh, self.kw, self.stride, self.pad = kh, kw, stride, pad
        self.oh, self.ow = conv2d_output_hw(h, w, kh, kw, stride, pad)
        self.hp, self.wp = h + 2 * pad, w + 2 * pad
        self.k = c * kh * kw  # receptive-field size (GEMM reduction axis)
        self.p = self.oh * self.ow  # output positions per example
        self.padded_shape = (n, c, self.hp, self.wp)
        # scatter-add table: window offset (i, j) -> strided target slice
        self.fold_slices = tuple(
            (i, j, slice(i, i + stride * self.oh, stride), slice(j, j + stride * self.ow, stride))
            for i in range(kh)
            for j in range(kw)
        )

    # -- zero-copy patch extraction -------------------------------------

    def window_view(self, xp: np.ndarray) -> np.ndarray:
        """``(N, C, kh, kw, OH, OW)`` view of padded input — no data copied."""
        s0, s1, s2, s3 = xp.strides
        return as_strided(
            xp,
            shape=(self.n, self.c, self.kh, self.kw, self.oh, self.ow),
            strides=(s0, s1, s2, s3, self.stride * s2, self.stride * s3),
        )

    def extract(self, x: np.ndarray, pool: BufferPool, grow: bool = True) -> np.ndarray:
        """Materialise the GEMM matrix ``(N, C*kh*kw, OH*OW)`` (channel-major).

        One copy total: padding writes into a pooled scratch, the window view
        is free, and the single gather writes straight into the pooled col
        buffer in its final order (``grow``: see :meth:`BufferPool.get`).
        """
        if not x.flags.c_contiguous:
            x = np.ascontiguousarray(x)
        if self.pad > 0:
            xp = pool.zeros("col.pad", self.padded_shape, x.dtype, grow)
            xp[:, :, self.pad : self.pad + self.h, self.pad : self.pad + self.w] = x
        else:
            xp = x
        col = pool.get("col", (self.n, self.k, self.p), x.dtype, grow)
        col6 = col.reshape(self.n, self.c, self.kh, self.kw, self.oh, self.ow)
        col6[...] = self.window_view(xp)
        return col

    # -- adjoint ----------------------------------------------------------

    def fold(self, gcol: np.ndarray, pool: BufferPool, name: str = "fold") -> np.ndarray:
        """Scatter-add a ``(N, C*kh*kw, OH*OW)`` gradient back onto the input.

        Returns the ``(N, C, H, W)`` input gradient; when ``pad > 0`` it is a
        view into the pool's padded scratch (valid until the next ``fold`` on
        the same pool/name).
        """
        c6 = gcol.reshape(self.n, self.c, self.kh, self.kw, self.oh, self.ow)
        gxp = pool.get(name, self.padded_shape, gcol.dtype)
        first, rest = self.fold_slices[0], self.fold_slices[1:]
        if self.stride == 1:
            # window (0, 0) covers the [0:OH, 0:OW] block densely, so assign
            # it and only zero the uncovered right/bottom margins.
            gxp[:, :, self.oh :, :] = 0
            gxp[:, :, : self.oh, self.ow :] = 0
            i, j, si, sj = first
            gxp[:, :, si, sj] = c6[:, :, i, j]
        else:
            gxp[...] = 0
            i, j, si, sj = first
            gxp[:, :, si, sj] += c6[:, :, i, j]
        for i, j, si, sj in rest:
            gxp[:, :, si, sj] += c6[:, :, i, j]
        if self.pad > 0:
            return gxp[:, :, self.pad : self.pad + self.h, self.pad : self.pad + self.w]
        return gxp


@lru_cache(maxsize=512)
def conv_plan(
    n: int, c: int, h: int, w: int, kh: int, kw: int, stride: int, pad: int
) -> ConvPlan:
    """Cached :class:`ConvPlan` for one geometry (the "index-plan cache")."""
    return ConvPlan(n, c, h, w, kh, kw, stride, pad)


def max_over_views(
    views: Sequence[np.ndarray], pool: BufferPool, route: bool
) -> Tuple[np.ndarray, Optional[np.ndarray]]:
    """Running elementwise maximum of same-shaped ``views`` (max pooling).

    With ``route`` (training: ``pool`` may grow), also boolean ``hits[k]`` =
    "``views[k]`` is the first view equal to the maximum" — ``(v_k == out) &
    ~taken``, so a tie routes to the earliest view only, as ``argmax`` would.
    """
    out = pool.get("y", views[0].shape, views[0].dtype, grow=route)
    np.maximum(views[0], views[-1], out=out)  # a lone view is its own maximum
    for v in views[1:-1]:
        np.maximum(out, v, out=out)
    if not route:
        return out, None
    hits = pool.get("hits", (len(views),) + out.shape, np.bool_)
    taken = pool.get("taken", out.shape, np.bool_)
    np.equal(views[0], out, out=hits[0])
    seen = hits[0]
    for k in range(1, len(views)):
        if k > 1:
            seen = np.logical_or(seen, hits[k - 1], out=taken)
        np.equal(views[k], out, out=hits[k])
        np.greater(hits[k], seen, out=hits[k])  # bool a > b is a & ~b
    return out, hits


def log_softmax(logits: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically stable log-softmax."""
    shifted = logits - logits.max(axis=axis, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=axis, keepdims=True))

