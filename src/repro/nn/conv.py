"""2-D convolution (im2col + GEMM) on the cached-plan, pooled-buffer path."""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from .bufferpool import BufferPool
from .functional import ConvPlan, conv2d_output_hw, conv_plan
from .init import torch_uniform_
from .module import Geometry, Module, Parameter

__all__ = ["Conv2d"]


class Conv2d(Module):
    """Spatial convolution on NCHW input.

    Table I's rows "Convolution: (nfeat, nkern, height, width)" map directly:
    ``Conv2d(nfeat, nkern, (height, width))``.  Padding defaults keep the
    CIFAR-10 stack's parameter count at the paper's ~0.5 M (see
    :func:`repro.nn.models.build_cifar10_cnn`).

    Hot-path layout: patches are gathered through a cached
    :class:`~repro.nn.functional.ConvPlan` into the channel-major GEMM matrix
    ``(N, C*kh*kw, OH*OW)``, so forward is a single ``W @ col`` batched GEMM
    that lands directly in NCHW, and backward's input gradient and scatter-add
    reuse the same layout.  All large temporaries (padded input, col, output,
    gradient buffers) come from the layer's :class:`BufferPool` and are
    reused across steps.  ``backward`` writes the input-gradient columns over
    ``col`` once the weight gradient has read it, so a step holds one
    im2col-sized buffer, and drops its reference, never keeping it between
    steps.  An eval-mode forward keeps nothing and unfolds at most the largest
    training batch this layer has seen at a time (the whole batch before any
    training), each slab's GEMM landing in a full-batch output of the call's
    own: ``matmul`` runs one GEMM per example, so the slabs change no bit of
    the result.  A slab unfolds into the training pool's ``col`` (and padded
    input), idle between steps, when it fits there, so evaluation allocates
    no im2col storage and the pool does not grow.
    """

    gives_scratch = True

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: int | Tuple[int, int],
        stride: int = 1,
        padding: int = 0,
        bias: bool = True,
        dtype=np.float32,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        if isinstance(kernel_size, int):
            kernel_size = (kernel_size, kernel_size)
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kh, self.kw = kernel_size
        if self.kh < 1 or self.kw < 1:
            raise ValueError(f"bad kernel size {kernel_size}")
        if stride < 1:
            raise ValueError(f"stride must be >= 1, got {stride}")
        if padding < 0:
            raise ValueError(f"padding must be >= 0, got {padding}")
        self.stride = stride
        self.padding = padding
        self.config = (in_channels, out_channels, kernel_size, stride, padding, bias)
        rng = rng if rng is not None else np.random.default_rng(0)
        fan_in = in_channels * self.kh * self.kw
        w = np.empty((out_channels, in_channels, self.kh, self.kw), dtype=dtype)
        torch_uniform_(w, fan_in, rng)
        self.weight = self.register_parameter(Parameter(w, "weight"))
        if bias:
            b = np.empty(out_channels, dtype=dtype)
            torch_uniform_(b, fan_in, rng)
            self.bias: Optional[Parameter] = self.register_parameter(Parameter(b, "bias"))
        else:
            self.bias = None
        self._pool = BufferPool()
        self._col: Optional[np.ndarray] = None
        self._plan: Optional[ConvPlan] = None
        self._batch = 0  # largest training batch seen: an eval forward's slab size

    def forward(self, x: np.ndarray) -> np.ndarray:
        n, c, h, w = x.shape
        if c != self.in_channels:
            raise ValueError(f"expected {self.in_channels} channels, got {c}")
        if self.training:
            self._batch = max(self._batch, n)
        # eval: im2col + GEMM one training batch at a time (an empty batch: one empty slab)
        step = min(n, self._batch or n) or 1
        plan = conv_plan(step, c, h, w, self.kh, self.kw, self.stride, self.padding)
        wmat = self.weight.data.reshape(self.out_channels, -1)
        shape = (n, self.out_channels, plan.p)
        dtype = np.result_type(wmat.dtype, x.dtype)
        if self.training:
            pool = self._pool
            y = pool.get("y", shape, dtype)
        else:  # y is the call's own; the slabs unfold into the idle training pool if they fit
            y = np.empty(shape, dtype)
            fits = self._pool.fits("col", (step, plan.k, plan.p), x.dtype) and (
                self.padding == 0 or self._pool.fits("col.pad", plan.padded_shape, x.dtype)
            )
            pool = self._pool if fits else BufferPool()
        for lo in range(0, n or 1, step):
            xs = x[lo : lo + step]
            if len(xs) < step:  # the last, partial slab
                plan = conv_plan(len(xs), c, h, w, self.kh, self.kw, self.stride, self.padding)
            col = plan.extract(xs, pool=pool)  # (S, K, P) channel-major
            np.matmul(wmat, col, out=y[lo : lo + step])  # (F, K) @ (S, K, P) -> (S, F, P)
        self._col = col if self.training else None
        self._plan = plan if self.training else None
        if self.bias is not None:
            y += self.bias.data[:, None]
        return y.reshape(n, self.out_channels, plan.oh, plan.ow)

    def backward(self, grad_out: np.ndarray, input_grad: bool = True) -> Optional[np.ndarray]:
        col, plan = self._col, self._plan
        if col is None or plan is None:
            raise RuntimeError("backward before forward")
        self._col = None  # the buffer goes back to the pool, not kept alive here
        self._plan = None
        n, f = plan.n, self.out_channels
        gof = grad_out.reshape(n, f, plan.p)
        wmat = self.weight.data.reshape(f, -1)
        out_dtype = np.result_type(wmat.dtype, gof.dtype)
        # weight grad: per-example GEMMs summed over the batch
        gw3 = self._pool.get("gw3", (n, f, plan.k), out_dtype)
        np.matmul(gof, col.transpose(0, 2, 1), out=gw3)
        gw = self._pool.get("gw", (f, plan.k), out_dtype)
        gw3.sum(axis=0, out=gw)
        self.weight.grad += gw.reshape(self.weight.data.shape)
        if self.bias is not None:
            self.bias.grad += gof.sum(axis=(0, 2))
        if not input_grad:
            return None
        # nothing reads col after gw3: the input-gradient columns overwrite it
        np.matmul(wmat.T, gof, out=col)  # (K, F) @ (N, F, P) -> (N, K, P)
        return plan.fold(col, pool=self._pool)

    @classmethod
    def geometry(
        cls,
        in_shape: Tuple[int, ...],
        in_channels: int,
        out_channels: int,
        kernel_size: int | Tuple[int, int],
        stride: int = 1,
        padding: int = 0,
        bias: bool = True,
    ) -> Geometry:
        kh, kw = (kernel_size, kernel_size) if isinstance(kernel_size, int) else kernel_size
        c, h, w = in_shape
        if c != in_channels:
            raise ValueError(f"shape {in_shape} incompatible with {in_channels} input channels")
        oh, ow = conv2d_output_hw(h, w, kh, kw, stride, padding)
        macs = oh * ow * out_channels * in_channels * kh * kw
        params = out_channels * in_channels * kh * kw + (out_channels if bias else 0)
        return (out_channels, oh, ow), 2.0 * macs, params

    def extra_repr(self) -> str:
        return (
            f"{self.in_channels}->{self.out_channels}, k=({self.kh},{self.kw}), "
            f"stride={self.stride}, pad={self.padding}"
        )
