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
    reuse the same layout.  All large temporaries come from the layer's
    :class:`BufferPool`.  ``backward`` adds the weight gradient up one
    example's GEMM at a time in its ``(F, K)`` buffer, in the order
    ``sum(axis=0)`` adds, then writes the input-gradient columns over ``col``
    and drops it: a step holds one im2col-sized buffer and keeps none.
    """

    gives_scratch = True
    per_example = True  # matmul runs one GEMM per example

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

    def forward(self, x: np.ndarray) -> np.ndarray:
        n, c, h, w = x.shape
        if c != self.in_channels:
            raise ValueError(f"expected {self.in_channels} channels, got {c}")
        plan = conv_plan(n, c, h, w, self.kh, self.kw, self.stride, self.padding)
        wmat = self.weight.data.reshape(self.out_channels, -1)
        col = plan.extract(x, self._pool, grow=self.training)  # (N, K, P) channel-major
        y = self._pool.get("y", (n, self.out_channels, plan.p),
                           np.result_type(wmat.dtype, x.dtype), grow=self.training)
        np.matmul(wmat, col, out=y)  # (F, K) @ (N, K, P) -> (N, F, P)
        self._col, self._plan = (col, plan) if self.training else (None, None)
        if self.bias is not None:
            y += self.bias.data[:, None]
        return y.reshape(n, self.out_channels, plan.oh, plan.ow)

    def backward(self, grad_out: np.ndarray, input_grad: bool = True) -> Optional[np.ndarray]:
        col, plan = self._col, self._plan
        if col is None or plan is None:
            raise RuntimeError("backward before forward")
        self._col = self._plan = None  # the buffer goes back to the pool, not kept here
        n, f = plan.n, self.out_channels
        gof = grad_out.reshape(n, f, plan.p)
        wmat = self.weight.data.reshape(f, -1)
        out_dtype = np.result_type(wmat.dtype, gof.dtype)
        # weight grad: one GEMM per example, added in batch order (zeros: n = 0)
        gw = self._pool.zeros("gw", (f, plan.k), out_dtype)
        gwi = self._pool.get("gw.i", (f, plan.k), out_dtype)
        for i in range(n):
            np.matmul(gof[i], col[i].T, out=gw if i == 0 else gwi)
            if i:
                gw += gwi
        self.weight.grad += gw.reshape(self.weight.data.shape)
        if self.bias is not None:
            self.bias.grad += gof.sum(axis=(0, 2))
        if not input_grad:
            return None
        # nothing reads col after gw: the input-gradient columns overwrite it
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
