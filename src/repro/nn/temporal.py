"""Temporal (1-D) layers for the NLC-F sentence network.

Input convention follows Torch's temporal modules: ``(N, L, C)`` — batch,
sequence length, frame size.  Table II's "Temporal Convolution: (nkern,
window size) = (1000, 2)" is :class:`TemporalConvolution` with ``kw=2``;
the "Max-Pooling (2, 1)" row is :class:`TemporalMaxPooling(2)`; and
:class:`MaxOverTime` collapses the remaining variable-length sequence to a
fixed vector before the fully connected head (the standard max-over-time
read-out for sentence classification — the paper's table omits this glue, but
the 1000×1000 FC that follows requires it; see DESIGN.md).
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .bufferpool import BufferPool
from .init import torch_uniform_
from .module import Geometry, Module, Parameter
from .pool import MaxPool2d

__all__ = ["TemporalConvolution", "TemporalMaxPooling", "MaxOverTime"]


class TemporalConvolution(Module):
    """1-D convolution over the sequence axis, stride 1.

    ``(N, L, Cin) → (N, L−kw+1, Cout)`` with weight ``(Cout, kw*Cin)`` exactly
    as Torch's ``nn.TemporalConvolution`` lays it out.

    The unfold is a zero-copy ``as_strided`` view gathered straight into the
    Torch ``(k, c)`` column order (no transpose copy), and the backward
    overlap-add is vectorised: each window offset's contribution lands on a
    diagonal-shifted strided view of one scratch buffer, which then collapses
    with a single ``sum`` — no Python loop over ``kw``.  Large temporaries
    are pooled and reused across steps (eval mode: fresh, no col kept), and
    the input-gradient columns overwrite ``col`` once ``gw`` has read it.
    """

    def __init__(
        self,
        input_frame_size: int,
        output_frame_size: int,
        kw: int,
        bias: bool = True,
        dtype=np.float32,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        if kw < 1:
            raise ValueError(f"kw must be >= 1, got {kw}")
        self.cin = input_frame_size
        self.cout = output_frame_size
        self.kw = kw
        self.config = (input_frame_size, output_frame_size, kw, bias)
        rng = rng if rng is not None else np.random.default_rng(0)
        fan_in = kw * input_frame_size
        w = np.empty((output_frame_size, fan_in), dtype=dtype)
        torch_uniform_(w, fan_in, rng)
        self.weight = self.register_parameter(Parameter(w, "weight"))
        if bias:
            b = np.empty(output_frame_size, dtype=dtype)
            torch_uniform_(b, fan_in, rng)
            self.bias: Optional[Parameter] = self.register_parameter(Parameter(b, "bias"))
        else:
            self.bias = None
        self._pool = BufferPool()
        self._col: Optional[np.ndarray] = None
        self._x_shape: Optional[Tuple[int, ...]] = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        n, ell, c = x.shape
        if c != self.cin:
            raise ValueError(f"expected frame size {self.cin}, got {c}")
        if ell < self.kw:
            raise ValueError(f"sequence length {ell} shorter than window {self.kw}")
        lo = ell - self.kw + 1
        if not x.flags.c_contiguous:
            x = np.ascontiguousarray(x)
        # windows over time, read directly in (N, LO, kw, C) order: position t's
        # window rows t..t+kw-1 are consecutive input frames, so the view just
        # repeats the frame stride — no transpose, no copy until the gather.
        s0, s1, s2 = x.strides
        win = as_strided(x, shape=(n, lo, self.kw, c), strides=(s0, s1, s1, s2))
        col = self._pool.get("col", (n, lo, self.kw * c), x.dtype, grow=self.training)
        col.reshape(n, lo, self.kw, c)[...] = win
        self._col = col if self.training else None
        self._x_shape = x.shape
        out_dtype = np.result_type(self.weight.data.dtype, col.dtype)
        y = self._pool.get("y", (n, lo, self.cout), out_dtype, grow=self.training)
        np.matmul(col, self.weight.data.T, out=y)
        if self.bias is not None:
            y += self.bias.data
        return y

    def backward(self, grad_out: np.ndarray, input_grad: bool = True) -> Optional[np.ndarray]:
        col, x_shape = self._col, self._x_shape
        if col is None or x_shape is None:
            raise RuntimeError("backward before forward")
        self._col = None
        self._x_shape = None
        n, ell, c = x_shape
        lo = ell - self.kw + 1
        go2 = grad_out.reshape(-1, self.cout)
        col2 = col.reshape(-1, self.kw * c)
        out_dtype = np.result_type(self.weight.data.dtype, go2.dtype)
        gw = self._pool.get("gw", self.weight.data.shape, out_dtype)
        np.matmul(go2.T, col2, out=gw)
        self.weight.grad += gw
        if self.bias is not None:
            self.bias.grad += go2.sum(axis=0)
        if not input_grad:
            return None
        # nothing reads col after gw: the input-gradient columns overwrite it
        gcol = np.matmul(grad_out, self.weight.data, out=col)
        # overlap-add without a kw loop: writing window offset k's plane onto a
        # view shifted k frames along the time axis places every contribution,
        # then one sum over the kw axis folds them into grad_x.
        scat = self._pool.zeros("scat", (n, self.kw, ell, c), out_dtype)
        b0, b1, b2, b3 = scat.strides
        diag = as_strided(scat, shape=(n, self.kw, lo, c), strides=(b0, b1 + b2, b2, b3))
        diag[...] = gcol.reshape(n, lo, self.kw, c).transpose(0, 2, 1, 3)
        gx = self._pool.get("gx", x_shape, out_dtype)
        scat.sum(axis=1, out=gx)
        return gx

    @classmethod
    def geometry(
        cls,
        in_shape: Tuple[int, ...],
        input_frame_size: int,
        output_frame_size: int,
        kw: int,
        bias: bool = True,
    ) -> Geometry:
        ell, c = in_shape
        if c != input_frame_size or ell < kw:
            raise ValueError(f"shape {in_shape} incompatible with frame {input_frame_size}, kw={kw}")
        lo = ell - kw + 1
        params = output_frame_size * kw * input_frame_size + (output_frame_size if bias else 0)
        return (lo, output_frame_size), 2.0 * lo * kw * input_frame_size * output_frame_size, params

    def extra_repr(self) -> str:
        return f"{self.cin}->{self.cout}, kw={self.kw}"


class TemporalMaxPooling(Module):
    """Non-overlapping max pooling over time: ``(N, L, C) → (N, L//kw, C)``,
    run as a ``(kw, 1)`` :class:`MaxPool2d` over the ``(N, 1, L, C)`` image."""

    def __init__(self, kw: int) -> None:
        super().__init__()
        if kw < 1:
            raise ValueError(f"kw must be >= 1, got {kw}")
        self.kw = kw
        self.config = (kw,)
        self._pool2d = self.register_child(MaxPool2d((kw, 1)))

    def forward(self, x: np.ndarray) -> np.ndarray:
        if x.shape[1] < self.kw:
            raise ValueError(f"sequence length {x.shape[1]} shorter than pool {self.kw}")
        return self._pool2d.forward(x[:, None])[:, 0]

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        return self._pool2d.backward(grad_out[:, None])[:, 0]

    @classmethod
    def geometry(cls, in_shape: Tuple[int, ...], kw: int) -> Geometry:
        ell, c = in_shape
        lo = ell // kw
        if lo < 1:
            raise ValueError(f"shape {in_shape} too short for pool kw={kw}")
        return (lo, c), float(lo * c * kw), 0

    def extra_repr(self) -> str:
        return f"kw={self.kw}"


class MaxOverTime(Module):
    """Global max over the sequence axis: ``(N, L, C) → (N, C)``; training mode
    also masks the first time step equal to it, which is where backward routes."""

    def __init__(self) -> None:
        super().__init__()
        self._pool = BufferPool()
        self._hits: Optional[np.ndarray] = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        n, _, c = x.shape
        out = self._pool.get("y", (n, c), x.dtype, grow=self.training)
        x.max(axis=1, out=out)
        self._hits = None
        if self.training:
            self._hits = hits = self._pool.get("hits", x.shape, np.bool_)
            np.equal(x, out[:, None, :], out=hits)
            # a repeated maximum keeps only its first time step
            seen = self._pool.get("seen", x.shape, np.bool_)
            np.logical_or.accumulate(hits, axis=1, out=seen)
            np.greater(hits[:, 1:], seen[:, :-1], out=hits[:, 1:])
        return out

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        hits = self._hits
        if hits is None:
            raise RuntimeError("backward before forward")
        self._hits = None
        gx = self._pool.get("gx", hits.shape, grad_out.dtype)
        np.multiply(grad_out[:, None, :], hits, out=gx)
        return gx

    @classmethod
    def geometry(cls, in_shape: Tuple[int, ...]) -> Geometry:
        return in_shape[1:], float(np.prod(in_shape)), 0
