"""Elementwise activations and the Flatten reshape layer."""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from .bufferpool import BufferPool
from .module import Geometry, Module

__all__ = ["ReLU", "Tanh", "Flatten"]


class ReLU(Module):
    """Rectified linear unit (used after every CIFAR-10 conv layer).

    ``y`` is written over a scratch input and ``gx`` over a scratch
    ``grad_out`` (see ``Module.gives_scratch``); otherwise they, like the
    mask, come from the layer's pool and are reused across steps.  The
    products are the same ``x * mask`` and ``grad_out * mask`` either way,
    so no bit depends on where they land.  Eval mode keeps no mask.
    """

    gives_scratch = True
    per_example = True

    def __init__(self) -> None:
        super().__init__()
        self._pool = BufferPool()
        self._mask: Optional[np.ndarray] = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        mask = self._pool.get("mask", x.shape, np.bool_, grow=self.training)
        np.greater(x, 0, out=mask)
        self._mask = mask if self.training else None
        y = x if self._x_scratch else self._pool.get("y", x.shape, x.dtype, grow=self.training)
        np.multiply(x, mask, out=y)
        return y

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        mask = self._mask
        if mask is None:
            raise RuntimeError("backward before forward")
        self._mask = None
        if self._grad_scratch:
            gx = grad_out
        else:
            gx = self._pool.get("gx", grad_out.shape, grad_out.dtype)
        np.multiply(grad_out, mask, out=gx)
        return gx

    @classmethod
    def geometry(cls, in_shape: Tuple[int, ...]) -> Geometry:
        return in_shape, float(np.prod(in_shape)), 0


class Tanh(Module):
    """Hyperbolic tangent (the NLC-F network's non-linearity)."""

    per_example = True

    def __init__(self) -> None:
        super().__init__()
        self._pool = BufferPool()
        self._y: Optional[np.ndarray] = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        y = self._pool.get("y", x.shape, np.result_type(x.dtype, np.float32), grow=self.training)
        np.tanh(x, out=y)
        self._y = y if self.training else None
        return y

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        y = self._y
        if y is None:
            raise RuntimeError("backward before forward")
        self._y = None
        gx = self._pool.get("gx", grad_out.shape, np.result_type(grad_out, y))
        np.multiply(y, y, out=gx)
        np.subtract(1.0, gx, out=gx)
        np.multiply(gx, grad_out, out=gx)
        return gx

    @classmethod
    def geometry(cls, in_shape: Tuple[int, ...]) -> Geometry:
        return in_shape, 5.0 * float(np.prod(in_shape)), 0  # tanh ≈ a few flops/elt


class Flatten(Module):
    """Collapse all per-example axes to one (before the classifier head)."""

    per_example = True

    def __init__(self) -> None:
        super().__init__()
        self._shape: Optional[Tuple[int, ...]] = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._shape = x.shape
        return x.reshape(x.shape[0], -1)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        shape = self._shape
        if shape is None:
            raise RuntimeError("backward before forward")
        self._shape = None
        return grad_out.reshape(shape)

    @classmethod
    def geometry(cls, in_shape: Tuple[int, ...]) -> Geometry:
        return (int(np.prod(in_shape)),), 0.0, 0
