"""Pooling layers (spatial max pooling, Torch floor semantics)."""

from __future__ import annotations

import itertools
from typing import List, Optional, Tuple

import numpy as np

from .bufferpool import BufferPool
from .functional import max_over_views
from .module import Geometry, Module

__all__ = ["MaxPool2d"]


class MaxPool2d(Module):
    """Non-overlapping max pooling on NCHW input.

    Kernel equals stride (the paper's "(height, width) = (2, 2)" rows), with
    floor division: trailing rows/columns that don't fill a window are
    dropped, matching Torch's ``SpatialMaxPooling`` default.  The maximum is
    a running ``np.maximum`` over the ``kh*kw`` window-offset views of the
    input; in training mode one boolean mask per offset routes the gradient
    (first occurrence on ties), and backward is one masked multiply per
    offset.  A scratch input (see ``Module.gives_scratch``) is dead once the
    forward has read it, so backward writes ``gx`` over it instead of a
    pooled buffer.  Eval-mode forward keeps no routing state.
    """

    gives_scratch = True
    per_example = True

    def __init__(self, kernel_size: int | Tuple[int, int]) -> None:
        super().__init__()
        if isinstance(kernel_size, int):
            kernel_size = (kernel_size, kernel_size)
        self.kh, self.kw = kernel_size
        if self.kh < 1 or self.kw < 1:
            raise ValueError(f"bad kernel size {kernel_size}")
        self.config = (kernel_size,)
        self._pool = BufferPool()
        self._hits: Optional[np.ndarray] = None
        self._x: Optional[np.ndarray] = None  # the scratch input backward writes gx over
        self._x_shape: Optional[Tuple[int, ...]] = None

    def _offset_views(self, a: np.ndarray, oh: int, ow: int) -> List[np.ndarray]:
        """``a``'s ``kh*kw`` window-offset views, each ``(N, C, oh, ow)``."""
        he, we = oh * self.kh, ow * self.kw
        offsets = itertools.product(range(self.kh), range(self.kw))
        return [a[:, :, i : he : self.kh, j : we : self.kw] for i, j in offsets]

    def forward(self, x: np.ndarray) -> np.ndarray:
        h, w = x.shape[2:]
        oh, ow = h // self.kh, w // self.kw
        if oh < 1 or ow < 1:
            raise ValueError(f"input {h}x{w} smaller than pool {self.kh}x{self.kw}")
        views = self._offset_views(x, oh, ow)
        out, self._hits = max_over_views(views, self._pool, self.training)
        self._x = x if self._x_scratch and self.training else None
        self._x_shape = x.shape
        return out

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        hits, x_shape = self._hits, self._x_shape
        if hits is None or x_shape is None:
            raise RuntimeError("backward before forward")
        x, self._hits, self._x = self._x, None, None
        oh, ow = grad_out.shape[2:]
        if x is not None and x.dtype == grad_out.dtype:
            gx = x
        else:
            gx = self._pool.get("gx", x_shape, grad_out.dtype)
        gx[:, :, oh * self.kh :, :] = 0  # floor-division remainder only
        gx[:, :, : oh * self.kh, ow * self.kw :] = 0
        for hit, gv in zip(hits, self._offset_views(gx, oh, ow)):
            np.multiply(grad_out, hit, out=gv)
        return gx

    @classmethod
    def geometry(cls, in_shape: Tuple[int, ...], kernel_size: int | Tuple[int, int]) -> Geometry:
        kh, kw = (kernel_size, kernel_size) if isinstance(kernel_size, int) else kernel_size
        c, h, w = in_shape
        oh, ow = h // kh, w // kw
        if oh < 1 or ow < 1:
            raise ValueError(f"shape {in_shape} too small for pool {kh}x{kw}")
        return (c, oh, ow), float(c * oh * ow * kh * kw), 0  # one compare per element

    def extra_repr(self) -> str:
        return f"k=({self.kh},{self.kw})"
