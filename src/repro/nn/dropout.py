"""Inverted dropout (Srivastava et al., the paper's regulariser)."""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from .module import Geometry, Module

__all__ = ["Dropout"]


class Dropout(Module):
    """Zero each activation with probability ``p`` and rescale by 1/(1−p).

    Inverted scaling (as in Torch's ``nn.Dropout``) keeps evaluation a no-op.
    The RNG is injected per learner via ``Module.set_rng`` so distributed
    replicas draw independent masks while staying reproducible.
    """

    per_example = True

    def __init__(self, p: float = 0.5, rng: Optional[np.random.Generator] = None) -> None:
        super().__init__()
        if not (0.0 <= p < 1.0):
            raise ValueError(f"dropout probability must be in [0, 1), got {p}")
        self.p = p
        self.config = (p,)
        self.rng = rng if rng is not None else np.random.default_rng(0)
        self._mask: Optional[np.ndarray] = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        if not self.training or self.p == 0.0:
            self._mask = None
            return x
        keep = 1.0 - self.p
        scale = x.dtype.type(1) / x.dtype.type(keep)
        self._mask = mask = np.multiply(self.rng.random(x.shape) < keep, scale)
        return x * mask

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._mask is None:
            return grad_out
        mask = self._mask
        self._mask = None
        return grad_out * mask

    @classmethod
    def geometry(cls, in_shape: Tuple[int, ...], p: float = 0.5) -> Geometry:
        return in_shape, float(np.prod(in_shape)), 0

    def extra_repr(self) -> str:
        return f"p={self.p}"
