"""Fully connected layer."""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from .bufferpool import BufferPool
from .init import torch_uniform_
from .module import Geometry, Module, Parameter

__all__ = ["Linear"]


class Linear(Module):
    """``y = x @ W.T + b`` applied to the last axis.

    Accepts any leading shape — ``(N, in)`` for the classifier heads,
    ``(N, L, in)`` for the per-token projection in the NLC-F network's first
    stage (Table II applies "Fully connected layer: 100 × 200" to every
    word2vec token).
    """

    gives_scratch = True

    def __init__(
        self,
        in_features: int,
        out_features: int,
        bias: bool = True,
        dtype=np.float32,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        if in_features < 1 or out_features < 1:
            raise ValueError("feature counts must be >= 1")
        self.in_features = in_features
        self.out_features = out_features
        self.config = (in_features, out_features, bias)
        rng = rng if rng is not None else np.random.default_rng(0)
        w = np.empty((out_features, in_features), dtype=dtype)
        torch_uniform_(w, in_features, rng)
        self.weight = self.register_parameter(Parameter(w, "weight"))
        if bias:
            b = np.empty(out_features, dtype=dtype)
            torch_uniform_(b, in_features, rng)
            self.bias: Optional[Parameter] = self.register_parameter(Parameter(b, "bias"))
        else:
            self.bias = None
        self._pool = BufferPool()
        self._x: Optional[np.ndarray] = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        if x.shape[-1] != self.in_features:
            raise ValueError(
                f"expected last dim {self.in_features}, got input shape {x.shape}"
            )
        self._x = x if self.training else None
        y = x @ self.weight.data.T
        if self.bias is not None:
            y += self.bias.data
        return y

    def backward(self, grad_out: np.ndarray, input_grad: bool = True) -> Optional[np.ndarray]:
        x = self._x
        if x is None:
            raise RuntimeError("backward before forward")
        self._x = None
        go2 = grad_out.reshape(-1, self.out_features)
        x2 = x.reshape(-1, self.in_features)
        out_dtype = np.result_type(go2.dtype, x2.dtype)
        gw = self._pool.get("gw", self.weight.data.shape, out_dtype)
        if go2.shape[0] == 1:  # minibatch 1, the paper's NLC-F setting: the outer
            # product itself — a K = 1 matmul misses BLAS and takes 3x as long
            np.multiply(go2.T, x2, out=gw)
        else:
            np.matmul(go2.T, x2, out=gw)  # staged so += never allocates a temp
        self.weight.grad += gw
        if self.bias is not None:
            self.bias.grad += go2.sum(axis=0)
        if not input_grad:
            return None
        return (grad_out @ self.weight.data).reshape(x.shape)

    @classmethod
    def geometry(
        cls, in_shape: Tuple[int, ...], in_features: int, out_features: int, bias: bool = True
    ) -> Geometry:
        if in_shape[-1] != in_features:
            raise ValueError(f"shape {in_shape} incompatible with {in_features} input features")
        tokens = float(np.prod(in_shape[:-1])) if len(in_shape) > 1 else 1.0
        params = out_features * in_features + (out_features if bias else 0)
        return in_shape[:-1] + (out_features,), tokens * 2.0 * in_features * out_features, params

    def extra_repr(self) -> str:
        return f"{self.in_features}x{self.out_features}, bias={self.bias is not None}"
