"""Gradient compression for the aggregation step (extension).

SASGD's *sparse aggregation* is sparse **in time** — one allreduce every T
steps.  The natural follow-on (explored by the gradient-compression
literature contemporaneous with the paper) is sparsity **in space**: ship
only the largest-magnitude gradient coordinates each aggregation and carry
the residual forward ("error feedback"), cutting the allreduce payload by
10–100× at a small accuracy cost.  This module implements that extension so
the trade-off can be measured against the paper's plain SASGD:

* :class:`TopKCompressor` — keep the k largest |g_i| coordinates;
* :class:`RandomKCompressor` — keep k coordinates chosen uniformly (unbiased
  when rescaled, the classic baseline top-k is compared against);
* :class:`ErrorFeedback` — accumulate what compression dropped and add it
  back before the next aggregation, which is what makes aggressive sparsity
  converge.

Compressed payloads travel as ``(indices, values)`` pairs; the byte cost
charged to the fabric is ``k·(4 + itemsize)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

__all__ = [
    "CompressedGradient",
    "TopKCompressor",
    "RandomKCompressor",
    "ErrorFeedback",
    "make_compressor",
]


@dataclass(frozen=True)
class CompressedGradient:
    """A sparse slice of a gradient vector: coordinates + values + size."""

    indices: np.ndarray  # int32, sorted
    values: np.ndarray
    size: int  # length of the dense vector

    @property
    def nbytes(self) -> float:
        return float(self.indices.nbytes + self.values.nbytes)

    def densify(self) -> np.ndarray:
        out = np.zeros(self.size, dtype=self.values.dtype)
        out[self.indices] = self.values
        return out


class TopKCompressor:
    """Keep the ``k_frac`` fraction of coordinates with largest magnitude."""

    name = "topk"

    def __init__(self, k_frac: float) -> None:
        if not (0.0 < k_frac <= 1.0):
            raise ValueError(f"k_frac must be in (0, 1], got {k_frac}")
        self.k_frac = k_frac

    def k_for(self, size: int) -> int:
        return max(1, int(round(self.k_frac * size)))

    def compress(self, grad: np.ndarray, rng: Optional[np.random.Generator] = None) -> CompressedGradient:
        k = self.k_for(grad.size)
        if k >= grad.size:
            idx = np.arange(grad.size, dtype=np.int32)
        else:
            idx = np.argpartition(np.abs(grad), -k)[-k:].astype(np.int32)
            idx.sort()
        return CompressedGradient(indices=idx, values=grad[idx].copy(), size=grad.size)


class RandomKCompressor:
    """Keep a uniformly random ``k_frac`` fraction, rescaled to be unbiased."""

    name = "randomk"

    def __init__(self, k_frac: float) -> None:
        if not (0.0 < k_frac <= 1.0):
            raise ValueError(f"k_frac must be in (0, 1], got {k_frac}")
        self.k_frac = k_frac

    def k_for(self, size: int) -> int:
        return max(1, int(round(self.k_frac * size)))

    def compress(self, grad: np.ndarray, rng: Optional[np.random.Generator] = None) -> CompressedGradient:
        rng = rng if rng is not None else np.random.default_rng(0)
        k = self.k_for(grad.size)
        if k >= grad.size:
            idx = np.arange(grad.size, dtype=np.int32)
            scale = 1.0
        else:
            idx = rng.choice(grad.size, size=k, replace=False).astype(np.int32)
            idx.sort()
            scale = grad.size / k  # E[densify] == grad
        return CompressedGradient(indices=idx, values=grad[idx] * scale, size=grad.size)


class ErrorFeedback:
    """Residual accumulator: compress(g + e); e ← (g + e) − sent.

    Wraps any compressor.  Without this, top-k at small k stalls: the same
    large coordinates win every round and the rest never move.
    """

    def __init__(self, compressor, size: int, dtype=np.float32) -> None:
        self.compressor = compressor
        self.residual = np.zeros(size, dtype=dtype)

    @property
    def name(self) -> str:
        return f"{self.compressor.name}+ef"

    def compress(self, grad: np.ndarray, rng: Optional[np.random.Generator] = None) -> CompressedGradient:
        if grad.shape != self.residual.shape:
            raise ValueError(f"shape mismatch: {grad.shape} vs {self.residual.shape}")
        corrected = grad + self.residual
        sparse = self.compressor.compress(corrected, rng)
        self.residual = corrected - sparse.densify()
        return sparse


def make_compressor(
    kind: Optional[str], k_frac: float, size: int, error_feedback: bool = True, dtype=np.float32
):
    """Factory used by the SASGD trainer: None / "topk" / "randomk"."""
    if kind is None:
        return None
    if kind == "topk":
        base = TopKCompressor(k_frac)
    elif kind == "randomk":
        base = RandomKCompressor(k_frac)
    else:
        raise ValueError(f"unknown compressor {kind!r}")
    return ErrorFeedback(base, size, dtype) if error_feedback else base
