"""Loss criteria ("Cross-entropy error" in both paper networks)."""

from __future__ import annotations

from typing import Optional

import numpy as np

from .functional import log_softmax

__all__ = ["CrossEntropyLoss", "accuracy"]


class CrossEntropyLoss:
    """Softmax cross entropy on raw logits, mean-reduced over the batch.

    ``forward(logits, labels)`` returns the scalar loss;
    ``backward()`` returns ``d loss / d logits`` with the same 1/N scaling,
    which is what feeds the network's ``backward``.  Losses are criteria, not
    :class:`~repro.nn.module.Module` layers (they carry the labels), matching
    the Torch ``nn.Criterion`` split.
    """

    def __init__(self) -> None:
        self._probs: Optional[np.ndarray] = None
        self._labels: Optional[np.ndarray] = None

    def forward(self, logits: np.ndarray, labels: np.ndarray) -> float:
        if logits.ndim != 2:
            raise ValueError(f"logits must be (N, K), got {logits.shape}")
        labels = np.asarray(labels)
        if labels.shape != (logits.shape[0],):
            raise ValueError(
                f"labels shape {labels.shape} does not match batch {logits.shape[0]}"
            )
        if labels.size and (labels.min() < 0 or labels.max() >= logits.shape[1]):
            raise ValueError("label out of range")
        logp = log_softmax(logits, axis=1)
        self._probs = np.exp(logp)
        self._labels = labels
        n = logits.shape[0]
        return float(-logp[np.arange(n), labels].mean())

    def __call__(self, logits: np.ndarray, labels: np.ndarray) -> float:
        return self.forward(logits, labels)

    def backward(self) -> np.ndarray:
        probs, labels = self._probs, self._labels
        if probs is None or labels is None:
            raise RuntimeError("backward before forward")
        self._probs = None
        self._labels = None
        n = probs.shape[0]
        grad = probs.copy()
        grad[np.arange(n), labels] -= 1.0
        grad /= n
        return grad


def accuracy(logits: np.ndarray, labels: np.ndarray) -> float:
    """Fraction of rows whose argmax matches the label."""
    labels = np.asarray(labels)
    if logits.shape[0] == 0:
        return 0.0
    return float((logits.argmax(axis=1) == labels).mean())
