"""Dataset containers.

Two container shapes cover the paper's workloads: dense image tensors
(CIFAR-10) and variable-length embedded sentences (NLC-F, trained with
minibatch size 1).  Both are plain NumPy holders with deterministic
construction; all generators live in :mod:`repro.data.synth_cifar` and
:mod:`repro.data.synth_nlcf`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

__all__ = ["ArrayDataset", "SequenceDataset"]


@dataclass
class ArrayDataset:
    """Fixed-shape examples: ``x[i]`` is one example, ``y[i]`` its label."""

    x: np.ndarray
    y: np.ndarray
    num_classes: int
    name: str = "array-dataset"

    def __post_init__(self) -> None:
        if len(self.x) != len(self.y):
            raise ValueError(f"x/y length mismatch: {len(self.x)} vs {len(self.y)}")
        self.y = np.asarray(self.y, dtype=np.int64)
        if self.y.size and (self.y.min() < 0 or self.y.max() >= self.num_classes):
            raise ValueError("label out of range")

    def __len__(self) -> int:
        return len(self.x)

    def batch(self, idx: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        return self.x[idx], self.y[idx]

    def subset(self, idx: np.ndarray) -> "ArrayDataset":
        return ArrayDataset(self.x[idx], self.y[idx], self.num_classes, self.name)


@dataclass
class SequenceDataset:
    """Variable-length examples: ``sequences[i]`` is an ``(L_i, D)`` array."""

    sequences: List[np.ndarray]
    y: np.ndarray
    num_classes: int
    name: str = "sequence-dataset"

    def __post_init__(self) -> None:
        if len(self.sequences) != len(self.y):
            raise ValueError(
                f"x/y length mismatch: {len(self.sequences)} vs {len(self.y)}"
            )
        self.y = np.asarray(self.y, dtype=np.int64)
        if self.y.size and (self.y.min() < 0 or self.y.max() >= self.num_classes):
            raise ValueError("label out of range")
        dims = {s.shape[1] for s in self.sequences}
        if len(dims) > 1:
            raise ValueError(f"inconsistent embedding dims: {dims}")

    def __len__(self) -> int:
        return len(self.sequences)

    @property
    def embed_dim(self) -> int:
        return int(self.sequences[0].shape[1]) if self.sequences else 0

    def batch(self, idx: Sequence[int]) -> Tuple[np.ndarray, np.ndarray]:
        """Pad the selected sentences to a common length.

        Padding replicates each sentence's last token (max-pool read-outs are
        unaffected by replicated frames, unlike zero padding which could win
        the max for negative activations).
        """
        idx = np.asarray(idx)
        seqs = [self.sequences[i] for i in idx]
        max_len = max(s.shape[0] for s in seqs)
        dim = seqs[0].shape[1]
        out = np.empty((len(seqs), max_len, dim), dtype=seqs[0].dtype)
        for row, s in enumerate(seqs):
            out[row, : s.shape[0]] = s
            if s.shape[0] < max_len:
                out[row, s.shape[0] :] = s[-1]
        return out, self.y[idx]
