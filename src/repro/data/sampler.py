"""Minibatch sampling over one learner's shard.

Data parallelism in all three distributed algorithms follows the paper's
setup: the training set is partitioned across the p learners, each learner
draws random minibatches from *its* shard, and "one pass of the input"
(an epoch) means the learners have collectively touched every example once.
"""

from __future__ import annotations

from typing import Iterator, List

import numpy as np

__all__ = ["MinibatchSampler"]


class MinibatchSampler:
    """Endless stream of minibatch index arrays over a fixed index set.

    Each *local epoch* is a fresh random permutation cut into minibatches
    (the final short batch is kept, so every example is seen once per pass).
    ``steps_per_epoch`` tells trainers how many ``next()`` calls constitute
    one pass.
    """

    def __init__(
        self,
        indices: np.ndarray,
        batch_size: int,
        rng: np.random.Generator,
        drop_last: bool = False,
    ) -> None:
        indices = np.asarray(indices)
        if indices.ndim != 1 or indices.size == 0:
            raise ValueError("indices must be a non-empty 1-D array")
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        self.indices = indices
        self.batch_size = batch_size
        self.rng = rng
        self.drop_last = drop_last
        self._queue: List[np.ndarray] = []
        self.epochs_completed = 0

    @property
    def steps_per_epoch(self) -> int:
        n = self.indices.size
        if self.drop_last:
            return max(1, n // self.batch_size)
        return (n + self.batch_size - 1) // self.batch_size

    def _refill(self) -> None:
        perm = self.indices.copy()
        self.rng.shuffle(perm)
        batches = [
            perm[i : i + self.batch_size]
            for i in range(0, perm.size, self.batch_size)
        ]
        if self.drop_last and batches and batches[-1].size < self.batch_size:
            batches.pop()
        self._queue = batches[::-1]  # pop from the end

    def next(self) -> np.ndarray:
        if not self._queue:
            self._refill()
        batch = self._queue.pop()
        if not self._queue:
            self.epochs_completed += 1
        return batch

    def __iter__(self) -> Iterator[np.ndarray]:
        while True:
            yield self.next()
