"""Weight initialiser.

Torch7's ``reset()``: uniform in ±1/sqrt(fan_in) for both weights and
biases — the initialisation the paper's networks trained under.
"""

from __future__ import annotations

import numpy as np

__all__ = ["torch_uniform_"]


def torch_uniform_(arr: np.ndarray, fan_in: int, rng: np.random.Generator) -> np.ndarray:
    """Torch7 default: U(−1/√fan_in, +1/√fan_in), in place."""
    if fan_in <= 0:
        raise ValueError(f"fan_in must be positive, got {fan_in}")
    stdv = 1.0 / np.sqrt(fan_in)
    arr[...] = rng.uniform(-stdv, stdv, size=arr.shape).astype(arr.dtype, copy=False)
    return arr

