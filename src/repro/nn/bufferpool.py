"""Reusable scratch buffers for the layer hot paths.

A :class:`BufferPool` gives each layer a small named set of flat
allocations, each grown to the largest request seen under its name and
handed out as a prefix view in the asked shape, so training faults no fresh
pages.  Models trained in one process share one pool per layer position.
Evaluation never grows a pool: an eval-mode request (``grow=False``) that
fits what a name holds is served from it, any other gets fresh storage.

Contract
--------
* Buffers returned by ``get`` contain garbage; callers must overwrite (or
  use ``zeros``).
* An array obtained from a pool, including layer *outputs* and *input
  gradients* built on pooled storage, is valid until the next gradient
  computation or evaluation in this process, whichever model it runs on.
  The training loops consume layer outputs immediately (``Sequential``
  chains them straight into the next layer), so this is invisible there;
  code that must retain a layer output across steps should ``copy()`` it.
  An evaluation runs between steps, never between a forward and its
  backward, so it may use the training storage.
* A layer overwrites an array only once nothing will read it again:
  - what its own ``forward`` filled, after its ``backward`` has read it for
    the last time: ``Conv2d`` and ``TemporalConvolution`` write the
    input-gradient columns over the im2col ``col`` right after the weight
    gradient is formed;
  - its forward input, when ``Sequential`` marked it scratch (the layer
    before keeps no reference to it, see ``Module.gives_scratch``):
    ``ReLU`` writes ``y`` over it, and ``MaxPool2d``, which reads it only in
    the forward, writes ``gx`` over it in the backward;
  - its ``grad_out``, when marked scratch: ``ReLU`` writes ``gx`` over it.
  A chain's input and the loss gradient are never scratch.
"""

from __future__ import annotations

import math
from typing import Dict, Tuple

import numpy as np

__all__ = ["BufferPool"]


class BufferPool:
    """Named scratch buffers, reused across calls.

    One flat allocation lives under each name.  A request that fits (same
    dtype, no more elements) is a C-contiguous view of its prefix; a larger
    one or another dtype replaces the allocation, so a pool never holds more
    than one array per name.
    """

    def __init__(self) -> None:
        # name -> the view handed out last; its ``.base`` is the flat storage
        self._bufs: Dict[str, np.ndarray] = {}

    def get(self, name: str, shape: Tuple[int, ...], dtype, grow: bool = True) -> np.ndarray:
        """A buffer of ``shape``/``dtype``; contents are unspecified.  Unless it
        may ``grow`` the pool, a request that does not fit gets a fresh array."""
        view = self._bufs.get(name)
        if view is not None and view.shape == shape and view.dtype == dtype:
            return view
        size = math.prod(shape)
        flat = None if view is None else view.base
        if flat is None or flat.dtype != dtype or flat.size < size:
            if not grow:
                return np.empty(shape, dtype)
            flat = np.empty(size, dtype)
        view = self._bufs[name] = flat[:size].reshape(shape)
        return view

    def zeros(self, name: str, shape: Tuple[int, ...], dtype, grow: bool = True) -> np.ndarray:
        """Like :meth:`get` but zero-filled."""
        buf = self.get(name, shape, dtype, grow)
        buf[...] = 0
        return buf
