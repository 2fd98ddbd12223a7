"""First-order optimisers over flat parameter vectors.

The distributed algorithms in :mod:`repro.algos` inline their update rules
(that *is* the paper's subject), but downstream users of the NN framework
want ordinary optimisers; these operate on a
:class:`~repro.nn.module.FlatParams` handle, the same flat buffer the
collectives move, so they compose with everything else.

Includes the momentum/Nesterov rule EAMSGD builds on and the step-decay
learning-rate schedule commonly paired with the paper's networks.
"""

from __future__ import annotations

import numpy as np

from .module import FlatParams

__all__ = ["SGD", "MomentumSGD", "StepDecaySchedule", "clip_grad_norm_"]


class SGD:
    """Plain SGD: ``x ← x − γ·g``; optional L2 weight decay.

    The step is allocation-free: the effective gradient is staged in one
    reusable work vector (``np.multiply``/``np.add`` with ``out=``), so the
    hot loop never touches the allocator and ``flat.data`` keeps its storage.
    """

    def __init__(self, flat: FlatParams, lr: float, weight_decay: float = 0.0) -> None:
        if lr <= 0:
            raise ValueError(f"lr must be positive, got {lr}")
        if weight_decay < 0:
            raise ValueError(f"weight_decay must be >= 0, got {weight_decay}")
        self.flat = flat
        self.lr = lr
        self.weight_decay = weight_decay
        self.steps = 0
        self._step_buf = np.empty_like(flat.data)

    def _effective_grad(self) -> np.ndarray:
        """``grad (+ weight_decay * data)`` staged in the step buffer."""
        buf = self._step_buf
        if self.weight_decay:
            np.multiply(self.flat.data, self.weight_decay, out=buf)
            np.add(buf, self.flat.grad, out=buf)
        else:
            np.copyto(buf, self.flat.grad)
        return buf

    def step(self) -> None:
        buf = self._effective_grad()
        np.multiply(buf, self.lr, out=buf)
        np.subtract(self.flat.data, buf, out=self.flat.data)
        self.steps += 1

    def zero_grad(self) -> None:
        self.flat.zero_grad()


class MomentumSGD(SGD):
    """Heavy-ball / Nesterov momentum: ``v ← δ·v − γ·g``; ``x ← x + v``.

    With ``nesterov=True`` the gradient is evaluated at the look-ahead point
    implicitly via the standard reformulation ``x ← x + δ·v − γ·g``.
    This is the local rule inside EAMSGD (δ = 0.9 in Zhang et al.).
    """

    def __init__(
        self,
        flat: FlatParams,
        lr: float,
        momentum: float = 0.9,
        nesterov: bool = False,
        weight_decay: float = 0.0,
    ) -> None:
        super().__init__(flat, lr, weight_decay)
        if not (0.0 <= momentum < 1.0):
            raise ValueError(f"momentum must be in [0, 1), got {momentum}")
        self.momentum = momentum
        self.nesterov = nesterov
        self.velocity = np.zeros_like(flat.data)
        self._lr_g = np.empty_like(flat.data)

    def step(self) -> None:
        g = self._effective_grad()
        lr_g = self._lr_g
        np.multiply(g, self.lr, out=lr_g)
        self.velocity *= self.momentum
        self.velocity -= lr_g
        if self.nesterov:
            # look-ahead step m·v − γ·g, staged in the (now free) grad buffer
            np.multiply(self.velocity, self.momentum, out=g)
            np.subtract(g, lr_g, out=g)
            np.add(self.flat.data, g, out=self.flat.data)
        else:
            np.add(self.flat.data, self.velocity, out=self.flat.data)
        self.steps += 1


class StepDecaySchedule:
    """Multiply the optimiser's lr by ``factor`` every ``every`` epochs."""

    def __init__(self, optimizer: SGD, every: int, factor: float = 0.1) -> None:
        if every < 1:
            raise ValueError(f"every must be >= 1, got {every}")
        if not (0.0 < factor <= 1.0):
            raise ValueError(f"factor must be in (0, 1], got {factor}")
        self.optimizer = optimizer
        self.every = every
        self.factor = factor
        self.base_lr = optimizer.lr
        self.epoch = 0

    def on_epoch_end(self) -> float:
        """Advance one epoch; returns the (possibly decayed) current lr."""
        self.epoch += 1
        self.optimizer.lr = self.base_lr * self.factor ** (self.epoch // self.every)
        return self.optimizer.lr


def clip_grad_norm_(flat: FlatParams, max_norm: float) -> float:
    """Scale ``flat.grad`` so its L2 norm is at most ``max_norm``.

    Returns the pre-clip norm.  A standard guard against the loss spikes that
    destabilise the asynchronous baselines at large p.
    """
    if max_norm <= 0:
        raise ValueError(f"max_norm must be positive, got {max_norm}")
    norm = float(np.linalg.norm(flat.grad))
    if norm > max_norm:
        flat.grad *= max_norm / (norm + 1e-12)
    return norm
