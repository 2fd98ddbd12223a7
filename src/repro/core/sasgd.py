"""SASGD — sparse-aggregation SGD (the paper's Algorithm 1), cluster-free.

This module is the paper's contribution in its pure mathematical form,
independent of any simulated cluster: the per-learner interval state machine
and the global aggregation rule.  :mod:`repro.algos.sasgd` binds it to the
event-driven machine; the serial :func:`reference_sasgd` executes the exact
same math single-threaded and is the ground truth the distributed trainer is
tested against.

Algorithm 1 (notation as in the paper, Table III)::

    gs ← 0, i ← 0
    if id = 0: initialise parameters x
    x  ← broadcast(x, p, id)
    x' ← x
    while i < K:
        j ← 0
        while j < T:
            compute gradient g from a random minibatch
            x ← x − γ·g ;  gs ← gs + g
            j ← j + 1
        gs ← allreduce(gs, p, id)
        x ← x' − γp·gs          # global step from the interval anchor
        x' ← x ;  gs ← 0
        i ← i + 1

Two remarks the implementation makes explicit:

* **Anchor of the global step.** The paper's listing writes ``x ← x − γp·gs``
  but also maintains ``x'``; applying the aggregated step to the *interval
  anchor* ``x'`` is the only reading under which (a) ``x'`` is used at all,
  (b) all learners hold identical parameters after every aggregation (the
  bulk-synchronous property the analysis assumes), and (c) the paper's remark
  "Alg. 1 simulates model averaging with γp = 1/p" comes out exactly: each
  learner's drifted parameters are ``x' − γ·gs_id``, so their average is
  ``x' − (γ/p)·Σ_id gs_id`` — the anchored global step with ``γp = γ/p``
  (γp = 1/p of the *local step*, i.e. per unit of γ).  ``update_base`` keeps
  the literal-local variant available for ablation.
* **Two learning rates.** γ drives exploration within the interval, γp the
  committed global step; Theorem 2's constraint couples them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional

import numpy as np

from ..nn.module import FlatParams

__all__ = ["SASGDConfig", "SASGDLocalState", "sasgd_global_step", "reference_sasgd"]


@dataclass(frozen=True)
class SASGDConfig:
    """Hyper-parameters of Algorithm 1.

    ``T`` is the aggregation interval (T=1 is classic synchronous SGD), ``p``
    the learner count, ``gamma`` the local rate, ``gamma_p`` the global rate.
    ``gamma_p = gamma / p`` reproduces per-interval model averaging exactly.
    ``update_base`` selects the anchor for the global step:
    ``"interval_start"`` (default, consistent replicas) or ``"local"``
    (apply to each learner's drifted x — ablation variant).
    """

    T: int
    p: int
    gamma: float
    gamma_p: float
    update_base: str = "interval_start"

    def __post_init__(self) -> None:
        if self.T < 1:
            raise ValueError(f"T must be >= 1, got {self.T}")
        if self.p < 1:
            raise ValueError(f"p must be >= 1, got {self.p}")
        if self.gamma <= 0 or self.gamma_p <= 0:
            raise ValueError("learning rates must be positive")
        if self.update_base not in ("interval_start", "local"):
            raise ValueError(f"unknown update_base {self.update_base!r}")

    @classmethod
    def model_averaging(cls, T: int, p: int, gamma: float) -> "SASGDConfig":
        """The γp that makes Alg. 1 equal per-interval model averaging."""
        return cls(T=T, p=p, gamma=gamma, gamma_p=gamma / p)


def sasgd_global_step(
    anchor: np.ndarray, gs_sum: np.ndarray, gamma_p: float
) -> np.ndarray:
    """``x_new = x' − γp · allreduce(gs)`` — the global aggregation rule."""
    return anchor - gamma_p * gs_sum


class SASGDLocalState:
    """One learner's view of an aggregation interval.

    Drives the local loop against a :class:`~repro.nn.module.FlatParams`
    handle: the caller computes a gradient into ``flat.grad`` (however it
    likes — real model, simulated workload) and calls :meth:`local_step`.
    """

    def __init__(self, flat: FlatParams, config: SASGDConfig) -> None:
        self.flat = flat
        self.config = config
        self._anchor: Optional[np.ndarray] = None
        self.gs = np.zeros_like(flat.data)
        self.steps_in_interval = 0
        self.intervals_done = 0

    def begin_interval(self) -> None:
        """Snapshot x' and clear the gradient accumulator."""
        self._anchor = self.flat.copy_data()
        self.gs[...] = 0.0
        self.steps_in_interval = 0

    def local_step(self) -> None:
        """Consume ``flat.grad``: x ← x − γ·g and gs ← gs + g."""
        if self._anchor is None:
            raise RuntimeError("local_step before begin_interval")
        if self.steps_in_interval >= self.config.T:
            raise RuntimeError(f"interval already has T={self.config.T} steps")
        g = self.flat.grad
        self.flat.data -= self.config.gamma * g
        self.gs += g
        self.steps_in_interval += 1

    def apply_global(self, gs_sum: np.ndarray) -> None:
        """Install the post-allreduce parameters (all learners get the same)."""
        if self._anchor is None:
            raise RuntimeError("apply_global before begin_interval")
        if self.config.update_base == "interval_start":
            self.flat.set_data(sasgd_global_step(self._anchor, gs_sum, self.config.gamma_p))
        else:  # "local": step from the drifted parameters
            self.flat.data -= self.config.gamma_p * gs_sum
        self._anchor = None
        self.intervals_done += 1


def reference_sasgd(
    flats: List[FlatParams],
    grad_fns: List[Callable[[int], None]],
    config: SASGDConfig,
    n_intervals: int,
    x0: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Serial, bit-exact execution of Algorithm 1 for ``n_intervals``.

    ``flats[id]`` is learner id's flat parameter handle; ``grad_fns[id](j)``
    must fill ``flats[id].grad`` with the j-th local minibatch gradient.
    Learner 0's initial parameters play the broadcast role unless ``x0`` is
    given.  Returns the final (shared) parameter vector.

    Learners run round-robin inside each interval, which is equivalent to any
    other order because they do not interact until the allreduce.
    """
    if len(flats) != config.p or len(grad_fns) != config.p:
        raise ValueError("need one flat/grad_fn per learner")
    x0 = flats[0].copy_data() if x0 is None else np.asarray(x0)
    states = []
    for flat in flats:
        flat.set_data(x0)  # broadcast
        states.append(SASGDLocalState(flat, config))
    step_counter = 0
    for _ in range(n_intervals):
        for st in states:
            st.begin_interval()
        for st, fn in zip(states, grad_fns):
            for j in range(config.T):
                fn(step_counter + j)
                st.local_step()
        step_counter += config.T
        gs_sum = np.sum([st.gs for st in states], axis=0)
        for st in states:
            st.apply_global(gs_sum)
    return flats[0].copy_data()
