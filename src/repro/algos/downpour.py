"""Downpour ASGD trainer (Dean et al., NIPS'12) — the paper's main baseline.

Each learner keeps a local replica, takes local SGD steps, and every ``T``
steps pushes its accumulated gradient to the sharded parameter server and
pulls fresh parameters ("Downpour itself has a version that processes
multiple minibatches before sending gradients asynchronously to the parameter
server").  The server applies pushes in arrival order with the same learning
rate, so a push computed against parameters pulled ``s`` server-updates ago
lands stale by ``s`` — exactly the uncontrolled staleness the paper blames
for Downpour's erratic behaviour at p ≥ 8: it depends on the learners'
relative speeds (device jitter) and their position in the network (queueing
on the host channel), neither of which the algorithm bounds.

The server itself comes from the backend (:meth:`Backend.make_ps`): shard
coroutines on the simulated host in virtual time, or real shard processes
over a shared parameter segment under ``--backend mp``.  The push and the
pull after it are one call, ``client.push(gs, pull=True)``: a real backend
sends every shard its slice of the gradient at once and each reply carries
that shard's parameters right after the apply (one round trip per step, as
EASGD's exchange has always been); the simulator runs push then pull.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Generator, Optional

import numpy as np

from ..obs import events as _events
from ..spec.registry import TRAINERS
from .base import Problem, TrainerConfig
from .distributed import DistributedTrainer

__all__ = ["DownpourOptions", "DownpourTrainer"]


@dataclass(frozen=True)
class DownpourOptions:
    """``T`` is nfetch = npush (gradient update interval); ``n_shards`` the
    parameter-server sharding; ``server_lr`` defaults to the learner γ."""

    T: int = 1
    n_shards: int = 2
    server_lr: Optional[float] = None
    local_updates: bool = True  # take local SGD steps between pushes
    # failure injection: {learner_id: step} kills a learner after that many
    # steps.  Downpour tolerates this — the remaining learners keep pushing
    # ("resilience against machine failures", Dean et al.) — unlike SASGD,
    # whose next allreduce would stall.
    fail_at: Optional[Dict[int, int]] = None

    def __post_init__(self) -> None:
        if self.T < 1:
            raise ValueError(f"T must be >= 1, got {self.T}")
        if self.n_shards < 1:
            raise ValueError(f"n_shards must be >= 1, got {self.n_shards}")


@TRAINERS.register(
    "downpour",
    options=DownpourOptions,
    description="asynchronous SGD through a sharded parameter server",
)
class DownpourTrainer(DistributedTrainer):
    """Asynchronous SGD through a sharded parameter server."""

    algorithm = "downpour"

    def __init__(
        self,
        problem: Problem,
        config: TrainerConfig,
        options: DownpourOptions = DownpourOptions(),
        machine=None,
        backend=None,
        fault_ctx=None,
    ) -> None:
        super().__init__(
            problem, config, machine=machine, backend=backend, fault_ctx=fault_ctx
        )
        self.options = options
        server_lr = options.server_lr if options.server_lr is not None else config.lr
        self.server = self.backend.make_ps(
            size=self.workloads[0].flat.size,
            n_shards=min(options.n_shards, self.workloads[0].flat.size),
            learning_rate=server_lr,
            dtype=self.workloads[0].flat.data.dtype,
        )
        # learner 0's initialisation is the shared starting point
        self.server.set_params(self.workloads[0].flat.copy_data())
        self.clients = [self.server.client(i) for i in range(config.p)]

    def _learner_proc(self, lid: int) -> Generator:
        wl = self.workloads[lid]
        client = self.clients[lid]
        T = self.options.T
        x = yield from self.comm(lid, client.pull())
        wl.flat.set_data(x)
        gs = np.zeros_like(wl.flat.data)
        total = self.steps_per_learner()
        fail_after = (self.options.fail_at or {}).get(lid)
        for step in range(self._start_step + 1, total + 1):
            if fail_after is not None and step > fail_after:
                # injected failure: this learner silently dies; the PS keeps
                # serving the survivors, so the run completes
                self.backend.note_failure(lid, fail_after)
                return
            if self.maybe_crash(lid):
                # planned crash (sim path; real backends never return)
                return
            crossed = yield from self.compute_step(lid)
            gs += wl.flat.grad
            if self.options.local_updates:
                wl.flat.data -= self.config.lr * wl.flat.grad
            if crossed:
                self.record_now(crossed, lid)
            if step % T == 0 or step == total:
                x = yield from self.comm(lid, client.push(gs, pull=True))
                wl.flat.set_data(x)
                gs[...] = 0.0
                if _events.active_bus() is not None:
                    staleness = client.staleness_samples
                    _events.emit(
                        _events.PS_APPLY,
                        source=f"learner{lid}",
                        t=self.backend.clock(),
                        op="push_pull",
                        step=step,
                        staleness=int(staleness[-1]) if staleness else 0,
                    )
                # x is the freshest server-consistent vector this learner saw
                self._maybe_checkpoint(lid, step // T, step, x=x)

    def _restore_algo(self, ckpt) -> None:
        # the server (not the replicas) owns the authoritative parameters
        self.server.set_params(np.array(ckpt.x, copy=True))

    def _worker_export(self, lid: int) -> Dict[str, object]:
        return {"staleness": list(self.clients[lid].staleness_samples)}

    def _worker_import(self, lid: int, data: Dict[str, object]) -> None:
        self.clients[lid].staleness_samples = list(data["staleness"])

    def _extra_results(self) -> Dict[str, object]:
        staleness = np.concatenate(
            [np.asarray(c.staleness_samples, dtype=float) for c in self.clients]
        ) if any(c.staleness_samples for c in self.clients) else np.zeros(1)
        if self._obs is not None:
            for client in self.clients:
                for s in client.staleness_samples:
                    self._obs.staleness.observe(float(s))
        return {
            "T": self.options.T,
            "n_shards": self.server.layout.n_shards,
            "pushes_applied": self.server.pushes_applied,
            "staleness_mean": float(staleness.mean()),
            "staleness_max": float(staleness.max()),
        }
