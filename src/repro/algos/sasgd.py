"""SASGD trainer — Algorithm 1 on the runtime layer.

Binds :class:`repro.core.SASGDLocalState` (the pure algorithm) to a
:class:`~repro.runtime.Backend`: the initial broadcast and the per-interval
allreduce go through the backend's :class:`~repro.runtime.Collective` — the
simulated GPU tree in virtual time, or shared-memory segments across real
worker processes — local compute advances the backend's clock, and (on the
sim backend) the tracer splits each learner's epoch into the compute/comm
fractions that Figs. 4–6 report.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Generator, Optional

import numpy as np

from ..comm.schedule import check_algorithm
from ..core.compression import CompressedGradient, make_compressor
from ..core.sasgd import SASGDConfig, SASGDLocalState
from ..spec.registry import TRAINERS
from .base import Problem, TrainerConfig, spawn_rngs
from .distributed import DistributedTrainer

__all__ = ["SASGDOptions", "SASGDTrainer"]


@dataclass(frozen=True)
class SASGDOptions:
    """Algorithm-specific knobs.

    ``T`` — the aggregation interval (the paper's central parameter; T=1 is
    synchronous SGD, T=50 its main operating point).
    ``gamma_p`` — the global step size.  ``None`` selects γ/√p: the aggregated
    ``gs`` averages away gradient noise across learners, so the stable global
    rate sits between exact model averaging (γ/p, maximally conservative —
    the paper's Sec. III equivalence, available as
    ``SASGDConfig.model_averaging``) and the raw sum (γ, which overshoots by
    a factor p).  γ/√p is the classic variance-reduction scaling and is what
    the bench-scale experiments validate.  ``allreduce_algorithm`` names
    the collective schedule (:data:`repro.comm.schedule.ALLREDUCE_ALGORITHMS`:
    "ring", "recursive_doubling", "tree", "hierarchical"); every backend runs
    the same one, so a given p and algorithm ends on the same bits on sim,
    mp and net.

    Extensions beyond the paper (both off by default):

    * ``compression``/``k_frac``/``error_feedback`` — sparsify the aggregated
      gradient in *space* as well as time: each learner ships only its
      ``k_frac`` largest-magnitude coordinates (``"topk"``) or a random
      subset (``"randomk"``), carrying the residual forward when
      ``error_feedback`` is on.  Compressed aggregation allgathers one
      fixed-size row of (index, value) pairs per learner and sums locally in
      rank order, as real sparse allreduces do — the same bits and bytes on
      sim, mp and net.
    * ``fail_at`` — failure injection: ``{learner_id: step}`` kills a learner
      after that many local steps.  Bulk-synchronous SASGD then deadlocks at
      the next allreduce (surfaced as a typed
      :class:`repro.runtime.LearnerFailure`) — the fault-tolerance price of
      synchrony that the paper concedes to parameter servers.
    """

    T: int = 50
    gamma_p: Optional[float] = None
    update_base: str = "interval_start"
    allreduce_algorithm: str = "recursive_doubling"
    compression: Optional[str] = None
    k_frac: float = 0.01
    error_feedback: bool = True
    fail_at: Optional[Dict[int, int]] = None

    def __post_init__(self) -> None:
        if self.T < 1:
            raise ValueError(f"T must be >= 1, got {self.T}")
        if not (0.0 < self.k_frac <= 1.0):
            raise ValueError(f"k_frac must be in (0, 1], got {self.k_frac}")
        check_algorithm(self.allreduce_algorithm)


@TRAINERS.register(
    "sasgd",
    options=SASGDOptions,
    description="bulk-synchronous sparse-aggregation SGD (the paper's algorithm)",
)
class SASGDTrainer(DistributedTrainer):
    """Bulk-synchronous sparse-aggregation SGD (the paper's contribution)."""

    algorithm = "sasgd"

    def __init__(
        self,
        problem: Problem,
        config: TrainerConfig,
        options: SASGDOptions = SASGDOptions(),
        machine=None,
        backend=None,
        fault_ctx=None,
    ) -> None:
        super().__init__(
            problem, config, machine=machine, backend=backend, fault_ctx=fault_ctx
        )
        self.options = options
        gamma_p = (
            options.gamma_p
            if options.gamma_p is not None
            else config.lr / math.sqrt(config.p)
        )
        self.sasgd_config = SASGDConfig(
            T=options.T,
            p=config.p,
            gamma=config.lr,
            gamma_p=gamma_p,
            update_base=options.update_base,
        )
        self.n_intervals = max(1, math.ceil(self.steps_per_learner() / options.T))
        self.allreduce_count = 0
        # one compressor per learner (error-feedback residual is local state)
        self.compressors = [
            make_compressor(
                options.compression,
                options.k_frac,
                self.workloads[0].flat.size,
                options.error_feedback,
                dtype=self.workloads[0].flat.data.dtype,
            )
            for _ in range(config.p)
        ]
        # the seed tree's children after the 3p data and model streams of
        # build_workloads: the same streams on every backend
        self._compress_rngs = spawn_rngs(config.seed, 4 * config.p)[3 * config.p :]
        self.compressed_bytes_saved = 0.0

    def _aggregate(self, lid: int, interval: int, gs: np.ndarray) -> Generator:
        """Coroutine: dense allreduce, or compressed allgather + local sum."""
        compressor = self.compressors[lid]
        if compressor is None:
            gs_sum = yield from self.collective.allreduce(
                lid,
                gs,
                ctx=("agg", interval),
                algorithm=self.options.allreduce_algorithm,
            )
            return gs_sum
        sparse = compressor.compress(gs, self._compress_rngs[lid])
        self.compressed_bytes_saved += float(gs.nbytes) - sparse.nbytes
        rows = yield from self.collective.allgather(
            lid, sparse.pack(), ctx=("cagg", interval)
        )
        gs_sum = np.zeros_like(gs)
        for row in rows:
            piece = CompressedGradient.unpack(row, gs.size, gs.dtype)
            np.add.at(gs_sum, piece.indices, piece.values)
        return gs_sum

    def _learner_proc(self, lid: int) -> Generator:
        cfg = self.sasgd_config
        wl = self.workloads[lid]
        fail_after = (self.options.fail_at or {}).get(lid)
        # "The parameter x is initialized by learner 0, and then broadcast"
        # (on resume every replica already holds the checkpoint parameters,
        # so the broadcast is a consistent no-op)
        x0 = wl.flat.copy_data() if lid == 0 else None
        x0 = yield from self.comm(
            lid,
            self.collective.broadcast(
                lid, x0, root=0, nbytes=wl.flat.nbytes, ctx="init"
            ),
        )
        wl.flat.set_data(x0)
        state = SASGDLocalState(wl.flat, cfg)
        steps_done = self._start_step
        for interval in range(self._start_interval, self.n_intervals):
            state.begin_interval()
            for _ in range(cfg.T):
                if fail_after is not None and steps_done >= fail_after:
                    # injected failure: the learner silently dies; peers
                    # deadlock at the next allreduce (LearnerFailure)
                    self.backend.note_failure(lid, steps_done)
                    return
                if self.maybe_crash(lid):
                    # planned crash (sim path; real backends never return)
                    return
                crossed = yield from self.compute_step(lid)
                steps_done += 1
                self._pending_crossings += crossed
                state.local_step()
            gs_sum = yield from self.comm(lid, self._aggregate(lid, interval, state.gs))
            state.apply_global(gs_sum)
            if lid == 0:
                # the allreduce synchronised the interval: every learner's
                # window stats for it are on the tape; score the fresh params
                self.allreduce_count += 1
                crossed_total, self._pending_crossings = self._pending_crossings, 0
                self.record_now(crossed_total)
                self._maybe_checkpoint(lid, interval + 1, steps_done)

    def _algo_state(self) -> Dict[str, object]:
        return {
            "allreduce_count": self.allreduce_count,
            "compress_rngs": [
                rng.bit_generator.state for rng in self._compress_rngs
            ],
            "residuals": [
                np.array(c.residual, copy=True)
                if c is not None and getattr(c, "residual", None) is not None
                else None
                for c in self.compressors
            ],
        }

    def _restore_algo(self, ckpt) -> None:
        state = ckpt.algo_state
        self.allreduce_count = int(state.get("allreduce_count", 0))
        rng_states = state.get("compress_rngs") or []
        if len(rng_states) == len(self._compress_rngs):
            for rng, saved in zip(self._compress_rngs, rng_states):
                rng.bit_generator.state = saved
        residuals = state.get("residuals") or []
        if len(residuals) == len(self.compressors):
            for compressor, residual in zip(self.compressors, residuals):
                if compressor is not None and residual is not None:
                    compressor.residual = np.array(residual, copy=True)

    def _worker_export(self, lid: int) -> Dict[str, object]:
        return {
            "allreduce_count": self.allreduce_count,
            "compressed_bytes_saved": self.compressed_bytes_saved,
        }

    def _worker_import(self, lid: int, data: Dict[str, object]) -> None:
        if lid == 0:
            self.allreduce_count = int(data["allreduce_count"])
        # each worker compresses its own stream; savings add up
        self.compressed_bytes_saved += float(data["compressed_bytes_saved"])

    def _extra_results(self) -> Dict[str, object]:
        extras: Dict[str, object] = {
            "T": self.options.T,
            "gamma_p": self.sasgd_config.gamma_p,
            "intervals": self.n_intervals,
            "allreduce_algorithm": self.options.allreduce_algorithm,
        }
        if self.options.compression is not None:
            extras["compression"] = self.compressors[0].name
            extras["compressed_bytes_saved"] = self.compressed_bytes_saved
        if self._obs is not None:
            reg = self._obs.session.registry
            reg.counter("sasgd.allreduce_total", **self._obs.labels).inc(
                self.allreduce_count
            )
            if self.options.compression is not None:
                reg.counter("sasgd.compressed_bytes_saved", **self._obs.labels).inc(
                    self.compressed_bytes_saved
                )
        return extras
