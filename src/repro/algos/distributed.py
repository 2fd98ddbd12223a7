"""Shared machinery for the distributed trainers (SASGD/Downpour/EAMSGD).

A distributed trainer binds a :class:`~repro.runtime.Backend` (the default
is the simulated virtual-time backend; ``repro run --backend mp`` selects
real multiprocessing execution), builds one
:class:`~repro.algos.base.LearnerWorkload` per learner, and drives one
``_learner_proc`` coroutine per learner through the backend.  Subclasses
implement :meth:`_learner_proc` against the runtime interfaces only —
``self.collective`` for SPMD collectives, ``self.backend.make_ps(...)`` for
a parameter server — never the simulator/fabric/PS modules directly.

Compute-time model (sim backend): one minibatch costs
``device.compute_seconds(flops) × residency`` where residency is how many
learners share the GPU (the paper's p=16 runs two learners per GPU via CUDA
MPS, halving each one's throughput).  On the mp backend the minibatch math
itself is the cost and runs on a real core.
"""

from __future__ import annotations

import math
import time
from dataclasses import replace as _dc_replace
from typing import Dict, Generator, Optional

import numpy as np

from ..faults.checkpoint import Checkpoint, DirCheckpointStore
from ..faults.context import FaultContext, resolve_fault_context
from ..obs import events as _events
from ..obs.runtime import TrainerObs, active as _obs_active
from ..runtime import Backend, resolve_backend
from .base import (
    MetricsTape,
    Problem,
    TrainerConfig,
    TrainResult,
    build_workloads,
)

__all__ = ["DistributedTrainer"]


class DistributedTrainer:
    """Base class: backend/workload plumbing and the train() driver."""

    algorithm = "distributed-base"

    def __init__(
        self,
        problem: Problem,
        config: TrainerConfig,
        machine=None,
        backend: Optional[Backend] = None,
        fault_ctx: Optional[FaultContext] = None,
    ) -> None:
        self.problem = problem
        self.config = config
        p = config.p
        self.learner_names = [f"learner{i}" for i in range(p)]
        # machine construction is the backend's business now: SimBackend
        # builds (or adopts) the simulated cluster lazily inside bind();
        # MPBackend never touches it
        self.backend = resolve_backend(backend, machine=machine)
        self.backend.bind(self)
        # fault model: explicit fault_ctx > ambient use_faults() > none.
        # Installed before any subclass __init__ calls make_ps, so the
        # backend can arm PS-shard faults at server construction time.
        self.fault_ctx = resolve_fault_context(fault_ctx)
        self._plan = None
        if self.fault_ctx is not None and (
            self.fault_ctx.plan or self.fault_ctx.recovery != "fail_fast"
        ):
            self._plan = self.fault_ctx.plan
            self.backend.install_faults(
                self._plan,
                retry=self._plan.retry,
                recovery=self.fault_ctx.recovery,
            )
        self.collective = self.backend.collective
        self.workloads = build_workloads(problem, config)
        # uniform batch sizes keep bulk-synchronous intervals aligned
        for wl in self.workloads:
            wl.sampler.drop_last = len(problem.train_set) >= config.batch_size
        # _clock_base shifts recorded times on resume (0.0 is exact in
        # float arithmetic, so fresh runs stay bit-identical to the
        # pre-checkpoint trainer)
        self._clock_base = 0.0
        self.tape = MetricsTape(problem, config, clock=self._clock)
        self._sample_scale = self.backend.sample_scale
        self._pending_crossings = 0
        self._local_steps = [0] * p  # per-learner step index for fault queries
        self._start_interval = 0     # resume position (sync rounds completed)
        self._start_step = 0         # resume position (local steps completed)
        self._resumed_from: Optional[Checkpoint] = None
        self._obs: Optional[TrainerObs] = None  # installed by train()

    def _clock(self) -> float:
        return self.backend.clock() + self._clock_base

    # -- backward-compatible views onto backend-owned plumbing ---------------

    @property
    def machine(self):
        """The simulated machine (None on backends without one)."""
        return getattr(self.backend, "machine", None)

    @property
    def fabric(self):
        """The simulated fabric (None on backends without one)."""
        return getattr(self.backend, "fabric", None)

    @property
    def endpoints(self):
        """Simulated fabric endpoints (None on backends without them)."""
        return getattr(self.backend, "endpoints", None)

    # -- helpers for subclasses ---------------------------------------------

    @property
    def info(self):
        return self.workloads[0].info

    def steps_per_learner(self) -> int:
        """Minibatch steps each learner runs so the collective sample count
        covers ``epochs`` passes."""
        cfg = self.config
        total = cfg.epochs * self.problem.n_train
        return max(1, math.ceil(total / (cfg.p * cfg.batch_size)))

    def compute_step(self, lid: int) -> Generator:
        """Coroutine: run one minibatch (backend compute cost + real math).

        Returns the number of epoch boundaries this batch crossed; the tape
        has already accumulated the window statistics.  An armed fault plan
        can stretch the step: the sim backend charges ``scale``× virtual
        compute time, real backends sleep the extra ``(scale−1)``× of the
        measured gradient wall time.
        """
        wl = self.workloads[lid]
        idx = wl.next_batch()
        step = self._local_steps[lid]
        scale = (
            self._plan.straggle_factor(lid, step)
            if self._plan is not None
            else 1.0
        )
        yield from self.backend.compute(lid, wl.batch_flops(len(idx)), scale)
        t0 = time.perf_counter() if scale > 1.0 else 0.0
        loss, acc, nb = wl.compute_gradient(idx)
        if scale > 1.0:
            yield from self.backend.fault_sleep(
                lid, (scale - 1.0) * (time.perf_counter() - t0)
            )
        self._local_steps[lid] = step + 1
        if self._obs is not None:
            self._obs.on_batch(nb, wl.flat.grad)
        return self.tape.on_batch(nb * self._sample_scale, loss, acc, raw=nb)

    def maybe_crash(self, lid: int) -> bool:
        """True when the fault plan kills ``lid`` at its current local step.

        The caller (the learner coroutine) must return immediately when this
        is True — on the sim backend the crash is modelled (note + early
        return), on real backends :meth:`Backend.fault_crash` never returns
        (``os._exit`` inside the worker process).
        """
        if self._plan is None:
            return False
        crash_step = self._plan.crash_step(lid)
        if crash_step is not None and self._local_steps[lid] >= crash_step:
            return self.backend.fault_crash(lid, self._local_steps[lid])
        disc_step = self._plan.disconnect_step(lid)
        if disc_step is not None and self._local_steps[lid] == disc_step:
            # sever the wire but keep running: on the net backend the next
            # send/recv hits the cut and (under recovery="reconnect") the
            # session resumes; backends with no wire treat it as a no-op
            self.backend.fault_disconnect(lid, self._local_steps[lid])
        return False

    def record_now(self, crossed: int, lid: int = 0) -> None:
        """Score/record ``crossed`` epoch boundaries against learner 0.

        ``lid`` is the *caller*: backends whose tape lives per worker
        process (mp) only let rank 0 record; the sim backend lets every
        learner record onto the shared tape, exactly as before.
        """
        if crossed > 0 and self.backend.should_record(lid):
            before = len(self.tape.records)
            self.tape.record_epochs(crossed, self.workloads[0].model)
            if _events.active_bus() is not None:
                for rec in self.tape.records[before:]:
                    _events.emit(
                        _events.EPOCH_PROGRESS,
                        source=f"learner{lid}",
                        t=self.backend.clock(),
                        epoch=rec.epoch,
                        samples=rec.samples,
                        train_loss=rec.train_loss,
                        train_acc=rec.train_acc,
                        test_loss=rec.test_loss,
                        test_acc=rec.test_acc,
                    )

    def comm(self, lid: int, coroutine: Generator) -> Generator:
        """Drive a communication coroutine under the backend's comm clock."""
        result = yield from self.backend.comm(lid, coroutine)
        return result

    # -- subclass contract ----------------------------------------------------

    def _learner_proc(self, lid: int) -> Generator:
        raise NotImplementedError

    def _extra_results(self) -> Dict[str, object]:
        return {}

    def _worker_export(self, lid: int) -> Dict[str, object]:
        """Algorithm-specific state a per-process backend ships back to the
        parent (counters, staleness samples, ...).  Sim never calls this."""
        return {}

    def _worker_import(self, lid: int, data: Dict[str, object]) -> None:
        """Merge one worker's :meth:`_worker_export` payload in the parent."""

    # -- checkpoint / restore -------------------------------------------------

    @property
    def checkpoint_key(self) -> str:
        """Run identity for the checkpoint store.  Deliberately excludes
        ``p`` so an elastic restart with p−1 learners finds the checkpoints
        the full collective wrote."""
        return f"{self.algorithm}-{self.problem.name}-seed{self.config.seed}"

    def _checkpoint_x(self) -> np.ndarray:
        """The globally consistent parameter vector at a sync boundary.
        PS-based trainers override to read the server's copy."""
        return self.workloads[0].flat.copy_data()

    def _algo_state(self) -> Dict[str, object]:
        """Algorithm-specific checkpoint payload (counters, momentum...)."""
        return {}

    def _restore_algo(self, ckpt: Checkpoint) -> None:
        """Re-install :meth:`_algo_state` (and backend-side server params)."""

    def _maybe_checkpoint(
        self, lid: int, interval: int, steps_done: int,
        x: Optional[np.ndarray] = None, force: bool = False,
        in_worker: bool = True,
    ) -> None:
        """Write a checkpoint at a sync boundary (learner 0 only).

        Called from inside the learner coroutines.  On the sim backend all
        learners live in one process, so the snapshot captures every
        sampler/dropout RNG and resumes bit-exactly.  On the mp backend the
        call runs inside rank 0's forked worker: an in-memory store would
        vanish with the process, so only a :class:`DirCheckpointStore`
        (shared filesystem) is written, and RNG states are omitted — the
        resume is coarse (parameters + tape), which is all real substrates
        can promise.
        """
        ctx = self.fault_ctx
        if ctx is None or not ctx.wants_checkpoints or lid != 0:
            return
        if not force and interval % ctx.checkpoint_every != 0:
            return
        # ``in_worker`` is False for the pre-run seed write, which runs in
        # the parent process on every backend (so a memory store works and
        # RNG states are pristine).  mp learner-coroutine writes run inside
        # rank 0's forked worker instead.
        in_worker = in_worker and self.backend.name in ("mp", "net")
        full = not in_worker
        if in_worker and not isinstance(ctx.store, DirCheckpointStore):
            return
        ckpt = Checkpoint(
            key=self.checkpoint_key,
            interval=interval,
            steps_done=steps_done,
            x=np.array(x if x is not None else self._checkpoint_x(), copy=True),
            clock=self._clock(),
            sampler_states=[
                {
                    "rng": wl.sampler.rng.bit_generator.state,
                    "queue": [np.array(b, copy=True) for b in wl.sampler._queue],
                    "epochs_completed": wl.sampler.epochs_completed,
                }
                for wl in self.workloads
            ] if full else [],
            dropout_states=[
                {"rng": wl.dropout_rng.bit_generator.state}
                for wl in self.workloads
            ] if full else [],
            tape_state=self.tape.state(),
            algo_state=self._algo_state(),
            p=self.config.p,
        )
        ctx.store.save(ckpt)
        _events.emit(
            _events.CHECKPOINT_WRITTEN,
            source=f"learner{lid}",
            t=self.backend.clock(),
            interval=interval,
            steps_done=steps_done,
            clock=ckpt.clock,
        )
        if self._obs is not None:
            self._obs.session.registry.counter(
                "faults.checkpoints_total", **self._obs.labels
            ).inc()

    def _try_resume(self) -> None:
        """Restore the latest checkpoint for this run's key, if any."""
        ctx = self.fault_ctx
        if ctx is None or ctx.store is None:
            return
        ckpt = ctx.store.latest(self.checkpoint_key)
        if ckpt is None:
            return
        ckpt.validate()
        for wl in self.workloads:
            wl.flat.set_data(np.array(ckpt.x, copy=True))
        if ckpt.sampler_states and ckpt.p == self.config.p:
            # full-fidelity restore: the continuation draws the same
            # minibatches and dropout masks the uninterrupted run would
            for wl, sampler, dropout in zip(
                self.workloads, ckpt.sampler_states, ckpt.dropout_states
            ):
                wl.sampler.rng.bit_generator.state = sampler["rng"]
                wl.sampler._queue = [
                    np.array(b, copy=True) for b in sampler["queue"]
                ]
                wl.sampler.epochs_completed = int(sampler["epochs_completed"])
                wl.dropout_rng.bit_generator.state = dropout["rng"]
        if ckpt.tape_state is not None:
            self.tape.restore(ckpt.tape_state)
        self._clock_base = float(ckpt.clock)
        self._start_interval = int(ckpt.interval)
        self._start_step = int(ckpt.steps_done)
        self._local_steps = [self._start_step] * self.config.p
        self._restore_algo(ckpt)
        self._resumed_from = ckpt

    def rebuild(
        self, p: int, fault_ctx: Optional[FaultContext] = None
    ) -> "DistributedTrainer":
        """A fresh trainer of the same kind with ``p`` learners on a fresh
        backend — what elastic recovery restarts after a learner death."""
        config = _dc_replace(self.config, p=p)
        kwargs: Dict[str, object] = dict(
            backend=self.backend.respawn(),
            fault_ctx=fault_ctx if fault_ctx is not None else self.fault_ctx,
        )
        options = getattr(self, "options", None)
        if options is not None:
            return type(self)(self.problem, config, options, **kwargs)
        return type(self)(self.problem, config, **kwargs)

    # -- the driver -----------------------------------------------------------

    def train(self) -> TrainResult:
        """Run to completion under the active recovery policy."""
        ctx = self.fault_ctx
        if ctx is not None:
            from ..faults import recovery as _recovery  # noqa: F401  (registration)
            from ..spec.registry import RECOVERY

            driver = RECOVERY.get(ctx.recovery)
            if driver is not None:
                return driver(self)
        return self._train_once()

    def _train_once(self) -> TrainResult:
        t0 = time.perf_counter()
        self._obs = TrainerObs.maybe(
            self.algorithm, self.config.p, self.problem.name
        )
        ctx = self.fault_ctx
        if ctx is not None and ctx.wants_checkpoints and ctx.resume:
            self._try_resume()
        server = getattr(self, "server", None)
        _events.emit(
            _events.RUN_STARTED,
            t=self.backend.clock(),
            algo=self.algorithm,
            problem=self.problem.name,
            p=self.config.p,
            backend=self.backend.name,
            seed=self.config.seed,
            epochs=self.config.epochs,
            n_shards=server.layout.n_shards if server is not None else 0,
            resumed=self._resumed_from is not None,
        )
        if ctx is not None and ctx.wants_checkpoints and self._resumed_from is None:
            # seed the store with the starting state so a crash in the very
            # first interval still has something to restart from
            self._maybe_checkpoint(0, 0, 0, force=True, in_worker=False)
        try:
            stats = self.backend.run(self)
        except BaseException as exc:
            # a failed attempt still reports what was injected/detected —
            # elastic restarts happen on a fresh backend, so this is the
            # only chance these counters get
            sess = _obs_active()
            publish = getattr(self.backend, "publish_fault_obs", None)
            if sess is not None and publish is not None:
                publish(self, sess)
            _events.emit(
                _events.RUN_FINISHED,
                t=self.backend.clock(),
                status="failed",
                error=f"{type(exc).__name__}: {exc}",
            )
            raise
        extras: Dict[str, object] = dict(stats.extras)
        extras.setdefault("backend", self.backend.name)
        extras.update(self._extra_results())
        wall = time.perf_counter() - t0
        sess = _obs_active()
        if sess is not None:
            self.backend.publish_obs(self, sess, wall)
        _events.emit(
            _events.RUN_FINISHED,
            t=self.backend.clock(),
            status="ok",
            duration=stats.duration,
            samples=self.tape.samples,
            epochs=self.tape.epoch,
        )
        return TrainResult(
            algorithm=self.algorithm,
            problem=self.problem.name,
            config=self.config,
            records=self.tape.records,
            virtual_seconds=stats.duration,
            wall_seconds=wall,
            extras=extras,
        )
