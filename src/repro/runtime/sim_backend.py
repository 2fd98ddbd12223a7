"""SimBackend — the discrete-event virtual-time substrate.

Adapts the existing simulator stack (:mod:`repro.sim` engine,
:mod:`repro.cluster` machine/topology, :mod:`repro.comm` fabric +
collectives, :mod:`repro.ps` sharded server) to the :mod:`repro.runtime`
contract.  This is a pure re-seating of code that used to live inside
``DistributedTrainer``: construction order, RNG stream consumption, engine
process spawn order and tracer span names are all preserved exactly, so a
trainer on this backend is **bit-identical** to the pre-runtime
implementation — same seed → same ``TrainResult`` curves, byte counts and
virtual timings (the backend-equivalence suite pins this against golden
numbers captured from ``main``).
"""

from __future__ import annotations

import numpy as np

from typing import Any, Dict, Generator, List, Optional

from ..cluster.machine import Machine, power8_oss_spec
from ..comm.collectives import sim_channel
from ..comm.fabric import Endpoint, Fabric
from ..obs import events as _events
from ..ps.server import PSClient, ShardedParameterServer
from ..sim import Delay
from .api import (
    Backend,
    Collective,
    LearnerFailure,
    ParameterServerHandle,
    PSClientLike,
    RetryBudgetExhausted,
    RunStats,
)

__all__ = [
    "SimBackend",
    "SimCollective",
    "SimParameterServer",
    "FaultySimPSClient",
]


class SimCollective(Collective):
    """The collective schedules over the simulated point-to-point fabric."""

    def __init__(self, endpoints: List[Endpoint], members: List[str]) -> None:
        self.endpoints = endpoints
        self.members = members
        self.p = len(members)

    def channel(self, rank: int, ctx: Any, opname: str):
        return sim_channel(self.endpoints[rank], self.members, ctx)


class SimParameterServer(ParameterServerHandle):
    """Handle over :class:`~repro.ps.server.ShardedParameterServer`.

    ``impl`` is the underlying server; ``x``/``layout``/``pushes_applied``
    delegate to it so tests that inspect server state keep working.
    """

    def __init__(self, backend: "SimBackend", impl: ShardedParameterServer) -> None:
        self._backend = backend
        self.impl = impl

    @property
    def x(self) -> np.ndarray:
        return self.impl.x

    @property
    def layout(self):
        return self.impl.layout

    @property
    def pushes_applied(self) -> int:
        return self.impl.pushes_applied

    @property
    def shard_restarts(self) -> int:
        return getattr(self.impl, "shard_restarts", 0)

    def set_params(self, x0: np.ndarray) -> None:
        self.impl.set_params(x0)

    def client(self, rank: int) -> PSClientLike:
        inner = PSClient(self.impl, self._backend.endpoints[rank])
        plan = self._backend._plan
        if plan is not None and plan.touches_ps():
            return FaultySimPSClient(inner, self._backend, rank)
        return inner


# PSClient already satisfies the PSClientLike surface (push/pull/elastic
# coroutines + staleness_samples); register it so isinstance checks pass
# without forcing an inheritance edge from repro.ps onto repro.runtime.
PSClientLike.register(PSClient)


class FaultySimPSClient(PSClientLike):
    """Injects drop/delay faults around a :class:`PSClient`, op by op.

    One ``push``/``pull``/``elastic`` call is one request *ordinal* — the
    unit the :class:`~repro.faults.FaultPlan` selects on in both backends —
    and ``push(g, pull=True)`` is the two ordinals of its push and its pull.
    A dropped reply costs the retry policy's backoff schedule in virtual
    time (the request is eventually answered — the sim models the retries,
    it doesn't replay them); more drops than ``max_retries`` raises
    :class:`RetryBudgetExhausted` exactly where the real backend would.
    """

    def __init__(self, inner: PSClient, backend: "SimBackend", rank: int) -> None:
        self.inner = inner
        self._backend = backend
        self.rank = rank
        self._ordinal = 0

    @property
    def staleness_samples(self):
        return self.inner.staleness_samples

    def _faulted(self, op: Generator) -> Generator:
        ordinal = self._ordinal
        self._ordinal += 1
        backend = self._backend
        plan = backend._plan
        retry = backend._retry
        delay = plan.ps_reply_delay(self.rank, ordinal)
        if delay > 0.0:
            backend._count_fault("delay")
            _events.emit(
                _events.FAULT_INJECTED,
                source=f"learner{self.rank}",
                t=backend.clock(),
                fault="delay",
                seconds=delay,
                ordinal=ordinal,
            )
            yield Delay(delay)
        drops = plan.ps_reply_drops(self.rank, ordinal)
        if drops:
            backend._count_fault("drop", drops)
            _events.emit(
                _events.FAULT_INJECTED,
                source=f"learner{self.rank}",
                t=backend.clock(),
                fault="drop",
                count=drops,
                ordinal=ordinal,
            )
            attempts = min(drops, retry.max_retries)
            backend._retries_total += attempts
            if retry.total_backoff(attempts) > 0.0:
                yield Delay(retry.total_backoff(attempts))
            if drops > retry.max_retries:
                raise RetryBudgetExhausted(self.rank, attempts=retry.max_retries)
        result = yield from op
        return result

    def push(self, grad, pull: bool = False) -> Generator:
        staleness = yield from self._faulted(self.inner.push(grad))
        if not pull:
            return staleness
        return (yield from self.pull())

    def pull(self) -> Generator:
        return self._faulted(self.inner.pull())

    def elastic(self, x_local, alpha) -> Generator:
        return self._faulted(self.inner.elastic(x_local, alpha))


class SimBackend(Backend):
    """Virtual-time execution on the simulated POWER8 cluster."""

    name = "sim"
    sample_scale = 1

    def __init__(self, machine: Optional[Machine] = None) -> None:
        self._injected_machine = machine
        self.machine: Optional[Machine] = None
        self.fabric: Optional[Fabric] = None
        self.endpoints: List[Endpoint] = []
        self.collective: Optional[SimCollective] = None
        self._trainer = None
        self._failure = None  # (lid, step) noted by an injected fail_at
        self._plan = None               # armed FaultPlan (None = no faults)
        self._retry = None              # RetryPolicy for PS drop faults
        self._recovery = "fail_fast"
        self._ps_handle: Optional[SimParameterServer] = None
        self._fault_counts: Dict[str, int] = {}
        self._retries_total = 0

    # -- lifecycle ----------------------------------------------------------

    def bind(self, trainer) -> None:
        if self._trainer is not None:
            raise RuntimeError("a backend instance drives exactly one trainer")
        self._trainer = trainer
        config = trainer.config
        self.machine = (
            self._injected_machine
            if self._injected_machine is not None
            else Machine(power8_oss_spec(n_gpus=8), seed=config.seed)
        )
        self.fabric = Fabric(
            self.machine.engine,
            self.machine.topology,
            tracer=self.machine.tracer,
            contention=config.contention,
        )
        p = config.p
        self.placement = self.machine.place_learners(p)
        residency = self.machine.residency(self.placement)
        self.residency = [residency[dev] for dev in self.placement]
        self.endpoints = [
            self.fabric.attach(trainer.learner_names[i], self.placement[i])
            for i in range(p)
        ]
        self.collective = SimCollective(self.endpoints, trainer.learner_names)

    def clock(self) -> float:
        return self.machine.engine.now

    # -- per-step primitives ------------------------------------------------

    def compute(self, lid: int, flops: float, scale: float = 1.0) -> Generator:
        device = self.machine.devices[self.placement[lid]]
        dur = device.compute_seconds(flops) * self.residency[lid] * scale
        if scale != 1.0:
            self._count_fault("straggle")
            _events.emit(
                _events.FAULT_INJECTED,
                source=f"learner{lid}",
                t=self.clock(),
                fault="straggle",
                scale=scale,
            )
        name = self._trainer.learner_names[lid]
        self.machine.tracer.begin(name, "compute")
        yield Delay(dur)
        self.machine.tracer.end(name, "compute")

    def comm(self, lid: int, coroutine: Generator) -> Generator:
        result = yield from self.machine.tracer.timed(
            self._trainer.learner_names[lid], "comm", coroutine
        )
        return result

    def make_ps(self, size, n_shards, learning_rate, dtype) -> SimParameterServer:
        kwargs = {}
        if self._plan is not None and self._plan.touches_ps():
            crash_after = {
                sid: push
                for sid in range(n_shards)
                if (push := self._plan.ps_crash_push(sid)) is not None
            }
            if crash_after:
                kwargs = dict(
                    crash_after=crash_after,
                    restart_shards=(self._recovery == "restart_shard"),
                )
        impl = ShardedParameterServer(
            self.machine,
            self.fabric,
            size=size,
            n_shards=n_shards,
            learning_rate=learning_rate,
            dtype=dtype,
            **kwargs,
        )
        handle = SimParameterServer(self, impl)
        self._ps_handle = handle
        return handle

    def note_failure(self, lid: int, step: int) -> None:
        if self._failure is None:
            self._failure = (lid, step)

    # -- fault hooks ---------------------------------------------------------

    def install_faults(self, plan, retry=None, recovery: str = "fail_fast") -> None:
        from ..faults.plan import RetryPolicy

        self._plan = plan
        self._retry = retry if retry is not None else RetryPolicy()
        self._recovery = recovery

    def _count_fault(self, kind: str, n: int = 1) -> None:
        self._fault_counts[kind] = self._fault_counts.get(kind, 0) + n

    def fault_crash(self, lid: int, step: int) -> bool:
        """Planned crash: a zero-length 'fault' span marks the death on the
        trace, the failure note names the victim, and returning True makes
        the learner coroutine exit — the simulator's model of a dead rank."""
        name = self._trainer.learner_names[lid]
        self.machine.tracer.begin(name, "fault")
        self.machine.tracer.end(name, "fault")
        self._count_fault("crash")
        _events.emit(
            _events.FAULT_INJECTED,
            source=name,
            t=self.clock(),
            fault="crash",
            step=step,
        )
        self.note_failure(lid, step)
        return True

    def respawn(self) -> "SimBackend":
        # A fresh virtual cluster; an explicitly injected machine is not
        # reused because its engine clock and RNG streams are already
        # consumed by the failed attempt.
        return SimBackend()

    def _crashed_shards(self) -> List[int]:
        """PS shards that died and stayed down (empty when no PS / no faults)."""
        if self._ps_handle is None:
            return []
        return sorted(getattr(self._ps_handle.impl, "crashed_shards", ()))

    # -- the run driver -----------------------------------------------------

    def run(self, trainer) -> RunStats:
        engine = self.machine.engine
        procs = [
            engine.spawn(trainer._learner_proc(lid), name=trainer.learner_names[lid])
            for lid in range(trainer.config.p)
        ]
        engine.run()
        for proc in procs:
            if not proc.finished:
                if self._failure is not None:
                    lid, step = self._failure
                    reason = (
                        f"{proc.name} deadlocked: learner{lid} died after "
                        f"{step} local steps (injected failure) and its "
                        "bulk-synchronous peers stalled at the next collective"
                    )
                    _events.emit(
                        _events.FAILURE_DETECTED,
                        t=engine.now,
                        learner=lid,
                        step=step,
                        reason=reason,
                    )
                    raise LearnerFailure(lid, step, reason)
                crashed = self._crashed_shards()
                if crashed:
                    reason = (
                        f"{proc.name} deadlocked: parameter-server shard"
                        f"{'s' if len(crashed) > 1 else ''} "
                        f"{', '.join(map(str, crashed))} crashed (injected "
                        "failure) and stayed down under the fail_fast policy"
                    )
                    _events.emit(
                        _events.FAILURE_DETECTED,
                        t=engine.now,
                        learner=None,
                        shards=crashed,
                        reason=reason,
                    )
                    raise LearnerFailure(None, None, reason)
                raise RuntimeError(
                    f"{proc.name} deadlocked: a bulk-synchronous peer died "
                    "mid-interval (injected failure?) or this is an algorithm bug"
                )
        mean_bd = self.machine.tracer.mean_breakdown(trainer.learner_names)
        extras = {
            "total_bytes": self.fabric.total_bytes,
            "comm_seconds_per_learner": mean_bd.comm_seconds,
            "compute_seconds_per_learner": mean_bd.compute_seconds,
            "comm_fraction": mean_bd.comm_fraction,
        }
        return RunStats(duration=engine.now, extras=extras)

    def publish_fault_obs(self, trainer, sess) -> None:
        """Fault metrics alone — safe to emit from a failed run."""
        labels = dict(
            algo=trainer.algorithm, p=trainer.config.p, problem=trainer.problem.name
        )
        for kind, n in sorted(self._fault_counts.items()):
            sess.registry.counter(
                "faults.injected_total", kind=kind, **labels
            ).inc(n)
        if self._retries_total:
            sess.registry.counter("faults.retries_total", **labels).inc(
                self._retries_total
            )
        if self._ps_handle is not None:
            for sid in self._crashed_shards():
                sess.registry.counter(
                    "faults.ps_shard_crashes_total", shard=sid, **labels
                ).inc()
            restarts = getattr(self._ps_handle.impl, "shard_restarts", 0)
            crashes = restarts + len(self._crashed_shards())
            if crashes:
                sess.registry.counter(
                    "faults.injected_total", kind="ps_crash", **labels
                ).inc(crashes)
            if restarts:
                sess.registry.counter(
                    "faults.recoveries_total", action="restart_shard", **labels
                ).inc(restarts)

    def publish_obs(self, trainer, sess, wall: float) -> None:
        labels = dict(
            algo=trainer.algorithm, p=trainer.config.p, problem=trainer.problem.name
        )
        self.fabric.publish_metrics(sess.registry, **labels)
        stats = self.machine.engine.stats()
        sess.registry.counter("engine.events_total", **labels).inc(
            stats["events_processed"]
        )
        sess.registry.gauge("engine.max_heap_depth", **labels).set(
            stats["max_heap_depth"]
        )
        self.publish_fault_obs(trainer, sess)
        if trainer._obs is not None:
            trainer._obs.finish(trainer.tape.samples, self.machine.engine.now, wall)
        sess.add_run(
            f"{trainer.algorithm} {trainer.problem.name} p={trainer.config.p}",
            self.machine.tracer.spans,
            self.fabric.message_log,
            self.machine.engine.now,
        )
