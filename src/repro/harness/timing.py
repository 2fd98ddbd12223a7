"""Paper-scale epoch-time simulation (timing-only mode).

The epoch-time figures (1, 4, 5, 6) depend on message sizes, FLOP counts and
the schedule — not on gradient values — so they are regenerated with the real
communication substrate (fabric, collectives, parameter server, contention)
but byte-count payloads and no NumPy math.  That lets the full Table I/II
models and paper dataset sizes run in milliseconds of wall time.

Each ``simulate_*`` function plays ``epochs`` epochs of the algorithm's
communication/compute schedule for p learners and returns the steady-state
per-epoch timing breakdown (averaged over learners and epochs, skipping the
first epoch if more than one is run, to exclude start-up transients).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Generator, List, Optional

from ..cluster.machine import Machine
from ..comm.collectives import run_schedule, sim_channel
from ..comm.fabric import Fabric
from ..comm.fastfabric import FastFabric
from ..comm.schedule import allreduce_schedule, broadcast_schedule
from ..nn.models import ModelInfo
from ..obs.runtime import active as _obs_active
from ..ps.server import PSClient, ShardLayout, ShardedParameterServer
from ..ps.server import _COST_SCALE, _REQ_NBYTES
from ..sim import Delay
from .calibration import CalibrationProfile, PAPER_PROFILE, calibrated_machine

__all__ = ["TimingWorkload", "TimingResult", "simulate_epoch_time"]


@dataclass(frozen=True)
class TimingWorkload:
    """Sizes that drive the schedule: parameters, FLOPs, samples, minibatch."""

    name: str
    param_bytes: float
    train_flops_per_example: float
    batch_size: int
    n_train: int

    @classmethod
    def from_model_info(cls, info: ModelInfo, n_train: int) -> "TimingWorkload":
        return cls(
            name=info.name,
            param_bytes=info.param_bytes,
            train_flops_per_example=info.flops_train_per_example,
            batch_size=info.default_minibatch,
            n_train=n_train,
        )

    def steps_per_learner_per_epoch(self, p: int) -> int:
        return max(1, math.ceil(self.n_train / (p * self.batch_size)))


@dataclass
class TimingResult:
    """Steady-state per-epoch timing for one configuration."""

    algorithm: str
    workload: str
    p: int
    T: int
    epoch_seconds: float
    compute_seconds: float
    comm_seconds: float
    total_bytes_per_epoch: float

    @property
    def comm_fraction(self) -> float:
        busy = self.compute_seconds + self.comm_seconds
        return self.comm_seconds / busy if busy > 0 else 0.0


def _learner_sasgd(
    trainer_ctx: dict, lid: int
) -> Generator:
    machine: Machine = trainer_ctx["machine"]
    wl: TimingWorkload = trainer_ctx["workload"]
    names: List[str] = trainer_ctx["names"]
    eps = trainer_ctx["endpoints"]
    T: int = trainer_ctx["T"]
    p = len(names)
    name = names[lid]
    tracer = machine.tracer
    device = machine.devices[trainer_ctx["placement"][lid]]
    residency = trainer_ctx["residency"][lid]
    batch_flops = wl.train_flops_per_example * wl.batch_size
    yield from tracer.timed(
        name,
        "comm",
        run_schedule(
            sim_channel(eps[lid], names, "init"),
            broadcast_schedule(p, lid),
            None,
            wl.param_bytes,
        ),
    )
    schedule = allreduce_schedule(
        trainer_ctx.get("allreduce_algorithm", "recursive_doubling"),
        p,
        lid,
        trainer_ctx.get("allreduce_groups"),
    )
    steps = wl.steps_per_learner_per_epoch(p) * trainer_ctx["epochs"]
    for step in range(1, steps + 1):
        tracer.begin(name, "compute")
        yield Delay(device.compute_seconds(batch_flops) * residency)
        tracer.end(name, "compute")
        if step % T == 0 or step == steps:
            yield from tracer.timed(
                name,
                "comm",
                run_schedule(
                    sim_channel(eps[lid], names, ("agg", step)),
                    schedule,
                    None,
                    wl.param_bytes,
                ),
            )


def _wave(trainer_ctx: dict, lid: int, key, span_fn) -> Generator:
    """Rendezvous all p learners, then advance the clock by one wave span.

    The vector comm mode's synchronisation primitive: every learner's "comm"
    span runs from its own arrival (so compute jitter still staggers the
    rendezvous) to the common wave end; the last arrival computes the span —
    accounting the wave's traffic exactly once — and releases everyone.
    """
    machine: Machine = trainer_ctx["machine"]
    name = trainer_ctx["names"][lid]
    engine = machine.engine
    tracer = machine.tracer
    gates: Dict = trainer_ctx["gates"]
    gate = gates.get(key)
    if gate is None:
        gate = gates[key] = {"n": 0, "event": engine.event(f"wave:{key}")}
    gate["n"] += 1
    tracer.begin(name, "comm")
    if gate["n"] == len(trainer_ctx["names"]):
        yield Delay(span_fn())
        gate["event"].trigger()
    else:
        yield gate["event"]
    tracer.end(name, "comm")


def _learner_sasgd_vector(trainer_ctx: dict, lid: int) -> Generator:
    """SASGD learner in vector comm mode: waves instead of per-message sends."""
    machine: Machine = trainer_ctx["machine"]
    wl: TimingWorkload = trainer_ctx["workload"]
    T: int = trainer_ctx["T"]
    p = len(trainer_ctx["names"])
    fast: FastFabric = trainer_ctx["fast"]
    nodes: List[str] = trainer_ctx["placement"]
    algorithm = trainer_ctx.get("allreduce_algorithm", "recursive_doubling")
    groups = trainer_ctx.get("allreduce_groups")
    device = machine.devices[nodes[lid]]
    residency = trainer_ctx["residency"][lid]
    tracer = machine.tracer
    name = trainer_ctx["names"][lid]
    batch_flops = wl.train_flops_per_example * wl.batch_size
    yield from _wave(
        trainer_ctx,
        lid,
        "init",
        lambda: fast.broadcast_span(nodes, wl.param_bytes),
    )
    steps = wl.steps_per_learner_per_epoch(p) * trainer_ctx["epochs"]
    for step in range(1, steps + 1):
        tracer.begin(name, "compute")
        yield Delay(device.compute_seconds(batch_flops) * residency)
        tracer.end(name, "compute")
        if step % T == 0 or step == steps:
            yield from _wave(
                trainer_ctx,
                lid,
                ("agg", step),
                lambda: fast.allreduce_span(
                    nodes, wl.param_bytes, algorithm=algorithm, groups=groups
                ),
            )


def _ps_volley_span(trainer_ctx: dict, kind: str) -> float:
    """Span of one synchronised push/pull/elastic volley against the shards.

    Byte sizes and service costs mirror :mod:`repro.ps.server` exactly:
    requests carry the shard's parameter slice (push/elastic) or a small
    header (pull); replies are the mirror image; each request costs the
    shard's host device ``cost_scale × apply_seconds`` — drawn per request so
    the jitter stream advances just like the per-message server's.
    """
    machine: Machine = trainer_ctx["machine"]
    fast: FastFabric = trainer_ctx["fast"]
    layout: ShardLayout = trainer_ctx["ps_layout"]
    shard_hosts: List[str] = trainer_ctx["ps_shard_hosts"]
    flops_per_param: float = trainer_ctx["ps_apply_flops_per_param"]
    p = len(trainer_ctx["names"])
    cost_scale = _COST_SCALE[kind]
    slice_bytes = [
        layout.slice_bytes(sid, 4) for sid in range(layout.n_shards)
    ]
    request_bytes = slice_bytes if kind in ("push", "elastic") else [_REQ_NBYTES] * layout.n_shards
    reply_bytes = slice_bytes if kind in ("pull", "elastic") else [_REQ_NBYTES] * layout.n_shards
    apply_seconds = []
    for sid, (lo, hi) in enumerate(layout.bounds):
        dev = machine.devices[shard_hosts[sid]]
        apply_seconds.append(
            sum(
                cost_scale * dev.compute_seconds(flops_per_param * (hi - lo))
                for _ in range(p)
            )
        )
    return fast.ps_round_trip_span(
        trainer_ctx["placement"], shard_hosts, request_bytes, reply_bytes, apply_seconds
    )


def _learner_ps_vector(trainer_ctx: dict, lid: int, elastic: bool) -> Generator:
    """Downpour/EAMSGD learner in vector comm mode.

    Learners rendezvous per aggregation index and the whole p-client
    push+pull (or elastic) exchange is costed as synchronised volleys — a
    bulk-synchronous approximation of the asynchronous server documented in
    DESIGN §11, used only by the large-p scaling experiments.
    """
    machine: Machine = trainer_ctx["machine"]
    wl: TimingWorkload = trainer_ctx["workload"]
    T: int = trainer_ctx["T"]
    p = len(trainer_ctx["names"])
    device = machine.devices[trainer_ctx["placement"][lid]]
    residency = trainer_ctx["residency"][lid]
    tracer = machine.tracer
    name = trainer_ctx["names"][lid]
    batch_flops = wl.train_flops_per_example * wl.batch_size
    yield from _wave(
        trainer_ctx, lid, "init", lambda: _ps_volley_span(trainer_ctx, "pull")
    )
    steps = wl.steps_per_learner_per_epoch(p) * trainer_ctx["epochs"]
    for step in range(1, steps + 1):
        tracer.begin(name, "compute")
        yield Delay(device.compute_seconds(batch_flops) * residency)
        tracer.end(name, "compute")
        if step % T == 0 or step == steps:
            if elastic:
                yield from _wave(
                    trainer_ctx,
                    lid,
                    ("agg", step),
                    lambda: _ps_volley_span(trainer_ctx, "elastic"),
                )
            else:
                yield from _wave(
                    trainer_ctx,
                    lid,
                    ("agg", step),
                    lambda: _ps_volley_span(trainer_ctx, "push")
                    + _ps_volley_span(trainer_ctx, "pull"),
                )


def _learner_ps(trainer_ctx: dict, lid: int, elastic: bool) -> Generator:
    machine: Machine = trainer_ctx["machine"]
    wl: TimingWorkload = trainer_ctx["workload"]
    names: List[str] = trainer_ctx["names"]
    T: int = trainer_ctx["T"]
    p = len(names)
    name = names[lid]
    tracer = machine.tracer
    device = machine.devices[trainer_ctx["placement"][lid]]
    residency = trainer_ctx["residency"][lid]
    client: PSClient = trainer_ctx["clients"][lid]
    batch_flops = wl.train_flops_per_example * wl.batch_size
    yield from tracer.timed(name, "comm", client.pull())
    steps = wl.steps_per_learner_per_epoch(p) * trainer_ctx["epochs"]
    for step in range(1, steps + 1):
        tracer.begin(name, "compute")
        yield Delay(device.compute_seconds(batch_flops) * residency)
        tracer.end(name, "compute")
        if step % T == 0 or step == steps:
            if elastic:
                yield from tracer.timed(name, "comm", client.elastic(None, 0.0))
            else:

                def round_trip() -> Generator:
                    yield from client.push(None)
                    yield from client.pull()

                yield from tracer.timed(name, "comm", round_trip())


def simulate_epoch_time(
    algorithm: str,
    workload: TimingWorkload,
    p: int,
    T: int,
    epochs: int = 2,
    profile: CalibrationProfile = PAPER_PROFILE,
    n_shards: int = 2,
    allreduce_algorithm: str = "recursive_doubling",
    seed: int = 0,
    machine: Optional[Machine] = None,
    comm_mode: str = "message",
    allreduce_groups: Optional[List[List[int]]] = None,
    ps_hosts: Optional[List[str]] = None,
) -> TimingResult:
    """Simulate ``epochs`` epochs of ``algorithm`` and return epoch timing.

    ``algorithm`` is one of "sgd" (p must be 1), "sasgd", "downpour",
    "eamsgd".  Epoch time is span / epochs; compute/comm are per-learner
    means over the full run.  Pass ``machine`` to run on something other
    than the calibrated single-node testbed (e.g. a
    :func:`~repro.cluster.power8_cluster_spec` multi-node machine).

    ``comm_mode``:

    * ``"message"`` (default) — every transfer is simulated individually
      through the contended fabric; the reference-fidelity mode all golden
      pins run in.
    * ``"vector"`` — communication is costed per *wave* via
      :class:`~repro.comm.fastfabric.FastFabric`: O(p) engine events per
      aggregation instead of O(p²), which is what makes p = 128–1024 cells
      feasible.  Byte accounting matches the message mode exactly; spans are
      exact for symmetric waves (see DESIGN §11).

    ``allreduce_groups`` selects the two-level hierarchy for
    ``allreduce_algorithm="hierarchical"``; ``ps_hosts`` spreads PS shards
    over several host nodes (defaults to the machine's single host).
    """
    if algorithm == "sgd" and p != 1:
        raise ValueError("sgd timing requires p=1")
    if comm_mode not in ("message", "vector"):
        raise ValueError(f"unknown comm_mode {comm_mode!r}")
    if machine is None:
        machine = calibrated_machine(profile, seed=seed)
    fabric = Fabric(machine.engine, machine.topology, machine.tracer, contention=True)
    placement = machine.place_learners(p)
    res_map = machine.residency(placement)
    residency = [res_map[d] for d in placement]
    names = [f"learner{i}" for i in range(p)]
    vector = comm_mode == "vector"
    endpoints = (
        []
        if vector
        else [fabric.attach(names[i], placement[i]) for i in range(p)]
    )
    ctx = dict(
        machine=machine,
        workload=workload,
        names=names,
        endpoints=endpoints,
        placement=placement,
        residency=residency,
        T=T,
        epochs=epochs,
        allreduce_algorithm=allreduce_algorithm,
        allreduce_groups=allreduce_groups,
    )
    if vector:
        ctx["fast"] = FastFabric(fabric)
        ctx["gates"] = {}
    if algorithm in ("downpour", "eamsgd"):
        n_params = max(int(workload.param_bytes // 4), n_shards)
        if vector:
            layout = ShardLayout.even(n_params, n_shards)
            hosts = ps_hosts if ps_hosts is not None else [machine.host]
            if hosts[0] is None:
                raise ValueError("machine has no host to run the parameter server on")
            ctx["ps_layout"] = layout
            ctx["ps_shard_hosts"] = [
                hosts[sid % len(hosts)] for sid in range(n_shards)
            ]
            ctx["ps_apply_flops_per_param"] = profile.ps_apply_flops_per_param
            procs = [
                machine.engine.spawn(
                    _learner_ps_vector(ctx, lid, elastic=(algorithm == "eamsgd")),
                    name=names[lid],
                )
                for lid in range(p)
            ]
        else:
            server = ShardedParameterServer(
                machine,
                fabric,
                size=n_params,
                n_shards=n_shards,
                timing_only=True,
                apply_flops_per_param=profile.ps_apply_flops_per_param,
                hosts=ps_hosts,
            )
            ctx["clients"] = [PSClient(server, ep) for ep in endpoints]
            procs = [
                machine.engine.spawn(
                    _learner_ps(ctx, lid, elastic=(algorithm == "eamsgd")),
                    name=names[lid],
                )
                for lid in range(p)
            ]
    elif algorithm in ("sasgd", "sgd"):
        learner = _learner_sasgd_vector if vector else _learner_sasgd
        procs = [
            machine.engine.spawn(learner(ctx, lid), name=names[lid])
            for lid in range(p)
        ]
    else:
        raise ValueError(f"unknown algorithm {algorithm!r}")
    machine.engine.run()
    for proc in procs:
        if not proc.finished:
            raise RuntimeError(f"{proc.name} deadlocked")
    span = machine.engine.now
    bd = machine.tracer.mean_breakdown(names)
    sess = _obs_active()
    if sess is not None:
        labels = dict(algo=algorithm, workload=workload.name, p=p, T=T)
        fabric.publish_metrics(sess.registry, **labels)
        stats = machine.engine.stats()
        sess.registry.counter("engine.events_total", **labels).inc(
            stats["events_processed"]
        )
        sess.registry.gauge("engine.max_heap_depth", **labels).set(
            stats["max_heap_depth"]
        )
        sess.registry.gauge("timing.epoch_seconds", **labels).set(span / epochs)
        sess.registry.gauge("timing.comm_seconds", **labels).set(
            bd.comm_seconds / epochs
        )
        sess.registry.gauge("timing.compute_seconds", **labels).set(
            bd.compute_seconds / epochs
        )
        sess.add_run(
            f"{algorithm} {workload.name} p={p} T={T}",
            machine.tracer.spans,
            fabric.message_log,
            span,
        )
    return TimingResult(
        algorithm=algorithm,
        workload=workload.name,
        p=p,
        T=T,
        epoch_seconds=span / epochs,
        compute_seconds=bd.compute_seconds / epochs,
        comm_seconds=bd.comm_seconds / epochs,
        total_bytes_per_epoch=fabric.total_bytes / epochs,
    )
