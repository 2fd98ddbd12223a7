"""MPBackend — the shared-memory transport of the process-backend core.

:mod:`repro.runtime.process_backend` holds what every real substrate does;
this module adds how ``mp`` moves bytes and notices death (``fork`` start
method, so workers inherit the constructed trainer without pickling):

* **Collectives** run the :mod:`repro.comm.schedule` steps the simulated
  fabric runs, through one ``multiprocessing.shared_memory`` inbox segment
  and per-rank round counters (:class:`MPCollective`): broadcast, allreduce
  and compressed SASGD's allgather of sparse rows alike.
* **Parameter server** shards each own a contiguous slice of one shared
  parameter segment.  Tensors travel through a shared *mailbox* (a request
  and a reply slot per rank); only a few-byte header crosses a pipe, written
  by the calling thread and awaited in the kernel (:class:`_MailboxChannel`).
  A crashed shard can be respawned from its periodic shared-memory snapshot
  (``restart_shard``; at-least-once apply semantics, DESIGN.md §9).
* **Supervision** (:mod:`repro.faults.supervisor`): workers stamp a
  shared-memory liveness block; the parent's one supervision loop
  (:func:`~repro.runtime.process_backend.supervise`) declares a rank dead
  when its process exits or its heartbeat goes stale, and the barriers probe
  the same block — a killed peer aborts the round in well under a second
  with a :class:`~repro.runtime.LearnerFailure` carrying the measured
  latency.  The same loop checks the shard processes (``restart_shard``).
* **Results and telemetry** share one queue home: forked workers put their
  payload on it, and their events too when a bus is live; the loop
  republishes the events in authoritative seq order.
"""

from __future__ import annotations

import os
import queue
import time
from multiprocessing import shared_memory
from typing import Any, Dict, Optional

import numpy as np

from ..faults.plan import FaultPlan, RetryPolicy
from ..faults.supervisor import HeartbeatThread, LivenessBlock, PollingBarrier
from ..obs import events as _events
from .api import BackendCapabilityError, Collective, LearnerFailure, RunStats
from .process_backend import (
    HEARTBEAT_INTERVAL,
    HEARTBEAT_TIMEOUT,
    JOIN_GRACE,
    ProcessBackend,
    ProcessParameterServer,
    PSClient,
    ShardState,
    drive_learner,
    install_worker_bus,
    reap,
    supervise,
    worker_error,
    worker_result,
)

__all__ = ["MPBackend", "MPCollective", "MPParameterServer"]


def _unlink_quietly(shm: Optional[shared_memory.SharedMemory]) -> None:
    """Unmap and remove a segment.  The two steps fail independently: a numpy
    view still alive makes ``close`` raise ``BufferError``, and the name must
    be unlinked regardless or the segment outlives the run."""
    if shm is None:
        return
    try:
        shm.close()
    except (BufferError, OSError):  # still viewed / torn down twice
        pass
    try:
        shm.unlink()
    except OSError:  # already gone
        pass


class MPCollective(Collective):
    """The collective schedules over shared memory: the channel of one round.

    Each rank owns an inbox segment row of two byte slots; in round k a
    sender writes its piece at the start of the receiver's slot k mod 2 and
    every rank advances a :class:`~repro.faults.supervisor.PollingBarrier`
    round counter over the run's liveness block — on every round, an idle
    one too.  A receiver waits only on the peer it reads from; a sender
    first checks that the receiver has left round k − 1, so it has read the
    slot's round k − 2 (at p = 2 that check always passes at once).  A dead
    peer aborts the round with a typed failure naming the victim and the
    collective within one supervision pass.  The channel blocks and never
    yields.
    """

    def __init__(self, ctx, p: int, timeout: float) -> None:
        self.p = p
        self.timeout = timeout
        self.bytes_moved = 0.0  # per-process accumulator after fork
        self._ctx = ctx
        self._size = 0
        self._dtype: Optional[np.dtype] = None
        self._shm: Optional[shared_memory.SharedMemory] = None
        self._inbox: Optional[np.ndarray] = None  # (p, 2, slot bytes), built once
        self._liveness: Optional[LivenessBlock] = None  # owned by the backend
        self._barriers: Dict[int, PollingBarrier] = {}  # per-process, by rank

    def allocate(self, size: int, dtype, liveness: LivenessBlock) -> None:
        """Create the inbox segment on the run's liveness block (which needs
        a ``"coll"`` lane).  Must run before fork."""
        if self._shm is not None:
            raise RuntimeError("collective already allocated")
        self._size = int(size)
        self._dtype = np.dtype(dtype)
        # a slot holds the largest piece a run posts: the whole vector, or a
        # compressed row of up to ``size`` int32 indices and ``size`` values.
        # Pages no piece reaches cost no memory; 64-byte slots stay aligned
        slot = max(1, self._size * (4 + self._dtype.itemsize))
        slot += -slot % 64
        self._shm = shared_memory.SharedMemory(create=True, size=2 * self.p * slot)
        self._inbox = np.ndarray((self.p, 2, slot), dtype=np.uint8, buffer=self._shm.buf)
        self._liveness = liveness

    def teardown(self) -> None:
        self._inbox = None
        _unlink_quietly(self._shm)
        self._shm = None
        self._liveness = None
        self._barriers = {}

    def _barrier(self, rank: int) -> PollingBarrier:
        barrier = self._barriers.get(rank)
        if barrier is None:
            barrier = self._barriers[rank] = PollingBarrier(
                self._liveness, "coll", rank
            )
        return barrier

    def _wait(self, rank: int, opname: str, peers=None, arrive: bool = True) -> None:
        """One round counter step: see :meth:`PollingBarrier.wait`."""
        try:
            self._barrier(rank).wait(self.timeout, peers, arrive)
        except PollingBarrier.DeadPeer as dead:
            raise LearnerFailure(
                dead.rank,
                dead.step if dead.step >= 0 else None,
                f"{opname}: collective barrier: peer learner{dead.rank} died; "
                f"rank {rank} abandoned the round (surviving ranks would have "
                "deadlocked)",
            ) from None
        except PollingBarrier.Timeout:
            raise LearnerFailure(
                message=f"{opname}: collective barrier timed out after "
                f"{self.timeout}s; a peer stalled undetected and the surviving "
                "ranks deadlocked"
            ) from None

    def channel(self, rank: int, ctx: Any, opname: str):
        inbox, barrier = self._inbox, self._barrier(rank)

        def channel(k, step, piece, size, into):
            slot = (barrier.round + 1) % 2
            if piece is not None:
                raw = piece.view(np.uint8)
                if raw.size > inbox.shape[2]:
                    raise BackendCapabilityError(
                        "mp", f"{opname} piece of {raw.size} bytes exceeds the "
                        f"{inbox.shape[2]}-byte inbox slot"
                    )
                self._wait(rank, opname, (step.send_to,), arrive=False)
                inbox[step.send_to, slot, :raw.size] = raw
                self.bytes_moved += size
            reads = step is not None and step.recv is not None
            self._wait(rank, opname, (step.recv_from,) if reads else ())
            if not reads:
                return None
            if into is None:  # a broadcast receiver: the whole vector
                return inbox[rank, slot, :self._size * self._dtype.itemsize].view(
                    self._dtype
                )
            return inbox[rank, slot, :into.nbytes].view(into.dtype)
            yield  # pragma: no cover - a generator that never yields

        return channel


def _ps_shard_main(ps: "MPParameterServer", sid: int, restored: bool = False) -> None:
    """One shard process: a :class:`ShardState` over x[lo:hi], fed by request
    headers on its pipe and the ranks' mailbox slots.

    A shard respawned from snapshot starts from the snapshot's version with
    an empty dedupe cache (at-least-once semantics) and its crash consumed.
    """
    lo, hi = ps.layout.bounds[sid]
    x = ps._x_local
    snap = ps._snap_view()
    meta = ps._meta_view()
    snapshot = None
    if snap is not None:
        def snapshot(version: int) -> None:
            snap[lo:hi] = x[lo:hi]
            meta[sid] = version
    state = ShardState(
        x[lo:hi], ps.learning_rate,
        crash_after=None if restored else ps.crash_after.get(sid),
        version=int(meta[sid]) if (restored and meta is not None) else 0,
        snapshot=snapshot, snapshot_every=ps.snapshot_every,
    )
    if snapshot is not None and not restored:
        # initial snapshot so a crash before the first periodic one still
        # has something to restart from
        snapshot(state.version)
    requests = ps._request_pipes[sid][0]
    replies = [writer for _, writer in ps._reply_pipes]
    while True:
        op, rank, seq, has_payload, alpha = requests.recv()
        if op == "stop":
            ps.stats_queue.put((sid, state.version, state.pushes))
            return
        if seq != ps._stamps[rank]:
            # the rank has moved on (it got this request's reply from an
            # earlier attempt) and its request slot holds other data by now
            continue
        payload = ps._mail[rank, 0, lo:hi] if has_payload else None
        version, array, error = state.apply(rank, seq, op, payload, alpha)
        if array is not None:
            ps._mail[rank, 1, lo:hi] = array
        replies[rank].send((sid, seq, version, array is not None, error))
        state.settle()


class _MailboxChannel:
    """PS request/reply through shared memory: a tensor is written into the
    rank's request or reply slot of the mailbox at its shard's ``[lo:hi]``,
    and only a header — ``(op, rank, seq, has_payload, alpha)`` out,
    ``(sid, seq, version, has_array, error)`` back — crosses a pipe.  A header
    is far below ``PIPE_BUF``, so the one ``write`` the calling thread makes
    is atomic and many ranks can share a shard's pipe without a lock."""

    lost_where = ""

    def __init__(self, ps: "MPParameterServer", rank: int) -> None:
        # the mailbox is reached through ``ps`` on every call: a view kept
        # here would pin the segment's mapping past ``ps.shutdown()``
        self._ps = ps
        self.rank = rank
        self._requests = [writer for _, writer in ps._request_pipes]
        self._replies = ps._reply_pipes[rank][0]

    def send(self, sid: int, op: str, seq: int, payload, alpha) -> None:
        ps = self._ps
        # the stamp tells the shard which request the slot belongs to: a
        # header carrying any other seq is stale and must not be applied.
        # An op's legs all carry the op's one seq, so the one stamp stays
        # true while they are in flight to different shards.  Stamped before
        # the slot is touched, so a stale header read while the slot is half
        # rewritten is already recognisable
        ps._stamps[self.rank] = seq
        if payload is not None:
            lo, hi = ps.layout.bounds[sid]
            ps._mail[self.rank, 0, lo:hi] = payload
        try:
            self._requests[sid].send((op, self.rank, seq, payload is not None, alpha))
        except OSError:
            # pipe full (a dead shard drains nothing) or closed: the request
            # is lost, and the client's retry budget decides what that means
            pass

    def recv(self, wait: float):
        if not self._replies.poll(wait):
            return None
        sid, seq, version, has_array, error = self._replies.recv()
        array = None
        if has_array:
            lo, hi = self._ps.layout.bounds[sid]
            array = self._ps._mail[self.rank, 1, lo:hi].copy()
        return sid, seq, version, array, error


class MPParameterServer(ProcessParameterServer):
    """Sharded PS over one shared parameter segment + per-shard processes.

    The request/reply substrate is allocated here, before any fork, so every
    learner and every shard — a respawned one included — inherits it: the
    mailbox segment (``p`` ranks × request/reply × ``size``, behind the
    per-rank ``seq`` stamps) and one header pipe per shard and per rank.
    A shard's single pipe is what keeps its applies in arrival order.

    When the armed fault plan contains ``ps_crash`` faults, each shard keeps
    a periodic snapshot of its slice (plus its version counter) in a second
    shared segment; under the ``restart_shard`` recovery policy the parent's
    supervision loop (:meth:`check_shards`, every pass) restores the slice
    from the snapshot and forks a replacement shard process.  Without the
    policy the shard stays down and its clients exhaust their retry budgets
    (fail-fast).
    """

    def __init__(self, ctx, p: int, size: int, n_shards: int,
                 learning_rate: float, dtype, timeout: float) -> None:
        super().__init__(ctx, size, n_shards, learning_rate, dtype, timeout)
        self.restart_shards = False
        self.snapshot_every = 25
        self.crashed_shards: set = set()
        self._shm: Optional[shared_memory.SharedMemory] = shared_memory.SharedMemory(
            create=True, size=max(1, self.size * self.dtype.itemsize)
        )
        self._x_local = np.ndarray(
            (self.size,), dtype=self.dtype, buffer=self._shm.buf
        )
        self._x_local[:] = 0
        self._snap_shm: Optional[shared_memory.SharedMemory] = None
        self._meta_shm: Optional[shared_memory.SharedMemory] = None
        slots = p * 2 * self.size * self.dtype.itemsize
        self._mail_shm: Optional[shared_memory.SharedMemory] = (
            shared_memory.SharedMemory(create=True, size=8 * p + max(1, slots))
        )
        self._stamps = np.ndarray((p,), dtype=np.int64, buffer=self._mail_shm.buf)
        self._stamps[:] = 0
        self._mail = np.ndarray(
            (p, 2, self.size), dtype=self.dtype, buffer=self._mail_shm.buf,
            offset=8 * p,
        )
        # (reader, writer) pairs; a request must never block its sender
        self._request_pipes = [ctx.Pipe(duplex=False) for _ in range(n_shards)]
        self._reply_pipes = [ctx.Pipe(duplex=False) for _ in range(p)]
        for _, writer in self._request_pipes:
            os.set_blocking(writer.fileno(), False)
        self.stats_queue = ctx.Queue()
        self._t0 = 0.0

    def client(self, rank: int) -> PSClient:
        return PSClient(self, rank, _MailboxChannel(self, rank))

    def install_faults(self, plan: FaultPlan, retry: RetryPolicy,
                       recovery: str) -> None:
        super().install_faults(plan, retry, recovery)
        self.restart_shards = recovery == "restart_shard"

    def _snap_view(self) -> Optional[np.ndarray]:
        if self._snap_shm is None:
            return None
        return np.ndarray((self.size,), dtype=self.dtype, buffer=self._snap_shm.buf)

    def _meta_view(self) -> Optional[np.ndarray]:
        if self._meta_shm is None:
            return None
        return np.ndarray(
            (self._layout.n_shards,), dtype=np.int64, buffer=self._meta_shm.buf
        )

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> None:
        if self._procs:
            return
        if self.crash_after:
            # snapshot substrate: a full-size shadow segment (each shard owns
            # its slice) + per-shard version counters at the snapshot instant
            self._snap_shm = shared_memory.SharedMemory(
                create=True, size=max(1, self.size * self.dtype.itemsize)
            )
            self._meta_shm = shared_memory.SharedMemory(
                create=True, size=8 * self._layout.n_shards
            )
            self._meta_view()[:] = 0
        self._t0 = time.perf_counter()
        self._procs = [
            self._fork_shard(_ps_shard_main, sid, False)
            for sid in range(self._layout.n_shards)
        ]

    def check_shards(self) -> None:
        """Respawn (or record) shards that died with the crash exit code —
        once per supervision pass, in a run armed with ``ps_crash`` faults."""
        if not self.crash_after:
            return
        for sid, proc in enumerate(self._procs):
            if proc.is_alive() or sid in self.crashed_shards:
                continue
            now = time.perf_counter() - self._t0
            self.events.append((f"ps{sid}", "fault", now))
            self.fault_counts["ps_crash"] += 1
            _events.emit(
                _events.FAULT_INJECTED,
                source=f"ps{sid}",
                t=now,
                fault="ps_crash",
                shard=sid,
            )
            if not self.restart_shards:
                self.crashed_shards.add(sid)
                continue
            # restore the slice from the shard's last snapshot (applies since
            # then are lost), then fork a replacement; the fatal crash fault
            # is consumed so the new shard serves on
            lo, hi = self._layout.bounds[sid]
            snap = self._snap_view()
            if snap is not None:
                self._x_local[lo:hi] = snap[lo:hi]
            self._procs[sid] = self._fork_shard(_ps_shard_main, sid, True)
            self.shard_restarts += 1
            restart_t = time.perf_counter() - self._t0
            self.events.append((f"ps{sid}", "ps_restart", restart_t))
            _events.emit(
                _events.RECOVERY_ACTION,
                source=f"ps{sid}",
                t=restart_t,
                action="restart_shard",
                shard=sid,
            )

    def shutdown(self) -> None:
        """Stop shards, harvest their counters, snapshot x, free the segment."""
        if self._shm is None:
            return
        if self._procs:
            for sid in range(self._layout.n_shards):
                if sid in self.crashed_shards:
                    continue
                try:
                    self._request_pipes[sid][1].send(("stop", -1, 0, False, None))
                except OSError:  # full pipe: nothing reads it, reap() below
                    pass
            expected = self._layout.n_shards - len(self.crashed_shards)
            for _ in range(expected):
                try:
                    sid, version, pushes = self.stats_queue.get(timeout=JOIN_GRACE)
                except queue.Empty:
                    break
                self.versions[sid] = version
                self._pushes_applied += pushes
            reap(self._procs)
            self._procs = []
        self._x_final = np.array(self._x_local, copy=True)
        self._x_local = None
        _unlink_quietly(self._shm)
        self._shm = None
        _unlink_quietly(self._snap_shm)
        self._snap_shm = None
        _unlink_quietly(self._meta_shm)
        self._meta_shm = None
        self._stamps = self._mail = None  # type: ignore[assignment]
        _unlink_quietly(self._mail_shm)
        self._mail_shm = None
        for reader, writer in self._request_pipes + self._reply_pipes:
            reader.close()
            writer.close()
        self._request_pipes = self._reply_pipes = []


def _worker_main(trainer, lid: int, result_q, forward_events: bool) -> None:
    """Drive one learner coroutine to completion inside a forked worker."""
    backend = trainer.backend
    install_worker_bus(
        _events.QueueSink(result_q) if forward_events else None, backend.clock
    )
    liveness: LivenessBlock = backend._liveness  # run() allocates it pre-fork
    heartbeat = HeartbeatThread(
        liveness, lid, interval=backend.heartbeat_interval
    ).start()
    try:
        wall = drive_learner(trainer, lid)
        if backend._failure is not None and backend._failure[0] == lid:
            # legacy fail_at death: unblock the peers' barriers with the
            # victim's identity before shipping the farewell payload
            liveness.declare_dead(lid, backend._failure[1])
        else:
            liveness.mark_finished(lid)
        result_q.put(("done", lid, worker_result(trainer, lid, wall)))
    except BaseException as exc:  # noqa: BLE001 - must never hang the parent
        # an erroring worker still exits cleanly (payload below); keep the
        # supervision loop from declaring it crashed on exit
        liveness.mark_finished(lid)
        result_q.put(("error", lid, worker_error(trainer, exc)))
    finally:
        heartbeat.stop()


class _Probe:
    """mp's side of the supervision loop: one queue brings results and
    forwarded events home, the liveness block holds the heartbeats, and the
    worker and shard processes are looked at directly."""

    def __init__(self, results, liveness: LivenessBlock, procs: list, bus,
                 ps) -> None:
        self.results = results
        self.liveness = liveness
        self.procs = procs
        self.bus = bus
        self.ps = ps

    def pump(self, wait: float) -> list:
        got = []
        try:
            item = self.results.get(timeout=wait)
            while True:
                if not isinstance(item, dict):
                    got.append(item)
                else:
                    try:
                        self.bus.republish(_events.Event.from_dict(item))
                    except Exception:
                        pass  # a torn record; the run goes on without it
                item = self.results.get_nowait()
        except queue.Empty:
            pass
        if self.ps is not None:
            self.ps.check_shards()
        return got

    def last_seen(self, rank: int) -> float:
        return float(self.liveness.heartbeats[rank])

    def exited(self, rank: int) -> bool:
        """Gone without a farewell: a worker marks itself finished (or, on
        ``fail_at``, dead) before it puts its payload, so an exit after that
        never reads as a crash while the payload is still in flight."""
        live = self.liveness
        return not (
            live.is_finished(rank) or live.is_dead(rank)
            or self.procs[rank].is_alive()
        )

    lost = exited  # a process is mp's connection


class MPBackend(ProcessBackend):
    """Wall-clock parallel execution: one OS process per learner."""

    name = "mp"
    _death_symptom = (
        "surviving workers deadlocked at the next collective and were reaped"
    )
    _death_reason = "worker learner{rank} exited without a farewell"

    def __init__(self, timeout: float = 120.0,
                 heartbeat_interval: float = HEARTBEAT_INTERVAL,
                 heartbeat_timeout: float = HEARTBEAT_TIMEOUT) -> None:
        super().__init__(timeout, heartbeat_interval, heartbeat_timeout)
        if self._ctx is None:
            raise RuntimeError(
                "mp backend needs the 'fork' start method "
                "(workers inherit the constructed trainer); not available "
                "on this platform"
            )
        self._liveness: Optional[LivenessBlock] = None

    def _make_collective(self, p: int) -> MPCollective:
        return MPCollective(self._ctx, p, self.timeout)

    def _make_ps(self, p, size, n_shards, learning_rate, dtype) -> MPParameterServer:
        return MPParameterServer(
            self._ctx, p, size, n_shards, learning_rate, dtype, self.timeout
        )

    def respawn(self) -> "MPBackend":
        return MPBackend(
            timeout=self.timeout,
            heartbeat_interval=self.heartbeat_interval,
            heartbeat_timeout=self.heartbeat_timeout,
        )

    # -- the run driver -----------------------------------------------------

    def run(self, trainer) -> RunStats:
        p = trainer.config.p
        flat = trainer.workloads[0].flat
        self._liveness = liveness = LivenessBlock(p, ["coll"])
        self.collective.allocate(flat.size, flat.data.dtype, liveness)
        if self._ps is not None:
            self._ps.start()
        results = self._ctx.Queue()
        procs = []
        self._t0 = time.perf_counter()
        # workers forward events only when a bus is live, so un-observed
        # runs never pay for them
        bus = _events.active_bus()

        def on_death(rank: int, latency: float) -> None:
            liveness.declare_dead(rank)  # unblocks the peers' barriers
            self._on_death(rank, latency)

        try:
            procs = self._fork_workers(
                trainer, _worker_main, results, bus is not None
            )
            payloads, errors = supervise(
                _Probe(results, liveness, procs, bus, self._ps),
                p, self.timeout, self.heartbeat_timeout, on_death,
            )
            self._duration = time.perf_counter() - self._t0
            reap(procs)
        finally:
            reap(procs, grace=0.0)
            if self._ps is not None:
                self._ps.shutdown()
            self.collective.teardown()
            liveness.close()
            self._liveness = None

        return self._conclude(trainer, p, payloads, errors)
