"""The process-backend core: what ``mp`` and ``net`` do identically.

Both real substrates run one OS process per learner and per parameter-server
shard.  A transport module supplies how bytes travel and how a dead peer is
noticed; this module owns the rest (DESIGN.md §8):

* :class:`ShardState` — arrival-order push/pull/elastic on a shard's slice,
  the per-rank ``seq`` dedupe cache, snapshot cadence, the ``ps_crash`` exit.
* :class:`PSClient` — fault gate, same-``seq`` resend with jittered backoff
  and deadline, stale-reply discard, typed :class:`RetryBudgetExhausted`,
  staleness accounting.  One op is one ``seq`` and one leg per shard, all in
  flight at once.  It is written against a *channel* — ``send(sid, op, seq,
  payload, alpha)`` puts one leg on the wire (a lost send is silent),
  ``recv(wait) -> (sid, seq, version, array, error) | None`` is the next reply
  from any shard — which hides the wire format (mailbox slots + pipe headers
  vs JSON-meta + tensor frames) and lets a test substitute a fake.
* :func:`worker_result` / :func:`worker_error` — what a worker ships home.
* :func:`supervise` — the parent's one thread: a loop that harvests results,
  republishes events and decides liveness by one rule (:func:`looks_dead`)
  over a per-transport *probe* — ``pump(wait)`` does the transport's I/O
  for one pass, ``last_seen`` / ``exited`` / ``lost`` answer per rank.
* :class:`ProcessParameterServer` / :class:`ProcessBackend` — the handle and
  backend bases, through ``_conclude`` and ``publish_obs``.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from abc import abstractmethod
from collections import Counter
from typing import Any, Callable, Dict, Generator, List, Optional, Tuple

import numpy as np

from ..faults.plan import FaultPlan, RetryPolicy, _hash_uniform
from ..obs import events as _events
from ..ps.server import ShardLayout
from ..sim.trace import Span
from .api import (
    Backend,
    Collective,
    LearnerFailure,
    ParameterServerHandle,
    PSClientLike,
    RetryBudgetExhausted,
    RunStats,
    blocking,
)

__all__ = [
    "ShardState",
    "PSClient",
    "ProcessParameterServer",
    "ProcessBackend",
]

JOIN_GRACE = 5.0   # seconds to wait for an already-signalled process
DEAD_GRACE = 1.0   # drain grace once every awaited rank is known dead
POLL = 0.1         # seconds between supervision passes
HEARTBEAT_INTERVAL = 0.25  # default worker liveness stamp period
# Default silence that counts as death.  Generous: on a loaded box a healthy
# worker's heartbeat thread can starve for a second or two, and a process
# death is caught by its exit or dropped connection within one pass anyway,
# so this bounds only the detection of *hangs*.
HEARTBEAT_TIMEOUT = 5.0
CRASH_EXIT = 3     # exit code of a plan-crashed learner
PS_CRASH_EXIT = 4  # exit code of a plan-crashed parameter-server shard

#: a shard's answer: (version, array or None, error text or None)
Reply = Tuple[int, Optional[np.ndarray], Optional[str]]


def _noop() -> None:
    return None


# -- the shard -----------------------------------------------------------------


class ShardState:
    """One shard: exclusive owner of the slice ``xs``, serving in arrival order.

    Each rank's requests carry a strictly increasing ``seq``; the last
    ``(seq, reply)`` per rank is kept so a resent request is answered from
    cache, not re-applied — exactly-once while the shard survives.  The
    transport calls :meth:`apply`, sends the reply, then :meth:`settle`, so
    the reply to a fatal apply gets out before the injected crash.
    """

    def __init__(self, xs: np.ndarray, learning_rate: float,
                 crash_after: Optional[int] = None, version: int = 0,
                 snapshot: Optional[Callable[[int], None]] = None,
                 snapshot_every: int = 25) -> None:
        self.xs = xs
        self.learning_rate = learning_rate
        self.crash_after = crash_after
        self.version = version
        self.pushes = 0
        self.applies = 0
        self.snapshot = snapshot  # called with the version every N applies
        self.snapshot_every = snapshot_every
        self._applied = False  # an apply awaits settle()
        self._last_seq: Dict[int, int] = {}
        self._last_reply: Dict[int, Reply] = {}

    def apply(self, rank: int, seq: int, op: str,
              payload: Optional[np.ndarray], alpha: Optional[float] = None) -> Reply:
        if self._last_seq.get(rank) == seq:
            # duplicate of an already-applied request (client retried after
            # a dropped/lost reply): answer from cache, do not re-apply
            return self._last_reply[rank]
        xs = self.xs
        if op == "push" or op == "push_pull":
            if payload is not None:
                xs -= self.learning_rate * payload
            self.version += 1
            self.pushes += 1
            self.applies += 1
            self._applied = True
            # the fused push answers with the slice right after this apply:
            # what a pull returns when nobody else's push lands in between
            fresh = xs.copy() if op == "push_pull" else None
            reply: Reply = (self.version, fresh, None)
        elif op == "pull":
            reply = (self.version, xs.copy(), None)
        elif op == "elastic":
            e = None
            if payload is not None:
                e = alpha * (payload - xs)
                xs += e
            self.version += 1
            self.applies += 1
            self._applied = True
            reply = (self.version, e, None)
        else:
            reply = (self.version, None, f"unknown op {op!r}")
        self._last_seq[rank] = seq
        self._last_reply[rank] = reply
        return reply

    def settle(self) -> None:
        """After the reply to a push/elastic: snapshot cadence, then the
        injected shard death (cache and post-snapshot applies die with it)."""
        if not self._applied:
            return
        self._applied = False
        if self.snapshot is not None and self.applies % self.snapshot_every == 0:
            self.snapshot(self.version)
        if self.crash_after is not None and self.applies >= self.crash_after:
            os._exit(PS_CRASH_EXIT)


# -- the client ----------------------------------------------------------------


class PSClient(PSClientLike):
    """One rank's blocking connection to every shard (same staleness
    accounting as the simulated :class:`~repro.ps.server.PSClient`).

    Reply loss — genuine (a dead shard, a cut connection) or injected (a
    ``drop`` fault discarding a real reply) — resends the *same* ``seq``
    after a backoff sleep (the shard dedupes), discards stale replies from
    abandoned attempts, and raises :class:`RetryBudgetExhausted` when
    ``retry.max_retries`` or ``retry.deadline_seconds`` runs out.
    """

    def __init__(self, ps: "ProcessParameterServer", rank: int, channel) -> None:
        self.ps = ps
        self.rank = rank
        self.channel = channel
        self._seq = 0
        self._op_ordinal = 0  # one push/pull/elastic = one fault ordinal, a fused push two
        self.staleness_samples: List[int] = []
        self._pull_version = 0

    def _fault_gate(self) -> int:
        """Per-op fault decisions: sleep injected delays, return drop count."""
        ordinal = self._op_ordinal
        self._op_ordinal += 1
        plan = self.ps.plan
        if plan is None or not plan:
            return 0
        counts = self.ps.fault_counts
        delay = plan.ps_reply_delay(self.rank, ordinal)
        if delay > 0.0:
            counts["delay"] += 1
            _events.emit(
                _events.FAULT_INJECTED,
                source=f"learner{self.rank}",
                fault="delay",
                seconds=delay,
                ordinal=ordinal,
            )
            time.sleep(delay)
        drops = plan.ps_reply_drops(self.rank, ordinal)
        if drops:
            counts["drop"] += drops
            _events.emit(
                _events.FAULT_INJECTED,
                source=f"learner{self.rank}",
                fault="drop",
                count=drops,
                ordinal=ordinal,
            )
        return drops

    def _backoff_pause(self, attempt: int, seq: int) -> float:
        """The jittered sleep before resend ``attempt + 1``: deterministic per
        (plan seed, rank, seq, attempt) but decorrelated across ranks, so a
        dead shard does not synchronize a resend storm."""
        ps = self.ps
        seed = ps.plan.seed if ps.plan is not None else 0
        u = _hash_uniform(seed, self.rank, seq, attempt)
        pause = ps.retry.jittered_backoff(attempt, u)
        ps.backoff_seconds += pause
        return pause

    def _request(self, op: str, vec: Optional[np.ndarray], alpha=None,
                 drops: int = 0) -> Tuple[int, np.ndarray]:
        """One op: one ``seq``, one leg per shard (its slice of ``vec``), every
        leg sent before the first reply is awaited, replies taken in arrival
        order.  Returns the sum of the shard versions and the reply arrays
        assembled in place.  ``drops`` (injected loss) hits shard 0's leg."""
        ps = self.ps
        retry = ps.retry
        channel = self.channel
        bounds = ps.layout.bounds
        self._seq += 1
        seq = self._seq

        def send(sids) -> None:
            for sid in sids:
                lo, hi = bounds[sid]
                channel.send(sid, op, seq, None if vec is None else vec[lo:hi], alpha)

        # the overall patience budget is spread over the send + every resend,
        # so a genuinely dead shard exhausts the typed retry budget in about
        # ps.timeout seconds total rather than hanging a bare receive; an
        # explicit retry.deadline_seconds caps the total patience harder
        per_wait = ps.per_wait()
        patience = retry.deadline_seconds
        started = time.monotonic()
        attempt = 0  # resend rounds performed so far
        waited = 0.0
        out = np.empty(ps.size, dtype=ps.dtype)
        version_sum = 0
        unanswered = set(range(len(bounds)))
        send(sorted(unanswered))
        while True:
            reply = channel.recv(per_wait)
            if reply is None:
                waited += per_wait
                out_of_time = (
                    patience is not None
                    and time.monotonic() - started >= patience
                )
                if attempt >= retry.max_retries or out_of_time:
                    raise RetryBudgetExhausted(
                        self.rank,
                        attempt,
                        f"parameter-server shard {min(unanswered)} gave no "
                        f"reply to {op!r} after {attempt + 1} attempts "
                        f"(~{waited:.1f}s waited"
                        f"{', retry deadline exceeded' if out_of_time else ''}"
                        f"); learner{self.rank} "
                        "exhausted its retry budget and the run deadlocked",
                    )
                lost = sorted(unanswered)
            else:
                sid, rseq, version, array, error = reply
                if sid not in unanswered or rseq < seq:
                    # stale: from an earlier, abandoned attempt, or a second
                    # answer to a leg that is already in — discard
                    continue
                if drops <= 0 or sid != 0:
                    if error is not None:
                        raise ValueError(error)
                    unanswered.discard(sid)
                    version_sum += version
                    if array is not None:
                        lo, hi = bounds[sid]
                        out[lo:hi] = array
                    if not unanswered:
                        return version_sum, out
                    continue
                # injected reply loss: pretend this genuine reply never
                # arrived, then drive the real retry machinery
                drops -= 1
                if attempt >= retry.max_retries:
                    raise RetryBudgetExhausted(
                        self.rank,
                        attempt,
                        f"parameter-server shard {sid}: replies to {op!r} "
                        f"kept vanishing{channel.lost_where}; "
                        f"learner{self.rank} exhausted its retry budget "
                        f"after {attempt + 1} attempts and the run deadlocked",
                    )
                lost = [sid]
            time.sleep(self._backoff_pause(attempt, seq))
            attempt += 1
            ps.retries += 1
            send(lost)  # same seq: a shard that already applied it answers from cache

    def push(self, grad: Optional[np.ndarray], pull: bool = False) -> Generator:
        return blocking(self._push, grad, pull)

    def _push(self, grad: Optional[np.ndarray], pull: bool = False):
        ps = self.ps
        drops = self._fault_gate()
        if pull:
            # the fused exchange stands for the push's and the pull's request
            # ordinals: both delays are slept, both drop counts stack
            drops += self._fault_gate()
        version_now, fresh = self._request(
            "push_pull" if pull else "push", grad, drops=drops
        )
        ps.bytes_moved += (2.0 if pull else 1.0) * ps.size * ps.dtype.itemsize
        staleness = max(0, version_now - self._pull_version - ps.layout.n_shards)
        self.staleness_samples.append(staleness)
        if not pull:
            return staleness
        self._pull_version = version_now
        return fresh

    def pull(self) -> Generator:
        return blocking(self._pull)

    def _pull(self) -> np.ndarray:
        ps = self.ps
        self._pull_version, out = self._request("pull", None, drops=self._fault_gate())
        ps.bytes_moved += ps.size * ps.dtype.itemsize
        return out

    def elastic(self, x_local: Optional[np.ndarray], alpha: float) -> Generator:
        return blocking(self._elastic, x_local, alpha)

    def _elastic(self, x_local: Optional[np.ndarray], alpha: float) -> np.ndarray:
        ps = self.ps
        _, e = self._request("elastic", x_local, alpha, self._fault_gate())
        ps.bytes_moved += 2.0 * ps.size * ps.dtype.itemsize
        return e


class ProcessParameterServer(ParameterServerHandle):
    """What both sharded-PS handles share: layout, the per-process client
    accumulators the worker payload reports, the armed fault configuration
    and the result surface.  Subclasses own the shard processes and
    ``_x_local``, this process's array until shutdown sets ``_x_final``."""

    _x_local: Optional[np.ndarray]

    def __init__(self, ctx, size: int, n_shards: int,
                 learning_rate: float, dtype, timeout: float) -> None:
        self._ctx = ctx
        self.size = int(size)
        self._layout = ShardLayout.even(size, n_shards)
        self.learning_rate = learning_rate
        self.dtype = np.dtype(dtype)
        self.timeout = timeout
        self.bytes_moved = 0.0  # per-process accumulator after fork
        self.retries = 0        # per-process resend counter (client side)
        self.backoff_seconds = 0.0  # per-process retry backoff slept
        self.fault_counts: Counter = Counter()  # per-process injection counts
        # fault configuration, installed by the backend before start()
        self.plan: Optional[FaultPlan] = None
        self.retry = RetryPolicy()
        self.crash_after: Dict[int, int] = {}
        self.shard_restarts = 0
        self.events: List[Tuple[str, str, float]] = []  # (actor, kind, wall_t)
        self._procs: list = []
        self._pushes_applied = 0
        self.versions = [0] * n_shards
        self._x_final: Optional[np.ndarray] = None

    @property
    def x(self) -> np.ndarray:
        if self._x_final is not None:
            return self._x_final
        return self._x_local

    @property
    def layout(self) -> ShardLayout:
        return self._layout

    @property
    def pushes_applied(self) -> int:
        return self._pushes_applied

    def set_params(self, x0: np.ndarray) -> None:
        if x0.shape != (self.size,):
            raise ValueError(f"shape mismatch: {x0.shape} vs ({self.size},)")
        self._x_local[:] = x0

    def per_wait(self) -> float:
        """Seconds a client waits for one reply before resending."""
        return max(0.05, self.timeout / (self.retry.max_retries + 1))

    def _fork_shard(self, target: Callable, sid: int, *args):
        """Start a daemon process running ``target(self, sid, *args)``."""
        proc = self._ctx.Process(
            target=target, args=(self, sid, *args),
            name=f"repro-ps{sid}", daemon=True,
        )
        proc.start()
        return proc

    def install_faults(self, plan: FaultPlan, retry: RetryPolicy,
                       recovery: str) -> None:
        self.plan = plan
        self.retry = retry
        self.crash_after = {
            sid: push
            for sid in range(self._layout.n_shards)
            if (push := plan.ps_crash_push(sid)) is not None
        }

    def __del__(self):  # safety net; normal path is the backend's run() finally
        try:
            self.shutdown()
        except Exception:
            pass


# -- the worker process --------------------------------------------------------


def install_worker_bus(sink: Optional[_events.Sink], clock: Callable[[], float]) -> None:
    """Swap the bus a forked worker inherited (and the parent's open sink
    fds) for one forwarding to ``sink`` — the parent republishes in the
    authoritative seq order — or for none."""
    if sink is None:
        _events.install(None)
    else:
        _events.install(
            _events.EventBus(sinks=[sink], clock=clock, keep_snapshot=False)
        )


def drive_learner(trainer, lid: int) -> float:
    """Run learner ``lid``'s coroutine to completion; returns its wall seconds."""
    t0 = time.perf_counter()
    for command in trainer._learner_proc(lid):
        raise RuntimeError(
            f"trainer yielded simulator command {command!r} on the "
            f"{trainer.backend.name} backend; route it through the "
            "repro.runtime interfaces"
        )
    return time.perf_counter() - t0


def _client_counters(backend: "ProcessBackend") -> Dict[str, Any]:
    ps = backend._ps
    return {
        "failed_at": None if backend._failure is None else backend._failure[1],
        "retries": ps.retries if ps is not None else 0,
        "backoff": ps.backoff_seconds if ps is not None else 0.0,
        "fault_counts": dict(
            ps.fault_counts if ps is not None else {},
            **backend._worker_fault_counts,
        ),
    }


def worker_result(trainer, lid: int, wall: float) -> Dict[str, Any]:
    """A finished worker's payload: rank 0's tape carries the epoch records
    (batches scaled by ``sample_scale`` = p), every rank adds its unscaled
    ``tape_rank`` summary, trainer state rides ``_worker_export``."""
    backend = trainer.backend
    ps = backend._ps
    ps_bytes = ps.bytes_moved if ps is not None else 0.0
    return {
        "records": trainer.tape.records if lid == 0 else None,
        "samples": trainer.tape.samples,
        "epoch": trainer.tape.epoch,
        "tape_rank": trainer.tape.rank_summary(),
        "flat": np.array(trainer.workloads[lid].flat.data, copy=True)
        if lid == 0
        else None,
        "export": trainer._worker_export(lid),
        "comm_seconds": backend._comm_seconds,
        "wall_seconds": wall,
        "bytes": backend.collective.bytes_moved + ps_bytes,
        **_client_counters(backend),
    }


def worker_error(trainer, exc: BaseException) -> Dict[str, Any]:
    """The payload a worker ships when its learner body raised."""
    return {
        "error": f"{type(exc).__name__}: {exc}",
        "learner_id": getattr(exc, "learner_id", None),
        "step": getattr(exc, "step", None),
        "retry_exhausted": isinstance(exc, RetryBudgetExhausted),
        "attempts": getattr(exc, "attempts", 0),
        **_client_counters(trainer.backend),
    }


# -- the parent process --------------------------------------------------------


def looks_dead(now: float, start: float, seen: Optional[float],
               exited: Optional[bool], lost: bool, timeout: float,
               heartbeat_timeout: float) -> bool:
    """The one death rule for a rank that still owes its result: heartbeat
    staleness counts from the seat (``seen``, the last sign of life since).
    Before it a rank owes no beat — it may be a by-hand role still starting
    — and is judged by its exit (None: cannot be probed), a lost connection
    and the rendezvous ``timeout``."""
    if seen is None:
        return bool(exited) or lost or now - start > timeout
    return lost or now - seen > heartbeat_timeout


def supervise(
    probe, p: int, timeout: float, heartbeat_timeout: float,
    on_death: Callable[[int, float], None], grace: Optional[float] = None,
) -> Tuple[Dict[int, dict], Dict[int, dict]]:
    """The parent's one loop, until every rank has answered or is dead: each
    pass, ``probe.pump(POLL)`` does the transport's I/O (results, events,
    shard checks) and returns the ``("done" | "error", rank, payload)``
    outcomes that arrived, then :func:`looks_dead` judges every rank still
    owing one; a lost or stale rank that has not provably exited first gets
    ``grace`` seconds to re-attach (net's reconnect).  Staleness is judged
    at the time the pump began, so time it spent on one stalled peer never
    ages the others' heartbeats; latency is measured at detection.  Each
    payload buys the stragglers a fresh patience budget; once every awaited
    rank is dead a short grace ends the wait.  Runs before the join: a
    worker blocks at exit until its payload is flushed."""
    payloads: Dict[int, dict] = {}
    errors: Dict[int, dict] = {}
    expected = set(range(p))
    dead: Dict[int, float] = {}
    lost_since: Dict[int, float] = {}
    start = time.monotonic()
    deadline = start + timeout + 10.0
    dead_grace: Optional[float] = None
    while expected:
        before = time.monotonic()
        got = probe.pump(POLL)
        now = time.monotonic()
        for kind, rank, data in got:
            (payloads if kind == "done" else errors)[rank] = data
            expected.discard(rank)
        for rank in sorted(expected - dead.keys()):
            seen = probe.last_seen(rank)
            exited = probe.exited(rank)
            if not looks_dead(before, start, seen, exited, probe.lost(rank),
                              timeout, heartbeat_timeout):
                lost_since.pop(rank, None)
                continue
            if grace is not None and seen is not None and not exited:
                if now - lost_since.setdefault(rank, now) <= grace:
                    continue
            dead[rank] = max(0.0, now - (start if seen is None else seen))
            on_death(rank, dead[rank])
        if got:
            deadline = now + timeout + 10.0
            dead_grace = None
        elif now > deadline:
            break
        elif not expected <= dead.keys():
            dead_grace = None
        elif dead_grace is None:
            dead_grace = now + DEAD_GRACE
        elif now > dead_grace:
            break
    return payloads, errors


def reap(procs, grace: float = JOIN_GRACE) -> None:
    """Give each process ``grace`` seconds to exit, then terminate it."""
    for proc in procs:
        proc.join(timeout=grace)
        if proc.is_alive():
            proc.terminate()
            proc.join(timeout=JOIN_GRACE)


class ProcessBackend(Backend):
    """Wall-clock execution with one OS process per learner.  Subclasses
    provide the transport: ``_make_collective`` / ``_make_ps``, ``respawn``
    and ``run`` (fork, :func:`supervise` over the transport's probe,
    :meth:`_conclude`), plus two phrases for the failure diagnostics."""

    #: how a dead learner's peers stall, completing the LearnerFailure text
    _death_symptom: str
    #: FAILURE_DETECTED reason when supervision sees ``{rank}`` vanish
    _death_reason: str

    def __init__(self, timeout: float, heartbeat_interval: float,
                 heartbeat_timeout: float) -> None:
        if heartbeat_interval <= 0:
            raise ValueError(
                f"heartbeat_interval must be > 0, got {heartbeat_interval}"
            )
        if heartbeat_timeout <= heartbeat_interval:
            raise ValueError(
                f"heartbeat_timeout ({heartbeat_timeout}) must exceed "
                f"heartbeat_interval ({heartbeat_interval}) or every worker "
                "reads as stale"
            )
        # fork context (workers inherit the trainer); None where unavailable
        self._ctx: Any = (
            multiprocessing.get_context("fork")
            if "fork" in multiprocessing.get_all_start_methods()
            else None
        )
        self.timeout = timeout
        self.heartbeat_interval = heartbeat_interval
        self.heartbeat_timeout = heartbeat_timeout
        self._trainer = None
        self._ps: Optional[ProcessParameterServer] = None
        self._failure = None  # (lid, step) noted in the worker that died
        self._comm_seconds = 0.0  # per-process accumulator after fork
        self._t0: Optional[float] = None
        self._duration = 0.0
        self._plan: Optional[FaultPlan] = None
        self._retry = RetryPolicy()
        self._recovery = "fail_fast"
        self._detections: Dict[int, float] = {}
        self._fault_events: List[Tuple[str, str, float]] = []
        self._fault_counts: Counter = Counter()
        self._worker_fault_counts: Counter = Counter()  # per-process after fork
        self._retries_total = 0
        self._backoff_total = 0.0
        self._rank_tapes: List[Dict[str, Any]] = []

    # -- transport hooks ------------------------------------------------------

    @abstractmethod
    def _make_collective(self, p: int) -> Collective:
        """The transport's collective for ``p`` ranks (called from bind)."""

    @abstractmethod
    def _make_ps(self, p: int, size: int, n_shards: int, learning_rate: float,
                 dtype) -> ProcessParameterServer:
        """The transport's sharded parameter-server handle."""

    def _planned_steps(self) -> Dict[int, int]:
        """Learner → step of the planned fault that can take it down."""
        return self._plan.crash_learners() if self._plan is not None else {}

    # -- lifecycle ----------------------------------------------------------

    def bind(self, trainer) -> None:
        if self._trainer is not None:
            raise RuntimeError("a backend instance drives exactly one trainer")
        self._trainer = trainer
        self.sample_scale = trainer.config.p
        self.collective = self._make_collective(trainer.config.p)

    def clock(self) -> float:
        if self._t0 is None:
            return 0.0
        return time.perf_counter() - self._t0

    # -- per-step primitives ------------------------------------------------

    def compute(self, lid: int, flops: float, scale: float = 1.0) -> Generator:
        # real math *is* the compute cost; straggle scale is charged by the
        # trainer through fault_sleep (a measured real sleep), not here
        return blocking(_noop)

    def comm(self, lid: int, coroutine: Generator) -> Generator:
        t0 = time.perf_counter()
        result = yield from coroutine
        self._comm_seconds += time.perf_counter() - t0
        return result

    def make_ps(self, size, n_shards, learning_rate, dtype) -> ProcessParameterServer:
        if self._ps is not None:
            raise RuntimeError(
                f"{self.name} backend supports one parameter server per run"
            )
        self._ps = self._make_ps(
            self._trainer.config.p, size, n_shards, learning_rate, dtype
        )
        if self._plan is not None:
            self._ps.install_faults(self._plan, self._retry, self._recovery)
        return self._ps

    def should_record(self, lid: int) -> bool:
        return lid == 0  # only rank 0's tape survives the process boundary

    def note_failure(self, lid: int, step: int) -> None:
        if self._failure is None:
            self._failure = (lid, step)

    # -- fault hooks ---------------------------------------------------------

    def install_faults(self, plan, retry=None, recovery: str = "fail_fast") -> None:
        self._plan = plan
        self._retry = retry if retry is not None else RetryPolicy()
        self._recovery = recovery
        if self._ps is not None:
            self._ps.install_faults(self._plan, self._retry, self._recovery)

    def fault_crash(self, lid: int, step: int) -> bool:
        """Planned crash on the real substrate: the worker process dies, no
        farewell, no cleanup — detection is the supervisor's job."""
        os._exit(CRASH_EXIT)
        return True  # pragma: no cover - unreachable

    def fault_sleep(self, lid: int, seconds: float) -> Generator:
        self._worker_fault_counts["straggle"] += 1
        _events.emit(
            _events.FAULT_INJECTED,
            source=f"learner{lid}",
            fault="straggle",
            seconds=seconds,
        )
        return blocking(time.sleep, seconds)

    # -- run() building blocks --------------------------------------------------

    def _fork_workers(self, trainer, target: Callable, *args) -> list:
        """One daemon process per learner running ``target(trainer, lid, *args)``."""
        procs = [
            self._ctx.Process(
                target=target, args=(trainer, lid, *args),
                name=trainer.learner_names[lid], daemon=True,
            )
            for lid in range(trainer.config.p)
        ]
        for proc in procs:
            proc.start()
        return procs

    def _emit_failure(self, learner: Optional[int], reason: str, **fields) -> None:
        fields.setdefault("t", self.clock())
        _events.emit(
            _events.FAILURE_DETECTED, learner=learner, reason=reason, **fields
        )

    def _on_death(self, rank: int, latency: float) -> None:
        """Supervision saw ``rank`` vanish without a payload."""
        self._detections[rank] = latency
        now = self.clock()
        name = self._trainer.learner_names[rank]
        self._fault_events.append((name, "fault", now))
        # the dying worker could not flush its own stream (os._exit / kill),
        # so the parent emits the crash + detection pair on its behalf
        crashes = self._plan.crash_learners() if self._plan is not None else {}
        if rank in crashes:
            _events.emit(
                _events.FAULT_INJECTED,
                source=name,
                t=now,
                fault="crash",
                step=crashes[rank],
            )
        self._emit_failure(
            rank, self._death_reason.format(rank=rank), t=now,
            step=self._planned_steps().get(rank), detection_seconds=latency,
        )

    def _conclude(self, trainer, p: int, payloads: dict, errors: dict) -> RunStats:
        for lid in sorted(payloads):
            failed_at = payloads[lid]["failed_at"]
            if failed_at is not None:
                self.note_failure(lid, failed_at)
        for data in list(payloads.values()) + list(errors.values()):
            self._retries_total += int(data.get("retries", 0) or 0)
            self._backoff_total += float(data.get("backoff", 0) or 0)
            self._fault_counts.update(data.get("fault_counts") or {})
        if self._ps is not None:
            self._fault_counts.update(self._ps.fault_counts)
            self._fault_events.extend(self._ps.events)

        missing = [
            lid for lid in range(p) if lid not in payloads and lid not in errors
        ]
        # a worker that vanished without any payload was killed outright; a
        # planned fault is labelled from the plan, anything else from the
        # supervision wreckage
        planned = self._planned_steps()
        for lid in missing:
            if self._failure is None:
                self.note_failure(lid, planned.get(lid, -1))
            self._fault_counts["crash"] += 1

        if errors or missing:
            if self._failure is not None:
                lid, step = self._failure
                at = f"after {step} local steps" if step >= 0 else "mid-run"
                reason = (
                    f"learner{lid} died {at} (injected failure); "
                    f"{self._death_symptom}"
                )
                failure = LearnerFailure(lid, step if step >= 0 else None, reason)
                failure.detection_seconds = self._detections.get(lid)
                if lid not in self._detections:
                    # self-declared death (fail_at): supervision never fired
                    # _on_death, so the detection event is emitted here
                    self._emit_failure(
                        lid, reason, step=failure.step, detection_seconds=None
                    )
                raise failure
            exhausted = [
                lid for lid in sorted(errors)
                if errors[lid].get("retry_exhausted")
            ]
            if exhausted:
                lid = exhausted[0]
                reason = (
                    f"learner{lid} exhausted its parameter-server retry "
                    f"budget ({errors[lid]['error']}); the run deadlocked"
                )
                self._emit_failure(lid, reason, step=None, detection_seconds=None)
                raise RetryBudgetExhausted(
                    lid, int(errors[lid].get("attempts", 0)), reason
                )
            detail = "; ".join(
                f"learner{lid}: {errors[lid]['error']}" for lid in sorted(errors)
            )
            if missing:
                sep = "; " if detail else ""
                detail = f"{detail}{sep}no result from workers {missing}"
            reason = f"{self.name} backend run failed ({detail})"
            self._emit_failure(None, reason)
            raise RuntimeError(reason)
        data0 = payloads[0]
        trainer.tape.records = data0["records"]
        trainer.tape.samples = data0["samples"]
        trainer.tape.epoch = data0["epoch"]
        trainer.workloads[0].flat.set_data(data0["flat"])
        for lid in sorted(payloads):
            trainer._worker_import(lid, payloads[lid]["export"])
        # labeled per-rank attribution from every rank's own unscaled summary
        self._rank_tapes = [
            dict(payloads[lid]["tape_rank"], rank=lid) for lid in sorted(payloads)
        ]

        comm = [payloads[lid]["comm_seconds"] for lid in sorted(payloads)]
        walls = [payloads[lid]["wall_seconds"] for lid in sorted(payloads)]
        mean_comm = float(np.mean(comm)) if comm else 0.0
        mean_wall = float(np.mean(walls)) if walls else 0.0
        extras = {
            "total_bytes": float(sum(payloads[lid]["bytes"] for lid in payloads)),
            "comm_seconds_per_learner": mean_comm,
            # wall minus comm: includes rank 0's eval overhead, documented
            # as an approximation in DESIGN.md §8
            "compute_seconds_per_learner": max(0.0, mean_wall - mean_comm),
            "comm_fraction": (mean_comm / mean_wall) if mean_wall > 0 else 0.0,
            "workers": p,
            "rank_tapes": self._rank_tapes,
            "total_samples": int(sum(rt["samples"] for rt in self._rank_tapes)),
        }
        if self._retries_total:
            extras["ps_retries"] = self._retries_total
        if self._backoff_total:
            extras["ps_retry_backoff_seconds"] = self._backoff_total
        if self._ps is not None and self._ps.shard_restarts:
            extras["ps_shard_restarts"] = self._ps.shard_restarts
        return RunStats(duration=self._duration, extras=extras)

    def publish_fault_obs(self, trainer, sess) -> None:
        """Fault/detection metrics alone — safe to emit from a failed run."""
        labels = dict(
            algo=trainer.algorithm, p=trainer.config.p, problem=trainer.problem.name
        )
        for kind, n in sorted(self._fault_counts.items()):
            sess.registry.counter(
                "faults.injected_total", kind=kind, **labels
            ).inc(n)
        if self._detections:
            sess.registry.counter("faults.detected_total", **labels).inc(
                len(self._detections)
            )
            hist = sess.registry.histogram("faults.detection_seconds", **labels)
            for latency in self._detections.values():
                hist.observe(latency)
        if self._retries_total:
            sess.registry.counter("faults.retries_total", **labels).inc(
                self._retries_total
            )
        if self._backoff_total:
            sess.registry.counter(
                "faults.retry_backoff_seconds_total", **labels
            ).inc(self._backoff_total)
        if self._ps is not None and self._ps.shard_restarts:
            sess.registry.counter(
                "faults.recoveries_total", action="restart_shard", **labels
            ).inc(self._ps.shard_restarts)

    def publish_obs(self, trainer, sess, wall: float) -> None:
        self.publish_fault_obs(trainer, sess)
        labels = dict(
            algo=trainer.algorithm, p=trainer.config.p, problem=trainer.problem.name
        )
        for tape in self._rank_tapes:
            sess.registry.counter(
                "train.samples_total", rank=tape["rank"], **labels
            ).inc(tape["samples"])
            sess.registry.counter(
                "train.batches_total", rank=tape["rank"], **labels
            ).inc(tape["batches"])
        if trainer._obs is not None:
            trainer._obs.finish(trainer.tape.samples, self._duration, wall)
        spans = [
            Span(actor, kind, t, t) for actor, kind, t in self._fault_events
        ]
        sess.add_run(
            f"{trainer.algorithm} {trainer.problem.name} "
            f"p={trainer.config.p} ({self.name})",
            spans,
            [],
            self._duration,
        )
