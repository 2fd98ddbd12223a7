"""NetBackend — the TCP transport of the process-backend core: learners and
PS shards are separate OS processes talking framed sockets, discovered
through a cluster spec.

:mod:`repro.runtime.process_backend` holds what every real substrate does;
this module adds how ``net`` moves bytes and notices death:

* **Collectives** run the :mod:`repro.comm.schedule` steps the simulated
  fabric runs, over one connection per ordered pair of ranks (dialled from
  the cluster spec when first used; tensors framed zero-copy) — compressed
  SASGD's allgather of sparse rows included.
* **Parameter server** shards are TCP servers (:func:`serve_shard`): one
  selector loop over the listener and every client connection feeds PS_REQ
  frames into the shard state in readiness order, and PS_REP frames answer
  on the same connection (:class:`_FrameChannel`) — an injected ``drop``
  consumes a genuine frame off the wire, a cut connection is redialled by
  the next resend.
* **Supervision** is connection-loss based: every worker heartbeats on a
  control connection to the coordinator's one selector loop, which declares
  a rank dead when that connection drops without a RESULT frame, its
  process exits before the rendezvous, or its heartbeat goes stale after
  it.  Under ``recovery="reconnect"`` ring and control links are
  session-resumable (RESUME / RESUME_OK + replay) instead.

Two modes share all of the above:

* ``fork`` (default, used by ``repro run --backend net``): the parent
  pre-binds every listener on loopback ephemeral ports (race-free), forks
  shard and worker processes that inherit the constructed trainer and
  their own listening socket, and coordinates in-process.
* ``coordinator``/``worker`` (driven by ``repro launch``): processes are
  launched separately — same host or not — and find each other purely
  through ``REPRO_CLUSTER_SPEC``; PS shards bootstrap their slice from the
  coordinator's WELCOME frame.  See :mod:`repro.net.launch`.
"""

from __future__ import annotations

import os
import select
import selectors
import socket
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from ..faults.plan import RetryPolicy, _hash_uniform
from ..faults.supervisor import HeartbeatThread
from ..obs import events as _events
from ..runtime.api import BackendCapabilityError, Collective, LearnerFailure, RunStats
from ..runtime.process_backend import (
    HEARTBEAT_INTERVAL,
    HEARTBEAT_TIMEOUT,
    JOIN_GRACE,
    ProcessBackend,
    ProcessParameterServer,
    PSClient,
    Reply,
    ShardState,
    drive_learner,
    install_worker_bus,
    reap,
    supervise,
    worker_error,
    worker_result,
)
from .cluster import ClusterSpec, allocate_loopback, close_all
from .frames import (
    DATA,
    ERROR,
    EVENT,
    HEARTBEAT,
    HELLO,
    PS_REP,
    PS_REQ,
    RESULT,
    RESUME,
    RESUME_OK,
    STATS,
    STOP,
    WELCOME,
    Conn,
    ConnectionLost,
    ProtocolError,
    SessionConn,
    SessionUnrecoverable,
    bind_listener,
    connect,
)

__all__ = ["NetBackend", "NetCollective", "NetParameterServer", "run_ps_role"]

_RECONNECT_DEADLINE = 10.0  # default resume window under recovery=reconnect


def _peer_rank(peer: str) -> Optional[int]:
    """``"learner3"`` → 3 (None for non-learner peers)."""
    if peer.startswith("learner") and peer[7:].isdigit():
        return int(peer[7:])
    return None


def _resume_pause(retry: RetryPolicy, seed: int, rank: int, epoch: int,
                  attempt: int) -> float:
    """Jittered exponential backoff between re-dial attempts, seeded per
    (rank, resume epoch, attempt) so ranks desynchronize deterministically."""
    u = _hash_uniform(seed, rank, epoch, attempt)
    return min(0.5, retry.jittered_backoff(attempt, u))


def _redial(sess: SessionConn, addr: str, peer: str, hello: Dict[str, Any],
            deadline: float, pause: Callable[[int], float],
            live_timeout: Optional[float],
            idle: Callable[[], Any] = lambda: None) -> bool:
    """Heal a session link: re-dial ``addr`` until ``deadline``, send RESUME,
    and on RESUME_OK adopt the socket into ``sess`` and replay every frame
    newer than the last seq the peer says it processed.

    One dial is kept alive across RESUME_OK polls (re-dialing would strand
    stale connections in the peer's backlog); ``idle()`` runs between polls
    and ``pause(attempt)`` paces re-dials.  False when the deadline passes,
    the peer answers anything else, or the replay buffer no longer covers
    the gap.
    """
    attempt = 0
    pending: Optional[Conn] = None
    while True:
        remaining = deadline - time.monotonic()
        if remaining <= 0:
            if pending is not None:
                pending.close()
            return False
        try:
            if pending is None:
                pending = connect(addr, peer, timeout=min(remaining, 1.0))
                pending.send(RESUME, hello, seq=0)
            pending.settimeout(0.25)
            ok = pending.recv()
            if ok.kind != RESUME_OK:
                pending.close()
                return False
            pending.settimeout(live_timeout)
            sess.adopt(pending)
            sess.replay_from(int(ok.meta.get("last", 0)))
            return True
        except SessionUnrecoverable:
            return False
        except socket.timeout:
            idle()
        except (ConnectionLost, ProtocolError):
            if pending is not None:
                pending.close()
            pending = None
            time.sleep(min(pause(attempt), max(0.0, deadline - time.monotonic())))
            attempt += 1


class NetCollective(Collective):
    """The collective schedules over TCP: the channel of one round, over one
    connection per ordered (sender, receiver) pair, dialled by the sender
    the first time a step sends to that peer (the links to ranks r ± 1 are
    the ring).

    A round with both sides is one deadlock-free
    :meth:`~repro.net.frames.Conn.sendrecv`, a one-sided round one
    ``send_tensor`` or ``recv``, an idle round nothing; the channel blocks
    and never yields.  Connections are strictly ordered streams, so rounds
    cannot cross-talk: a fast peer's next-round frame simply queues behind
    the current one.  A dead peer surfaces as :class:`ConnectionLost` on the
    next send/recv and is rethrown as a typed :class:`LearnerFailure` naming
    it; a peer that stops reading is reported as a stall.
    """

    def __init__(self, p: int, timeout: float) -> None:
        self.p = p
        self.timeout = timeout
        self.bytes_moved = 0.0  # per-process accumulator after fork
        self._spec: Optional[ClusterSpec] = None
        self._listeners: Dict[int, Optional[socket.socket]] = {}
        self._rank: Optional[int] = None
        # by peer rank: Conn, or SessionConn under recovery=reconnect
        self._out: Dict[int, Any] = {}
        self._in: Dict[int, Any] = {}
        self._session: Optional[str] = None
        self._resume_deadline = _RECONNECT_DEADLINE
        self._resume_retry = RetryPolicy()
        self._resume_seed = 0
        self._resumes = 0  # per-session resume budget consumed (all links)

    def install(self, spec: ClusterSpec,
                listeners: Dict[int, socket.socket]) -> None:
        """Attach the address book (and, in fork mode, the pre-bound
        listeners the children inherit).  Runs in the parent, pre-fork."""
        self._spec = spec
        self._listeners = dict(listeners)

    def configure_resume(self, session: str, deadline: float,
                         retry: RetryPolicy, seed: int) -> None:
        """Enable session-resumable links (recovery=reconnect).

        Must run before the first link is made — the links are wrapped in
        :class:`SessionConn` so seq numbering and the replay buffer survive
        socket replacement.
        """
        self._session = session
        self._resume_deadline = deadline
        self._resume_retry = retry
        self._resume_seed = seed

    def _wrap(self, conn: Conn):
        return conn if self._session is None else SessionConn(conn, self._session)

    def _link_out(self, peer: int):
        """The link this rank sends to ``peer`` on, dialled on first use."""
        conn = self._out.get(peer)
        if conn is None:
            conn = connect(
                self._spec.workers[peer], f"learner{peer}", timeout=self.timeout
            )
            # the handshake rides at seq 0, outside the session stream
            conn.send(HELLO, {"rank": self._rank}, seq=0)
            conn.settimeout(self.timeout)
            conn = self._out[peer] = self._wrap(conn)
        elif self._session is not None and select.select([conn.sock], [], [], 0)[0]:
            # nothing comes back on an outgoing link, so it was closed: a frame
            # sent into it may vanish, and a schedule that sends once per link
            # may make no later send to replay it from
            self._repair_out(peer, ConnectionLost(conn.peer, sending=True))
        return conn

    def _link_in(self, peer: int):
        """The link ``peer`` sends to this rank on, accepted on first use
        (a dial queues in the listen backlog, so dialling before accepting
        cannot deadlock)."""
        while peer not in self._in:
            if self._accept(self.timeout) is None:
                raise LearnerFailure(
                    message=f"collective bootstrap: learner{peer} did not "
                    f"connect within {self.timeout}s; a peer died and the "
                    "surviving ranks deadlocked"
                )
        return self._in[peer]

    def teardown_rank(self) -> None:
        """Close this process's links (worker exit path)."""
        for conn in [*self._out.values(), *self._in.values()]:
            conn.close()
        self._out, self._in = {}, {}

    def _accept(self, window: float,
                deadline: Optional[float] = None) -> Optional[int]:
        """Accept one connection on our own listener: a HELLO from a peer
        seats its incoming link, a RESUME (session token + a peer whose link
        we hold) is answered with the last seq we processed — so the dialer
        replays only what we missed — and adopted.  Returns the peer's rank,
        −1 when a bad handshake was turned away, None when nobody dialled
        within ``window``.

        The repair of an outgoing link calls this between its RESUME_OK
        polls, which breaks the symmetric deadlock: when *both* of a pair's
        links die at once (any p=2 cut, or a full partition), both ranks hit
        the failed *send* first — each dialing a peer that is itself dialing.
        """
        listener = self._listeners.get(self._rank)
        if listener is None:
            # external mode: bind our own spec address (fixed port)
            listener = self._listeners[self._rank] = bind_listener(
                self._spec.workers[self._rank]
            )
        listener.settimeout(window)
        try:
            sock, _ = listener.accept()
        except (socket.timeout, OSError):
            return None
        conn = Conn(sock, "learner?")
        try:
            conn.settimeout(
                self.timeout if deadline is None
                else max(0.05, deadline - time.monotonic())
            )
            frame = conn.recv()
            peer = int(frame.meta.get("rank", -1))
            conn.peer = f"learner{peer}"
            if frame.kind == HELLO and 0 <= peer < self.p and peer not in self._in:
                conn.settimeout(self.timeout)
                self._in[peer] = self._wrap(conn)
                return peer
            if (
                frame.kind != RESUME
                or frame.meta.get("sess") != self._session
                or peer not in self._in
            ):
                conn.close()
                return -1
            conn.send(RESUME_OK, {"last": self._in[peer].last_recv_seq}, seq=0)
            conn.settimeout(self.timeout)
        except (ConnectionLost, ProtocolError, socket.timeout):
            conn.close()
            return -1
        self._in[peer].adopt(conn)
        return peer

    # -- session resume (recovery=reconnect) --------------------------------

    def _budget_ok(self) -> bool:
        """Per-session resume budget, unified with the PS retry policy: one
        session may repair its links max_retries + 1 times in total."""
        return self._resumes < self._resume_retry.max_retries + 1

    def _repair_out(self, peer: int, cause: ConnectionLost) -> None:
        """Re-dial ``peer`` and replay un-acked frames, servicing our own
        listener between polls (:meth:`_accept`).  Gives up (re-raises the
        original loss) when the reconnect deadline or the per-session budget
        expires, or the replay no longer covers the gap."""
        if not self._budget_ok():
            raise cause
        self._resumes += 1
        deadline = time.monotonic() + self._resume_deadline
        if not _redial(
            self._out[peer], self._spec.workers[peer], f"learner{peer}",
            {"rank": self._rank, "sess": self._session}, deadline,
            lambda attempt: _resume_pause(
                self._resume_retry, self._resume_seed, self._rank,
                self._resumes, attempt,
            ),
            self.timeout, idle=lambda: self._accept(0.05, deadline),
        ):
            raise cause

    def _repair_in(self, peer: int, cause: ConnectionLost) -> None:
        """Re-accept ``peer``'s replacement connection; gives up (re-raises
        the original loss) when the reconnect deadline or the per-session
        budget expires."""
        if not self._budget_ok():
            raise cause
        self._resumes += 1
        deadline = time.monotonic() + self._resume_deadline
        while True:
            remaining = deadline - time.monotonic()
            got = self._accept(remaining, deadline) if remaining > 0 else None
            if got is None:
                raise cause
            if got == peer:
                return

    # -- one step -------------------------------------------------------------

    def _send(self, peer: int, array: np.ndarray) -> None:
        """Send to ``peer``; under recovery=reconnect a failed send repairs
        the link, and the replay re-delivers the frame (it was recorded
        before the send failed)."""
        conn = self._link_out(peer)
        try:
            conn.send_tensor(DATA, array)
        except ConnectionLost as exc:
            if self._session is None:
                raise
            self._repair_out(peer, exc)

    def _recv(self, peer: int):
        """Receive from ``peer``, re-accepting the link on connection loss
        (duplicate replayed frames are skipped by the SessionConn)."""
        conn = self._link_in(peer)
        while True:
            try:
                return conn.recv()
            except ConnectionLost as exc:
                if self._session is None:
                    raise
                self._repair_in(peer, exc)

    def _exchange(self, send_to: int, array: np.ndarray, recv_from: int):
        """Send to one peer while receiving from another (or the same)."""
        out, inp = self._link_out(send_to), self._link_in(recv_from)
        try:
            return out.sendrecv(inp, DATA, array)
        except ConnectionLost as exc:
            if self._session is None:
                raise
            if exc.sending:
                self._repair_out(send_to, exc)
            return exc.frame if exc.frame is not None else self._recv(recv_from)

    def _fail(self, exc: BaseException, opname: str, rank: int) -> LearnerFailure:
        if isinstance(exc, ConnectionLost) and not exc.stalled:
            victim = _peer_rank(exc.peer)
            return LearnerFailure(
                victim,
                None,
                f"{opname}: connection to {exc.peer} lost (peer died); "
                f"rank {rank} abandoned the round (surviving ranks would "
                "have deadlocked)",
            )
        return LearnerFailure(
            message=f"{opname} stalled for {self.timeout}s on a link; a "
            "peer died undetected and the surviving ranks deadlocked"
        )

    def channel(self, rank: int, ctx: Any, opname: str):
        self._rank = rank

        def channel(k, step, piece, size, into):
            if step is None:
                return None
            try:
                if step.send is None:
                    frame = self._recv(step.recv_from)
                else:
                    self.bytes_moved += size
                    if step.recv is None:
                        self._send(step.send_to, piece)
                        return None
                    frame = self._exchange(step.send_to, piece, step.recv_from)
                return frame.tensor()
            except (ConnectionLost, socket.timeout) as exc:
                raise self._fail(exc, opname, rank) from None
            yield  # pragma: no cover - a generator that never yields

        return channel


# -- parameter server ----------------------------------------------------------


def _send_reply(conn: Conn, seq: int, reply: Reply) -> None:
    version, array, error = reply
    meta: Dict[str, Any] = {"version": version}
    if error is not None:
        meta["error"] = error
    if array is None:
        conn.send(PS_REP, meta, seq=seq)
    else:
        conn.send_tensor(PS_REP, array, meta, seq=seq)


#: seconds a shard waits on one client for the rest of a frame it has begun (or
#: for room to write a reply) before hanging up; the client's retry redials
_CLIENT_STALL = 1.0


def serve_shard(
    listener: socket.socket,
    sid: int,
    xs: np.ndarray,
    learning_rate: float,
    crash_after: Optional[int],
) -> None:
    """One shard's serving loop: a :class:`ShardState` over ``xs`` fed by
    framed requests, answering STOP with a STATS frame (final slice +
    counters).

    Shared verbatim by the fork-mode shard child and the external
    ``repro launch --role ps:K`` process.  The process has one thread: a
    selector over the listener and the client sockets, so readiness order —
    real scheduler/network nondeterminism — is the arrival order the paper's
    staleness measures.  A connection that stalls mid-frame, resets or sends
    garbage is closed and forgotten; the others keep being served.
    """
    state = ShardState(xs, learning_rate, crash_after)
    with selectors.DefaultSelector() as ready:

        def hang_up(conn: Conn) -> None:
            ready.unregister(conn.sock)
            conn.close()

        ready.register(listener, selectors.EVENT_READ)
        while True:
            for key, _ in ready.select():
                conn: Optional[Conn] = key.data
                if conn is None:
                    try:
                        sock, _ = listener.accept()
                    except OSError:
                        continue  # the dialler gave up between SYN and accept
                    conn = Conn(sock, "client")
                    conn.settimeout(_CLIENT_STALL)
                    ready.register(sock, selectors.EVENT_READ, conn)
                    continue
                try:
                    frame = conn.recv()
                except (ConnectionLost, ProtocolError, OSError, ValueError):
                    # gone, stalled mid-frame (timeout), or no peer of ours
                    # (bad magic, meta that is not JSON)
                    hang_up(conn)
                    continue
                if frame.kind == STOP:
                    listener.close()
                    try:
                        conn.send_obj(STATS, {
                            "sid": sid, "version": state.version,
                            "pushes": state.pushes, "x": np.array(xs, copy=True),
                        })
                    except ConnectionLost:
                        pass
                    return
                if frame.kind != PS_REQ:
                    continue
                meta = frame.meta
                reply = state.apply(
                    int(meta.get("rank", -1)), frame.seq, meta.get("op"),
                    frame.tensor() if len(frame.payload) else None,
                    float(meta.get("alpha", 0.0)),
                )
                try:
                    _send_reply(conn, frame.seq, reply)
                except ConnectionLost:
                    # vanished, reconnected, or not reading: its retry
                    # redials and resends
                    hang_up(conn)
                state.settle()


def _shard_child_main(ps: "NetParameterServer", sid: int,
                      listeners: Dict[str, socket.socket]) -> None:
    """Fork-mode shard process: keep our listener, drop the rest, serve."""
    close_all(listeners, keep=(f"ps{sid}",))
    _events.install(None)
    lo, hi = ps.layout.bounds[sid]
    xs = np.array(ps._x_local[lo:hi], copy=True)
    serve_shard(listeners[f"ps{sid}"], sid, xs,
                ps.learning_rate, ps.crash_after.get(sid))


def run_ps_role(spec: ClusterSpec, sid: int, timeout: float = 120.0) -> None:
    """External-mode shard: bootstrap the slice from the coordinator's
    WELCOME frame, then serve on our spec address until STOP."""
    listener = bind_listener(spec.ps[sid])
    ctrl = connect(spec.coordinator, "coordinator", timeout=timeout)
    ctrl.send(HELLO, {"job": "ps", "task": sid, "pid": os.getpid()})
    ctrl.settimeout(timeout)
    welcome = ctrl.recv()
    if welcome.kind != WELCOME:
        raise ProtocolError(
            f"ps{sid}: expected WELCOME from the coordinator, got "
            f"frame kind {welcome.kind}"
        )
    meta = welcome.meta
    xs = np.array(welcome.tensor(), copy=True)
    ctrl.close()
    serve_shard(listener, sid, xs, float(meta["lr"]), meta.get("crash_after"))


class _FrameChannel:
    """PS request/reply as PS_REQ / PS_REP frames: one lazily-dialled
    connection per shard, dropped on loss and redialled by the next send."""

    lost_where = " on the wire"

    def __init__(self, ps: "NetParameterServer", rank: int) -> None:
        self.ps = ps
        self.rank = rank
        self.conns: Dict[int, Optional[Conn]] = {}

    def send(self, sid: int, op: str, seq: int, payload, alpha) -> None:
        meta: Dict[str, Any] = {"op": op, "rank": self.rank}
        if alpha is not None:
            meta["alpha"] = alpha
        try:
            conn = self.conns.get(sid)
            if conn is None:
                conn = self.conns[sid] = connect(
                    self.ps.addrs[sid], f"ps{sid}", timeout=self.ps.per_wait()
                )
            if payload is None:
                conn.send(PS_REQ, meta, seq=seq)
            else:
                conn.send_tensor(PS_REQ, payload, meta, seq=seq)
        except ConnectionLost:
            self.conns[sid] = None

    def recv(self, wait: float):
        live = {
            conn.sock: sid for sid, conn in self.conns.items() if conn is not None
        }
        if not live:
            # no shard is reachable: burn this attempt's wait so the budget
            # drains at the same rate as for a silent one
            time.sleep(wait)
            return None
        readable = select.select(list(live), [], [], wait)[0]
        if not readable:
            return None
        sid = live[readable[0]]
        conn = self.conns[sid]
        try:
            conn.settimeout(wait)
            frame = conn.recv()
        except socket.timeout:
            return None
        except ConnectionLost:
            self.conns[sid] = None
            return None
        if frame.kind != PS_REP:
            return sid, 0, 0, None, None  # seq 0 reads as stale
        meta = frame.meta
        array = frame.tensor() if len(frame.payload) else None
        return sid, frame.seq, meta.get("version", 0), array, meta.get("error")


class NetParameterServer(ProcessParameterServer):
    """Sharded PS where each shard is a TCP server process.

    Fork mode: shards are forked before the workers, each inheriting its
    pre-bound listener and the initial parameter copy.  External mode: the
    handle is address-book-only; shards run elsewhere (:func:`run_ps_role`)
    and bootstrap from the coordinator.  Shutdown is uniform: the owner
    connects to each shard, sends STOP, and harvests a STATS frame (final
    slice + version/push counters) to assemble the final vector.  Shards are
    never restarted (snapshots would be process-local).
    """

    def __init__(self, ctx, p: int, size: int, n_shards: int,
                 learning_rate: float, dtype, timeout: float,
                 client_only: bool = False,
                 addrs: Tuple[str, ...] = ()) -> None:
        super().__init__(ctx, size, n_shards, learning_rate, dtype, timeout)
        self.client_only = client_only
        self.addrs: Tuple[str, ...] = tuple(addrs)
        self._clients: List[PSClient] = []  # this process's clients
        self._x_local = np.zeros(self.size, dtype=self.dtype)  # initial copy
        self._down = False

    def client(self, rank: int) -> PSClient:
        client = PSClient(self, rank, _FrameChannel(self, rank))
        self._clients.append(client)
        return client

    # -- lifecycle -----------------------------------------------------------

    def start(self, listeners: Dict[str, socket.socket]) -> None:
        """Fork one shard process per listener (fork mode, pre-worker-fork).
        The caller closes its own copies of the listening fds after forking,
        or a dead shard's port would still accept (and strand) clients."""
        if self.client_only or self._procs:
            return
        self._procs = [
            self._fork_shard(_shard_child_main, sid, listeners)
            for sid in range(self._layout.n_shards)
        ]

    def shutdown(self) -> None:
        """Stop shards, harvest their stats frames, assemble the final x."""
        if self.client_only or self._down:
            return
        self._down = True
        xf = np.array(self._x_local, copy=True)
        for sid, addr in enumerate(self.addrs):
            try:
                conn = connect(addr, f"ps{sid}", timeout=2.0)
                conn.send(STOP)
                conn.settimeout(JOIN_GRACE)
                stats = conn.recv().obj()
                conn.close()
            except (ConnectionLost, socket.timeout, ProtocolError):
                # a crashed shard: its applies since start are lost and its
                # slice of the final vector stays at the initial copy
                self.fault_counts["ps_crash"] += 1
                continue
            self.versions[sid] = int(stats["version"])
            self._pushes_applied += int(stats["pushes"])
            lo, hi = self._layout.bounds[sid]
            xf[lo:hi] = stats["x"]
        self._x_final = xf
        reap(self._procs)
        self._procs = []


# -- coordinator control plane -------------------------------------------------


class _ControlPlane:
    """The coordinator side of a run, and net's probe for the core's
    supervision loop: one selector over the coordinator listener and the
    control connections, served in readiness order on the parent's only
    thread.  Workers HELLO, then stream HEARTBEAT/EVENT/RESULT/ERROR frames,
    every read refreshing the rank's ``last_seen``; external PS shards HELLO
    for their slice.  Once every role has arrived, WELCOME goes to all
    workers at once: the rendezvous, and the seat heartbeat staleness counts
    from.  A connection owes its HELLO (or RESUME) within the stall bound
    ``heartbeat_timeout``, and carries it as its socket timeout, so no peer
    holds the loop longer than that."""

    def __init__(self, backend: "NetBackend", p: int) -> None:
        self.backend = backend
        self.p = p
        # the PS whose external shards bootstrap from us
        self.ext_ps = None if backend.mode == "fork" else backend._ps
        self.bus = _events.active_bus()
        self.stall = backend.heartbeat_timeout
        self.listener = backend._listeners["coordinator"]
        self.listener.setblocking(False)
        self.ready = selectors.DefaultSelector()
        self.ready.register(self.listener, selectors.EVENT_READ)
        self.greeting: Dict[Conn, float] = {}  # accepted, owes HELLO/RESUME
        self.conns: Dict[int, Optional[Conn]] = {}  # HELLOed ranks; None: lost
        self.seen: Dict[int, float] = {}  # from the seat on
        self.finished: set = set()
        self.last_ctrl_seq: Dict[int, int] = {}  # per-rank processed seq
        self.resumes: Dict[int, int] = {}  # rank -> successful re-attaches
        self.shards = 0  # external shards bootstrapped
        self.welcomed = False

    def last_seen(self, rank: int) -> Optional[float]:
        return self.seen.get(rank)

    def exited(self, rank: int) -> Optional[bool]:
        alive = self.backend._alive.get(rank)
        return None if alive is None else not alive()

    def lost(self, rank: int) -> bool:
        return rank in self.conns and self.conns[rank] is None

    def pump(self, wait: float) -> list:
        got = []
        start = time.monotonic()  # a stall below must not age the greeting
        for key, _ in self.ready.select(wait):
            if key.data is None:
                try:
                    sock, _ = self.listener.accept()
                except OSError:
                    continue  # the dialler gave up between SYN and accept
                conn = Conn(sock, "peer")
                conn.settimeout(self.stall)
                self.ready.register(sock, selectors.EVENT_READ, (None, conn))
                self.greeting[conn] = time.monotonic()
                continue
            rank, conn = key.data
            if conn.sock.fileno() < 0:
                continue  # replaced by a RESUME earlier in this batch
            try:
                frame = conn.recv()
            except (ConnectionLost, ProtocolError, OSError, ValueError):
                # gone, stalled or no peer of ours.  EOF comes only after
                # every buffered frame (a final RESULT too) was read, so
                # finish-before-death ordering holds
                self._hang_up(conn)
                if rank is not None:  # a replaced connection is hung up already
                    self.conns[rank] = None
            else:
                if rank is None:
                    self._greet(conn, frame)
                elif (outcome := self._read(rank, frame)) is not None:
                    got.append(outcome)
        for conn, since in list(self.greeting.items()):
            if start - since > self.stall:
                self._hang_up(conn)
        return got

    def _hang_up(self, conn: Conn) -> None:
        self.greeting.pop(conn, None)
        self.ready.unregister(conn.sock)
        conn.close()

    def _seat(self, task: int, conn: Conn) -> None:
        if (old := self.conns.get(task)) is not None:
            # a resume replaces the cut connection: what is still unread on
            # it is newer than the RESUME_OK mark, so the worker replays it
            self._hang_up(old)
        conn.peer = f"learner{task}"
        self.conns[task] = conn
        self.ready.modify(conn.sock, selectors.EVENT_READ, (task, conn))

    def _greet(self, conn: Conn, frame) -> None:
        del self.greeting[conn]
        meta = frame.meta if isinstance(frame.meta, dict) else {}
        task = meta.get("task")
        task = task if isinstance(task, int) else -1  # -1: no peer of ours
        job = meta.get("job") if frame.kind == HELLO else None
        if job == "worker" and 0 <= task < self.p:
            self._seat(task, conn)
        elif frame.kind == RESUME and self._resume(conn, task, meta):
            return
        else:
            if job == "ps" and self.ext_ps is not None and (
                0 <= task < self.ext_ps.layout.n_shards
            ):
                # external shard bootstrap: hand it its slice and let it go
                # — shards serve learners on their own listener
                ps = self.ext_ps
                lo, hi = ps.layout.bounds[task]
                try:
                    conn.send_tensor(WELCOME, ps._x_local[lo:hi], {
                        "lr": float(ps.learning_rate),
                        "crash_after": ps.crash_after.get(task),
                    })
                except ConnectionLost:
                    pass
                self.shards += 1
            self._hang_up(conn)
        shards = self.ext_ps.layout.n_shards if self.ext_ps is not None else 0
        seats = [c for c in map(self.conns.get, range(self.p)) if c is not None]
        if self.welcomed or self.shards < shards or len(seats) < self.p:
            return
        self.welcomed = True
        session = self.backend._session
        for rank, seat in enumerate(seats):
            meta = {"events": self.bus is not None, "rank": rank}
            if session:
                meta["sess"] = session
            try:
                seat.send(WELCOME, meta)
            except ConnectionLost:
                pass
            self.seen[rank] = time.monotonic()

    def _resume(self, conn: Conn, task: int, meta) -> bool:
        """Re-seat a worker's control session: RESUME_OK carries the last
        seq we processed, and the worker replays everything newer."""
        session = self.backend._session
        if (
            not session or meta.get("sess") != session
            or not (0 <= task < self.p)
            or task in self.backend._detections or task in self.finished
        ):
            return False
        last = self.last_ctrl_seq.get(task, 0)
        try:
            conn.send(RESUME_OK, {"last": last}, seq=0)
        except ConnectionLost:
            return False
        self._seat(task, conn)
        self.seen[task] = time.monotonic()
        self.resumes[task] = self.resumes.get(task, 0) + 1
        _events.emit(
            _events.RECOVERY_ACTION, t=self.backend.clock(), action="reconnect",
            mode="reconnect", learner=task, resumed_at_seq=last,
            resumes=self.resumes[task],
        )
        return True

    def _read(self, rank: int, frame) -> Optional[Tuple[str, int, dict]]:
        self.seen[rank] = time.monotonic()
        if frame.seq > 0:
            # session streams are contiguous: anything at or below the
            # high-water mark is a replayed duplicate
            if frame.seq <= self.last_ctrl_seq.get(rank, 0):
                return None
            self.last_ctrl_seq[rank] = frame.seq
        if frame.kind == EVENT and self.bus is not None:
            try:
                self.bus.republish(_events.Event.from_dict(frame.meta))
            except Exception:
                pass  # a torn/foreign record; the run goes on without it
        elif frame.kind in (RESULT, ERROR):  # HEARTBEAT only refreshed seen
            self.finished.add(rank)
            return "done" if frame.kind == RESULT else "error", rank, frame.obj()
        return None

    def close(self) -> None:
        for key in list(self.ready.get_map().values()):
            if key.data is not None:
                key.data[1].close()
        self.ready.close()


# -- the worker process --------------------------------------------------------


class _WorkerCtrl(_events.Sink):
    """The worker's control connection, session-resumable when the WELCOME
    carried a session token (recovery=reconnect).

    All control-plane senders go through here — the heartbeat thread
    (:meth:`stamp`), the event sink (:meth:`emit`, one EVENT frame per
    record) and the final RESULT/ERROR; on connection loss one of them wins the
    resume lock and heals the session (:func:`_redial`).  Session-stream
    frames are recorded *before* the failed send, so the replay already
    re-delivered them — senders never re-run after a resume.
    """

    def __init__(self, backend: "NetBackend", lid: int,
                 sess: SessionConn) -> None:
        self.backend = backend
        self.lid = lid
        self.sess = sess
        self._lock = threading.Lock()
        self._gen = 0  # bumped on every successful resume
        self._given_up = False

    def _guarded(self, fn: Callable[[], int]) -> Optional[int]:
        gen = self._gen
        try:
            return fn()
        except ConnectionLost:
            if not self._resume(gen):
                raise
            return None  # the replay delivered any recorded frame

    def send(self, kind: int, meta: Optional[Dict[str, Any]] = None):
        return self._guarded(lambda: self.sess.send(kind, meta))

    def send_obj(self, kind: int, obj: Any,
                 meta: Optional[Dict[str, Any]] = None):
        return self._guarded(lambda: self.sess.send_obj(kind, obj, meta))

    def _resume(self, gen: int) -> bool:
        if not self.sess.session:
            return False
        with self._lock:
            if self._gen != gen:
                return True  # another thread already re-attached
            if self._given_up:
                return False
            backend = self.backend
            seed = backend._plan.seed if backend._plan is not None else 0
            if _redial(
                self.sess, backend._spec.coordinator, "coordinator",
                {"job": "worker", "task": self.lid, "sess": self.sess.session},
                time.monotonic() + backend.reconnect_deadline,
                lambda attempt: _resume_pause(
                    backend._retry, seed, self.lid, self._gen, attempt
                ),
                None,
            ):
                self._gen += 1
                return True
            self._given_up = True
            return False

    def stamp(self, rank: int) -> None:
        self.send(HEARTBEAT)

    def emit(self, event: _events.Event) -> None:
        try:
            self.send(EVENT, event.to_dict())
        except ConnectionLost:
            pass

    def close(self) -> None:
        self.sess.close()


def _worker_body(trainer, lid: int) -> None:
    """Drive one learner to completion: HELLO → WELCOME → heartbeats →
    ``_learner_proc`` → RESULT (or ERROR) on the control connection.

    Runs inside a fork-mode child or an external ``--role worker:K``
    process — the only difference is how the trainer got here.
    """
    backend = trainer.backend
    spec: ClusterSpec = backend._spec
    if backend._t0 is None:
        backend._t0 = time.perf_counter()
    raw = connect(spec.coordinator, "coordinator", timeout=backend.timeout)
    # the bootstrap handshake rides at seq 0, outside the session stream
    raw.send(HELLO, {"job": "worker", "task": lid, "pid": os.getpid()}, seq=0)
    raw.settimeout(backend.timeout)
    welcome = raw.recv()
    if welcome.kind != WELCOME:
        raise ProtocolError(
            f"learner{lid}: expected WELCOME from the coordinator, got "
            f"frame kind {welcome.kind}"
        )
    raw.settimeout(None)
    session = welcome.meta.get("sess") or ""
    ctrl = _WorkerCtrl(backend, lid, SessionConn(raw, session))
    backend._worker_ctrl = ctrl
    if session:
        backend.collective.configure_resume(
            session, backend.reconnect_deadline, backend._retry,
            backend._plan.seed if backend._plan is not None else 0,
        )
    install_worker_bus(
        ctrl if welcome.meta.get("events") else None, backend.clock
    )
    heartbeat = HeartbeatThread(ctrl, lid, backend.heartbeat_interval).start()
    try:
        wall = drive_learner(trainer, lid)
        ctrl.send_obj(RESULT, worker_result(trainer, lid, wall))
    except BaseException as exc:  # noqa: BLE001 - must reach the coordinator
        try:
            ctrl.send_obj(ERROR, worker_error(trainer, exc))
        except ConnectionLost:
            pass  # coordinator already gone; its supervision saw us die
    finally:
        heartbeat.stop()
        backend.collective.teardown_rank()
        ctrl.close()


def _worker_child_main(trainer, lid: int) -> None:
    """Fork-mode entry: drop listeners we don't own, then run the body."""
    backend = trainer.backend
    close_all(backend._listeners, keep=(f"worker{lid}",))
    _worker_body(trainer, lid)


# -- the backend ---------------------------------------------------------------


def _shutdown_quietly(conn) -> None:
    if conn is not None:
        try:
            conn.sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass


class NetBackend(ProcessBackend):
    """Distributed execution over TCP: one OS process per learner/shard."""

    name = "net"
    _death_symptom = (
        "its connections dropped and the surviving workers deadlocked at "
        "the next exchange"
    )
    _death_reason = "control connection to learner{rank} lost without a farewell"

    def __init__(self, timeout: float = 120.0, mode: str = "fork",
                 spec: Optional[ClusterSpec] = None,
                 task: Optional[int] = None,
                 host: str = "127.0.0.1",
                 heartbeat_interval: float = HEARTBEAT_INTERVAL,
                 heartbeat_timeout: float = HEARTBEAT_TIMEOUT,
                 reconnect_deadline: float = _RECONNECT_DEADLINE) -> None:
        if mode not in ("fork", "coordinator", "worker"):
            raise ValueError(
                f"net backend mode must be fork/coordinator/worker, got {mode!r}"
            )
        super().__init__(timeout, heartbeat_interval, heartbeat_timeout)
        if reconnect_deadline < 0:
            raise ValueError(
                f"reconnect_deadline must be >= 0, got {reconnect_deadline}"
            )
        if mode == "fork" and self._ctx is None:
            raise RuntimeError(
                "net backend's local cluster needs the 'fork' start method "
                "(workers inherit the constructed trainer); use `repro "
                "launch` with explicit roles on this platform"
            )
        self.mode = mode
        self.host = host
        self.reconnect_deadline = reconnect_deadline
        self._spec = spec
        self._task = task
        self._session = ""  # non-empty iff recovery=reconnect
        self._worker_ctrl: Optional[_WorkerCtrl] = None  # worker-process side
        self._listeners: Dict[str, socket.socket] = {}
        # rank -> "is its process alive?": the fork children, or the
        # launcher's subprocesses; none for a by-hand cluster
        self._alive: Dict[int, Callable[[], bool]] = {}

    def _make_collective(self, p: int) -> NetCollective:
        collective = NetCollective(p, self.timeout)
        if self._spec is not None:
            collective.install(self._spec, {})
        return collective

    def _make_ps(self, p, size, n_shards, learning_rate, dtype) -> NetParameterServer:
        return NetParameterServer(
            self._ctx, p, size, n_shards, learning_rate, dtype, self.timeout,
            client_only=self.mode == "worker",
            addrs=self._spec.ps if self._spec is not None else (),
        )

    def _planned_steps(self) -> Dict[int, int]:
        if self._plan is None:
            return {}
        return {**self._plan.disconnect_learners(), **self._plan.crash_learners()}

    # -- fault hooks ---------------------------------------------------------

    def install_faults(self, plan, retry=None, recovery: str = "fail_fast") -> None:
        if recovery == "restart_shard":
            raise BackendCapabilityError(
                "net",
                "restart_shard recovery is not available (shard snapshots "
                "are process-local over sockets); use recovery=elastic or "
                "fail_fast, or run on the mp backend",
            )
        if recovery == "elastic" and self.mode != "fork":
            raise BackendCapabilityError(
                "net",
                "elastic recovery needs the local fork cluster (survivors "
                "are respawned with fresh ports); an externally-launched "
                "cluster cannot be respawned — use recovery=fail_fast",
            )
        # reconnect is accepted on every mode: the resume path needs no
        # respawn.  Only the *degraded* (elastic) fallback does, and respawn
        # itself raises BackendCapabilityError outside fork mode.
        super().install_faults(plan, retry, recovery)

    def fault_disconnect(self, lid: int, step: int) -> None:
        """Planned disconnect on the real substrate: sever every TCP
        connection this worker holds — ring, PS shards, control plane — but
        keep the process alive.  Under ``recovery="reconnect"`` the session
        layer re-dials and replays; otherwise the next exchange surfaces
        :class:`ConnectionLost` exactly like an unplanned network cut."""
        self._worker_fault_counts["disconnect"] += 1
        # emit before cutting: the event frame needs the live ctrl socket
        super().fault_disconnect(lid, step)
        for conn in [*self.collective._out.values(), *self.collective._in.values()]:
            _shutdown_quietly(conn)
        if self._ps is not None:
            for client in self._ps._clients:
                for conn in list(client.channel.conns.values()):
                    _shutdown_quietly(conn)
        if self._worker_ctrl is not None:
            _shutdown_quietly(self._worker_ctrl.sess.conn)

    def respawn(self) -> "NetBackend":
        if self.mode != "fork":
            raise BackendCapabilityError(
                "net", "only the local fork cluster can be respawned"
            )
        return NetBackend(
            timeout=self.timeout, host=self.host,
            heartbeat_interval=self.heartbeat_interval,
            heartbeat_timeout=self.heartbeat_timeout,
            reconnect_deadline=self.reconnect_deadline,
        )

    def attach_processes(self, alive: Dict[int, Callable[[], bool]]) -> None:
        """External mode: per-rank liveness probes for launcher-spawned
        processes (``popen.poll() is None``); a by-hand cluster is judged by
        its connections, heartbeats and the rendezvous timeout alone."""
        self._alive = dict(alive)

    # -- the run driver -----------------------------------------------------

    def run(self, trainer) -> RunStats:
        if self.mode == "worker":
            # an externally-launched rank: trainer.train() landed here via
            # `repro launch --role worker:K`; drive the learner body (HELLO,
            # WELCOME, heartbeats, RESULT/ERROR) and exit the process — the
            # coordinator, not this process, assembles the TrainResult
            _worker_body(trainer, self._task)
            raise SystemExit(0)
        p = trainer.config.p
        n_shards = self._ps.layout.n_shards if self._ps is not None else 0
        fork_mode = self.mode == "fork"
        if fork_mode:
            spec, listeners = allocate_loopback(p, n_shards, host=self.host)
            self._spec, self._listeners = spec, listeners
            self.collective.install(
                spec, {i: listeners[f"worker{i}"] for i in range(p)}
            )
        else:
            spec = self._spec
            if spec is None:
                raise RuntimeError("coordinator mode needs a cluster spec")
            if spec.p != p or spec.n_shards != n_shards:
                raise RuntimeError(
                    f"cluster spec shape ({spec.p} workers, {spec.n_shards} "
                    f"ps) does not match the scenario (p={p}, {n_shards} "
                    "shards)"
                )
            self._listeners = {"coordinator": bind_listener(spec.coordinator)}
        if self._ps is not None:
            self._ps.addrs = tuple(spec.ps)
            if fork_mode:
                self._ps.start(listeners)

        if self._recovery == "reconnect" and not self._session:
            self._session = os.urandom(8).hex()
        ctrl = _ControlPlane(self, p)
        self._t0 = time.perf_counter()
        procs: list = []
        try:
            if fork_mode:
                procs = self._fork_workers(trainer, _worker_child_main)
                self._alive = {lid: proc.is_alive for lid, proc in enumerate(procs)}
                # children own the ring/shard listening fds now; drop the
                # parent's copies so a dead worker's port refuses, not hangs
                close_all(self._listeners, keep=("coordinator",))
            # reconnect: a silent-but-alive worker gets the resume deadline
            # (plus one beat of slack) to re-attach before it is declared dead
            payloads, errors = supervise(
                ctrl, p, self.timeout, self.heartbeat_timeout, self._on_death,
                self.reconnect_deadline + 1.0
                if self._recovery == "reconnect" else None,
            )
            self._duration = time.perf_counter() - self._t0
            reap(procs)
        finally:
            reap(procs, grace=0.0)
            if self._ps is not None:
                self._ps.shutdown()
            ctrl.close()
            close_all(self._listeners)
            self._listeners = {}

        stats = self._conclude(trainer, p, payloads, errors)
        stats.extras["cluster_spec"] = self._spec.to_json() if self._spec else None
        return stats
