"""The length-prefixed framed wire protocol every ``repro.net`` socket speaks.

One frame = a fixed binary header + a JSON meta blob + an opaque payload::

    !2sBBQII  =  magic  version  kind  seq  meta_len  payload_len
    (2)  (1)  (1)  (8)  (4)  (4)        -> 20 bytes, network byte order

* ``magic``/``version`` reject foreign or incompatible peers at the first
  frame instead of corrupting state mid-run.
* ``kind`` is one small-integer frame type (:data:`KIND_NAMES`), so a
  receiver can dispatch without parsing the meta.
* ``seq`` is a per-sender stream position.  The parameter-server protocol
  reuses it as the request sequence number its retry + dedupe machinery
  keys on; collective rings use it as a cheap desync tripwire.
* ``meta`` is a small JSON dict (dtype/shape for tensors, op/rank for PS
  requests, the event record for telemetry frames).
* ``payload`` is raw bytes.  Tensor frames put the numpy buffer here
  verbatim — gather-written straight out of the array's memory and
  received into a fresh writable buffer, no pickling on the hot path.
  Control frames carry a pickle (:func:`send_obj`) or nothing.

Failure surfaces as :class:`ConnectionLost` carrying the *labeled* peer
("learner2", "ps0", "coordinator"), so a dead process is named — TCP gives
the detection for free: a killed peer's sockets close and every blocked
``recv`` on them returns EOF/ECONNRESET within milliseconds.
"""

from __future__ import annotations

import json
import os
import pickle
import select
import socket
import struct
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

__all__ = [
    "PROTOCOL_VERSION",
    "Frame",
    "Conn",
    "ConnectionLost",
    "ProtocolError",
    "HELLO",
    "WELCOME",
    "DATA",
    "PS_REQ",
    "PS_REP",
    "RESULT",
    "ERROR",
    "EVENT",
    "HEARTBEAT",
    "STOP",
    "STATS",
    "RESUME",
    "RESUME_OK",
    "KIND_NAMES",
    "SessionConn",
    "SessionUnrecoverable",
    "REPLAY_MAX_FRAMES",
    "REPLAY_MAX_BYTES",
    "connect",
    "bind_listener",
    "parse_addr",
]

MAGIC = b"rN"
PROTOCOL_VERSION = 1
_HEADER = struct.Struct("!2sBBQII")

# frame kinds (one byte on the wire)
HELLO = 1      # role announcement: worker/ps -> coordinator
WELCOME = 2    # rendezvous complete: coordinator -> role (cluster + run meta)
DATA = 3       # collective payload on the learner ring
PS_REQ = 4     # push/pull/elastic request: learner -> shard
PS_REP = 5     # shard reply (answers PS_REQ seq)
RESULT = 6     # worker's final payload: worker -> coordinator
ERROR = 7      # worker's failure payload: worker -> coordinator
EVENT = 8      # one repro.obs.events record: worker -> coordinator / sink
HEARTBEAT = 9  # liveness stamp: worker -> coordinator
STOP = 10      # drain request: coordinator -> shard
STATS = 11     # shard's final slice + counters (answers STOP)
RESUME = 12    # session re-attach: reconnecting peer -> survivor
RESUME_OK = 13  # re-attach accepted: survivor -> peer (last seq processed)

KIND_NAMES = {
    HELLO: "hello",
    WELCOME: "welcome",
    DATA: "data",
    PS_REQ: "ps_req",
    PS_REP: "ps_rep",
    RESULT: "result",
    ERROR: "error",
    EVENT: "event",
    HEARTBEAT: "heartbeat",
    STOP: "stop",
    STATS: "stats",
    RESUME: "resume",
    RESUME_OK: "resume_ok",
}

#: metas stay small; payloads (tensors) are bounded by the model size.  The
#: caps only exist to fail fast on a desynced/garbage stream instead of
#: attempting a multi-gigabyte allocation from a corrupt length field.
_MAX_META = 16 * 1024 * 1024
_MAX_PAYLOAD = 1 << 34


class ProtocolError(RuntimeError):
    """The peer spoke something other than this protocol (or a different
    version of it) — bad magic, bad version, oversized length fields."""


class ConnectionLost(ConnectionError):
    """The TCP connection to a labeled peer died (EOF or reset).

    ``peer`` is the role label of the other end ("learner2", "ps0",
    "coordinator") — the failure-detection path turns it into the typed
    :class:`~repro.runtime.LearnerFailure` naming the victim.  ``sending``:
    our send failed; ``stalled``: it timed out (the peer may live, unread);
    ``frame``: what a :meth:`Conn.sendrecv` read before its send failed.
    """

    def __init__(self, peer: str, detail: str = "connection lost", *,
                 sending: bool = False, stalled: bool = False) -> None:
        super().__init__(f"{detail} ({peer})")
        self.peer = peer
        self.sending = sending
        self.stalled = stalled
        self.frame: Optional[Frame] = None


class Frame:
    """One received frame: ``kind``, ``seq``, ``meta`` dict, raw payload."""

    __slots__ = ("kind", "seq", "meta", "payload")

    def __init__(self, kind: int, seq: int, meta: Dict[str, Any],
                 payload: bytearray) -> None:
        self.kind = kind
        self.seq = seq
        self.meta = meta
        self.payload = payload

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Frame({KIND_NAMES.get(self.kind, self.kind)}, seq={self.seq}, "
            f"meta={self.meta!r}, {len(self.payload)}B)"
        )

    def tensor(self) -> np.ndarray:
        """The payload as the array described by meta ``dtype``/``shape``.

        Zero-copy: a writable view over the receive buffer (the buffer is
        freshly allocated per frame, so aliasing is safe).
        """
        arr = np.frombuffer(self.payload, dtype=np.dtype(self.meta["dtype"]))
        return arr.reshape(self.meta.get("shape", arr.shape))

    def obj(self) -> Any:
        """The payload unpickled (RESULT/ERROR/STATS control frames)."""
        return pickle.loads(bytes(self.payload))


def parse_addr(addr: str) -> Tuple[str, int]:
    """``"host:port"`` → ``(host, port)``."""
    host, _, port = addr.rpartition(":")
    if not host or not port.isdigit():
        raise ValueError(f"expected host:port, got {addr!r}")
    return host, int(port)


def bind_listener(addr: str, backlog: int = 64) -> socket.socket:
    """A listening TCP socket on ``addr`` (``host:0`` picks a free port)."""
    host, port = parse_addr(addr)
    sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
    sock.bind((host, port))
    sock.listen(backlog)
    return sock


def listener_addr(sock: socket.socket) -> str:
    host, port = sock.getsockname()[:2]
    return f"{host}:{port}"


def connect(
    addr: str,
    peer: str,
    timeout: float = 10.0,
    retry_interval: float = 0.05,
) -> "Conn":
    """Connect to ``addr``, retrying refused connections until ``timeout``.

    Bootstrap ordering is unknowable (a learner may dial its ring successor
    or a PS shard before that process reaches ``listen``), so connection
    refused is retried on a short interval; anything still down after
    ``timeout`` raises :class:`ConnectionLost`.
    """
    host, port = parse_addr(addr)
    deadline = time.monotonic() + timeout
    while True:
        try:
            sock = socket.create_connection((host, port), timeout=timeout)
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            return Conn(sock, peer)
        except OSError as exc:
            if time.monotonic() >= deadline:
                raise ConnectionLost(
                    peer, f"could not connect to {addr} within {timeout}s: {exc}"
                ) from None
            time.sleep(retry_interval)


def _tensor(array: np.ndarray,
            meta: Optional[Dict[str, Any]]) -> Tuple[Dict[str, Any], memoryview]:
    """A tensor frame's meta (dtype/shape added) and zero-copy payload."""
    array = np.ascontiguousarray(array)
    meta = dict(meta or {})
    meta["dtype"] = array.dtype.str
    meta["shape"] = list(array.shape)
    return meta, memoryview(array).cast("B")


class Conn:
    """One framed TCP connection to a labeled peer.

    Send is serialised by a lock so multiple threads (a worker's heartbeat
    thread and its main loop, a sink fanning out events) can share the
    connection without interleaving frames.  Receive is single-reader.
    """

    def __init__(self, sock: socket.socket, peer: str) -> None:
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.sock = sock
        self.peer = peer
        self._send_lock = threading.Lock()
        self._seq = 0

    # -- sending -------------------------------------------------------------

    def _frame(self, kind: int, meta: Optional[Dict[str, Any]], payload,
               seq: Optional[int]) -> Tuple[int, List[memoryview]]:
        """Number a frame (under the send lock) and lay out its buffers."""
        if seq is None:
            self._seq += 1
            seq = self._seq
        blob = json.dumps(meta, separators=(",", ":")).encode() if meta else b""
        head = _HEADER.pack(MAGIC, PROTOCOL_VERSION, kind, seq, len(blob), len(payload))
        return seq, [memoryview(head + blob), memoryview(payload)]

    def _write(self, out: List[memoryview],
               block: bool = False) -> List[memoryview]:
        """One gather-write (a socket in timeout mode is non-blocking to the
        OS) returning what the kernel did not take; with ``block``, ``sendall``
        of each buffer under the socket timeout."""
        try:
            if block:
                for buf in filter(len, out):
                    self.sock.sendall(buf)
                return []
            try:
                k = os.writev(self.sock.fileno(), out)
            except BlockingIOError:
                return out
            while out and k >= len(out[0]):
                k, out = k - len(out[0]), out[1:]
            return [out[0][k:], *out[1:]] if out else out
        except socket.timeout as exc:  # PS and control callers retry on a loss
            raise ConnectionLost(self.peer, f"send stalled: {exc}",
                                 sending=True, stalled=True) from None
        except (OSError, ValueError) as exc:
            raise ConnectionLost(self.peer, f"send failed: {exc}",
                                 sending=True) from None

    def _send(self, kind: int, meta: Optional[Dict[str, Any]], payload,
              seq: Optional[int]) -> int:
        with self._send_lock:
            seq, out = self._frame(kind, meta, payload, seq)
            self._write(out, block=True)
        return seq

    def send(self, kind: int, meta: Optional[Dict[str, Any]] = None,
             seq: Optional[int] = None) -> int:
        """Send a payload-free control frame; returns the seq used."""
        return self._send(kind, meta, b"", seq)

    def send_tensor(self, kind: int, array: np.ndarray,
                    meta: Optional[Dict[str, Any]] = None,
                    seq: Optional[int] = None) -> int:
        """Send ``array`` zero-copy: dtype/shape in meta, buffer as payload."""
        return self._send(kind, *_tensor(array, meta), seq)

    def send_obj(self, kind: int, obj: Any,
                 meta: Optional[Dict[str, Any]] = None,
                 seq: Optional[int] = None) -> int:
        """Send a pickled object (results, errors, shard stats)."""
        return self._send(kind, meta, pickle.dumps(obj, protocol=4), seq)

    def sendrecv(self, inp: "Conn", kind: int, array: np.ndarray,
                 meta: Optional[Dict[str, Any]] = None,
                 seq: Optional[int] = None) -> Frame:
        """Send ``array`` here while reading one frame from ``inp``, writing
        whenever the read must wait: a ring step cannot deadlock on frames
        larger than the socket buffers (DESIGN §13).  A failed read still
        finishes our frame; a failed send still finishes the read, whose
        frame rides on the error as ``frame``."""
        lost: List[ConnectionLost] = []

        def pump() -> None:
            while out and not lost:
                readable, writable, _ = select.select(
                    [inp.sock], [self.sock], [], inp.sock.gettimeout()
                )
                if not (readable or writable):
                    raise socket.timeout(f"exchange with {inp.peer} stalled")
                if writable:
                    try:
                        out[:] = self._write(out)
                    except ConnectionLost as exc:
                        lost.append(exc)
                if readable:
                    return

        with self._send_lock:
            out = self._write(self._frame(kind, *_tensor(array, meta), seq)[1])
            try:
                frame = inp.recv(pump)
            except ConnectionLost:
                if lost:  # both links failed: the send's loss is repaired first
                    raise lost[0] from None
                self._write(out, block=True)
                raise
            try:
                if lost:
                    raise lost[0]
                if out:
                    self._write(out, block=True)
            except ConnectionLost as exc:
                exc.frame = frame
                raise
        return frame

    # -- receiving -----------------------------------------------------------

    def _recv_exact(self, n: int, pump: Optional[Callable[[], None]]) -> bytearray:
        buf = bytearray(n)
        view = memoryview(buf)
        got = 0
        while got < n:
            if pump is not None:
                pump()
            try:
                k = self.sock.recv_into(view[got:], n - got)
            except socket.timeout:
                raise
            except OSError as exc:
                raise ConnectionLost(self.peer, f"recv failed: {exc}") from None
            if k == 0:
                raise ConnectionLost(self.peer, "peer closed the connection")
            got += k
        return buf

    def recv(self, pump: Optional[Callable[[], None]] = None) -> Frame:
        """Read exactly one frame (blocking; honours the socket timeout —
        ``socket.timeout`` propagates so callers can drive retry logic).
        ``pump`` runs before every read (:meth:`sendrecv` writes in it)."""
        header = self._recv_exact(_HEADER.size, pump)
        magic, version, kind, seq, meta_len, payload_len = _HEADER.unpack(
            bytes(header)
        )
        if magic != MAGIC:
            raise ProtocolError(
                f"{self.peer}: bad frame magic {bytes(magic)!r} "
                f"(not a repro.net peer?)"
            )
        if version != PROTOCOL_VERSION:
            raise ProtocolError(
                f"{self.peer}: protocol version {version} != "
                f"{PROTOCOL_VERSION} (upgrade one side)"
            )
        if meta_len > _MAX_META or payload_len > _MAX_PAYLOAD:
            raise ProtocolError(
                f"{self.peer}: implausible frame lengths meta={meta_len} "
                f"payload={payload_len} (desynced stream)"
            )
        meta = (
            json.loads(bytes(self._recv_exact(meta_len, pump))) if meta_len else {}
        )
        payload = self._recv_exact(payload_len, pump) if payload_len else bytearray()
        return Frame(kind, seq, meta, payload)

    # -- plumbing ------------------------------------------------------------

    def settimeout(self, seconds: Optional[float]) -> None:
        self.sock.settimeout(seconds)

    def close(self) -> None:
        try:
            self.sock.close()
        except OSError:  # pragma: no cover - close is best-effort
            pass


#: Replay-buffer bounds per SessionConn.  A lockstep trainer keeps the
#: un-acked window tiny (a handful of frames), so these caps exist to bound
#: a pathological peer, not to be hit in healthy runs — overflow marks the
#: session unrecoverable and the reconnect policy degrades to elastic.
REPLAY_MAX_FRAMES = 64
REPLAY_MAX_BYTES = 64 * 1024 * 1024


class SessionUnrecoverable(RuntimeError):
    """The session cannot be resumed: the peer needs frames that have been
    evicted from the replay buffer (or the buffer itself overflowed)."""


class SessionConn:
    """A :class:`Conn` wrapper whose seq stream survives socket replacement.

    The session — not the socket — owns the seq counter and a bounded replay
    buffer of sent frames.  When the underlying TCP connection dies, a fresh
    socket is swapped in with :meth:`adopt` and the peers run the
    RESUME/RESUME_OK handshake: the reconnecting side reports the session
    token, the surviving side answers with the last seq it *processed*, and
    :meth:`replay_from` re-sends everything newer.  This heals TCP's silent
    first-send loss (a send into a peer-closed socket can succeed into the
    kernel buffer and vanish).

    HEARTBEAT frames and handshake frames (explicit ``seq=0``) are not
    recorded — only session-stream frames are replayable.  ``release(seq)``
    drops acknowledged prefixes so lockstep protocols keep the buffer tiny.
    """

    def __init__(self, conn: Conn, session: str = "") -> None:
        self._conn = conn
        self.peer = conn.peer
        self.session = session
        self._lock = threading.Lock()
        self._seq = 0
        self._replay: list = []  # [(seq, kind, meta, payload bytes)]
        self._replay_bytes = 0
        self.last_recv_seq = 0
        self.broken = False

    # -- session-stream sending ----------------------------------------------

    def _record(self, kind: int, meta, payload) -> int:
        """Number a session frame and buffer it for replay (under the lock)."""
        self._seq += 1
        blob = bytes(payload) if len(payload) else b""
        self._replay.append((self._seq, kind, dict(meta or {}), blob))
        self._replay_bytes += len(blob)
        while (
            len(self._replay) > REPLAY_MAX_FRAMES
            or self._replay_bytes > REPLAY_MAX_BYTES
        ):
            _, _, _, old = self._replay.pop(0)
            self._replay_bytes -= len(old)
            self.broken = True
        return self._seq

    def _record_and_send(self, kind: int, meta, payload) -> int:
        with self._lock:
            if kind == HEARTBEAT:
                # liveness stamps ride outside the session stream (seq 0):
                # they are never replayed, and numbering them would punch
                # benign holes in the replay buffer's contiguity
                self._conn._send(kind, meta, payload, 0)
                return 0
            seq = self._record(kind, meta, payload)
            self._conn._send(kind, meta, payload, seq)
        return seq

    def send(self, kind: int, meta: Optional[Dict[str, Any]] = None) -> int:
        return self._record_and_send(kind, meta, b"")

    def send_tensor(self, kind: int, array: np.ndarray,
                    meta: Optional[Dict[str, Any]] = None) -> int:
        return self._record_and_send(kind, *_tensor(array, meta))

    def send_obj(self, kind: int, obj: Any,
                 meta: Optional[Dict[str, Any]] = None) -> int:
        return self._record_and_send(kind, meta, pickle.dumps(obj, protocol=4))

    def sendrecv(self, inp: "SessionConn", kind: int, array: np.ndarray,
                 meta: Optional[Dict[str, Any]] = None) -> Frame:
        meta, payload = _tensor(array, meta)
        with self._lock:
            seq = self._record(kind, meta, payload)
            try:
                return inp._seen(self._conn.sendrecv(inp._conn, kind, array, meta, seq))
            except ConnectionLost as exc:
                inp._seen(exc.frame)
                raise

    # -- session-stream receiving --------------------------------------------

    def _seen(self, frame: Optional[Frame]) -> Optional[Frame]:
        if frame is not None and frame.seq > self.last_recv_seq:
            self.last_recv_seq = frame.seq
        return frame

    def recv(self) -> Frame:
        return self._seen(self._conn.recv())

    # -- resume plumbing -----------------------------------------------------

    def release(self, seq: int) -> None:
        """Drop buffered frames with seq <= ``seq`` (peer acknowledged)."""
        with self._lock:
            while self._replay and self._replay[0][0] <= seq:
                _, _, _, blob = self._replay.pop(0)
                self._replay_bytes -= len(blob)

    def adopt(self, conn: Conn) -> None:
        """Swap in a fresh socket; seq counter and replay buffer carry over."""
        with self._lock:
            old, self._conn = self._conn, conn
            self.peer = conn.peer
        old.close()

    def replay_from(self, last_processed: int) -> int:
        """Re-send every buffered frame with seq > ``last_processed``.

        Returns how many frames were replayed.  Raises
        :class:`SessionUnrecoverable` when the peer needs a frame that has
        been evicted (its gap can never be filled).
        """
        with self._lock:
            pending = [f for f in self._replay if f[0] > last_processed]
            # the session stream is contiguous (heartbeats ride at seq 0), so
            # every frame in (last_processed, _seq] must still be buffered
            need = max(0, self._seq - last_processed)
            if len(pending) < need:
                raise SessionUnrecoverable(
                    f"{self.peer}: peer resumed at seq {last_processed} but "
                    f"{need - len(pending)} newer frame(s) were evicted from "
                    f"the replay buffer"
                )
            for seq, kind, meta, blob in pending:
                self._conn._send(kind, meta, blob, seq)
        return len(pending)

    # -- passthrough ---------------------------------------------------------

    @property
    def sock(self) -> socket.socket:
        return self._conn.sock

    @property
    def conn(self) -> Conn:
        return self._conn

    def close(self) -> None:
        self._conn.close()
