"""Socket event streaming: the live run feed over the framed protocol.

:class:`TcpEventSink` is a :class:`repro.obs.events.Sink` that listens on a
TCP address and pushes every event to every connected subscriber, one EVENT
frame per record.  It keeps its own :class:`RunSnapshot`, so a subscriber
that attaches mid-run first receives one SNAPSHOT event (state so far) and
then live deltas — the same snapshot+delta protocol the JSONL recorder and
``repro watch`` already speak, carried over sockets instead of a file.

Wiring::

    repro run --spec S --events tcp://127.0.0.1:7900   # publisher
    repro watch --connect 127.0.0.1:7900               # live view, any host

:func:`iter_remote_events` is the subscriber side: a generator of decoded
:class:`~repro.obs.events.Event` records that ends when the publisher
closes (run over) — ``repro watch --connect`` folds it into a snapshot
view exactly as it folds a recorder file.
"""

from __future__ import annotations

import socket
import threading
from typing import Iterator, List, Optional

from ..obs import events as _events
from .frames import (
    EVENT,
    Conn,
    ConnectionLost,
    ProtocolError,
    bind_listener,
    connect,
    listener_addr,
)

__all__ = ["TcpEventSink", "iter_remote_events", "strip_scheme"]


def strip_scheme(addr: str) -> str:
    """``tcp://host:port`` → ``host:port`` (bare ``host:port`` passes through)."""
    return addr[6:] if addr.startswith("tcp://") else addr


class TcpEventSink(_events.Sink):
    """Publish the event stream to TCP subscribers (snapshot + deltas).

    Subscribers may come and go at any time; a dead subscriber is dropped
    at the next emit (a slow or vanished watcher never stalls the run).
    Bind to port 0 to let the kernel pick — :attr:`addr` reports where the
    sink actually listens.
    """

    def __init__(self, addr: str) -> None:
        self._listener = bind_listener(strip_scheme(addr))
        self.addr = listener_addr(self._listener)
        self._lock = threading.Lock()
        self._subs: List[Conn] = []
        self._snapshot = _events.RunSnapshot()
        self._closing = False
        self._listener.settimeout(0.25)
        self._thread = threading.Thread(
            target=self._accept_loop, name="tcp-event-sink", daemon=True
        )
        self._thread.start()

    def _accept_loop(self) -> None:
        while not self._closing:
            try:
                sock, _ = self._listener.accept()
            except socket.timeout:
                continue
            except OSError:
                return
            conn = Conn(sock, "subscriber")
            with self._lock:
                # bootstrap: the whole run so far in one frame, then deltas
                snap = _events.Event(
                    kind=_events.SNAPSHOT,
                    data=self._snapshot.to_dict(),
                    source="sink",
                    t=self._snapshot.clock,
                    seq=self._snapshot.seq,
                )
                try:
                    conn.send(EVENT, snap.to_dict())
                except ConnectionLost:
                    conn.close()
                    continue
                self._subs.append(conn)

    # -- Sink API ------------------------------------------------------------

    def emit(self, event: _events.Event) -> None:
        with self._lock:
            self._snapshot.apply(event)
            record = event.to_dict()
            dead: List[Conn] = []
            for conn in self._subs:
                try:
                    conn.send(EVENT, record)
                except ConnectionLost:
                    dead.append(conn)
            for conn in dead:
                self._subs.remove(conn)
                conn.close()

    def close(self) -> None:
        self._closing = True
        try:
            self._listener.close()
        except OSError:
            pass
        with self._lock:
            subs, self._subs = self._subs, []
        for conn in subs:
            conn.close()


def iter_remote_events(
    addr: str, timeout: float = 1.5, idle_timeout: Optional[float] = None
) -> Iterator[_events.Event]:
    """Subscribe to a :class:`TcpEventSink` and yield decoded events.

    Ends when the publisher closes the stream (run finished) or, with
    ``idle_timeout``, when nothing arrives for that long.  ``timeout``
    bounds the initial connect: a refused dial is retried that long (the
    publisher may be starting), so ``repro watch --connect`` pointed at a
    port nobody serves gives up within it.
    """
    conn = connect(strip_scheme(addr), "events", timeout=timeout)
    conn.settimeout(idle_timeout)
    try:
        while True:
            try:
                frame = conn.recv()
            except (ConnectionLost, socket.timeout):
                return
            except ProtocolError:
                return
            if frame.kind != EVENT:
                continue
            try:
                yield _events.Event.from_dict(frame.meta)
            except (KeyError, TypeError, ValueError):
                continue
    finally:
        conn.close()
