"""Live telemetry: structured events, snapshot/delta streaming, pluggable sinks.

The batch obs layer (metrics registry, Chrome traces, manifests) answers
questions *after* a run; this module answers them *while it happens*.  Every
layer that has something to report — trainers, both runtime backends, the
fault/recovery machinery, the parameter servers, the grid runner — publishes
:class:`Event` records into one ambient :class:`EventBus`, which fans them
out to pluggable :class:`Sink` implementations:

* :class:`ConsoleProgressSink` — live per-learner / per-shard progress lines;
* :class:`JsonlRecorderSink`   — an append-only event log that
  ``repro inspect`` summarises and ``repro watch`` tails;
* :class:`InMemorySink`        — for tests and the grid runner;
* :class:`CallbackSink`        — the extension point for anything else
  (websockets, experiment services, ...).

Snapshot + delta protocol
-------------------------
Events carry a monotonically increasing, gap-free ``seq`` assigned by the
bus at publish time.  The bus folds every event into a live
:class:`RunSnapshot` (a reducer over the event stream), so a subscriber that
attaches late receives one ``snapshot`` event carrying the full state at the
seq it reflects, then ordinary deltas from ``seq + 1`` — late attach and
replay-from-file are the same code path (:meth:`RunSnapshot.from_events`
accepts either a full log or a snapshot-prefixed tail).  Replays run in
strict mode: a missing seq raises :class:`SeqGap`, which is how the tests
prove that a crashed learner cannot tear a hole in the log.

Publishing is **disabled by default** and ambient, exactly like
:func:`repro.obs.active`: call sites do one module-global read
(:func:`active_bus` / :func:`emit`) and nothing else when no bus is
installed, so un-observed runs pay essentially nothing — the overhead
benchmark pins this.

Determinism: on the sim backend every event is stamped with *virtual* time
and published from the deterministic engine schedule, so a run's event
stream is byte-reproducible for a given seed.  The mp and net backends
forward each rank's events to the parent's supervision loop, which
republishes them in the authoritative seq order (real arrival order — racy
on purpose).
"""

from __future__ import annotations

import json
import threading
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence

__all__ = [
    "EVENTS_VERSION",
    "Event",
    "SeqGap",
    "RunSnapshot",
    "Sink",
    "InMemorySink",
    "CallbackSink",
    "JsonlRecorderSink",
    "ConsoleProgressSink",
    "QueueSink",
    "EventBus",
    "active_bus",
    "install",
    "use_events",
    "emit",
    "read_events",
    "format_snapshot",
    "RUN_STARTED",
    "EPOCH_PROGRESS",
    "PS_APPLY",
    "FAULT_INJECTED",
    "FAILURE_DETECTED",
    "RECOVERY_ACTION",
    "CHECKPOINT_WRITTEN",
    "RUN_FINISHED",
    "SWEEP_STARTED",
    "CELL_STARTED",
    "CELL_FINISHED",
    "SWEEP_FINISHED",
    "SNAPSHOT",
]

#: bump when an incompatible change lands in the event wire format
EVENTS_VERSION = 1

# -- event kinds --------------------------------------------------------------

RUN_STARTED = "run_started"
EPOCH_PROGRESS = "epoch_progress"
PS_APPLY = "ps_apply"
FAULT_INJECTED = "fault_injected"
FAILURE_DETECTED = "failure_detected"
RECOVERY_ACTION = "recovery_action"
CHECKPOINT_WRITTEN = "checkpoint_written"
RUN_FINISHED = "run_finished"
SWEEP_STARTED = "sweep_started"
CELL_STARTED = "cell_started"
CELL_FINISHED = "cell_finished"
SWEEP_FINISHED = "sweep_finished"
SNAPSHOT = "snapshot"

KINDS = frozenset(
    {
        RUN_STARTED,
        EPOCH_PROGRESS,
        PS_APPLY,
        FAULT_INJECTED,
        FAILURE_DETECTED,
        RECOVERY_ACTION,
        CHECKPOINT_WRITTEN,
        RUN_FINISHED,
        SWEEP_STARTED,
        CELL_STARTED,
        CELL_FINISHED,
        SWEEP_FINISHED,
        SNAPSHOT,
    }
)

#: kinds that belong on the fault/recovery timeline
_TIMELINE_KINDS = frozenset({FAULT_INJECTED, FAILURE_DETECTED, RECOVERY_ACTION})

#: kinds whose arrival means the stream is over
_TERMINAL_KINDS = frozenset({RUN_FINISHED, SWEEP_FINISHED})


class Event:
    """One structured telemetry record.

    ``seq``    gap-free stream position, assigned by the bus at publish.
    ``t``      the *backend-native* clock (virtual seconds on sim, wall
               seconds since run start on mp) — never ``time.time()``, so
               sim streams stay byte-reproducible.
    ``source`` the actor that observed it (``learner0``, ``ps1``, ``run``).
    ``data``   kind-specific payload (JSON-serialisable).
    ``v``      wire-format version (:data:`EVENTS_VERSION`).
    """

    __slots__ = ("kind", "data", "source", "t", "seq", "v")

    def __init__(
        self,
        kind: str,
        data: Optional[Dict[str, Any]] = None,
        source: str = "run",
        t: float = 0.0,
        seq: int = -1,
        v: int = EVENTS_VERSION,
    ) -> None:
        self.kind = kind
        self.data = dict(data or {})
        self.source = source
        self.t = float(t)
        self.seq = int(seq)
        self.v = int(v)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Event(seq={self.seq}, kind={self.kind!r}, source={self.source!r})"

    def to_dict(self) -> Dict[str, Any]:
        return {
            "v": self.v,
            "seq": self.seq,
            "t": self.t,
            "kind": self.kind,
            "source": self.source,
            "data": self.data,
        }

    def to_json(self) -> str:
        """Canonical one-line form (sorted keys → byte-stable streams)."""
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_dict(cls, d: Dict[str, Any]) -> "Event":
        try:
            return cls(
                kind=str(d["kind"]),
                data=dict(d.get("data") or {}),
                source=str(d.get("source", "run")),
                t=float(d.get("t", 0.0)),
                seq=int(d.get("seq", -1)),
                v=int(d.get("v", EVENTS_VERSION)),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"not an event record: {d!r}") from exc

    @classmethod
    def parse_line(cls, line: str) -> "Event":
        data = json.loads(line)
        if not isinstance(data, dict):
            raise ValueError(f"not an event record: {line[:80]!r}")
        return cls.from_dict(data)


def read_events(path) -> List[Event]:
    """Parse a :class:`JsonlRecorderSink` file back into events."""
    out: List[Event] = []
    for line in Path(path).read_text().splitlines():
        line = line.strip()
        if line:
            out.append(Event.parse_line(line))
    return out


# -- the snapshot reducer ------------------------------------------------------


class SeqGap(ValueError):
    """A strict replay found a hole in the seq stream."""

    def __init__(self, expected: int, got: int) -> None:
        super().__init__(f"event stream gap: expected seq {expected}, got {got}")
        self.expected = expected
        self.got = got


class RunSnapshot:
    """The full state of a run (or sweep) as implied by its event stream.

    A pure reducer: ``apply()`` folds one event in; replaying a recorded log
    through a fresh snapshot reconstructs exactly the state the live bus
    held.  ``status`` is ``idle`` → ``running`` → ``ok`` | ``failed``.
    """

    def __init__(self) -> None:
        self.seq = -1              # last applied seq
        self.clock = 0.0           # t of the last applied event
        self.status = "idle"
        self.attempts = 0          # run_started count (elastic restarts)
        self.run: Dict[str, Any] = {}
        self.learners: Dict[str, Dict[str, Any]] = {}
        self.shards: Dict[str, Dict[str, Any]] = {}
        self.faults: List[Dict[str, Any]] = []
        self.last_epoch: Optional[Dict[str, Any]] = None
        self.totals: Dict[str, float] = {
            "events": 0,
            "samples": 0,
            "epochs": 0,
            "ps_applies": 0,
            "checkpoints": 0,
            "faults": 0,
            "recoveries": 0,
        }
        self.sweep: Optional[Dict[str, Any]] = None

    # -- reduction -----------------------------------------------------------

    def apply(self, event: Event, strict: bool = False) -> None:
        """Fold ``event`` in.  ``strict`` enforces seq contiguity (replay)."""
        if event.kind == SNAPSHOT:
            # late-attach bootstrap: adopt the carried state wholesale
            self.load(event.data)
            return
        if strict and event.seq != self.seq + 1:
            raise SeqGap(self.seq + 1, event.seq)
        self.seq = event.seq
        self.clock = event.t
        self.totals["events"] += 1
        handler = getattr(self, f"_on_{event.kind}", None)
        if handler is not None:
            handler(event)
        if event.kind in _TIMELINE_KINDS:
            self.faults.append(
                {
                    "seq": event.seq,
                    "t": event.t,
                    "event": event.kind,
                    "source": event.source,
                    **event.data,
                }
            )

    def _on_run_started(self, event: Event) -> None:
        self.run = dict(event.data)
        self.status = "running"
        self.attempts += 1
        p = int(event.data.get("p", 0))
        self.learners = {
            f"learner{i}": {"status": "running", "step": None} for i in range(p)
        }
        n_shards = int(event.data.get("n_shards", 0))
        self.shards = {
            f"ps{i}": {"status": "up", "restarts": 0} for i in range(n_shards)
        }

    def _on_epoch_progress(self, event: Event) -> None:
        self.last_epoch = dict(event.data)
        self.totals["epochs"] = int(event.data.get("epoch", 0))
        self.totals["samples"] = int(event.data.get("samples", 0))

    def _on_ps_apply(self, event: Event) -> None:
        self.totals["ps_applies"] += 1
        learner = self.learners.get(event.source)
        if learner is not None and event.data.get("step") is not None:
            learner["step"] = int(event.data["step"])

    def _on_fault_injected(self, event: Event) -> None:
        self.totals["faults"] += 1
        kind = event.data.get("fault")
        if kind == "crash":
            learner = self.learners.get(event.source)
            if learner is not None:
                learner["status"] = "crashed"
                if event.data.get("step") is not None:
                    learner["step"] = int(event.data["step"])
        elif kind == "disconnect":
            learner = self.learners.get(event.source)
            if learner is not None:
                learner["status"] = "disconnected"
                if event.data.get("step") is not None:
                    learner["step"] = int(event.data["step"])
        elif kind == "ps_crash":
            shard = self.shards.setdefault(
                event.source, {"status": "up", "restarts": 0}
            )
            shard["status"] = "down"

    def _on_failure_detected(self, event: Event) -> None:
        lid = event.data.get("learner")
        if lid is not None:
            learner = self.learners.get(f"learner{lid}")
            if learner is not None and learner["status"] == "running":
                learner["status"] = "dead"

    def _on_recovery_action(self, event: Event) -> None:
        self.totals["recoveries"] += 1
        if event.data.get("action") == "restart_shard":
            shard = self.shards.setdefault(
                event.source, {"status": "up", "restarts": 0}
            )
            shard["status"] = "up"
            shard["restarts"] = int(shard.get("restarts", 0)) + 1
        elif event.data.get("action") == "reconnect":
            lid = event.data.get("learner")
            learner = self.learners.get(f"learner{lid}") if lid is not None else None
            if learner is not None and learner["status"] in (
                "disconnected", "dead"
            ):
                learner["status"] = "running"

    def _on_checkpoint_written(self, event: Event) -> None:
        self.totals["checkpoints"] += 1

    def _on_run_finished(self, event: Event) -> None:
        self.status = str(event.data.get("status", "ok"))
        if "duration" in event.data:
            self.run["duration"] = event.data["duration"]
        if "samples" in event.data:
            self.totals["samples"] = int(event.data["samples"])
        if "epochs" in event.data:
            self.totals["epochs"] = int(event.data["epochs"])
        if self.status == "ok":
            for learner in self.learners.values():
                if learner["status"] == "running":
                    learner["status"] = "finished"

    def _on_sweep_started(self, event: Event) -> None:
        self.status = "running"
        self.sweep = {
            "exp_id": event.data.get("exp_id"),
            "total": int(event.data.get("total", 0)),
            "done": 0,
            "cached": 0,
            "cells": {},
        }

    def _on_cell_started(self, event: Event) -> None:
        if self.sweep is not None:
            self.sweep["cells"][str(event.data.get("index"))] = "running"

    def _on_cell_finished(self, event: Event) -> None:
        if self.sweep is None:
            return
        cached = bool(event.data.get("cached"))
        self.sweep["cells"][str(event.data.get("index"))] = (
            "cached" if cached else "done"
        )
        self.sweep["done"] += 1
        if cached:
            self.sweep["cached"] += 1

    def _on_sweep_finished(self, event: Event) -> None:
        self.status = str(event.data.get("status", "ok"))

    # -- (de)serialisation ----------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        return {
            "seq": self.seq,
            "clock": self.clock,
            "status": self.status,
            "attempts": self.attempts,
            "run": dict(self.run),
            "learners": {k: dict(v) for k, v in self.learners.items()},
            "shards": {k: dict(v) for k, v in self.shards.items()},
            "faults": [dict(f) for f in self.faults],
            "last_epoch": dict(self.last_epoch) if self.last_epoch else None,
            "totals": dict(self.totals),
            "sweep": dict(self.sweep) if self.sweep else None,
        }

    def load(self, d: Dict[str, Any]) -> None:
        self.seq = int(d.get("seq", -1))
        self.clock = float(d.get("clock", 0.0))
        self.status = str(d.get("status", "idle"))
        self.attempts = int(d.get("attempts", 0))
        self.run = dict(d.get("run") or {})
        self.learners = {k: dict(v) for k, v in (d.get("learners") or {}).items()}
        self.shards = {k: dict(v) for k, v in (d.get("shards") or {}).items()}
        self.faults = [dict(f) for f in (d.get("faults") or [])]
        last_epoch = d.get("last_epoch")
        self.last_epoch = dict(last_epoch) if last_epoch else None
        self.totals.update(d.get("totals") or {})
        sweep = d.get("sweep")
        self.sweep = dict(sweep) if sweep else None

    @classmethod
    def from_events(cls, events: Iterable[Event], strict: bool = True) -> "RunSnapshot":
        """Replay a stream (full log, or snapshot event + delta tail)."""
        snap = cls()
        for event in events:
            snap.apply(event, strict=strict and snap.seq >= 0)
        return snap

    @property
    def finished(self) -> bool:
        return self.status in ("ok", "failed")


# -- sinks ---------------------------------------------------------------------


class Sink:
    """One event consumer.  ``emit`` must not raise (the bus trusts it)."""

    def emit(self, event: Event) -> None:  # pragma: no cover - interface
        raise NotImplementedError

    def close(self) -> None:
        """Release resources; further emits are undefined."""


class InMemorySink(Sink):
    """Collects events in a list (tests, the grid runner, aggregators)."""

    def __init__(self) -> None:
        self.events: List[Event] = []

    def emit(self, event: Event) -> None:
        self.events.append(event)


class CallbackSink(Sink):
    """The extension point: forwards every event to ``fn(event)``."""

    def __init__(self, fn: Callable[[Event], None]) -> None:
        self.fn = fn

    def emit(self, event: Event) -> None:
        self.fn(event)


class JsonlRecorderSink(Sink):
    """Append-only JSONL recorder, flushed per event so tails see it live."""

    def __init__(self, path) -> None:
        self.path = Path(path)
        self._fh = open(self.path, "w")

    def emit(self, event: Event) -> None:
        self._fh.write(event.to_json() + "\n")
        self._fh.flush()

    def close(self) -> None:
        if not self._fh.closed:
            self._fh.close()


class QueueSink(Sink):
    """Forward events over a multiprocessing queue (mp worker → parent)."""

    def __init__(self, q) -> None:
        self.q = q

    def emit(self, event: Event) -> None:
        self.q.put(event.to_dict())


class ConsoleProgressSink(Sink):
    """Human-readable progress lines, one per interesting event."""

    def __init__(self, stream=None) -> None:
        import sys

        self.stream = stream if stream is not None else sys.stdout

    def emit(self, event: Event) -> None:
        line = self._format(event)
        if line is not None:
            print(line, file=self.stream, flush=True)

    def _format(self, event: Event) -> Optional[str]:
        d = event.data
        stamp = f"[{event.t:9.3f}s #{event.seq}]"
        if event.kind == RUN_STARTED:
            return (
                f"{stamp} run started: {d.get('algo')} on {d.get('problem')} "
                f"p={d.get('p')} backend={d.get('backend')} seed={d.get('seed')}"
            )
        if event.kind == EPOCH_PROGRESS:
            test = d.get("test_acc")
            test_s = f" test_acc={test:.4f}" if test is not None else ""
            return (
                f"{stamp} {event.source}: epoch {d.get('epoch')} "
                f"samples={d.get('samples')} loss={d.get('train_loss'):.4f} "
                f"acc={d.get('train_acc'):.4f}{test_s}"
            )
        if event.kind == FAULT_INJECTED:
            detail = " ".join(
                f"{k}={v}" for k, v in sorted(d.items()) if k != "fault"
            )
            return f"{stamp} FAULT {d.get('fault')} at {event.source} {detail}"
        if event.kind == FAILURE_DETECTED:
            latency = d.get("detection_seconds")
            lat_s = f" (detected in {latency:.3f}s)" if latency is not None else ""
            return f"{stamp} FAILURE learner{d.get('learner')}{lat_s}: {d.get('reason', '')}"
        if event.kind == RECOVERY_ACTION:
            detail = " ".join(
                f"{k}={v}" for k, v in sorted(d.items()) if k != "action"
            )
            return f"{stamp} RECOVERY {d.get('action')} {detail}"
        if event.kind == CHECKPOINT_WRITTEN:
            return (
                f"{stamp} checkpoint @interval {d.get('interval')} "
                f"({d.get('steps_done')} steps)"
            )
        if event.kind == RUN_FINISHED:
            extra = f": {d.get('error')}" if d.get("error") else ""
            return f"{stamp} run finished: {d.get('status')}{extra}"
        if event.kind == SWEEP_STARTED:
            return f"{stamp} sweep started: {d.get('exp_id')} ({d.get('total')} cells)"
        if event.kind == CELL_FINISHED:
            tag = " (cached)" if d.get("cached") else ""
            return f"{stamp} cell {d.get('index')} done{tag}"
        if event.kind == SWEEP_FINISHED:
            return f"{stamp} sweep finished: {d.get('status')}"
        return None  # ps_apply / cell_started are too chatty for the console


# -- the bus -------------------------------------------------------------------


class EventBus:
    """Assigns seq numbers, folds the snapshot, fans out to sinks.

    Thread-safe: ``publish`` runs under one lock, so whichever threads
    publish, the seq order *is* the arrival order.
    """

    def __init__(
        self,
        sinks: Sequence[Sink] = (),
        clock: Optional[Callable[[], float]] = None,
        keep_snapshot: bool = True,
    ) -> None:
        self._lock = threading.Lock()
        self._next_seq = 0
        self.clock = clock if clock is not None else (lambda: 0.0)
        self.sinks: List[Sink] = list(sinks)
        self.snapshot: Optional[RunSnapshot] = RunSnapshot() if keep_snapshot else None

    def publish(
        self, kind: str, source: str = "run", t: Optional[float] = None, **data
    ) -> Event:
        """Stamp, fold, and fan out one event; returns it (seq assigned)."""
        with self._lock:
            event = Event(
                kind=kind,
                data=data,
                source=source,
                t=self.clock() if t is None else float(t),
                seq=self._next_seq,
            )
            self._next_seq += 1
            if self.snapshot is not None:
                self.snapshot.apply(event)
            for sink in self.sinks:
                sink.emit(event)
        return event

    def republish(self, event: Event) -> Event:
        """Re-emit a forwarded event, preserving payload/source/t but
        assigning this bus's authoritative seq (the process backends' path)."""
        return self.publish(event.kind, source=event.source, t=event.t, **event.data)

    def attach(self, sink: Sink) -> None:
        """Late subscription: ship the full snapshot first, then deltas."""
        with self._lock:
            if self.snapshot is not None:
                sink.emit(
                    Event(
                        kind=SNAPSHOT,
                        data=self.snapshot.to_dict(),
                        source="bus",
                        t=self.snapshot.clock,
                        seq=self.snapshot.seq,
                    )
                )
            self.sinks.append(sink)

    def close(self) -> None:
        for sink in self.sinks:
            sink.close()


# -- ambient installation (mirrors repro.obs.runtime) --------------------------

_BUS: Optional[EventBus] = None


def active_bus() -> Optional[EventBus]:
    """The installed bus, or None (the fast, common case)."""
    return _BUS


def install(bus: Optional[EventBus]) -> Optional[EventBus]:
    """Install ``bus`` (or None to disable); returns the previous one.

    The mp backend uses this inside forked workers to swap the inherited
    parent bus for a queue-forwarding one (the parent's sinks must never be
    written from two processes).
    """
    global _BUS
    previous = _BUS
    _BUS = bus
    return previous


@contextmanager
def use_events(bus: EventBus):
    """Install ``bus`` for the block's duration (nests; restored on exit)."""
    previous = install(bus)
    try:
        yield bus
    finally:
        install(previous)


def emit(kind: str, source: str = "run", t: Optional[float] = None, **data):
    """Publish onto the ambient bus; a cheap no-op when none is installed."""
    bus = _BUS
    if bus is None:
        return None
    return bus.publish(kind, source=source, t=t, **data)


# -- rendering (shared by `repro watch` and the tests) -------------------------


def format_snapshot(snap: RunSnapshot) -> str:
    """A terminal-friendly view of one snapshot."""
    lines: List[str] = []
    run = snap.run
    if snap.sweep is not None:
        sw = snap.sweep
        lines.append(
            f"sweep {sw.get('exp_id')}: {sw['done']}/{sw['total']} cells "
            f"({sw['cached']} cached)  [{snap.status}]"
        )
    if run:
        lines.append(
            f"run: {run.get('algo')} on {run.get('problem')} "
            f"p={run.get('p')} backend={run.get('backend')} "
            f"seed={run.get('seed')}  [{snap.status}]"
            + (f"  attempt {snap.attempts}" if snap.attempts > 1 else "")
        )
    if snap.last_epoch:
        ep = snap.last_epoch
        test = ep.get("test_acc")
        test_s = f"  test_acc={test:.4f}" if test is not None else ""
        lines.append(
            f"  epoch {ep.get('epoch')}  samples={ep.get('samples')}  "
            f"train_loss={ep.get('train_loss'):.4f}  "
            f"train_acc={ep.get('train_acc'):.4f}{test_s}"
        )
    if snap.learners:
        states = "  ".join(
            f"{name}={st['status']}"
            + (f"@{st['step']}" if st.get("step") is not None else "")
            for name, st in sorted(snap.learners.items())
        )
        lines.append(f"  learners: {states}")
    if snap.shards:
        states = "  ".join(
            f"{name}={st['status']}"
            + (f"({st['restarts']} restarts)" if st.get("restarts") else "")
            for name, st in sorted(snap.shards.items())
        )
        lines.append(f"  shards: {states}")
    if snap.faults:
        lines.append("  fault timeline:")
        for entry in snap.faults:
            detail = " ".join(
                f"{k}={v}"
                for k, v in sorted(entry.items())
                if k not in ("seq", "t", "event", "source")
            )
            lines.append(
                f"    [{entry['t']:9.3f}s #{entry['seq']}] "
                f"{entry['event']} {entry['source']} {detail}"
            )
    totals = snap.totals
    lines.append(
        f"  totals: events={int(totals['events'])} "
        f"samples={int(totals['samples'])} epochs={int(totals['epochs'])} "
        f"ps_applies={int(totals['ps_applies'])} "
        f"checkpoints={int(totals['checkpoints'])} "
        f"faults={int(totals['faults'])} recoveries={int(totals['recoveries'])}"
    )
    lines.append(f"  clock: {snap.clock:.3f}s  last seq: {snap.seq}")
    return "\n".join(lines)
