"""Discrete-event simulation engine.

The engine drives *virtual time*: processes are plain Python generators that
``yield`` commands (:class:`Delay`, :class:`Event`, :class:`Process`, ...) and
are resumed by the engine when the command completes.  All simulated
concurrency in :mod:`repro` — learners computing on GPUs, messages crossing
PCIe links, parameter-server shards applying gradient pushes — is expressed as
engine processes, so the *ordering* of side effects (e.g. which stale gradient
reaches the server first) is exactly the ordering of virtual completion times.

The design intentionally mirrors a small subset of SimPy:

* deterministic: ties in virtual time break by scheduling order (a strict
  FIFO per timestamp, equivalent to the monotone sequence number of the
  original implementation), so a seeded run is bit-reproducible;
* cheap: the calendar is *bucketed* — a dict of timestamp → FIFO list plus a
  heap of the distinct timestamps — so a wave of simultaneous resumes (a
  1024-rank collective step, a barrier release) costs one heap pop for the
  whole wave instead of one per resume, and a resume into an existing bucket
  is a plain list append with no heap traffic at all;
* composable: helper coroutines use ``yield from`` so communication layers can
  be layered (collectives over point-to-point over links) without callbacks.

Every scheduling record is allocation-light: :class:`Delay` and the calendar
entries carry no instance ``__dict__`` (``__slots__`` / plain tuples), and a
``Delay`` instance is inert after construction so hot loops may build one and
re-yield it every iteration ("allocation-free Delay reuse").  The dominant
resume case — a process yielding a ``Delay`` — is dispatched on an exact type
check and scheduled inline, skipping the generic command dispatch.

The pre-optimisation engine is preserved verbatim in
:mod:`repro.sim.reference` so ``repro bench`` reports an honest
``engine_speedup_vs_legacy`` and the equivalence tests can assert the batched
calendar replays the identical schedule.

Example
-------
>>> eng = Engine()
>>> out = []
>>> def worker(name, dt):
...     yield Delay(dt)
...     out.append((eng.now, name))
>>> _ = eng.spawn(worker("slow", 2.0))
>>> _ = eng.spawn(worker("fast", 1.0))
>>> eng.run()
>>> out
[(1.0, 'fast'), (2.0, 'slow')]
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Any, Callable, Generator, Optional

__all__ = [
    "Delay",
    "Engine",
    "Event",
    "Process",
    "SimulationError",
]


class SimulationError(RuntimeError):
    """Raised for illegal engine operations (negative delays, re-trigger...)."""


def _label(name: Any) -> str:
    """Read a name given as a str or as a ``(format, *args)`` tuple (lazy)."""
    return name if name.__class__ is str else name[0].format(*name[1:])


class Delay:
    """Command: suspend the yielding process for ``duration`` virtual seconds.

    Instances are inert once built — the engine only reads ``duration`` — so a
    hot loop with a fixed step may construct one Delay and yield it every
    iteration without per-event allocation.
    """

    __slots__ = ("duration",)

    def __init__(self, duration: float) -> None:
        if duration < 0:
            raise SimulationError(f"negative delay: {duration!r}")
        self.duration = duration

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Delay({self.duration!r})"


class Event:
    """A one-shot condition processes can wait on.

    A process waits by yielding the event; :meth:`trigger` wakes every waiter
    (in wait order) and hands them ``value`` as the result of the ``yield``.
    """

    __slots__ = ("engine", "_value", "_triggered", "_waiters", "_name")

    def __init__(self, engine: "Engine", name: Any = "") -> None:
        self.engine = engine
        self._name = name
        self._value: Any = None
        self._triggered = False
        self._waiters: list["Process"] = []

    name = property(lambda self: _label(self._name))

    @property
    def value(self) -> Any:
        if not self._triggered:
            raise SimulationError(f"event {self.name!r} not yet triggered")
        return self._value

    def trigger(self, value: Any = None) -> None:
        """Fire the event, resuming all waiters at the current virtual time."""
        if self._triggered:
            raise SimulationError(f"event {self.name!r} triggered twice")
        self._triggered = True
        self._value = value
        waiters, self._waiters = self._waiters, []
        for proc in waiters:
            self.engine._schedule_resume(proc, value)

    def _add_waiter(self, proc: "Process") -> None:
        if self._triggered:
            self.engine._schedule_resume(proc, self._value)
        else:
            self._waiters.append(proc)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "triggered" if self._triggered else "pending"
        return f"<Event {self.name!r} {state}>"


class Process:
    """A running coroutine inside the engine.

    The wrapped generator may yield:

    * :class:`Delay` — sleep for virtual time,
    * :class:`Event` — wait until triggered; ``yield`` returns its value,
    * :class:`Process` — wait for another process; returns its result,
    * ``None`` — yield the scheduler without advancing time (resumed
      immediately, after already-scheduled same-time events).

    When the generator returns, :attr:`result` holds its return value and
    :attr:`done_event` fires.
    """

    __slots__ = ("engine", "gen", "_name", "result", "done_event", "_finished", "error")

    def __init__(self, engine: "Engine", gen: Generator, name: Any = "") -> None:
        self.engine = engine
        self.gen = gen
        self._name = name = name or getattr(gen, "__name__", "proc")
        self.result: Any = None
        self.error: Optional[BaseException] = None
        self._finished = False
        done = "done:" + name if name.__class__ is str else ("done:" + name[0], *name[1:])
        self.done_event = Event(engine, name=done)

    name = property(lambda self: _label(self._name))

    @property
    def finished(self) -> bool:
        return self._finished

    def _step(self, send_value: Any) -> None:
        engine = self.engine
        try:
            command = self.gen.send(send_value)
        except StopIteration as stop:
            self.result = stop.value
            self._finished = True
            self.done_event.trigger(stop.value)
            return
        except BaseException as exc:
            self.error = exc
            self._finished = True
            engine._crashed(self, exc)
            return

        # Fast path: the overwhelmingly common command is an exact Delay, and
        # duration was validated non-negative at construction — schedule the
        # resume inline on the calendar without generic dispatch.
        if command.__class__ is Delay:
            t = engine._now + command.duration
            bucket = engine._buckets.get(t)
            if bucket is None:
                engine._buckets[t] = [(self, None)]
                heappush(engine._times, t)
            else:
                bucket.append((self, None))
            engine._pending += 1
            if engine._pending > engine.max_heap_depth:
                engine.max_heap_depth = engine._pending
        elif command is None:
            engine._schedule_resume(self, None)
        elif isinstance(command, Event):
            command._add_waiter(self)
        elif isinstance(command, Process):
            command.done_event._add_waiter(self)
        elif isinstance(command, Delay):  # a Delay subclass: generic path
            engine._schedule_resume(self, None, delay=command.duration)
        else:
            exc = SimulationError(
                f"process {self.name!r} yielded unsupported command {command!r}"
            )
            self.error = exc
            self._finished = True
            engine._crashed(self, exc)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "finished" if self._finished else "running"
        return f"<Process {self.name!r} {state}>"


class Engine:
    """The event loop: owns the virtual clock and the bucketed event calendar.

    The calendar is a dict ``timestamp -> [(process, value), ...]`` plus a
    min-heap of the distinct timestamps.  Scheduling appends to the bucket
    (creating it — and pushing its timestamp — only on first use); running
    pops one timestamp and drains its whole bucket in FIFO order.  Resumes
    scheduled *at the current timestamp while its bucket drains* (zero-delay
    yields, event triggers) open a fresh bucket for the same timestamp, which
    is popped next — exactly the (time, sequence-number) order of the
    original per-item heap, so seeded runs replay bit-identically.
    """

    __slots__ = (
        "_now",
        "_times",
        "_buckets",
        "_pending",
        "_crashes",
        "on_crash",
        "events_processed",
        "max_heap_depth",
    )

    def __init__(self) -> None:
        self._now = 0.0
        self._times: list[float] = []  # heap of distinct scheduled timestamps
        self._buckets: dict[float, list] = {}  # timestamp -> FIFO of (proc, value)
        self._pending = 0  # scheduled-but-unprocessed resumes
        self._crashes: list[tuple[Process, BaseException]] = []
        self.on_crash: Optional[Callable[[Process, BaseException], None]] = None
        # scheduling statistics, kept as cheap ints the observability layer
        # reads after the run (no per-event hook, no callback)
        self.events_processed = 0
        self.max_heap_depth = 0

    @property
    def now(self) -> float:
        """Current virtual time in seconds."""
        return self._now

    def event(self, name: Any = "") -> Event:
        return Event(self, name=name)

    def spawn(self, gen: Generator, name: Any = "") -> Process:
        """Register a coroutine; it takes its first step at the current time."""
        proc = Process(self, gen, name=name)
        self._schedule_resume(proc, None)
        return proc

    # -- scheduling internals ------------------------------------------------

    def _schedule_resume(self, proc: Process, value: Any, delay: float = 0.0) -> None:
        if delay < 0:
            raise SimulationError(f"negative delay: {delay!r}")
        t = self._now + delay
        bucket = self._buckets.get(t)
        if bucket is None:
            self._buckets[t] = [(proc, value)]
            heappush(self._times, t)
        else:
            bucket.append((proc, value))
        self._pending += 1
        if self._pending > self.max_heap_depth:
            self.max_heap_depth = self._pending

    def _crashed(self, proc: Process, exc: BaseException) -> None:
        self._crashes.append((proc, exc))
        if self.on_crash is not None:
            self.on_crash(proc, exc)
        else:
            raise exc

    # -- running -------------------------------------------------------------

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> float:
        """Drain the event calendar.

        Parameters
        ----------
        until:
            Stop once the clock would pass this time (the clock is left at
            ``until``).  ``None`` runs until no work remains.
        max_events:
            Safety valve for runaway simulations; raises if exceeded.

        Returns the final virtual time.
        """
        times = self._times
        buckets = self._buckets
        count = 0
        while times:
            t = times[0]
            if until is not None and t > until:
                self._now = until
                return self._now
            heappop(times)
            if t < self._now:
                raise SimulationError("clock went backwards")
            self._now = t
            bucket = buckets.pop(t)
            # Same-timestamp resumes scheduled during this drain open a fresh
            # bucket under t (popped next iteration), preserving FIFO order.
            if max_events is None:
                for proc, value in bucket:
                    proc._step(value)
                n = len(bucket)
            else:
                n = 0
                for proc, value in bucket:
                    proc._step(value)
                    n += 1
                    if count + n > max_events:
                        self._pending -= n
                        self.events_processed += n
                        raise SimulationError(f"exceeded max_events={max_events}")
            count += n
            self._pending -= n
            self.events_processed += n
        if until is not None and until > self._now:
            self._now = until
        return self._now

    def stats(self) -> dict:
        """Scheduling statistics for the observability layer."""
        return {
            "events_processed": self.events_processed,
            "max_heap_depth": self.max_heap_depth,
            "virtual_seconds": self._now,
        }

    def run_process(self, gen: Generator, name: str = "") -> Any:
        """Spawn ``gen``, run to completion, and return its result."""
        proc = self.spawn(gen, name=name)
        self.run()
        if not proc.finished:
            raise SimulationError(f"process {proc.name!r} deadlocked")
        if proc.error is not None:
            raise proc.error
        return proc.result
