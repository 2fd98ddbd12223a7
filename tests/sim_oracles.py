"""Test oracle for :mod:`repro.sim.engine`: the single-heap event loop.

This is the discrete-event engine as it was before the bucketed calendar:
one binary heap of per-resume ``_ScheduledItem`` dataclass records, one
push/pop per resume — the "obviously correct" form.  The equivalence tests
in ``test_sim_engine_scale.py`` assert that the batched calendar replays
its schedules bit for bit.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Any, Callable, Generator, Optional

__all__ = ["LegacyDelay", "LegacyEngine", "LegacyEvent", "LegacyProcess"]


class SimulationError(RuntimeError):
    """Raised for illegal engine operations (negative delays, re-trigger...)."""


@dataclass(frozen=True)
class LegacyDelay:
    """Command: suspend the yielding process for ``duration`` virtual seconds."""

    duration: float

    def __post_init__(self) -> None:
        if self.duration < 0:
            raise SimulationError(f"negative delay: {self.duration!r}")


class LegacyEvent:
    """A one-shot condition processes can wait on (pre-PR implementation)."""

    __slots__ = ("engine", "_value", "_triggered", "_waiters", "name")

    def __init__(self, engine: "LegacyEngine", name: str = "") -> None:
        self.engine = engine
        self.name = name
        self._value: Any = None
        self._triggered = False
        self._waiters: list["LegacyProcess"] = []

    def trigger(self, value: Any = None) -> None:
        if self._triggered:
            raise SimulationError(f"event {self.name!r} triggered twice")
        self._triggered = True
        self._value = value
        waiters, self._waiters = self._waiters, []
        for proc in waiters:
            self.engine._schedule_resume(proc, value)

    def _add_waiter(self, proc: "LegacyProcess") -> None:
        if self._triggered:
            self.engine._schedule_resume(proc, self._value)
        else:
            self._waiters.append(proc)


class LegacyProcess:
    """A running coroutine inside the legacy engine."""

    __slots__ = ("engine", "gen", "name", "done_event")

    def __init__(self, engine: "LegacyEngine", gen: Generator, name: str = "") -> None:
        self.engine = engine
        self.gen = gen
        self.name = name or getattr(gen, "__name__", "proc")
        self.done_event = LegacyEvent(engine, name=f"done:{self.name}")

    def _step(self, send_value: Any) -> None:
        engine = self.engine
        try:
            command = self.gen.send(send_value)
        except StopIteration as stop:
            self.done_event.trigger(stop.value)
            return
        except BaseException as exc:
            engine._crashed(self, exc)
            return

        if command is None:
            engine._schedule_resume(self, None)
        elif isinstance(command, LegacyDelay):
            engine._schedule_resume(self, None, delay=command.duration)
        elif isinstance(command, LegacyEvent):
            command._add_waiter(self)
        elif isinstance(command, LegacyProcess):
            command.done_event._add_waiter(self)
        else:
            exc = SimulationError(
                f"process {self.name!r} yielded unsupported command {command!r}"
            )
            engine._crashed(self, exc)


@dataclass(order=True)
class _ScheduledItem:
    time: float
    seq: int
    proc: LegacyProcess = field(compare=False)
    value: Any = field(compare=False, default=None)


class LegacyEngine:
    """The pre-PR event loop: one heap push/pop of a dataclass per resume."""

    def __init__(self) -> None:
        self._now = 0.0
        self._seq = 0
        self._heap: list[_ScheduledItem] = []
        self._crashes: list[tuple[LegacyProcess, BaseException]] = []
        self.on_crash: Optional[Callable[[LegacyProcess, BaseException], None]] = None
        self.events_processed = 0
        self.max_heap_depth = 0

    @property
    def now(self) -> float:
        return self._now

    def spawn(self, gen: Generator, name: str = "") -> LegacyProcess:
        proc = LegacyProcess(self, gen, name=name)
        self._schedule_resume(proc, None)
        return proc

    def _schedule_resume(
        self, proc: LegacyProcess, value: Any, delay: float = 0.0
    ) -> None:
        if delay < 0:
            raise SimulationError(f"negative delay: {delay!r}")
        self._seq += 1
        heapq.heappush(
            self._heap, _ScheduledItem(self._now + delay, self._seq, proc, value)
        )
        if len(self._heap) > self.max_heap_depth:
            self.max_heap_depth = len(self._heap)

    def _crashed(self, proc: LegacyProcess, exc: BaseException) -> None:
        self._crashes.append((proc, exc))
        if self.on_crash is not None:
            self.on_crash(proc, exc)
        else:
            raise exc

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> float:
        count = 0
        while self._heap:
            item = self._heap[0]
            if until is not None and item.time > until:
                self._now = until
                return self._now
            heapq.heappop(self._heap)
            if item.time < self._now:
                raise SimulationError("clock went backwards")
            self._now = item.time
            item.proc._step(item.value)
            count += 1
            self.events_processed += 1
            if max_events is not None and count > max_events:
                raise SimulationError(f"exceeded max_events={max_events}")
        if until is not None and until > self._now:
            self._now = until
        return self._now
