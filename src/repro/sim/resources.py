"""Synchronisation primitives built on the event engine.

Two primitives cover everything the cluster model needs:

* :class:`Resource` — a counted semaphore with FIFO hand-off.  A PCIe link is
  a ``Resource(capacity=1)``; holding it for ``bytes / bandwidth`` seconds
  serialises competing transfers, which is how parameter-server congestion on
  the narrow host channel arises in the Fig. 1 reproduction.
* :class:`Store` — an unbounded FIFO queue of items with blocking ``get``.
  Endpoint mailboxes in :mod:`repro.comm.fabric` are stores.

All waiting is FIFO and deterministic.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Generator

from .engine import Engine, Event, SimulationError, _label

__all__ = ["Resource", "Store"]


class Resource:
    """Counted semaphore with FIFO granting.

    Usage from a process coroutine::

        yield from link.acquire()
        try:
            yield Delay(nbytes / bandwidth)
        finally:
            link.release()

    A link holds one of these for every edge of the topology, mostly idle, so
    the instance carries no ``__dict__`` and its waiter queue is a plain list
    (an empty ``deque`` allocates a 64-slot block up front).
    """

    __slots__ = ("engine", "capacity", "name", "_in_use", "_waiters", "total_wait_time")

    def __init__(self, engine: Engine, capacity: int = 1, name: str = "") -> None:
        if capacity < 1:
            raise SimulationError(f"capacity must be >= 1, got {capacity}")
        self.engine = engine
        self.capacity = capacity
        self.name = name
        self._in_use = 0
        self._waiters: list[Event] = []
        # accounting for utilisation traces
        self.total_wait_time = 0.0

    @property
    def in_use(self) -> int:
        return self._in_use

    @property
    def queue_length(self) -> int:
        return len(self._waiters)

    def try_acquire(self) -> bool:
        """Take a free slot now unless a waiter is queued (FIFO); else False."""
        if self._in_use < self.capacity and not self._waiters:
            self._in_use += 1
            return True
        return False

    def acquire(self) -> Generator:
        """Coroutine: blocks until a slot is free, then takes it."""
        if self.try_acquire():
            return
        gate = Event(self.engine, ("acq:{0.name}", self))
        self._waiters.append(gate)
        t0 = self.engine.now
        yield gate
        self.total_wait_time += self.engine.now - t0
        # the releasing side already transferred the slot to us

    def release(self) -> None:
        if self._in_use <= 0:
            raise SimulationError(f"release of idle resource {self.name!r}")
        if self._waiters:
            # hand the slot directly to the next waiter (count unchanged)
            gate = self._waiters.pop(0)
            gate.trigger(None)
        else:
            self._in_use -= 1


class Store:
    """Unbounded FIFO queue with blocking ``get`` (coroutine) and eager ``put``."""

    def __init__(self, engine: Engine, name: Any = "") -> None:
        self.engine = engine
        self._name = name
        self._items: deque[Any] = deque()
        self._getters: deque[Event] = deque()

    name = property(lambda self: _label(self._name))

    def __len__(self) -> int:
        return len(self._items)

    def put(self, item: Any) -> None:
        if self._getters:
            gate = self._getters.popleft()
            gate.trigger(item)
        else:
            self._items.append(item)

    def get(self) -> Generator:
        """Coroutine: returns the oldest item, blocking if empty."""
        if self._items:
            return self._items.popleft()
        gate = Event(self.engine, ("get:{0.name}", self))
        self._getters.append(gate)
        item = yield gate
        return item

    def try_get(self) -> tuple[bool, Any]:
        """Non-blocking pop; returns ``(found, item)``."""
        if self._items:
            return True, self._items.popleft()
        return False, None
