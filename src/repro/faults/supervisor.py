"""Liveness supervision primitives for the multiprocessing backend.

The pre-fault ``MPBackend`` used ``multiprocessing.Barrier`` with a long
timeout: a dead rank meant every peer blocked for the full timeout (120 s by
default) before anyone learned anything, and the barrier object broke
permanently on the first timeout.  This module replaces that with a small
shared-memory **liveness block** plus a **polling barrier**:

* each worker runs a daemon heartbeat thread stamping a wall-clock value
  into its slot every ``heartbeat_interval`` seconds;
* the parent's supervision loop
  (:func:`repro.runtime.process_backend.supervise`, on its main thread)
  declares a rank dead when its process exits or its heartbeat goes stale,
  and raises a flag in shared memory;
* :class:`PollingBarrier` replaces ``mp.Barrier``: ranks publish monotone
  per-round arrival counters and spin (with a short sleep) until all peers
  arrive, a dead flag is raised, or the deadline passes — so a killed peer
  is noticed within roughly one heartbeat timeout rather than the full
  barrier timeout, and the barrier survives any number of failed rounds.

Everything here is dependency-pure (stdlib + numpy) so
``repro.runtime.mp_backend`` can import it without cycles.
"""

from __future__ import annotations

import os
import threading
import time
from multiprocessing import shared_memory
from typing import Dict, Optional, Sequence

import numpy as np

__all__ = [
    "LivenessBlock",
    "PollingBarrier",
    "HeartbeatThread",
]

_ALIVE = 0
_DEAD = 1


class LivenessBlock:
    """Shared-memory liveness state for ``p`` ranks.

    Layout (all little-endian, fixed order):

    * ``heartbeats``  float64[p] — wall-clock of each rank's last stamp
    * ``dead``        int64[p]   — 0 alive, 1 declared dead (by the parent's
      supervision or by the rank itself on injected crash)
    * ``dead_step``   int64[p]   — local steps completed when death was
      declared (−1 unknown)
    * ``finished``    int64[p]   — 1 once the rank completed normally; the
      parent must not declare a finished rank dead just because its
      process exited
    * ``arrivals``    one int64[p] lane per named barrier — monotone round
      counters for :class:`PollingBarrier`

    The parent creates the block before forking; workers inherit the open
    mapping across ``fork``.
    """

    def __init__(self, p: int, barrier_lanes: Sequence[str]) -> None:
        self.p = p
        self.lanes = list(barrier_lanes)
        n_words = p + p + p + p + p * len(self.lanes)
        self._shm = shared_memory.SharedMemory(create=True, size=8 * n_words)
        buf = self._shm.buf
        off = 0
        self.heartbeats = np.ndarray((p,), dtype=np.float64, buffer=buf, offset=off)
        off += 8 * p
        self.dead = np.ndarray((p,), dtype=np.int64, buffer=buf, offset=off)
        off += 8 * p
        self.dead_step = np.ndarray((p,), dtype=np.int64, buffer=buf, offset=off)
        off += 8 * p
        self.finished = np.ndarray((p,), dtype=np.int64, buffer=buf, offset=off)
        off += 8 * p
        self.arrivals: Dict[str, np.ndarray] = {}
        for lane in self.lanes:
            self.arrivals[lane] = np.ndarray(
                (p,), dtype=np.int64, buffer=buf, offset=off
            )
            off += 8 * p
        self.heartbeats[:] = time.monotonic()
        self.dead[:] = _ALIVE
        self.dead_step[:] = -1
        self.finished[:] = 0
        for lane in self.lanes:
            self.arrivals[lane][:] = 0

    # -- state transitions ---------------------------------------------------

    def stamp(self, rank: int) -> None:
        self.heartbeats[rank] = time.monotonic()

    def declare_dead(self, rank: int, step: int = -1) -> None:
        if self.dead[rank] == _ALIVE:
            self.dead_step[rank] = step
            self.dead[rank] = _DEAD

    def is_dead(self, rank: int) -> bool:
        return bool(self.dead[rank] == _DEAD)

    def mark_finished(self, rank: int) -> None:
        """Worker declares it completed normally (set before exiting)."""
        self.finished[rank] = 1

    def is_finished(self, rank: int) -> bool:
        return bool(self.finished[rank] == 1)

    def first_dead(self, exclude: Optional[int] = None) -> Optional[int]:
        for rank in range(self.p):
            if rank != exclude and self.dead[rank] == _DEAD:
                return rank
        return None

    def close(self) -> None:
        # release numpy views before closing the mapping
        self.heartbeats = self.dead = self.dead_step = None  # type: ignore
        self.finished = None  # type: ignore
        self.arrivals = {}
        try:
            self._shm.close()
        except (OSError, BufferError):
            pass
        try:
            self._shm.unlink()
        except OSError:  # already gone
            pass


class PollingBarrier:
    """Monotone per-rank round counters over a :class:`LivenessBlock` lane:
    a reusable p-way barrier, or a wait on just the peers a step reads from.

    Each rank keeps a private monotone round counter.  ``wait`` publishes
    the new round into the rank's arrival slot and probes until every rank
    in ``peers`` (all of them by default: a barrier) has published a round
    at least as new, a peer is declared dead (→ ``DeadPeer``), or
    ``timeout`` passes (→ ``Timeout``).  Peers in
    step arrive within microseconds of each other, so the first
    ``SPIN_PROBES`` probes only yield the core (``os.sched_yield``: on an
    oversubscribed box the peer that is still computing runs instead);
    a peer that stays away longer is waited out asleep, ``POLL_SECONDS``
    per probe, at no CPU cost.  Unlike ``multiprocessing.Barrier``, a
    failed round leaves the barrier usable — elastic recovery depends on
    that.

    A rank that only ever yields is never placed anew by the scheduler, and
    the load balancer was seen to leave two such ranks on one core beside
    an idle one for a second at a time, every step serialised (one run in
    six, +10 % wall).  A yield that returns late ran somebody else on this
    core; every ``NAP_EVERY``-th such yield the rank blocks for an instant,
    and the wake-up puts it on the idle core (20 ms instead of 1 s).
    """

    POLL_SECONDS = 0.0005
    SPIN_PROBES = 200
    STOLEN_YIELD_SECONDS = 0.00005  # on a core of its own a yield returns in ~1 µs
    NAP_EVERY = 32

    class DeadPeer(Exception):
        def __init__(self, rank: int, step: int) -> None:
            super().__init__(f"rank {rank} dead (step {step})")
            self.rank = rank
            self.step = step

    class Timeout(Exception):
        pass

    def __init__(self, block: LivenessBlock, lane: str, rank: int) -> None:
        self.block = block
        self.lane = lane
        self.rank = rank
        self.round = int(block.arrivals[lane][rank])
        self._stolen = 0  # yields that ran somebody else on this core

    def wait(self, timeout: float, peers: Optional[Sequence[int]] = None,
             arrive: bool = True) -> None:
        """Arrive at the next round (unless ``arrive`` is false), then return
        once every rank in ``peers`` has arrived at this rank's round."""
        arrivals = self.block.arrivals[self.lane]
        if arrive:
            self.round += 1
            arrivals[self.rank] = self.round
        deadline = time.monotonic() + timeout
        probes = 0
        while True:
            dead = self.block.first_dead(exclude=self.rank)
            if dead is not None:
                raise PollingBarrier.DeadPeer(dead, int(self.block.dead_step[dead]))
            if (bool(np.all(arrivals >= self.round)) if peers is None
                    else all(arrivals[q] >= self.round for q in peers)):
                return
            now = time.monotonic()
            if now > deadline:
                raise PollingBarrier.Timeout(
                    f"barrier lane {self.lane!r} round {self.round} timed out "
                    f"after {timeout:.0f}s"
                )
            if probes < self.SPIN_PROBES:
                probes += 1
                os.sched_yield()
                if time.monotonic() - now > self.STOLEN_YIELD_SECONDS:
                    self._stolen += 1
                    if self._stolen % self.NAP_EVERY == 0:
                        time.sleep(1e-6)  # any real sleep: the wake-up is the point
            else:
                time.sleep(self.POLL_SECONDS)


class HeartbeatThread:
    """Daemon thread a worker runs to prove it lives: ``block.stamp(rank)``
    every ``interval`` seconds — its :class:`LivenessBlock` slot on mp, a
    HEARTBEAT frame on net's control connection — until stopped, or until
    the connection it beats on is gone."""

    def __init__(self, block, rank: int, interval: float) -> None:
        self.block = block
        self.rank = rank
        self.interval = interval
        self._stop = threading.Event()
        self._thread = threading.Thread(
            target=self._run, name=f"heartbeat-{rank}", daemon=True
        )

    def _run(self) -> None:
        while not self._stop.is_set():
            try:
                self.block.stamp(self.rank)
            except ConnectionError:
                return
            self._stop.wait(self.interval)

    def start(self) -> "HeartbeatThread":
        self._thread.start()
        return self

    def stop(self) -> None:
        self._stop.set()
