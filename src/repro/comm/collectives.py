"""The simulated fabric's executor of the collective schedules.

SASGD replaces the parameter server with "global reductions" (paper Sec. III):
``gs ← allreduce(gs, p, id)`` plus an initial ``broadcast`` of the parameters
(compressed SASGD an ``allgather`` of one sparse row per rank).
:mod:`repro.comm.schedule` writes each algorithm down as rounds of steps;
this module runs them over :class:`~repro.comm.fabric.Endpoint`, *actually
reducing the NumPy payloads*, so the trainers built on top are numerically
real while the transfer timing comes from the simulated links.  A step with
both sides is one ``sendrecv``, a one-sided step one ``send`` or ``recv``.

Calling convention (SPMD): every participating process runs the same
coroutine with its own ``rank``; ``members`` lists endpoint names in rank
order; ``ctx`` must be unique per collective *call site occurrence* (e.g. the
global aggregation index) so successive rounds can't cross-talk.

Timing-only mode: pass ``array=None`` and ``nbytes=...`` to move bytes without
doing math — used by the epoch-time experiments at paper scale.  A piece of
``parts`` pieces is then charged ``nbytes / parts``.  The allgather has no
such mode: it always moves its rows.
"""

from __future__ import annotations

from typing import Any, Generator, Optional, Sequence

import numpy as np

from .fabric import Endpoint
from .schedule import (
    Schedule,
    allgather_schedule,
    allreduce_schedule,
    bounds,
    broadcast_schedule,
    gather_start,
)

__all__ = ["allgather", "allreduce", "broadcast", "run_schedule"]


def run_schedule(
    ep: Endpoint,
    members: Sequence[str],
    schedule: Schedule,
    array: Optional[np.ndarray],
    nbytes: float = 0.0,
    ctx: Any = 0,
) -> Generator:
    """Run one rank's ``schedule`` on a copy of ``array``; returns the copy
    (``None`` in timing-only mode).  A rank without an array (a broadcast
    receiver) takes the first piece it receives as its vector."""
    local = None if array is None else array.copy()
    for k, step in enumerate(schedule):
        if step is None:
            continue
        tag = (ctx, k)
        payload, size = None, 0.0
        if step.send is not None:
            if local is None:
                size = nbytes / step.send[1]
            else:
                # a copy: the receiver must see this round's values even if
                # this rank writes the piece again before it is read
                lo, hi = bounds(step.send, local.size)
                payload = local[lo:hi].copy()
                size = float(payload.nbytes)
        if step.recv is None:
            yield from ep.send(members[step.send_to], tag, payload, size)
            continue
        src = members[step.recv_from]
        if step.send is None:
            msg = yield from ep.recv(src, tag)
        else:
            msg = yield from ep.sendrecv(
                members[step.send_to], tag, payload, src, tag, size
            )
        if msg.payload is None:
            continue
        if local is None:
            local = msg.payload
            continue
        lo, hi = bounds(step.recv, local.size)
        if step.add:
            local[lo:hi] += msg.payload
        else:
            local[lo:hi] = msg.payload
    return local


def broadcast(
    ep: Endpoint,
    members: Sequence[str],
    rank: int,
    array: Optional[np.ndarray],
    root: int = 0,
    nbytes: float = 0.0,
    ctx: Any = 0,
) -> Generator:
    """Binomial-tree broadcast from ``root``; returns the broadcast array."""
    return run_schedule(
        ep, members, broadcast_schedule(len(members), rank, root), array, nbytes, ctx
    )


def allreduce(
    ep: Endpoint,
    members: Sequence[str],
    rank: int,
    array: Optional[np.ndarray],
    nbytes: float = 0.0,
    ctx: Any = 0,
    algorithm: str = "recursive_doubling",
    groups: Optional[Sequence[Sequence[int]]] = None,
) -> Generator:
    """Sum-allreduce by the named schedule (see
    :data:`~repro.comm.schedule.ALLREDUCE_ALGORITHMS`); ``groups`` only
    shapes ``algorithm="hierarchical"``."""
    schedule = allreduce_schedule(algorithm, len(members), rank, groups)
    return run_schedule(ep, members, schedule, array, nbytes, ctx)


def allgather(
    ep: Endpoint,
    members: Sequence[str],
    rank: int,
    row: np.ndarray,
    ctx: Any = 0,
) -> Generator:
    """Ring allgather of one fixed-size 1-D ``row`` per rank; returns the
    ``(p, len(row))`` stack in rank order."""
    p, row = len(members), np.asarray(row).reshape(-1)
    local = yield from run_schedule(
        ep, members, allgather_schedule(p, rank), gather_start(p, rank, row), ctx=ctx
    )
    return local.reshape(p, row.size)
