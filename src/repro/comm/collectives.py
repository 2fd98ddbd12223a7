"""The one executor of the collective schedules, and its simulated channel.

SASGD replaces the parameter server with "global reductions" (paper Sec. III):
``gs ← allreduce(gs, p, id)`` plus an initial ``broadcast`` of the parameters
(compressed SASGD an ``allgather`` of one sparse row per rank).
:mod:`repro.comm.schedule` writes each algorithm down as rounds of steps;
:func:`run_schedule` runs one rank's rounds on every substrate — sim, mp and
net — so the same pieces are added in the same order everywhere.  What
differs is only how one round's piece reaches one peer: that is the
substrate's *channel*, ``channel(k, step, piece, size, into)``, a coroutine
that runs round ``k``:

* it sends ``piece`` (``size`` bytes) to ``step.send_to`` and/or receives
  from ``step.recv_from`` the piece that will land in ``into`` (``None``
  while the rank has no vector yet), and returns what arrived (``None``
  when nothing did);
* it is called on *every* round, idle ones (``step is None``) included —
  mp's round counter advances on each;
* on the simulated fabric it is :func:`sim_channel`: an
  :class:`~repro.comm.fabric.Endpoint` ``send``/``recv``/``sendrecv``
  coroutine, returned unwrapped (the :class:`~repro.comm.fabric.Message` it
  ends on carries the piece); mp's and net's block and never yield.

Timing-only mode (sim): pass ``local=None`` and ``nbytes=...`` to move bytes
without doing math — used by the epoch-time experiments at paper scale.  A
piece of ``parts`` pieces is then charged ``nbytes / parts``.
"""

from __future__ import annotations

from typing import Any, Generator, Optional, Sequence

import numpy as np

from .fabric import Endpoint, Message
from .schedule import Schedule, bounds

__all__ = ["run_schedule", "sim_channel"]


def run_schedule(
    channel, schedule: Schedule, local: Optional[np.ndarray], nbytes: float = 0.0
) -> Generator:
    """Run one rank's ``schedule`` on a copy of ``local`` through ``channel``;
    returns the copy (``None`` in timing-only mode).  A rank without a
    vector (a broadcast receiver) takes the first piece it receives as its
    vector."""
    if local is not None:
        local = np.array(local, copy=True).reshape(-1)
    for k, step in enumerate(schedule):
        piece: Optional[np.ndarray] = None
        into: Optional[np.ndarray] = None
        size = 0.0
        if step is not None:
            if step.send is not None:
                if local is None:
                    size = nbytes / step.send[1]
                else:
                    lo, hi = bounds(step.send, local.size)
                    piece = local[lo:hi]
                    size = float(piece.nbytes)
            if step.recv is not None and local is not None:
                lo, hi = bounds(step.recv, local.size)
                into = local[lo:hi]
        got = yield from channel(k, step, piece, size, into)
        if isinstance(got, Message):  # the simulated fabric's envelope
            got = got.payload
        if got is None:
            continue
        if into is None:
            local = np.array(got, copy=True)
        elif step is not None and step.add:
            into += got
        else:
            into[...] = got
    return local


def sim_channel(ep: Endpoint, members: Sequence[str], ctx: Any = 0):
    """``ep``'s channel over the simulated fabric, for one collective call.

    ``members`` lists endpoint names in rank order; ``ctx`` must be unique
    per call-site occurrence (e.g. the global aggregation index), so
    messages are tagged ``(ctx, k)`` and successive calls cannot cross-talk.
    A piece is sent as a copy: the receiver must see this round's values
    even if the sender writes the piece again before it is read.
    """

    def channel(k, step, piece, size, into):
        if step is None:
            return ()
        tag = (ctx, k)
        payload = None if piece is None else piece.copy()
        if step.recv is None:
            return ep.send(members[step.send_to], tag, payload, size)
        if step.send is None:
            return ep.recv(members[step.recv_from], tag)
        return ep.sendrecv(
            members[step.send_to], tag, payload, members[step.recv_from], tag, size
        )

    return channel
