"""In-memory span recorder and the timing wrappers of the traced pass.

The program under ``src/repro`` is not edited: every span is recorded from
here, around a call into a layer's public function.  A span is
``(name, start, end, parent, rank)`` plus its self time (duration minus the
part its child spans cover) and one optional count (bytes, events).  Spans
stay in memory; forked ranks ship their table home through the trainers'
``_worker_export`` / ``_worker_import`` hook (:func:`traced_trainer`) and the
worker writes everything out once, when the run has ended.

Calls that return a coroutine (collectives, parameter-server requests, the
learner body) are timed per resume segment, so on the ``sim`` backend — where
one process interleaves every learner — a span is host time spent inside the
call, never another learner's turn.
"""

from __future__ import annotations

import os
import threading
import time
from typing import Any, Callable, Dict, Generator, List, Optional, Tuple

import numpy as np

__all__ = ["Recorder", "install", "traced_trainer", "summarise", "dump"]

_now = time.perf_counter

# row layout of Recorder.rows / the exported table
NAME, START, END, PARENT, RANK, SELF, VALUE = range(7)


class Recorder:
    """Span table of one process (and, after merging, of its forked ranks)."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.rows: List[list] = []
        self._open: List[list] = []      # stack of [row index, child seconds]
        self._leaf_depth = 0
        self.rank = -1                   # learner the current segment runs for
        self._thread = threading.get_ident()
        self._base = 0                   # first row recorded after the fork
        os.register_at_fork(after_in_child=self._after_fork)

    def _after_fork(self) -> None:
        # a forked rank keeps the inherited rows (its parents live there) but
        # exports only what it records itself
        self._base = len(self.rows)
        self._thread = threading.get_ident()

    def _id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def begin(self, name: str, leaf: bool = False) -> int:
        """Open a span; returns a token for :meth:`end` (-1: not recorded).

        Helper threads (heartbeats, socket readers) share the wrapped classes
        but not the span stack, so only the process's main line records.  A
        ``leaf`` span hides the spans of everything it calls.
        """
        if self._leaf_depth or threading.get_ident() != self._thread:
            return -1
        parent = self._open[-1][0] if self._open else -1
        idx = len(self.rows)
        self.rows.append([self._id(name), _now(), 0.0, parent, self.rank, 0.0, 0.0])
        self._open.append([idx, 0.0])
        if leaf:
            self._leaf_depth = 1
        return idx

    def end(self, token: int, value: float = 0.0) -> None:
        if token < 0:
            return
        t1 = _now()
        idx, child = self._open.pop()
        if idx != token:  # a wrapper bug, never a property of the program
            raise RuntimeError(f"span stack out of order: closing {token}, open {idx}")
        row = self.rows[idx]
        dur = t1 - row[START]
        row[END] = t1
        row[SELF] = dur - child
        row[VALUE] = value
        if self._open:
            self._open[-1][1] += dur
        self._leaf_depth = 0

    # -- fork transport -------------------------------------------------------

    def export(self) -> Dict[str, Any]:
        """This process's own rows, compact enough to pickle home."""
        rows = self.rows[self._base:]
        table = np.array(rows, dtype=np.float64).reshape(len(rows), 7)
        return {"names": list(self.names), "base": self._base, "table": table}

    def merge(self, payload: Dict[str, Any]) -> None:
        """Append a forked rank's rows, re-seating names and parent links."""
        remap = np.array([self._id(n) for n in payload["names"]], dtype=np.float64)
        table = payload["table"]
        if not len(table):
            return
        table = table.copy()
        table[:, NAME] = remap[table[:, NAME].astype(int)]
        own = table[:, PARENT] >= payload["base"]
        table[own, PARENT] += len(self.rows) - payload["base"]
        self.rows.extend(table.tolist())

    def table(self) -> np.ndarray:
        return np.array(self.rows, dtype=np.float64).reshape(len(self.rows), 7)


class _Null:
    """Recorder stand-in for an untraced run that only injects a delay."""

    def begin(self, name: str, leaf: bool = False) -> int:
        return -1

    def end(self, token: int, value: float = 0.0) -> None:
        pass


# -- wrappers ------------------------------------------------------------------


def _call(rec, name: str, fn: Callable, delay: float, leaf: bool = False,
          value: Optional[Callable[[tuple, Any], float]] = None) -> Callable:
    def wrapper(*args, **kwargs):
        token = rec.begin(name, leaf)
        out = None
        try:
            if delay:
                time.sleep(delay)
            out = fn(*args, **kwargs)
            return out
        finally:
            rec.end(token, value(args, out) if value and token >= 0 else 0.0)
    return wrapper


def _drive(rec, name: str, gen: Generator, delay: float,
           rank: Optional[int] = None) -> Generator:
    """Run ``gen`` to completion, one span per resume segment."""
    arg: Any = None
    exc: Optional[BaseException] = None
    while True:
        if rank is not None:
            outer, rec.rank = rec.rank, rank
        token = rec.begin(name)
        try:
            if delay:
                time.sleep(delay)
                delay = 0.0
            try:
                command = gen.throw(exc) if exc is not None else gen.send(arg)
            except StopIteration as stop:
                return stop.value
        finally:
            rec.end(token)
            if rank is not None:
                rec.rank = outer
        try:
            arg, exc = (yield command), None
        except GeneratorExit:
            gen.close()
            raise
        except BaseException as thrown:  # noqa: BLE001 - forwarded to gen
            arg, exc = None, thrown


def _coro(rec, name: str, fn: Callable, delay: float) -> Callable:
    def wrapper(*args, **kwargs):
        return _drive(rec, name, fn(*args, **kwargs), delay)
    return wrapper


def _payload_bytes(args: tuple, out: Any) -> float:
    """Tensor bytes of one frame: the array sent, or the payload received."""
    if out is not None and hasattr(out, "payload"):
        return float(len(out.payload))
    for arg in args:
        if isinstance(arg, np.ndarray):
            return float(arg.nbytes)
    return 0.0


def _cell(rec, fn: Callable, delay: float) -> Callable:
    """``simulate_epoch_time`` wrapper: one span per scaling cell, named by
    its ``p`` and by the fabric that costs it (message / vector)."""
    def wrapper(*args, **kwargs):
        mode = "fastfabric" if kwargs.get("comm_mode") == "vector" else "fabric"
        name = f"harness.timing.cell_p{kwargs.get('p')}.{mode}"
        return _call(rec, name, fn, delay)(*args, **kwargs)
    return wrapper


def _engine_run(rec, fn: Callable, delay: float) -> Callable:
    """``Engine.run`` wrapper: the span's count is the events it processed."""
    def wrapper(self, *args, **kwargs):
        before = self.events_processed
        events = lambda _args, _out: float(self.events_processed - before)  # noqa: E731
        return _call(rec, "sim.engine.run", fn, delay, value=events)(self, *args, **kwargs)
    return wrapper


_COLLECTIVE_LAYER = {"sim": "comm", "mp": "runtime.mp", "net": "net"}


def _boundaries(rec, trainer) -> List[Tuple[Any, str, str, Callable]]:
    """``(owner, attribute, boundary name, wrap)`` for every wrapped call.

    ``wrap(fn, delay)`` builds the wrapper.  Owners are the trainer's own
    instances where the program reaches the call through one, and the class
    or module where it creates the object itself mid-run.
    """
    from repro.core.sasgd import SASGDLocalState
    from repro.harness import experiments
    from repro.net.frames import Conn
    from repro.sim.engine import Engine

    def call(name, leaf=False, value=None):
        return lambda fn, delay: _call(rec, name, fn, delay, leaf, value)

    def coro(name):
        return lambda fn, delay: _coro(rec, name, fn, delay)

    out: List[Tuple[Any, str, str, Callable]] = [
        (SASGDLocalState, "local_step", "core.local_step", call("core.local_step")),
        (SASGDLocalState, "apply_global", "core.apply_global", call("core.apply_global")),
        (Engine, "run", "sim.engine.run", lambda fn, d: _engine_run(rec, fn, d)),
        (experiments, "simulate_epoch_time", "harness.timing.cell",
         lambda fn, d: _cell(rec, fn, d)),
    ]
    for attr in ("send", "send_tensor", "send_obj"):
        out.append((Conn, attr, "net.frames.send",
                    call("net.frames.send", value=_payload_bytes)))
    out.append((Conn, "recv", "net.frames.recv",
                call("net.frames.recv", value=_payload_bytes)))
    if trainer is None:
        return out
    for wl in trainer.workloads:
        out += [
            (wl, "next_batch", "data.next_batch", call("data.next_batch")),
            (wl, "compute_gradient", "algos.compute_gradient",
             call("algos.compute_gradient")),
            (wl.model, "forward", "model.forward", call("nn.forward")),
            (wl.model, "backward", "model.backward", call("nn.backward")),
            (wl.criterion, "forward", "criterion.forward", call("nn.loss")),
            (wl.criterion, "backward", "criterion.backward", call("nn.loss")),
        ]
    out.append((trainer.problem.train_set, "batch", "data.batch", call("data.batch")))
    layer = _COLLECTIVE_LAYER[trainer.backend.name]
    for op in ("broadcast", "allreduce", "allgather"):
        out.append((trainer.collective, op, f"Collective.{op}", coro(f"{layer}.{op}")))
    for client in getattr(trainer, "clients", ()):
        for op in ("push", "pull", "elastic"):
            out.append((client, op, f"PSClientLike.{op}", coro(f"ps.{op}")))
    # evaluate_model runs the same model.forward the training step does; a
    # leaf span keeps evaluation out of nn.forward
    out.append((trainer.tape, "record_epochs", "MetricsTape.record_epochs",
                call("algos.eval", leaf=True)))
    return out


def install(rec: Optional[Recorder], trainer=None,
            inject: Optional[Tuple[str, float]] = None) -> None:
    """Wrap the call boundaries in this process.

    With a recorder every boundary is timed.  Without one (an untraced run)
    only the boundary named by ``inject`` is wrapped, to add its delay: that
    is how the self-test plants a slowdown in one layer.
    """
    target, seconds = inject if inject else (None, 0.0)
    for owner, attr, boundary, wrap in _boundaries(rec or _Null(), trainer):
        delay = seconds if boundary == target else 0.0
        if rec is not None or delay:
            setattr(owner, attr, wrap(getattr(owner, attr), delay))


def traced_trainer(cls: type, rec: Recorder) -> type:
    """Benchmark-owned subclass of a trainer class.

    Times the learner body per rank and carries each forked rank's span table
    home on the hook the trainers already use for their own counters.
    """

    class Traced(cls):  # type: ignore[misc, valid-type]
        def _learner_proc(self, lid: int) -> Generator:
            return _drive(rec, "backend.rank_body", super()._learner_proc(lid),
                          0.0, rank=lid)

        def _worker_export(self, lid: int) -> Dict[str, object]:
            data = dict(super()._worker_export(lid))
            data["e2e_spans"] = rec.export()
            return data

        def _worker_import(self, lid: int, data: Dict[str, object]) -> None:
            data = dict(data)
            rec.merge(data.pop("e2e_spans"))
            super()._worker_import(lid, data)

    Traced.__name__ = cls.__name__
    Traced.algorithm = cls.algorithm
    return Traced


# -- aggregation ---------------------------------------------------------------


def summarise(rec: Recorder) -> Dict[str, Any]:
    """Per span name and rank: calls, inclusive and self seconds, the sum of
    the span counts, and the inclusive durations' p50 / p99 (ms)."""
    table = rec.table()
    out: Dict[str, Any] = {}
    if not len(table):
        return out
    dur = table[:, END] - table[:, START]
    for nid, name in enumerate(rec.names):
        mask = table[:, NAME] == nid
        if not mask.any():
            continue
        ranks = {}
        for rank in np.unique(table[mask, RANK]):
            sel = mask & (table[:, RANK] == rank)
            ranks[str(int(rank))] = {
                "calls": int(sel.sum()),
                "total_s": float(dur[sel].sum()),
                "self_s": float(table[sel, SELF].sum()),
                "value": float(table[sel, VALUE].sum()),
            }
        out[name] = {
            "ranks": ranks,
            "calls": int(mask.sum()),
            "p50_ms": float(np.percentile(dur[mask], 50) * 1e3),
            "p99_ms": float(np.percentile(dur[mask], 99) * 1e3),
        }
    return out


def dump(rec: Recorder, path: str) -> None:
    """Write the span table: names once, then one column per field."""
    import json

    table = rec.table()
    doc = {
        "names": rec.names,
        "columns": ["name", "start_s", "end_s", "parent", "rank", "self_s", "value"],
        "name": table[:, NAME].astype(int).tolist(),
        "start_s": table[:, START].tolist(),
        "end_s": table[:, END].tolist(),
        "parent": table[:, PARENT].astype(int).tolist(),
        "rank": table[:, RANK].astype(int).tolist(),
        "self_s": table[:, SELF].tolist(),
        "value": table[:, VALUE].tolist(),
    }
    with open(path, "w") as fh:
        json.dump(doc, fh)
