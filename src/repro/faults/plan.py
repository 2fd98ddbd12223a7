"""Declarative, seeded fault plans that both backends execute identically.

A :class:`FaultPlan` is a list of :class:`Fault` specs plus a seed.  The
trainers and backends *query* the plan at well-defined points (before each
local step, per parameter-server request, per shard apply) and never mutate
it, so the same plan object drives the virtual-time simulator (faults become
event-time hooks: extra :class:`~repro.sim.Delay`, a coroutine returning
early) and the multiprocessing backend (faults become a real ``os._exit`` or
``time.sleep`` inside the worker).

Fault kinds
-----------
``crash``      kill learner ``learner`` after ``step`` local steps.
``ps_crash``   kill parameter-server shard ``shard`` after ``push`` applies.
``straggle``   slow learner ``learner`` down by ``factor``× for local steps
               ``[start, stop)`` (``stop`` omitted = forever).
``drop``       lose the replies to learner ``learner``'s parameter-server
               requests — either request ordinals ``[nth, nth+count)``
               exactly, or each request independently with probability
               ``rate`` (decided by a counter-based hash of the plan seed,
               so both backends and repeated runs agree).
``delay``      delay the replies to the same selection by ``seconds``.
``disconnect`` sever learner ``learner``'s TCP connections after ``step``
               local steps (net backend: the process stays alive and the
               ``reconnect`` recovery policy can resume the session; other
               backends treat it as a no-op since there is no wire to cut).

The string grammar the CLI uses (``repro run EXP --fault ...``) is
``kind:key=value,key=value`` with multiple faults separated by ``;``::

    crash:learner=2,step=40
    straggle:learner=1,factor=4,start=10,stop=30
    crash:learner=2,step=40;drop:learner=0,rate=0.05
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Tuple

import numpy as np

__all__ = ["Fault", "FaultPlan", "RetryPolicy", "parse_faults"]

FAULT_KINDS = ("crash", "ps_crash", "straggle", "drop", "delay", "disconnect")


@dataclass(frozen=True)
class Fault:
    """One injected fault.  Field meaning depends on ``kind`` (see module
    docstring); unused fields stay at their defaults."""

    kind: str
    learner: Optional[int] = None
    shard: Optional[int] = None
    step: Optional[int] = None       # crash: after this many local steps
    push: Optional[int] = None       # ps_crash: after this many applies
    factor: float = 1.0              # straggle: slowdown multiple
    start: int = 0                   # straggle: first afflicted step
    stop: Optional[int] = None       # straggle: one past the last step
    nth: Optional[int] = None        # drop/delay: first afflicted request
    count: int = 1                   # drop/delay: how many requests
    rate: Optional[float] = None     # drop/delay: per-request probability
    seconds: float = 0.0             # delay: added reply latency

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r} (known: {', '.join(FAULT_KINDS)})"
            )
        if self.kind == "crash" and (self.learner is None or self.step is None):
            raise ValueError("crash fault needs learner= and step=")
        if self.kind == "ps_crash" and (self.shard is None or self.push is None):
            raise ValueError("ps_crash fault needs shard= and push=")
        if self.kind == "straggle":
            if self.learner is None or self.factor <= 1.0:
                raise ValueError("straggle fault needs learner= and factor > 1")
        if self.kind in ("drop", "delay"):
            if self.learner is None:
                raise ValueError(f"{self.kind} fault needs learner=")
            if (self.nth is None) == (self.rate is None):
                raise ValueError(f"{self.kind} fault needs exactly one of nth=/rate=")
            if self.rate is not None and not (0.0 < self.rate <= 1.0):
                raise ValueError(f"rate must be in (0, 1], got {self.rate}")
        if self.kind == "delay" and self.seconds <= 0.0:
            raise ValueError("delay fault needs seconds > 0")
        if self.kind == "disconnect" and (
            self.learner is None or self.step is None
        ):
            raise ValueError("disconnect fault needs learner= and step=")


def _hash_uniform(seed: int, *words: int) -> float:
    """Deterministic uniform in [0, 1) from (seed, words) — the counter-based
    coin both backends flip for ``rate=`` faults."""
    state = np.random.SeedSequence([seed, *words]).generate_state(1)[0]
    return float(state) / float(2**32)


@dataclass(frozen=True)
class FaultPlan:
    """An immutable set of faults plus the seed for probabilistic ones.

    Query methods are cheap and pure: backends call them from hot-ish paths
    (per step, per PS request) without side effects.
    """

    faults: Tuple[Fault, ...] = ()
    seed: int = 0
    retry: "RetryPolicy" = field(default_factory=lambda: RetryPolicy())

    def __post_init__(self) -> None:
        object.__setattr__(self, "faults", tuple(self.faults))

    @classmethod
    def parse(cls, text: str, seed: int = 0,
              retry: Optional["RetryPolicy"] = None) -> "FaultPlan":
        return cls(
            faults=tuple(parse_faults(text)),
            seed=seed,
            retry=retry if retry is not None else RetryPolicy(),
        )

    def __bool__(self) -> bool:
        return bool(self.faults)

    # -- queries -------------------------------------------------------------

    def crash_step(self, learner: int) -> Optional[int]:
        """The local step after which ``learner`` dies, or None."""
        steps = [
            f.step for f in self.faults
            if f.kind == "crash" and f.learner == learner
        ]
        return min(steps) if steps else None

    def crash_learners(self) -> Dict[int, int]:
        """``{learner: step}`` for every crash fault (the parent's oracle for
        labelling a worker that died without a farewell message)."""
        out: Dict[int, int] = {}
        for f in self.faults:
            if f.kind == "crash":
                prev = out.get(f.learner)
                out[f.learner] = f.step if prev is None else min(prev, f.step)
        return out

    def disconnect_step(self, learner: int) -> Optional[int]:
        """The local step after which ``learner``'s connections are severed,
        or None."""
        steps = [
            f.step for f in self.faults
            if f.kind == "disconnect" and f.learner == learner
        ]
        return min(steps) if steps else None

    def disconnect_learners(self) -> Dict[int, int]:
        """``{learner: step}`` for every disconnect fault."""
        out: Dict[int, int] = {}
        for f in self.faults:
            if f.kind == "disconnect":
                prev = out.get(f.learner)
                out[f.learner] = f.step if prev is None else min(prev, f.step)
        return out

    def ps_crash_push(self, shard: int) -> Optional[int]:
        """The apply count after which PS shard ``shard`` dies, or None."""
        pushes = [
            f.push for f in self.faults
            if f.kind == "ps_crash" and f.shard == shard
        ]
        return min(pushes) if pushes else None

    def straggle_factor(self, learner: int, step: int) -> float:
        """Combined slowdown multiple for ``learner`` at local ``step``."""
        factor = 1.0
        for f in self.faults:
            if f.kind != "straggle" or f.learner != learner:
                continue
            if step >= f.start and (f.stop is None or step < f.stop):
                factor *= f.factor
        return factor

    def _selected(self, fault: Fault, ordinal: int) -> bool:
        if fault.nth is not None:
            return fault.nth <= ordinal < fault.nth + fault.count
        return _hash_uniform(self.seed, fault.learner, ordinal) < fault.rate

    def ps_reply_drops(self, learner: int, ordinal: int) -> int:
        """How many consecutive times the reply to ``learner``'s request
        number ``ordinal`` is lost (0 = delivered first try)."""
        drops = 0
        for f in self.faults:
            if f.kind == "drop" and f.learner == learner and self._selected(f, ordinal):
                drops += 1
        return drops

    def ps_reply_delay(self, learner: int, ordinal: int) -> float:
        """Added latency (seconds) on the reply to request ``ordinal``."""
        total = 0.0
        for f in self.faults:
            if f.kind == "delay" and f.learner == learner and self._selected(f, ordinal):
                total += f.seconds
        return total

    def touches_ps(self) -> bool:
        return any(f.kind in ("ps_crash", "drop", "delay") for f in self.faults)

    # -- restart bookkeeping --------------------------------------------------

    def survivor_plan(self, dead_learner: Optional[int]) -> "FaultPlan":
        """The plan a restarted (elastic) run executes: the fired crash fault
        is consumed, and learner-scoped faults for the dead rank go with it.
        Surviving ranks are renumbered on restart, so remaining
        learner-scoped faults are dropped too — a fault plan describes one
        incarnation of the run, not its reincarnations."""
        kept = tuple(
            f for f in self.faults
            if f.kind == "ps_crash"  # shards persist across learner restarts
        ) if dead_learner is not None else self.faults
        return replace(self, faults=kept)


@dataclass(frozen=True)
class RetryPolicy:
    """Exponential backoff for parameter-server request/reply.

    A request is retried up to ``max_retries`` times, sleeping
    ``base_seconds * multiplier**attempt`` before attempt ``attempt + 1``;
    when the budget is exhausted the client raises
    :class:`~repro.runtime.RetryBudgetExhausted`.  The sim backend charges
    the same schedule as virtual time, so retry cost shows up identically in
    both substrates.

    ``jitter`` spreads real (wall-clock) retries to desynchronize retry
    storms: :meth:`jittered_backoff` scales each sleep by a factor uniform in
    ``[1 - jitter, 1 + jitter]``, with the uniform draw supplied by the
    caller so both repeats of a seeded run sleep identically.  The sim
    backend keeps charging the deterministic :meth:`backoff` schedule.
    ``deadline_seconds`` caps the *total* time a client may spend retrying
    one request (None = bounded only by the transport timeout).
    """

    max_retries: int = 3
    base_seconds: float = 0.05
    multiplier: float = 2.0
    jitter: float = 0.0
    deadline_seconds: Optional[float] = None

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {self.max_retries}")
        if self.base_seconds < 0:
            raise ValueError(f"base_seconds must be >= 0, got {self.base_seconds}")
        if self.multiplier < 1.0:
            raise ValueError(f"multiplier must be >= 1, got {self.multiplier}")
        if not (0.0 <= self.jitter <= 1.0):
            raise ValueError(f"jitter must be in [0, 1], got {self.jitter}")
        if self.deadline_seconds is not None and self.deadline_seconds <= 0:
            raise ValueError(
                f"deadline_seconds must be > 0, got {self.deadline_seconds}"
            )

    def backoff(self, attempt: int) -> float:
        """Sleep before retry number ``attempt + 1`` (attempt is 0-based)."""
        return self.base_seconds * self.multiplier**attempt

    def jittered_backoff(self, attempt: int, u: float) -> float:
        """:meth:`backoff` scaled by ``[1 - jitter, 1 + jitter]`` at uniform
        draw ``u`` in [0, 1) — pass :func:`_hash_uniform` of (seed, rank,
        seq, attempt) for a deterministic, rank-decorrelated schedule."""
        return self.backoff(attempt) * (1.0 - self.jitter + 2.0 * self.jitter * u)

    def total_backoff(self, attempts: int) -> float:
        return sum(self.backoff(i) for i in range(attempts))


_FIELD_TYPES = {
    "learner": int, "shard": int, "step": int, "push": int,
    "factor": float, "start": int, "stop": int,
    "nth": int, "count": int, "rate": float, "seconds": float,
}


def parse_faults(text: str) -> List[Fault]:
    """Parse the CLI grammar: ``kind:k=v,k=v[;kind:k=v...]``."""
    out: List[Fault] = []
    for clause in text.split(";"):
        clause = clause.strip()
        if not clause:
            continue
        kind, sep, rest = clause.partition(":")
        kind = kind.strip()
        if not sep or kind not in FAULT_KINDS:
            raise ValueError(
                f"bad fault clause {clause!r}: expected kind:key=value,... "
                f"with kind in {', '.join(FAULT_KINDS)}"
            )
        kwargs: Dict[str, object] = {}
        for item in rest.split(","):
            item = item.strip()
            if not item:
                continue
            key, eq, value = item.partition("=")
            key = key.strip()
            if not eq or key not in _FIELD_TYPES:
                raise ValueError(
                    f"bad fault field {item!r} in {clause!r} "
                    f"(known: {', '.join(sorted(_FIELD_TYPES))})"
                )
            kwargs[key] = _FIELD_TYPES[key](value.strip())
        out.append(Fault(kind=kind, **kwargs))
    if not out:
        raise ValueError(f"no faults in {text!r}")
    return out
