"""Timeline tracing for epoch-time breakdowns.

The paper's Figs. 1, 4, 5 and 6 are all *time accounting* figures: how much of
a learner's epoch is computation vs communication, and how epoch time scales
with learner count and aggregation interval T.  :class:`Tracer` records tagged
intervals per actor (one actor per learner/server) and aggregates them into
exactly those breakdowns.

Interval categories used across the codebase:

* ``"compute"``     — forward/backward of a minibatch on the device,
* ``"comm"``        — any time spent in sends/recvs/collectives, including
  waiting for peers (the paper's definition: "sending its computed gradients
  ..., waiting for the server to aggregate ..., and receiving parameters"),
* ``"apply"``       — optimiser math (folded into compute in reports),
* anything else     — reported under its own tag.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, Generator, Iterable, List, Optional

from .engine import Engine

__all__ = ["Span", "Tracer", "EpochBreakdown", "CATEGORY_BUCKETS", "bucket_for"]

#: Span category -> report bucket.  The single place where "apply" (optimiser
#: math) folds into the compute bucket; both the breakdown report below and
#: the Chrome trace exporter (:mod:`repro.obs.trace_export`) use this mapping,
#: so a new category only needs registering here to be bucketed consistently.
CATEGORY_BUCKETS: Dict[str, str] = {
    "compute": "compute",
    "apply": "compute",
    "comm": "comm",
}


def bucket_for(category: str) -> str:
    """Report bucket for a span category (unknown categories are their own)."""
    return CATEGORY_BUCKETS.get(category, category)


@dataclass(frozen=True, slots=True)
class Span:
    """One closed interval of an actor's timeline."""

    actor: str
    category: str
    start: float
    end: float

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class EpochBreakdown:
    """Aggregated per-category seconds for one actor over a window."""

    actor: str
    seconds: Dict[str, float]
    span: float  # wall (virtual) time of the window

    def bucket_seconds(self, bucket: str) -> float:
        return sum(
            sec for cat, sec in self.seconds.items() if bucket_for(cat) == bucket
        )

    @property
    def compute_seconds(self) -> float:
        return self.bucket_seconds("compute")

    @property
    def comm_seconds(self) -> float:
        return self.bucket_seconds("comm")

    @property
    def comm_fraction(self) -> float:
        busy = self.compute_seconds + self.comm_seconds
        return self.comm_seconds / busy if busy > 0 else 0.0


class Tracer:
    """Records spans; cheap enough to leave on for every simulation."""

    def __init__(self, engine: Engine, enabled: bool = True) -> None:
        self.engine = engine
        self.enabled = enabled
        self.spans: List[Span] = []
        self._open: Dict[tuple, float] = {}

    def begin(self, actor: str, category: str) -> None:
        if not self.enabled:
            return
        key = (actor, category)
        if key in self._open:
            raise RuntimeError(f"span already open: {key}")
        self._open[key] = self.engine.now

    def end(self, actor: str, category: str) -> None:
        if not self.enabled:
            return
        key = (actor, category)
        start = self._open.pop(key)
        self.spans.append(Span(actor, category, start, self.engine.now))

    def timed(self, actor: str, category: str, coroutine: Generator) -> Generator:
        """Wrap a coroutine so its whole execution is recorded as one span."""
        self.begin(actor, category)
        try:
            result = yield from coroutine
        finally:
            self.end(actor, category)
        return result

    # -- aggregation ---------------------------------------------------------

    def actors(self) -> List[str]:
        seen: dict[str, None] = {}
        for span in self.spans:
            seen.setdefault(span.actor, None)
        return list(seen)

    def mean_breakdown(
        self,
        actors: Iterable[str],
        start: float = 0.0,
        end: Optional[float] = None,
    ) -> EpochBreakdown:
        """Average the per-category seconds over several actors (learners).

        Single pass over the span list — at p=1024 learners a per-actor
        loop would rescan the full list p times.
        """
        order = list(actors)
        if not order:
            raise ValueError("no actors given")
        if end is None:
            end = self.engine.now
        # Accumulate per actor first, then fold in actor order: the same
        # float-summation order as the per-actor loop this replaced, so
        # golden-pinned results stay bit-identical.
        per_actor: Dict[str, Dict[str, float]] = {a: defaultdict(float) for a in order}
        for span in self.spans:
            seconds = per_actor.get(span.actor)
            if seconds is None:
                continue
            lo = span.start if span.start > start else start
            hi = span.end if span.end < end else end
            if hi > lo:
                seconds[span.category] += hi - lo
        total: Dict[str, float] = defaultdict(float)
        for actor in order:
            for cat, sec in per_actor[actor].items():
                total[cat] += sec
        mean = {cat: sec / len(order) for cat, sec in total.items()}
        return EpochBreakdown(actor="<mean>", seconds=mean, span=end - start)
