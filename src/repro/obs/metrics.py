"""Labeled metric instruments and the registry that owns them.

Three instrument kinds cover everything the reproduction measures:

* :class:`Counter`   — monotone totals (bytes moved, messages sent, samples
  trained).  The paper's traffic claims (O(m log p) allreduce vs O(mp)
  parameter server) are counter comparisons.
* :class:`Gauge`     — last-value readings (samples/sec, link utilisation,
  queue depth at an instant).
* :class:`Histogram` — distributions (gradient norms, per-shard staleness,
  parameter-server request latency) with exact percentiles.

Instruments are keyed by ``(name, labels)`` where labels are free-form
``key=value`` pairs (``algo=sasgd, p=8, T=50``); asking the registry for the
same key twice returns the same instrument, so hot loops can hold a direct
reference and skip the lookup.  ``snapshot()`` returns a plain-dict deep copy
(isolated from later mutation), ``reset()`` zeroes every instrument in place
(held references stay valid), and ``to_json()``/``save()`` produce the export
format ``python -m repro inspect`` reads back.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Tuple, Union

__all__ = ["Counter", "Gauge", "Histogram", "MetricsRegistry", "metric_key"]

LabelSet = Tuple[Tuple[str, str], ...]


def _labelset(labels: Dict[str, object]) -> LabelSet:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def metric_key(name: str, labels: Union[Dict[str, object], LabelSet]) -> str:
    """Canonical string form, e.g. ``fabric.bytes_total{algo=sasgd,p=8}``."""
    pairs = _labelset(labels) if isinstance(labels, dict) else labels
    if not pairs:
        return name
    return name + "{" + ",".join(f"{k}={v}" for k, v in pairs) + "}"


class Counter:
    """Monotone accumulator."""

    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: LabelSet) -> None:
        self.name = name
        self.labels = labels
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease (got {amount})")
        self.value += amount

    def reset(self) -> None:
        self.value = 0.0

    @property
    def key(self) -> str:
        return metric_key(self.name, self.labels)


class Gauge:
    """Last-value instrument (``None`` until first set)."""

    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: LabelSet) -> None:
        self.name = name
        self.labels = labels
        self.value: Optional[float] = None

    def set(self, value: float) -> None:
        self.value = float(value)

    def reset(self) -> None:
        self.value = None

    @property
    def key(self) -> str:
        return metric_key(self.name, self.labels)


class Histogram:
    """Exact-sample distribution with linear-interpolation percentiles.

    Samples are kept raw: the runs this repo observes record at most a few
    hundred thousand observations, and exact percentiles let the tests assert
    against ``numpy.percentile`` instead of bucketing error bounds.
    """

    __slots__ = ("name", "labels", "samples")

    def __init__(self, name: str, labels: LabelSet) -> None:
        self.name = name
        self.labels = labels
        self.samples: List[float] = []

    def observe(self, value: float) -> None:
        self.samples.append(float(value))

    def reset(self) -> None:
        self.samples.clear()

    @property
    def count(self) -> int:
        return len(self.samples)

    @property
    def sum(self) -> float:
        return float(sum(self.samples))

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.samples else 0.0

    def percentile(self, q: float) -> float:
        """q-th percentile (0..100), linear interpolation between ranks."""
        if not self.samples:
            raise ValueError(f"histogram {self.name!r} has no samples")
        if not (0.0 <= q <= 100.0):
            raise ValueError(f"percentile must be in [0, 100], got {q}")
        data = sorted(self.samples)
        if len(data) == 1:
            return data[0]
        pos = (q / 100.0) * (len(data) - 1)
        lo = int(pos)
        frac = pos - lo
        if lo + 1 >= len(data):
            return data[-1]
        return data[lo] * (1.0 - frac) + data[lo + 1] * frac

    def summary(self) -> Dict[str, float]:
        if not self.samples:
            return {"count": 0, "sum": 0.0}
        return {
            "count": self.count,
            "sum": self.sum,
            "mean": self.mean,
            "min": min(self.samples),
            "max": max(self.samples),
            "p50": self.percentile(50),
            "p90": self.percentile(90),
            "p99": self.percentile(99),
        }

    @property
    def key(self) -> str:
        return metric_key(self.name, self.labels)


class MetricsRegistry:
    """Owns every instrument of one observed run (or run group)."""

    def __init__(self) -> None:
        self._counters: Dict[Tuple[str, LabelSet], Counter] = {}
        self._gauges: Dict[Tuple[str, LabelSet], Gauge] = {}
        self._histograms: Dict[Tuple[str, LabelSet], Histogram] = {}

    # -- instrument access (get-or-create) ---------------------------------

    def counter(self, name: str, **labels) -> Counter:
        key = (name, _labelset(labels))
        inst = self._counters.get(key)
        if inst is None:
            inst = self._counters[key] = Counter(name, key[1])
        return inst

    def gauge(self, name: str, **labels) -> Gauge:
        key = (name, _labelset(labels))
        inst = self._gauges.get(key)
        if inst is None:
            inst = self._gauges[key] = Gauge(name, key[1])
        return inst

    def histogram(self, name: str, **labels) -> Histogram:
        key = (name, _labelset(labels))
        inst = self._histograms.get(key)
        if inst is None:
            inst = self._histograms[key] = Histogram(name, key[1])
        return inst

    # -- queries ------------------------------------------------------------

    def gauges(self) -> Iterator[Gauge]:
        return iter(self._gauges.values())

    def histograms(self) -> Iterator[Histogram]:
        return iter(self._histograms.values())

    def find_counters(self, name: str, **labels) -> List[Counter]:
        """Counters matching ``name`` whose labels include every given pair."""
        want = set(_labelset(labels))
        return [
            c
            for c in self._counters.values()
            if c.name == name and want.issubset(set(c.labels))
        ]

    def __len__(self) -> int:
        return len(self._counters) + len(self._gauges) + len(self._histograms)

    # -- snapshot / reset ----------------------------------------------------

    def snapshot(self) -> dict:
        """Deep plain-dict copy, isolated from subsequent mutation."""
        return {
            "counters": {c.key: c.value for c in self._counters.values()},
            "gauges": {g.key: g.value for g in self._gauges.values()},
            "histograms": {h.key: h.summary() for h in self._histograms.values()},
        }

    def reset(self) -> None:
        """Zero every instrument in place (references stay valid)."""
        for c in self._counters.values():
            c.reset()
        for g in self._gauges.values():
            g.reset()
        for h in self._histograms.values():
            h.reset()

    def clear(self) -> None:
        """Drop every instrument entirely."""
        self._counters.clear()
        self._gauges.clear()
        self._histograms.clear()

    # -- export --------------------------------------------------------------

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.snapshot(), indent=indent, sort_keys=True)

    def save(self, path) -> None:
        Path(path).write_text(self.to_json())

    @staticmethod
    def load_snapshot(path) -> dict:
        """Read back a saved metrics file (the ``snapshot()`` shape)."""
        data = json.loads(Path(path).read_text())
        for section in ("counters", "gauges", "histograms"):
            if section not in data:
                raise ValueError(f"not a metrics file: missing {section!r}")
        return data
