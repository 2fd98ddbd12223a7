"""Unified observability: metrics registry, trace export, manifests, events.

The accounting substrate behind every headline claim in the paper — epoch
compute/comm breakdowns, O(m log p) vs O(mp) traffic, staleness distributions
— collected through one disabled-by-default hook (:func:`active`) that the
engine, fabric, parameter server, and trainers all consult.

Typical use (also wired into ``python -m repro run EXP --trace --metrics``)::

    from repro import obs

    with obs.observe(obs.ObsSession(trace=True)) as session:
        run_experiment("fig1")
    session.registry.save("metrics.json")       # counters/gauges/histograms
    session.build_exporter().save("trace.json") # chrome://tracing / Perfetto
"""

from .events import (
    CallbackSink,
    ConsoleProgressSink,
    Event,
    EventBus,
    InMemorySink,
    JsonlRecorderSink,
    RunSnapshot,
    SeqGap,
    Sink,
    active_bus,
    emit,
    format_snapshot,
    read_events,
    use_events,
)
from .manifest import RunManifest, git_revision, manifest_path_for
from .metrics import Counter, Gauge, Histogram, MetricsRegistry, metric_key
from .runtime import ObsSession, TrainerObs, active, observe
from .trace_export import MessageEvent, TraceExporter, TraceRun, busy_seconds

__all__ = [
    "CallbackSink",
    "ConsoleProgressSink",
    "Counter",
    "Event",
    "EventBus",
    "Gauge",
    "Histogram",
    "InMemorySink",
    "JsonlRecorderSink",
    "MessageEvent",
    "MetricsRegistry",
    "ObsSession",
    "RunManifest",
    "RunSnapshot",
    "SeqGap",
    "Sink",
    "TraceExporter",
    "TraceRun",
    "TrainerObs",
    "active",
    "active_bus",
    "busy_seconds",
    "emit",
    "format_snapshot",
    "git_revision",
    "manifest_path_for",
    "metric_key",
    "observe",
    "read_events",
    "use_events",
]
