"""Discrete-event simulation substrate.

Provides the virtual-time engine (:class:`~repro.sim.engine.Engine`),
synchronisation primitives (:class:`~repro.sim.resources.Resource`,
:class:`~repro.sim.resources.Store`) and timeline tracing
(:class:`~repro.sim.trace.Tracer`) that every simulated cluster component
runs on.
"""

from .engine import Delay, Engine, Event, Process, SimulationError
from .resources import Resource, Store
from .trace import CATEGORY_BUCKETS, EpochBreakdown, Span, Tracer, bucket_for

__all__ = [
    "CATEGORY_BUCKETS",
    "Delay",
    "Engine",
    "EpochBreakdown",
    "Event",
    "Process",
    "Resource",
    "SimulationError",
    "Span",
    "Store",
    "Tracer",
    "bucket_for",
]
