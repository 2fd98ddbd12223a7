"""Communication substrate: message fabric, collective schedules and their
simulated executor, cost models."""

from .collectives import allgather, allreduce, broadcast, run_schedule
from .costmodel import allreduce_traffic_bytes, ps_traffic_bytes
from .fabric import Endpoint, Fabric, Message
from .fastfabric import FastFabric, WavePlan
from .schedule import (
    ALLREDUCE_ALGORITHMS,
    allgather_schedule,
    allreduce_schedule,
    broadcast_schedule,
    contiguous_groups,
)

__all__ = [
    "ALLREDUCE_ALGORITHMS",
    "Endpoint",
    "Fabric",
    "FastFabric",
    "Message",
    "WavePlan",
    "allgather",
    "allgather_schedule",
    "allreduce",
    "allreduce_schedule",
    "allreduce_traffic_bytes",
    "broadcast",
    "broadcast_schedule",
    "contiguous_groups",
    "ps_traffic_bytes",
    "run_schedule",
]
