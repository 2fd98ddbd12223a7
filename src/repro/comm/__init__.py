"""Communication substrate: message fabric, collective schedules and their
one executor (:func:`run_schedule`, with the simulated fabric's channel),
cost models."""

from .collectives import run_schedule, sim_channel
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
    "allgather_schedule",
    "allreduce_schedule",
    "allreduce_traffic_bytes",
    "broadcast_schedule",
    "contiguous_groups",
    "ps_traffic_bytes",
    "run_schedule",
    "sim_channel",
]
