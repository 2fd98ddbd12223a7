"""Communication substrate: message fabric, collectives, cost models."""

from .collectives import (
    ALLREDUCE_ALGORITHMS,
    allgather_ring,
    allreduce,
    allreduce_hierarchical,
    allreduce_recursive_doubling,
    allreduce_ring,
    allreduce_tree,
    broadcast,
    contiguous_groups,
    reduce,
)
from .costmodel import allreduce_traffic_bytes, ps_traffic_bytes
from .fabric import Endpoint, Fabric, Message
from .fastfabric import FastFabric, WavePlan

__all__ = [
    "ALLREDUCE_ALGORITHMS",
    "Endpoint",
    "Fabric",
    "FastFabric",
    "Message",
    "WavePlan",
    "allgather_ring",
    "allreduce",
    "allreduce_hierarchical",
    "allreduce_recursive_doubling",
    "allreduce_ring",
    "allreduce_traffic_bytes",
    "allreduce_tree",
    "broadcast",
    "contiguous_groups",
    "ps_traffic_bytes",
    "reduce",
]
