"""Closed-form data movement of an allreduce and of a parameter server.

The paper's Sec. III comparison: an allreduce injects O(m log p) bytes along
its critical path, a parameter server moves O(m·p) through the host channel
per aggregation.  The ``traffic`` experiment tabulates both.
"""

from __future__ import annotations

import math

__all__ = ["allreduce_traffic_bytes", "ps_traffic_bytes"]


def allreduce_traffic_bytes(m_bytes: float, p: int, algorithm: str = "tree") -> float:
    """Total bytes injected into the network by one allreduce.

    The tree variant is the paper's O(m log p); ring moves 2m·(p−1)/p per rank
    i.e. ~2m·(p−1) total but each rank only ~2m.
    """
    if p <= 1:
        return 0.0
    lg = math.ceil(math.log2(p))
    if algorithm == "tree":
        # (p-1) point-to-point sends in the reduce + (p-1) in the broadcast,
        # each of m bytes; depth is log p but traffic is per-send.
        return 2 * (p - 1) * m_bytes
    if algorithm == "tree_depth":
        # bytes crossing any single rank's port along the critical path
        return 2 * lg * m_bytes
    if algorithm == "ring":
        return 2 * (p - 1) * m_bytes  # p ranks × 2m(p−1)/p each
    if algorithm == "recursive_doubling":
        return p * lg * m_bytes
    raise ValueError(f"unknown algorithm {algorithm!r}")


def ps_traffic_bytes(m_bytes: float, p: int, rounds: int = 1) -> float:
    """Bytes through the host channel for ``rounds`` PS aggregations by p
    learners: the paper's O(m·p) per aggregation (push m + pull m per learner)."""
    return rounds * p * 2 * m_bytes
