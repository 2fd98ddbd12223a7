"""Vectorised wave accounting over the simulated interconnect.

The per-message :class:`~repro.comm.fabric.Fabric` simulates every transfer as
its own coroutine: a p-rank ring allreduce is 2(p−1) steps × p ranks of
send/recv round-trips through the event calendar — O(p²) engine events per
aggregation, which is what caps the per-message simulator near p ≈ 32.  The
large-p ``scaling`` experiments instead account whole *waves*: a batch of p
same-size messages (one ring step, one recursive-doubling round, one
parameter-server push volley) whose virtual-time span and per-link byte/busy
counters are computed with NumPy array arithmetic in one shot.

The contract with the per-message fabric:

* **Byte accounting is identical.**  A wave updates ``total_bytes``,
  ``total_messages``, ``bytes_per_link``, ``messages_per_link`` and
  ``busy_seconds_per_link`` with exactly the values 2(p−1)·p individual
  :meth:`Fabric._transfer` calls would have produced, so the O(m log p) vs
  O(m p) traffic-claim tests hold in either mode.
* **Wave span is exact where messages are symmetric.**  With
  ``contention=False`` a wave's span is the max single-message duration —
  exactly what concurrent uncontended transfers take.  With contention, the
  span is ``max(longest message, busiest link's serialised backlog)``: exact
  for a parameter-server star (every message holds the one shared host link
  for its full duration, so the wave serialises into the busy sum) and for
  disjoint routes (busy sum per link = the single message crossing it); an
  upper bound when routes partially overlap.
* **Per-rank jitter is out of scope.**  A wave has one span; the stagger
  between ranks comes from the *compute* side (device jitter decides when the
  wave's rendezvous completes), not from inside the collective.  This is the
  one approximation the vector mode makes for collectives, and DESIGN §11
  quantifies it.

Durations reuse the fabric's pipelined cut-through model:
``sum(latencies) + nbytes / min(bandwidths)`` per message.
"""

from __future__ import annotations

from array import array
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .schedule import contiguous_groups
from .fabric import Fabric

__all__ = ["WavePlan", "FastFabric"]

Pair = Tuple[str, str]


class WavePlan:
    """Precomputed route arithmetic for one repeated batch of transfers.

    Built once per distinct (ordered) batch of ``(src_node, dst_node)`` pairs,
    which it reads once and keeps no copy of; every wave of that shape then
    costs a handful of NumPy ops regardless of how many messages it carries.
    Self-pairs (src == dst) are free, like the per-message fabric's early
    return.
    """

    __slots__ = (
        "fabric",
        "n_messages",
        "lat",
        "inv_bw",
        "hop_link",
        "hop_pair",
        "link_keys",
        "link_msg_counts",
    )

    def __init__(self, fabric: Fabric, pairs: Iterable[Pair]) -> None:
        self.fabric = fabric
        topo = fabric.topology
        link_keys = list(topo.links)
        link_index = {key: i for i, key in enumerate(link_keys)}
        # one route alive at a time: the plan is the cache, the topology keeps none
        lat, inv_bw, hop_link, hop_pair = array("d"), array("d"), array("i"), array("i")
        for i, (src, dst) in enumerate(pairs):
            hops, latency, bandwidth = topo.find_route(src, dst)
            lat.append(latency)
            inv_bw.append(1.0 / bandwidth)
            hop_link.extend([link_index[h] for h in hops])
            hop_pair.extend([i] * len(hops))
        self.n_messages = len(lat)
        self.lat = np.frombuffer(lat)
        self.inv_bw = np.frombuffer(inv_bw)
        self.hop_link = np.frombuffer(hop_link, np.intc)
        self.hop_pair = np.frombuffer(hop_pair, np.intc)
        self.link_keys = link_keys
        counts = np.zeros(len(link_keys), dtype=np.intp)
        np.add.at(counts, self.hop_link, 1)
        self.link_msg_counts = counts

    def _nbytes_vec(self, nbytes) -> np.ndarray:
        """Broadcast a scalar or per-message byte-size sequence to rank order."""
        return np.broadcast_to(
            np.asarray(nbytes, dtype=float), (self.n_messages,)
        )

    def durations(self, nbytes) -> np.ndarray:
        """Per-message transfer seconds (cut-through model), rank order."""
        return self.lat + self._nbytes_vec(nbytes) * self.inv_bw

    def span(self, nbytes) -> float:
        """Virtual seconds one wave of ``nbytes``-sized messages occupies."""
        if not self.n_messages:
            return 0.0
        durations = self.durations(nbytes)
        longest = float(durations.max())
        if not self.fabric.contention or self.hop_link.size == 0:
            return longest
        busy = np.zeros(len(self.link_keys))
        np.add.at(busy, self.hop_link, durations[self.hop_pair])
        return max(longest, float(busy.max()))

    def account(self, nbytes, waves: int = 1) -> None:
        """Book ``waves`` repetitions into the fabric's counters.

        Produces the same counter values as simulating every message through
        :meth:`Fabric._transfer`, amortised to one pass per call site.
        """
        fabric = self.fabric
        nb = self._nbytes_vec(nbytes)
        fabric.total_bytes += float(nb.sum()) * waves
        fabric.total_messages += self.n_messages * waves
        if self.hop_link.size == 0:
            return
        n_links = len(self.link_keys)
        busy = np.zeros(n_links)
        np.add.at(busy, self.hop_link, self.durations(nb)[self.hop_pair])
        link_bytes = np.zeros(n_links)
        np.add.at(link_bytes, self.hop_link, nb[self.hop_pair])
        for idx in np.flatnonzero(self.link_msg_counts):
            key = self.link_keys[idx]
            fabric.bytes_per_link[key] += float(link_bytes[idx]) * waves
            fabric.messages_per_link[key] += int(self.link_msg_counts[idx]) * waves
            fabric.busy_seconds_per_link[key] += float(busy[idx]) * waves


def _reduce_rounds(nodes: Sequence[str]) -> List[List[Pair]]:
    """Binomial-tree reduce to ``nodes[0]``: per-round (sender, receiver) pairs.

    Mirrors :mod:`repro.comm.schedule`'s reduce: in round ``mask`` the ranks
    whose lowest set bit is ``mask`` send to ``rank − mask`` and retire.
    """
    p = len(nodes)
    rounds: List[List[Pair]] = []
    mask = 1
    while mask < p:
        rounds.append(
            [(nodes[v], nodes[v - mask]) for v in range(mask, p, 2 * mask)]
        )
        mask <<= 1
    return rounds


def _broadcast_rounds(nodes: Sequence[str]) -> List[List[Pair]]:
    """Binomial-tree broadcast from ``nodes[0]``: per-round pairs."""
    p = len(nodes)
    rounds: List[List[Pair]] = []
    mask = 1
    while mask < p:
        rounds.append(
            [(nodes[v], nodes[v + mask]) for v in range(min(mask, p - mask))]
        )
        mask <<= 1
    return rounds


def _merge_rounds(per_group: List[List[List[Pair]]]) -> List[List[Pair]]:
    """Zip groups' round lists: round k of every group runs concurrently."""
    depth = max((len(rounds) for rounds in per_group), default=0)
    merged: List[List[Pair]] = []
    for k in range(depth):
        wave: List[Pair] = []
        for rounds in per_group:
            if k < len(rounds):
                wave.extend(rounds[k])
        merged.append(wave)
    return merged


class FastFabric:
    """Wave-level collective and parameter-server cost model for one fabric.

    Plans are cached per pair-batch, so an epoch's worth of identical
    aggregation rounds reuses one route computation.  All ``*_span`` methods
    both return the wave's virtual-time span and account its traffic into the
    underlying fabric's counters.
    """

    def __init__(self, fabric: Fabric) -> None:
        self.fabric = fabric
        self._plans: Dict[Tuple[Pair, ...], WavePlan] = {}
        # (learner nodes, shard nodes) -> the request and reply volleys' plans
        self._volleys: Dict[Tuple[Tuple[str, ...], ...], Tuple[WavePlan, WavePlan]] = {}

    def plan(self, pairs: Sequence[Pair]) -> WavePlan:
        key = tuple(pairs)
        plan = self._plans.get(key)
        if plan is None:
            plan = self._plans[key] = WavePlan(self.fabric, key)
        return plan

    def wave_span(self, pairs: Sequence[Pair], nbytes, waves: int = 1) -> float:
        """Span of ``waves`` identical batches of messages.

        ``nbytes`` is a scalar or a per-message sequence in pair order.
        """
        return self._wave_span(self.plan(pairs), nbytes, waves)

    @staticmethod
    def _wave_span(plan: WavePlan, nbytes, waves: int = 1) -> float:
        plan.account(nbytes, waves)
        return plan.span(nbytes) * waves

    # -- collectives ---------------------------------------------------------

    def _rounds_span(self, rounds: List[List[Pair]], nbytes: float) -> float:
        total = 0.0
        for pairs in rounds:
            if pairs:
                total += self.wave_span(pairs, nbytes)
        return total

    def broadcast_span(self, nodes: Sequence[str], nbytes: float) -> float:
        """Binomial broadcast from ``nodes[0]`` (the init parameter fan-out)."""
        return self._rounds_span(_broadcast_rounds(nodes), nbytes)

    def allreduce_span(
        self,
        nodes: Sequence[str],
        nbytes: float,
        algorithm: str = "recursive_doubling",
        groups: Optional[Sequence[Sequence[int]]] = None,
    ) -> float:
        """Span of one allreduce over ``nodes`` (rank order), by algorithm.

        Matches the schedules in :mod:`repro.comm.schedule`: the same
        rounds, the same per-message sizes, one wave per round.
        ``hierarchical`` needs ``groups`` (rank index lists; first rank of
        each group is its leader).
        """
        p = len(nodes)
        if p <= 1:
            return 0.0
        if algorithm == "recursive_doubling" and (p & (p - 1)):
            algorithm = "ring"  # same fallback as schedule.allreduce_schedule
        if algorithm == "ring":
            pairs = [(nodes[i], nodes[(i + 1) % p]) for i in range(p)]
            plan = self.plan(pairs)
            waves = 2 * (p - 1)
            chunk = nbytes / p
            plan.account(chunk, waves)
            return plan.span(chunk) * waves
        if algorithm == "recursive_doubling":
            total = 0.0
            mask = 1
            while mask < p:
                pairs = [(nodes[i], nodes[i ^ mask]) for i in range(p)]
                total += self.wave_span(pairs, nbytes)
                mask <<= 1
            return total
        if algorithm == "tree":
            return self._rounds_span(
                _reduce_rounds(nodes), nbytes
            ) + self._rounds_span(_broadcast_rounds(nodes), nbytes)
        if algorithm == "hierarchical":
            if not groups:
                groups = contiguous_groups(p, 8)
            group_nodes = [[nodes[r] for r in group] for group in groups]
            total = self._rounds_span(
                _merge_rounds([_reduce_rounds(g) for g in group_nodes]), nbytes
            )
            leaders = [g[0] for g in group_nodes]
            total += self.allreduce_span(leaders, nbytes, algorithm="ring")
            total += self._rounds_span(
                _merge_rounds([_broadcast_rounds(g) for g in group_nodes]), nbytes
            )
            return total
        raise ValueError(f"unknown allreduce algorithm {algorithm!r}")

    # -- parameter-server waves ----------------------------------------------

    def ps_round_trip_span(
        self,
        learner_nodes: Sequence[str],
        shard_nodes: Sequence[str],
        request_bytes: Sequence[float],
        reply_bytes: Sequence[float],
        apply_seconds: Sequence[float],
    ) -> float:
        """Span of one synchronised PS volley: p learners × every shard.

        ``request_bytes``/``reply_bytes``/``apply_seconds`` are per shard;
        the apply column is the *total serialised* service time a shard spends
        on its p requests this wave (caller draws the jittered costs so the
        device RNG stream advances exactly once per request).  The span is
        request wave + slowest shard's service backlog + reply wave — the
        store-and-forward bound; the per-message simulator pipelines transfer
        against service, so this is conservative by at most the smaller of
        the two terms (documented in DESIGN §11).
        """
        if len(shard_nodes) != len(request_bytes) or len(shard_nodes) != len(
            reply_bytes
        ):
            raise ValueError("per-shard byte lists must match shard_nodes")
        key = (tuple(learner_nodes), tuple(shard_nodes))
        plans = self._volleys.get(key)
        if plans is None:  # p x shards messages each way: no pair list is kept
            out = ((ln, sn) for ln in learner_nodes for sn in shard_nodes)
            back = ((sn, ln) for ln in learner_nodes for sn in shard_nodes)
            plans = self._volleys[key] = (WavePlan(self.fabric, out), WavePlan(self.fabric, back))
        req = np.tile(np.asarray(request_bytes, dtype=float), len(learner_nodes))
        rep = np.tile(np.asarray(reply_bytes, dtype=float), len(learner_nodes))
        total = self._wave_span(plans[0], req)
        total += max(apply_seconds, default=0.0)
        total += self._wave_span(plans[1], rep)
        return total
