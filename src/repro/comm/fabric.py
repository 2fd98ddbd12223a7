"""Point-to-point message fabric over the simulated interconnect.

Every higher communication layer — the collectives behind SASGD's allreduce
and the parameter-server RPCs behind Downpour/EAMSGD — reduces to
:meth:`Endpoint.send` / :meth:`Endpoint.recv` here.

Endpoints vs nodes
------------------
An :class:`Endpoint` is a *named actor* (``"learner3"``, ``"ps-shard0"``)
attached to a topology node (``"gpu1"``, ``"host"``).  Several endpoints may
share a node — the paper's p=16 runs place two learners per GPU via CUDA MPS —
and each keeps its own mailbox, while their traffic shares (and contends for)
the node's links.

Semantics
---------
* ``send`` is *eager/buffered*: the sending process is occupied for the
  transfer's duration (that time is what trainers trace as "comm"), and the
  message is then deposited in the destination mailbox; no matching ``recv``
  needs to be posted.  This mirrors MPI eager-protocol sends for the message
  sizes involved and — crucially — cannot deadlock on symmetric exchanges.
* ``recv(src, tag)`` blocks until a matching message arrives; matching is
  exact on ``(src, tag)`` and FIFO per channel, like MPI with distinct tags.
* With ``contention=True`` a transfer crosses its route store-and-forward,
  holding each link exclusively for ``latency + nbytes/bandwidth``.  This is
  what makes p learners' parameter-server round-trips serialise on the host
  channel while allreduce traffic spreads over the GPU tree.

Accounting: the fabric counts bytes *and* messages per link and in total,
plus per-link busy seconds, which the tests use to verify the paper's
O(m log p) (allreduce) vs O(m p) (parameter server) traffic claims directly.
When an observability session with tracing is active
(:func:`repro.obs.active`), every transfer is also logged as a
:class:`~repro.obs.trace_export.MessageEvent` for Chrome-trace export;
otherwise the log stays ``None`` and transfers pay nothing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Generator, List, Optional, Tuple

from ..cluster.topology import Topology
from ..obs.runtime import active as _obs_active
from ..obs.trace_export import MessageEvent
from ..sim import Delay, Engine, Resource, Store, Tracer

__all__ = ["Message", "Endpoint", "Fabric"]


@dataclass(frozen=True, slots=True)
class Message:
    """One delivered message (payload may be None in timing-only mode)."""

    src: str
    dst: str
    tag: Any
    payload: Any
    nbytes: float


class Fabric:
    """Owns link resources, endpoints, and byte counters for one machine."""

    def __init__(
        self,
        engine: Engine,
        topology: Topology,
        tracer: Optional[Tracer] = None,
        contention: bool = True,
    ) -> None:
        self.engine = engine
        self.topology = topology
        self.tracer = tracer
        self.contention = contention
        self.link_resources: Dict[Tuple[str, str], Resource] = {
            key: Resource(engine, capacity=1, name=f"link:{key[0]}-{key[1]}")
            for key in topology.links
        }
        self._endpoints: Dict[str, "Endpoint"] = {}
        self._routes: Dict[Tuple[str, str], tuple] = {}
        self.total_bytes = 0.0
        self.total_messages = 0
        self.bytes_per_link: Dict[Tuple[str, str], float] = {
            key: 0.0 for key in topology.links
        }
        self.messages_per_link: Dict[Tuple[str, str], int] = {
            key: 0 for key in topology.links
        }
        self.busy_seconds_per_link: Dict[Tuple[str, str], float] = {
            key: 0.0 for key in topology.links
        }
        sess = _obs_active()
        self.message_log: Optional[List[MessageEvent]] = (
            [] if (sess is not None and sess.trace) else None
        )

    def attach(self, name: str, node: str) -> "Endpoint":
        """Create (or fetch) the endpoint ``name`` living on topology ``node``."""
        if node not in self.topology:
            raise ValueError(f"unknown node {node!r}")
        ep = self._endpoints.get(name)
        if ep is not None:
            if ep.node != node:
                raise ValueError(
                    f"endpoint {name!r} already attached to {ep.node!r}, not {node!r}"
                )
            return ep
        ep = Endpoint(self, name, node)
        self._endpoints[name] = ep
        return ep

    def lookup(self, name: str) -> "Endpoint":
        ep = self._endpoints.get(name)
        if ep is None:
            raise KeyError(f"no endpoint named {name!r}")
        return ep

    def reset_counters(self) -> None:
        self.total_bytes = 0.0
        self.total_messages = 0
        for key in self.bytes_per_link:
            self.bytes_per_link[key] = 0.0
            self.messages_per_link[key] = 0
            self.busy_seconds_per_link[key] = 0.0
        if self.message_log is not None:
            self.message_log.clear()

    def publish_metrics(self, registry, **labels) -> None:
        """Copy the fabric counters into a metrics registry.

        ``labels`` (algo/p/T/workload...) distinguish runs sharing one
        registry; per-link instruments add a ``link`` label on top.
        """
        registry.counter("fabric.bytes_total", **labels).inc(self.total_bytes)
        registry.counter("fabric.messages_total", **labels).inc(self.total_messages)
        span = self.engine.now
        for key in self.topology.links:
            link = f"{key[0]}-{key[1]}"
            if self.messages_per_link[key]:
                registry.counter("fabric.link.bytes", link=link, **labels).inc(
                    self.bytes_per_link[key]
                )
                registry.counter("fabric.link.messages", link=link, **labels).inc(
                    self.messages_per_link[key]
                )
            if span > 0 and self.busy_seconds_per_link[key] > 0:
                registry.gauge("fabric.link.utilization", link=link, **labels).set(
                    min(1.0, self.busy_seconds_per_link[key] / span)
                )

    # -- transfer model ------------------------------------------------------

    def _transfer(self, src_node: str, dst_node: str, nbytes: float) -> Generator:
        """Coroutine: occupy the route for the message's duration.

        Transfers are *pipelined* (virtual cut-through): one message takes
        ``sum(latencies) + nbytes / min(bandwidths)`` — not store-and-forward
        per hop.  Under contention the message holds every link of its route
        for that duration, acquired in canonical (sorted) order so concurrent
        transfers over overlapping routes serialise without deadlock.
        """
        self.total_bytes += nbytes
        self.total_messages += 1
        if src_node == dst_node:
            return
        rec = self._routes.get((src_node, dst_node))
        if rec is None:
            hops, latency, bandwidth = self.topology.route_record(src_node, dst_node)
            links = [self.link_resources[hop] for hop in sorted(hops)]
            rec = self._routes[src_node, dst_node] = (hops, latency, bandwidth, links)
        hops, latency, bandwidth, links = rec
        duration = latency + nbytes / bandwidth
        for hop in hops:
            self.bytes_per_link[hop] += nbytes
            self.messages_per_link[hop] += 1
            self.busy_seconds_per_link[hop] += duration
        if not self.contention:
            yield Delay(duration)
            return
        for link in links:
            if not link.try_acquire():
                yield from link.acquire()
        try:
            yield Delay(duration)
        finally:
            for link in links:
                link.release()


class Endpoint:
    """A named actor's communication port: send/recv coroutines plus a mailbox."""

    def __init__(self, fabric: Fabric, name: str, node: str) -> None:
        self.fabric = fabric
        self.name = name
        self.node = node
        self._mailbox: Dict[Tuple[str, Any], Store] = {}
        self._any_queues: Dict[Any, Store] = {}
        self.bytes_sent = 0.0
        self.bytes_received = 0.0

    def _channel(self, src: str, tag: Any) -> Store:
        key = (src, tag)
        chan = self._mailbox.get(key)
        if chan is None:
            chan = Store(self.fabric.engine, name=("mbox:{}<{}:{}", self.name, src, tag))
            self._mailbox[key] = chan
        return chan

    # -- any-source service queues (parameter-server style RPC) -----------

    def listen_any(self, tag: Any) -> None:
        """Declare ``tag`` an any-source service tag for this endpoint.

        Messages arriving with that tag go to one shared FIFO regardless of
        sender, which is how a parameter-server shard accepts requests from
        every learner.  Must be declared before the first matching send.
        """
        if tag not in self._any_queues:
            self._any_queues[tag] = Store(
                self.fabric.engine, name=f"svc:{self.name}:{tag}"
            )

    def recv_any(self, tag: Any) -> Generator:
        """Coroutine: next message with service ``tag`` from any sender."""
        queue = self._any_queues.get(tag)
        if queue is None:
            raise ValueError(f"endpoint {self.name!r} is not listening on {tag!r}")
        msg = yield from queue.get()
        self.bytes_received += msg.nbytes
        return msg

    def send(self, dst: str, tag: Any, payload: Any = None, nbytes: float = 0.0) -> Generator:
        """Coroutine: transfer ``payload`` to endpoint ``dst`` and deposit it.

        ``nbytes`` defaults to ``payload.nbytes`` when the payload is an
        array; pass it explicitly in timing-only mode (payload None).
        """
        if nbytes == 0.0 and payload is not None:
            nbytes = float(getattr(payload, "nbytes", 0.0))
        dst_ep = self.fabric.lookup(dst)
        self.bytes_sent += nbytes
        log = self.fabric.message_log
        t_start = self.fabric.engine.now if log is not None else 0.0
        yield from self.fabric._transfer(self.node, dst_ep.node, nbytes)
        if log is not None:
            log.append(
                MessageEvent(
                    start=t_start,
                    end=self.fabric.engine.now,
                    src=self.name,
                    dst=dst,
                    src_node=self.node,
                    dst_node=dst_ep.node,
                    nbytes=nbytes,
                )
            )
        msg = Message(src=self.name, dst=dst, tag=tag, payload=payload, nbytes=nbytes)
        any_queue = dst_ep._any_queues.get(tag)
        if any_queue is not None:
            any_queue.put(msg)
        else:
            dst_ep._channel(self.name, tag).put(msg)

    def recv(self, src: str, tag: Any) -> Generator:
        """Coroutine: wait for and return the next message matching (src, tag)."""
        chan = self._channel(src, tag)
        msg = yield from chan.get()
        if not chan._items and not chan._getters:
            # drained: one-shot tags (PS replies) would otherwise leave a Store
            # each — 40 000 per simulated Downpour cell, all cyclic garbage
            self._mailbox.pop((src, tag), None)
        self.bytes_received += msg.nbytes
        return msg

    def sendrecv(
        self,
        dst: str,
        send_tag: Any,
        payload: Any,
        src: str,
        recv_tag: Any,
        nbytes: float = 0.0,
    ) -> Generator:
        """Coroutine: overlap a send with a receive (the ring-step pattern).

        The send runs as a child process so transfer time on the two
        directions overlaps, exactly like a full-duplex exchange.
        """
        sender = self.fabric.engine.spawn(
            self.send(dst, send_tag, payload, nbytes),
            name=("sr-send:{}->{}", self.name, dst),
        )
        msg = yield from self.recv(src, recv_tag)
        yield sender.done_event
        return msg

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Endpoint {self.name}@{self.node}>"
