"""Sharded parameter server (the Downpour/EAMSGD aggregation substrate).

The paper's ASGD baselines aggregate through a parameter server on the host
CPUs: learners *push* gradients and *pull* parameters; EAMSGD instead runs an
*elastic* exchange against a center variable.  The server is sharded — "a
sharded server alleviates the aggregation speed problem but introduces
inconsistencies for parameters distributed on multiple shards" — and this
implementation reproduces both halves of that sentence:

* each shard owns a contiguous slice of the flat parameter vector and serves
  requests independently (its own process + service queue), so aggregate
  service rate scales with shard count;
* a learner's pull assembles slices that may straddle other learners' pushes,
  i.e. the assembled vector can be a mixture of parameter versions — genuine
  sharded-PS inconsistency, not a model of it.

All request/reply traffic crosses the narrow host channel of the topology,
which is what the Fig. 1 communication-fraction reproduction measures.

Staleness accounting: every shard counts applied pushes in a version counter;
pulls return the version, pushes return the then-current version, and
:class:`PSClient` records ``push_version − pull_version`` per push — the
number of other updates that landed while the learner computed, i.e. the
gradient staleness distribution (paper Sec. II-B).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Generator, List, Optional, Tuple

import numpy as np

from ..cluster.machine import Machine
from ..comm.fabric import Endpoint, Fabric
from ..obs import events as _events
from ..obs.runtime import active as _obs_active
from ..sim import Delay

__all__ = ["ShardLayout", "ShardedParameterServer", "PSClient"]

_REQ_NBYTES = 64.0  # pull/elastic request header size
# service cost scales with what a request does to the shard: pull only
# reads/serialises (0.5×), push deserialises + applies (1×), elastic does
# both plus computes e (1.5×)
_COST_SCALE = {"push": 1.0, "pull": 0.5, "elastic": 1.5}


@dataclass(frozen=True)
class ShardLayout:
    """Contiguous partition of ``size`` parameters into shards."""

    size: int
    bounds: Tuple[Tuple[int, int], ...]

    @classmethod
    def even(cls, size: int, n_shards: int) -> "ShardLayout":
        if n_shards < 1 or size < n_shards:
            raise ValueError(f"cannot shard {size} params over {n_shards} shards")
        edges = np.linspace(0, size, n_shards + 1).astype(int).tolist()  # not np.int64
        return cls(size=size, bounds=tuple(zip(edges[:-1], edges[1:])))

    @property
    def n_shards(self) -> int:
        return len(self.bounds)

    def slice_bytes(self, shard: int, itemsize: int) -> float:
        lo, hi = self.bounds[shard]
        return float((hi - lo) * itemsize)


class ShardedParameterServer:
    """Host-resident shards serving push / pull / elastic requests.

    ``timing_only=True`` keeps the full request/queue/apply schedule but skips
    the parameter math (payloads are byte counts), for paper-scale epoch-time
    experiments; such a server holds no parameter vector (``x`` is None) and
    refuses :meth:`set_params`.
    """

    def __init__(
        self,
        machine: Machine,
        fabric: Fabric,
        size: int,
        n_shards: int = 1,
        learning_rate: float = 0.1,
        dtype=np.float32,
        name: str = "ps",
        timing_only: bool = False,
        apply_flops_per_param: float = 300.0,
        crash_after: Optional[Dict[int, int]] = None,
        restart_shards: bool = False,
        restart_seconds: float = 0.5,
        snapshot_every: int = 25,
        hosts: Optional[List[str]] = None,
    ) -> None:
        self.machine = machine
        self.fabric = fabric
        self.layout = ShardLayout.even(size, n_shards)
        self.learning_rate = learning_rate
        self.dtype = np.dtype(dtype)
        self.name = name
        self.apply_flops_per_param = apply_flops_per_param
        # -- fault injection (repro.faults): ``crash_after[sid] = n`` kills
        # shard ``sid`` after its n-th apply.  With ``restart_shards`` the
        # shard restores its slice from the last periodic snapshot (losing
        # post-snapshot applies) and resumes after ``restart_seconds``;
        # otherwise it stays down and its clients starve.
        self.crash_after: Dict[int, int] = dict(crash_after or {})
        self.restart_shards = restart_shards
        self.restart_seconds = restart_seconds
        self.snapshot_every = max(1, snapshot_every)
        self.crashed_shards: set = set()      # shards currently down
        self.shard_restarts = 0
        self._snapshots: Dict[int, Tuple[Optional[np.ndarray], int]] = {}
        # ``hosts`` spreads shards round-robin over several host nodes (the
        # multi-shard PS of the large-p scaling machines); default is the
        # classic single-host layout.
        if hosts is None:
            if machine.host is None:
                raise ValueError("machine has no host to run the parameter server on")
            hosts = [machine.host]
        self.hosts = list(hosts)
        self.shard_hosts = [self.hosts[sid % len(self.hosts)] for sid in range(n_shards)]
        self.shard_devices = [machine.devices[h] for h in self.shard_hosts]
        self.host_device = self.shard_devices[0]
        self.x: Optional[np.ndarray] = None if timing_only else np.zeros(size, dtype=self.dtype)
        self.versions = [0] * n_shards
        self.pushes_applied = 0
        self.endpoints: List[Endpoint] = []
        self._procs = []
        for sid in range(n_shards):
            ep = fabric.attach(f"{self.name}{sid}", self.shard_hosts[sid])
            ep.listen_any(("req", self.name, sid))
            self.endpoints.append(ep)
            self._procs.append(
                machine.engine.spawn(self._serve(sid), name=f"{self.name}{sid}")
            )

    # -- server side -------------------------------------------------------

    def set_params(self, x0: np.ndarray) -> None:
        if self.x is None:
            raise TypeError(f"timing-only server {self.name!r} holds no parameters to set")
        if x0.shape != self.x.shape:
            raise ValueError(f"shape mismatch: {x0.shape} vs {self.x.shape}")
        self.x[...] = x0

    def _apply_seconds(self, sid: int, n_params: int) -> float:
        return self.shard_devices[sid].compute_seconds(
            self.apply_flops_per_param * n_params
        )

    def _serve(self, sid: int) -> Generator:
        ep = self.endpoints[sid]
        lo, hi = self.layout.bounds[sid]
        actor = ep.name
        tracer = self.machine.tracer
        engine = self.machine.engine
        req_tag = ("req", self.name, sid)
        x = self.x  # None in timing-only mode; set_params writes in place
        # resolved lazily so a session installed after construction still sees
        # this shard; None means "not observed" and costs one global read
        obs_latency = obs_depth = None
        t_serve = 0.0
        applies = 0
        crash_at = self.crash_after.get(sid)
        # initial snapshot: by the time the engine first steps this
        # coroutine, set_params() has installed the shared starting point
        self._snapshots[sid] = (
            None if x is None else x[lo:hi].copy(),
            self.versions[sid],
        )
        while True:
            msg = yield from ep.recv_any(req_tag)
            sess = _obs_active()
            if sess is not None:
                if obs_latency is None:
                    reg = sess.registry
                    obs_latency = reg.histogram(
                        "ps.request_seconds", server=self.name, shard=sid
                    )
                    obs_depth = reg.histogram(
                        "ps.queue_depth", server=self.name, shard=sid
                    )
                t_serve = engine.now
                obs_depth.observe(float(len(ep._any_queues[req_tag])))
            kind, learner, seq, payload, extra = msg.payload
            if kind == "stop":
                break
            tracer.begin(actor, "apply")
            yield Delay(_COST_SCALE.get(kind, 1.0) * self._apply_seconds(sid, hi - lo))
            tracer.end(actor, "apply")
            if kind == "push":
                # gradient-descent apply in strict arrival order
                if x is not None and payload is not None:
                    x[lo:hi] -= self.learning_rate * payload
                self.versions[sid] += 1
                self.pushes_applied += 1
                yield from ep.send(
                    learner, ("rep", self.name, sid, seq), self.versions[sid], nbytes=_REQ_NBYTES
                )
            elif kind == "pull":
                reply = None if x is None else x[lo:hi].copy()
                yield from ep.send(
                    learner,
                    ("rep", self.name, sid, seq),
                    (reply, self.versions[sid]),
                    nbytes=self.layout.slice_bytes(sid, self.dtype.itemsize),
                )
            elif kind == "elastic":
                # EASGD round: e = α(x_i − x̃); x̃ += e; reply e
                alpha = extra
                if x is None or payload is None:
                    e = None
                else:
                    e = alpha * (payload - x[lo:hi])
                    x[lo:hi] += e
                self.versions[sid] += 1
                yield from ep.send(
                    learner,
                    ("rep", self.name, sid, seq),
                    (e, self.versions[sid]),
                    nbytes=self.layout.slice_bytes(sid, self.dtype.itemsize),
                )
            else:
                raise ValueError(f"unknown request kind {kind!r}")
            if sess is not None:
                obs_latency.observe(engine.now - t_serve)
            if kind in ("push", "elastic"):
                applies += 1
                if applies % self.snapshot_every == 0:
                    self._snapshots[sid] = (
                        None if x is None else x[lo:hi].copy(),
                        self.versions[sid],
                    )
                if crash_at is not None and applies >= crash_at:
                    # injected shard death: the reply to the fatal apply got
                    # out, everything since the last snapshot is lost
                    crash_at = None
                    tracer.begin(actor, "fault")
                    tracer.end(actor, "fault")
                    _events.emit(
                        _events.FAULT_INJECTED,
                        source=actor,
                        t=engine.now,
                        fault="ps_crash",
                        shard=sid,
                        applies=applies,
                    )
                    if not self.restart_shards:
                        self.crashed_shards.add(sid)
                        return
                    snap_x, snap_v = self._snapshots[sid]
                    if x is not None and snap_x is not None:
                        x[lo:hi] = snap_x
                    self.versions[sid] = snap_v
                    self.shard_restarts += 1
                    tracer.begin(actor, "restart")
                    yield Delay(self.restart_seconds)
                    tracer.end(actor, "restart")
                    _events.emit(
                        _events.RECOVERY_ACTION,
                        source=actor,
                        t=engine.now,
                        action="restart_shard",
                        shard=sid,
                        restart_seconds=self.restart_seconds,
                    )


class PSClient:
    """A learner's connection to every shard of one server."""

    def __init__(self, server: ShardedParameterServer, ep: Endpoint) -> None:
        self.server = server
        self.ep = ep
        self._seq = 0
        self.staleness_samples: List[int] = []
        self._pull_version = 0  # sum of shard versions at last pull
        self._pull_versions = [0] * server.layout.n_shards  # per-shard

    def _next_seq(self) -> int:
        self._seq += 1
        return self._seq

    def _request(self, sid: int, kind: str, payload: Any, nbytes: float, extra: Any = None) -> Generator:
        seq = self._next_seq()
        server = self.server
        yield from self.ep.send(
            server.endpoints[sid].name,
            ("req", server.name, sid),
            (kind, self.ep.name, seq, payload, extra),
            nbytes=nbytes,
        )
        msg = yield from self.ep.recv(server.endpoints[sid].name, ("rep", server.name, sid, seq))
        return msg.payload

    def push(self, grad: Optional[np.ndarray], pull: bool = False) -> Generator:
        """Send accumulated gradients shard by shard; returns mean staleness.

        Staleness of this push = pushes applied by others between our last
        pull and this push landing (per shard, then summed).  ``pull=True``
        follows the push with :meth:`pull` and returns the fetched vector.
        """
        server = self.server
        sess = _obs_active()
        version_now = 0
        for sid, (lo, hi) in enumerate(server.layout.bounds):
            payload = None if grad is None else grad[lo:hi]
            nbytes = server.layout.slice_bytes(sid, server.dtype.itemsize)
            v = yield from self._request(sid, "push", payload, nbytes)
            version_now += int(v)
            if sess is not None:
                # other learners' pushes that landed on this shard while we
                # computed: the per-shard staleness distribution (Sec. II-B)
                sess.registry.histogram(
                    "ps.staleness", server=server.name, shard=sid
                ).observe(float(max(0, int(v) - self._pull_versions[sid] - 1)))
        # exclude our own p pushes (one per shard) from the staleness count
        staleness = max(0, version_now - self._pull_version - server.layout.n_shards)
        self.staleness_samples.append(staleness)
        if not pull:
            return staleness
        return (yield from self.pull())

    def pull(self) -> Generator:
        """Fetch the full parameter vector (may mix shard versions)."""
        server = self.server
        out = None if server.x is None else np.empty_like(server.x)
        version = 0
        for sid, (lo, hi) in enumerate(server.layout.bounds):
            reply, v = yield from self._request(sid, "pull", None, _REQ_NBYTES)
            version += int(v)
            self._pull_versions[sid] = int(v)
            if out is not None and reply is not None:
                out[lo:hi] = reply
        self._pull_version = version
        return out

    def elastic(self, x_local: Optional[np.ndarray], alpha: float) -> Generator:
        """One EASGD exchange; returns the elastic difference e (or None)."""
        server = self.server
        sess = _obs_active()
        out = None if server.x is None else np.empty_like(server.x)
        for sid, (lo, hi) in enumerate(server.layout.bounds):
            payload = None if x_local is None else x_local[lo:hi]
            nbytes = server.layout.slice_bytes(sid, server.dtype.itemsize)
            e, _v = yield from self._request(sid, "elastic", payload, nbytes, extra=alpha)
            if sess is not None:
                # center-variable movements by peers since our last exchange
                sess.registry.histogram(
                    "ps.staleness", server=server.name, shard=sid
                ).observe(float(max(0, int(_v) - self._pull_versions[sid] - 1)))
            self._pull_versions[sid] = int(_v)
            if out is not None and e is not None:
                out[lo:hi] = e
        return out
