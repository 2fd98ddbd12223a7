"""Route records: tree routing by parent walk, one cached record per node
pair, free links taken inline — all without moving a scheduled event.

The per-hop transfer loop the records replaced is kept below as the oracle:
the fabric must reproduce its schedule and counters bit for bit.
"""

import math
import types

import networkx as nx
import numpy as np

from repro.cluster import topology as topology_mod
from repro.cluster.topology import (
    build_binary_tree_topology,
    build_fat_tree_topology,
    build_multinode_topology,
    build_torus_topology,
)
from repro.comm import Fabric
from repro.comm.fastfabric import WavePlan
from repro.sim import Delay, Engine, Resource


def _nx_hops(topo, src, dst):
    path = nx.shortest_path(topo.graph, src, dst, weight="weight")
    return [topo._key(a, b) for a, b in zip(path, path[1:])]


def _oracle_transfer(self, src_node, dst_node, nbytes):
    """The fabric's transfer as it was: Dijkstra route, per-hop latency and
    bottleneck loop, one ``acquire()`` generator per link."""
    self.total_bytes += nbytes
    self.total_messages += 1
    if src_node == dst_node:
        return
    hops = _nx_hops(self.topology, src_node, dst_node)
    duration = 0.0
    bottleneck = float("inf")
    for hop in hops:
        self.bytes_per_link[hop] += nbytes
        self.messages_per_link[hop] += 1
        link = self.topology.links[hop]
        duration += link.latency
        bottleneck = min(bottleneck, link.bandwidth)
    duration += nbytes / bottleneck
    for hop in hops:
        self.busy_seconds_per_link[hop] += duration
    if not self.contention:
        yield Delay(duration)
        return
    ordered = sorted(hops)
    for hop in ordered:
        yield from self.link_resources[hop].acquire()
    try:
        yield Delay(duration)
    finally:
        for hop in ordered:
            self.link_resources[hop].release()


# -- routing -------------------------------------------------------------------


def test_tree_walk_equals_networkx_for_every_ordered_pair():
    for topo in (
        build_fat_tree_topology(16, n_hosts=4),
        build_binary_tree_topology(8),
        build_multinode_topology(2),
    ):
        assert topo._parent, f"{topo.name} should be routed as a tree"
        for src in topo.nodes:
            for dst in topo.nodes:
                assert topo.route(src, dst) == _nx_hops(topo, src, dst), (src, dst)


def _nx_graph(topo):
    """The graph as ``Topology`` built it eagerly: nodes, then links in order."""
    graph = nx.Graph()
    graph.add_nodes_from(topo.nodes)
    for link in topo.links.values():
        graph.add_edge(link.u, link.v, weight=link.latency + (1 << 20) / link.bandwidth)
    return graph


def test_tree_parents_equal_networkx_bfs_predecessors():
    trees = [
        build_binary_tree_topology(8),
        build_binary_tree_topology(4, host=None),
        build_binary_tree_topology(1),
        build_binary_tree_topology(1, host=None),  # one node, no links
        build_fat_tree_topology(16),
        build_fat_tree_topology(32, n_hosts=4, max_bandwidth=5e10),
        build_multinode_topology(1),
        build_multinode_topology(3, gpus_per_node=4),
    ]
    for topo in trees:
        graph = _nx_graph(topo)
        assert topo._parent == dict(nx.bfs_predecessors(graph, topo.nodes[0])), topo.name
        for src in topo.nodes:
            topo.route(src, topo.nodes[-1])
        assert "graph" not in vars(topo), f"{topo.name} built a networkx graph"
    torus = build_torus_topology(4, 4, n_hosts=2)
    assert torus._parent == {}
    # the lazily built graph keeps node order, edge order and weights: Dijkstra's
    # ties break as they did when every topology carried one
    want = _nx_graph(torus)
    assert list(torus.graph.nodes) == list(want.nodes)
    assert list(torus.graph.edges(data=True)) == list(want.edges(data=True))
    assert {u: list(nbrs) for u, nbrs in torus.graph.adj.items()} == {
        u: list(nbrs) for u, nbrs in want.adj.items()
    }


def test_torus_routes_through_networkx(monkeypatch):
    calls = []
    real = nx.shortest_path

    def spy(*args, **kwargs):
        calls.append(args[1:3])
        return real(*args, **kwargs)

    monkeypatch.setattr(topology_mod.nx, "shortest_path", spy)
    torus = build_torus_topology(2, 4)
    assert not torus._parent
    assert torus.route("t0_0", "t1_2") == _nx_hops(torus, "t0_0", "t1_2")
    assert ("t0_0", "t1_2") in calls
    calls.clear()
    build_fat_tree_topology(8).route("gpu0", "gpu5")
    assert calls == []


def test_route_record_sums_latency_in_hop_order():
    topo = build_multinode_topology(2)
    rec = topo.route_record("n0gpu0", "n1gpu3")
    latency = 0.0
    for hop in rec.hops:
        latency += topo.links[hop].latency
    assert rec.latency == latency
    assert rec.bandwidth == min(topo.links[h].bandwidth for h in rec.hops)
    assert topo.route_record("n0gpu0", "n1gpu3") is rec  # cached per pair
    assert topo.route_record("n0gpu0", "n0gpu0") == ([], 0.0, math.inf)


# -- the fabric against the oracle ------------------------------------------------


def _ps_star(transfer=None):
    """8 learners on a fat tree each push mixed-size requests to two
    parameter-server hosts and wait for the replies."""
    eng = Engine()
    fab = Fabric(eng, build_fat_tree_topology(8, n_hosts=2))
    if transfer is not None:
        fab._transfer = types.MethodType(transfer, fab)
    deliveries = []
    servers = [fab.attach(f"ps{h}", f"host{h}") for h in range(2)]

    def serve(ep):
        ep.listen_any("req")
        while True:
            msg = yield from ep.recv_any("req")
            yield Delay(2e-5)
            yield from ep.send(msg.src, ("rep", msg.payload), nbytes=msg.nbytes / 4)

    def learner(i):
        ep = fab.attach(f"l{i}", f"gpu{i}")
        for step in range(6):
            yield Delay(1e-4 * (i % 3))
            for h in range(2):
                nbytes = 1e5 * (1 + (i + step + h) % 4)
                yield from ep.send(f"ps{h}", "req", (step, h), nbytes=nbytes)
                yield from ep.recv(f"ps{h}", ("rep", (step, h)))
                deliveries.append((i, step, h, eng.now))

    for ep in servers:
        eng.spawn(serve(ep))
    for i in range(8):
        eng.spawn(learner(i))
    eng.run()
    return (
        deliveries,
        eng.events_processed,
        dict(fab.bytes_per_link),
        dict(fab.messages_per_link),
        dict(fab.busy_seconds_per_link),
        fab.total_bytes,
    )


def test_fabric_matches_per_hop_oracle_bit_for_bit():
    want = _ps_star(_oracle_transfer)
    got = _ps_star()
    assert len(got[0]) == 8 * 6 * 2
    assert got[0] == want[0]  # every delivery at the same virtual instant
    assert got[1] == want[1]  # events_processed
    for g, w in zip(got[2:], want[2:]):
        assert g == w


def test_waveplan_arrays_equal_per_pair_arithmetic():
    for topo in (build_fat_tree_topology(16, n_hosts=4), build_torus_topology(2, 4)):
        nodes = topo.nodes
        pairs = [(a, b) for a in nodes[::3] for b in nodes]  # self-pairs included
        plan = WavePlan(Fabric(Engine(), topo), pairs)
        lat, inv_bw = [], []
        for src, dst in pairs:
            if src == dst:
                lat.append(0.0)
                inv_bw.append(0.0)
                continue
            lsum, bottleneck = 0.0, math.inf
            for hop in _nx_hops(topo, src, dst):
                lsum += topo.links[hop].latency
                bottleneck = min(bottleneck, topo.links[hop].bandwidth)
            lat.append(lsum)
            inv_bw.append(1.0 / bottleneck)
        assert plan.lat.tobytes() == np.asarray(lat).tobytes()
        assert plan.inv_bw.tobytes() == np.asarray(inv_bw).tobytes()


def test_route_hops_are_the_link_keys_themselves():
    # a cached route holds references to the keys ``links`` owns, no copies
    for topo in (build_fat_tree_topology(16, n_hosts=4), build_torus_topology(2, 4)):
        owned = {key: key for key in topo.links}
        for src in topo.nodes[::3]:
            for dst in topo.nodes:
                for hop in topo.route_record(src, dst).hops:
                    assert hop is owned[hop], (src, dst, hop)


def test_a_wave_plan_leaves_the_topology_route_cache_empty():
    # the plan keeps each route's arithmetic; a p = 1024 volley's 8192 routes
    # cached in the topology as well would outlive every use
    topo = build_fat_tree_topology(16, n_hosts=4)
    plan = WavePlan(Fabric(Engine(), topo), ((f"gpu{i}", "host1") for i in range(16)))
    assert plan.n_messages == 16 and plan.hop_link.size == 16 * 5
    assert topo._routes == {}


# -- FIFO and names ----------------------------------------------------------------


def test_free_slot_with_queued_waiter_is_not_taken_inline():
    eng = Engine()
    link = Resource(eng, capacity=2)
    assert link.try_acquire()
    link._waiters.append(eng.event())  # someone is queued ahead
    assert not link.try_acquire()
    assert link.in_use == 1


def test_link_grants_stay_fifo_under_contention():
    eng = Engine()
    fab = Fabric(eng, build_binary_tree_topology(2, host=None, tree_latency=0.0))
    order = []

    def sender(name, start):
        ep = fab.attach(name, "gpu0")
        yield Delay(start)
        yield from ep.send("sink", "t", name, nbytes=12e9)  # 1 s on a 12 GB/s link
        order.append((name, eng.now))

    fab.attach("sink", "gpu1")
    eng.spawn(sender("a", 0.0))
    eng.spawn(sender("b", 0.5))  # queues behind a
    eng.spawn(sender("c", 1.0))  # arrives as a releases: b was first
    eng.run()
    assert order == [("a", 1.0), ("b", 2.0), ("c", 3.0)]


def test_lazy_names_read_as_formatted_strings():
    eng = Engine()
    fab = Fabric(eng, build_binary_tree_topology(2))
    a, b = fab.attach("a", "gpu0"), fab.attach("b", "gpu1")
    chan = b._channel("a", ("rep", "ps", 0, 7))
    assert chan.name == "mbox:b<a:('rep', 'ps', 0, 7)"
    proc = eng.spawn(a.sendrecv("b", "x", None, "b", "y", nbytes=8.0))
    assert proc.name == "sendrecv"
    helper = eng.spawn(a.send("b", "x", None, nbytes=8.0), name=("sr-send:{}->{}", "a", "b"))
    assert helper.name == "sr-send:a->b"
    assert helper.done_event.name == "done:sr-send:a->b"
    assert eng.event(("wave:{}", ("agg", 3))).name == "wave:('agg', 3)"
