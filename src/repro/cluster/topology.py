"""Interconnect topology: nodes, links, routing.

The testbed in the paper is an IBM Power8 host with an OSS high-density
compute accelerator: 8 NVIDIA K80 GPUs "connected by PCIe switches forming a
binary tree", with the host hanging off the tree root through a narrower
channel.  The topology is an undirected multigraph of *endpoint* nodes
(devices) and *switch* nodes, each edge carrying a bandwidth (bytes/s) and a
latency (s).

Two communication patterns matter:

* learner ↔ learner (SASGD allreduce) — stays inside the GPU tree and can use
  the full PCIe bandwidth (the paper's GPU-direct argument);
* learner ↔ parameter server (Downpour / EAMSGD) — every message crosses the
  host channel, so p learners' traffic serialises there (O(m·p) bytes through
  one link), which is the mechanism behind the Fig. 1 communication fractions.

Routes are cached per pair (``route_record``; ``find_route`` computes one
without caching, for callers that keep their own arithmetic): a tree walks the
parent map of one BFS over the topology's own adjacency; only a cyclic graph
(the torus) imports networkx (Dijkstra).  A route's hops are the very key
objects ``links`` is keyed by, so a cached route holds references, not copies.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Any, Dict, Iterable, List, NamedTuple, Tuple

__all__ = [
    "LinkSpec",
    "Route",
    "Topology",
    "build_binary_tree_topology",
    "build_multinode_topology",
    "build_fat_tree_topology",
    "build_torus_topology",
]


def __getattr__(name: str) -> Any:  # PEP 562: ``topology.nx`` loads networkx on first use
    if name != "nx":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import networkx
    return networkx


@dataclass(frozen=True)
class LinkSpec:
    """One physical link: ``bandwidth`` bytes/s, ``latency`` seconds."""

    u: str
    v: str
    bandwidth: float
    latency: float = 1e-6

    def __post_init__(self) -> None:
        if self.bandwidth <= 0:
            raise ValueError(f"bandwidth must be positive, got {self.bandwidth}")
        if self.latency < 0:
            raise ValueError(f"latency must be >= 0, got {self.latency}")


class Route(NamedTuple):
    """Link keys in path order, their latency sum, the slowest hop's bandwidth."""

    hops: List[Tuple[str, str]]
    latency: float
    bandwidth: float


class Topology:
    """A named interconnect graph with cached per-pair routing."""

    def __init__(self, name: str, nodes: Iterable[str], links: Iterable[LinkSpec]) -> None:
        self.name = name
        # neighbour -> the key ``links`` holds that edge under, in link order
        self._adj: Dict[str, Dict[str, Tuple[str, str]]] = {node: {} for node in nodes}
        self.links: Dict[Tuple[str, str], LinkSpec] = {}
        for link in links:
            if link.u not in self._adj or link.v not in self._adj:
                raise ValueError(f"link {link.u}-{link.v} references unknown node")
            key = self._key(link.u, link.v)
            if key in self.links:
                raise ValueError(f"duplicate link {key}")
            self.links[key] = link
            self._adj[link.u][link.v] = self._adj[link.v][link.u] = key
        if not self._adj:
            raise ValueError(f"topology {name!r} has no nodes")
        # one BFS from the first node: connectivity, and a tree's parent map
        order = [next(iter(self._adj))]
        parent: Dict[str, str] = {}
        for node in order:
            new = [nb for nb in self._adj[node] if nb not in parent and nb != order[0]]
            parent.update(dict.fromkeys(new, node))
            order += new
        if len(order) < len(self._adj):
            raise ValueError(f"topology {name!r} is not connected")
        self._routes: Dict[Tuple[str, str], Route] = {}
        # connected with |E| = |V| - 1 is a tree: route by parent pointers
        self._parent = parent if len(self.links) == len(self._adj) - 1 else {}

    @cached_property
    def graph(self) -> Any:
        """The ``networkx.Graph``, built on first use (Dijkstra on a cyclic topology)."""
        import networkx as nx
        graph = nx.Graph()
        graph.add_nodes_from(self._adj)
        for link in self.links.values():
            # weight: transfer time of a reference 1 MiB message, so routing prefers fat links
            graph.add_edge(link.u, link.v, weight=link.latency + (1 << 20) / link.bandwidth)
        return graph

    @staticmethod
    def _key(u: str, v: str) -> Tuple[str, str]:
        return (u, v) if u <= v else (v, u)

    @property
    def nodes(self) -> List[str]:
        return list(self._adj)

    def __contains__(self, node: object) -> bool:
        return node in self._adj

    def _tree_path(self, src: str, dst: str) -> List[str]:
        """The unique tree path: both ends' paths to the root, common tail cut."""
        up, down = [src], [dst]
        for path in (up, down):
            while path[-1] in self._parent:
                path.append(self._parent[path[-1]])
        while len(up) > 1 and len(down) > 1 and up[-2] == down[-2]:
            up.pop()
            down.pop()
        return up + down[-2::-1]

    def find_route(self, src: str, dst: str) -> Route:
        """The :class:`Route` a message takes from src to dst, computed afresh."""
        if self._parent or src == dst:
            path = self._tree_path(src, dst)
        else:
            import networkx as nx
            path = nx.shortest_path(self.graph, src, dst, weight="weight")
        hops = [self._adj[a][b] for a, b in zip(path, path[1:])]
        latency = 0.0
        for hop in hops:
            latency += self.links[hop].latency
        bandwidth = min((self.links[h].bandwidth for h in hops), default=float("inf"))
        return Route(hops, latency, bandwidth)

    def route_record(self, src: str, dst: str) -> Route:
        """The cached :meth:`find_route`."""
        rec = self._routes.get((src, dst))
        if rec is None:
            rec = self._routes[src, dst] = self.find_route(src, dst)
        return rec

    def route(self, src: str, dst: str) -> List[Tuple[str, str]]:
        """The (cached) sequence of links a message traverses from src to dst."""
        return self.route_record(src, dst).hops

    def bottleneck_bandwidth(self, src: str, dst: str) -> float:
        return self.route_record(src, dst).bandwidth

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Topology {self.name!r}: {len(self._adj)} nodes, {len(self.links)} links>"


def _switch_tree(
    leaves: List[str],
    prefix: str,
    bandwidth: float,
    latency: float,
    fatness: float = 1.0,
    max_bandwidth: float = float("inf"),
) -> Tuple[List[str], List[LinkSpec], str]:
    """Pair ``leaves`` up under switches level by level, link bandwidth growing
    ``fatness``× per level: (leaves then switches, links, the root)."""
    all_nodes, level = list(leaves), 0
    links: List[LinkSpec] = []
    while len(leaves) > 1:
        switches = [f"{prefix}{level}_{i // 2}" for i in range(0, len(leaves), 2)]
        for i, sw in enumerate(switches):
            links.append(LinkSpec(leaves[2 * i], sw, bandwidth, latency))
            links.append(LinkSpec(leaves[2 * i + 1], sw, bandwidth, latency))
        all_nodes += switches
        leaves, level = switches, level + 1
        bandwidth = min(bandwidth * fatness, max_bandwidth)
    return all_nodes, links, leaves[0]


def build_multinode_topology(
    n_nodes: int,
    gpus_per_node: int = 8,
    tree_bandwidth: float = 12e9,
    tree_latency: float = 2e-6,
    host_bandwidth: float = 6e9,
    host_latency: float = 5e-6,
    network_bandwidth: float = 1.2e9,
    network_latency: float = 3e-6,
    name: str = "multinode",
) -> Topology:
    """Several Power8/OSS nodes joined by a cluster network.

    Each node is a binary PCIe tree of ``gpus_per_node`` GPUs with its host
    on the tree root (GPU names ``n{j}gpu{i}``, hosts ``n{j}host``); hosts
    connect to a central network switch ``net`` over (typically much slower)
    inter-node links.  This is the "future systems with more GPUs" setting
    of the paper's conclusion: cross-node traffic pays the network price,
    which penalises a centralised parameter server far more than a
    hierarchical allreduce.
    """
    if n_nodes < 1:
        raise ValueError(f"n_nodes must be >= 1, got {n_nodes}")
    all_nodes: list[str] = ["net"] if n_nodes > 1 else []
    links: list[LinkSpec] = []
    for j in range(n_nodes):
        sub = build_binary_tree_topology(
            gpus_per_node,
            leaf_prefix=f"n{j}gpu",
            tree_bandwidth=tree_bandwidth,
            tree_latency=tree_latency,
            host=f"n{j}host",
            host_bandwidth=host_bandwidth,
            host_latency=host_latency,
            name=f"{name}-node{j}",
        )
        # re-namespace the node's switches so nodes don't collide
        rename = {
            node: (node if node.startswith(f"n{j}") else f"n{j}{node}")
            for node in sub.nodes
        }
        all_nodes.extend(rename.values())
        for link in sub.links.values():
            links.append(
                LinkSpec(rename[link.u], rename[link.v], link.bandwidth, link.latency)
            )
        if n_nodes > 1:
            links.append(
                LinkSpec(f"n{j}host", "net", network_bandwidth, network_latency)
            )
    return Topology(name, all_nodes, links)


def build_fat_tree_topology(
    n_leaves: int,
    leaf_prefix: str = "gpu",
    leaf_bandwidth: float = 12e9,
    leaf_latency: float = 2e-6,
    fatness: float = 2.0,
    max_bandwidth: float = float("inf"),
    n_hosts: int = 1,
    host_bandwidth: float = 6e9,
    host_latency: float = 5e-6,
    name: str = "fat-tree",
) -> Topology:
    """A Leiserson-style fat tree over ``n_leaves`` devices.

    Like :func:`build_binary_tree_topology`, leaves pair up under switches
    level by level — but link bandwidth *grows* by ``fatness``× per level
    toward the root (capped at ``max_bandwidth``), so the bisection does not
    thin out as the machine grows.  This is the canonical scale-out
    interconnect for the conclusion's "future systems with more GPUs":
    ring/tree allreduce traffic keeps its per-rank cost roughly flat all the
    way to p=1024 while a central parameter server still funnels O(m·p)
    through the root.  ``n_hosts`` host nodes (PS shard placements) hang off
    the root switch through ``host_bandwidth`` links.
    """
    if n_leaves < 2 or (n_leaves & (n_leaves - 1)) != 0:
        raise ValueError(f"n_leaves must be a power of two >= 2, got {n_leaves}")
    if fatness < 1.0:
        raise ValueError(f"fatness must be >= 1, got {fatness}")
    if n_hosts < 1:
        raise ValueError(f"n_hosts must be >= 1, got {n_hosts}")
    leaves = [f"{leaf_prefix}{i}" for i in range(n_leaves)]
    all_nodes, links, root = _switch_tree(
        leaves, "fsw", leaf_bandwidth, leaf_latency, fatness, max_bandwidth
    )
    for h in range(n_hosts):
        host = f"host{h}" if n_hosts > 1 else "host"
        all_nodes.append(host)
        links.append(LinkSpec(root, host, host_bandwidth, host_latency))
    return Topology(name, all_nodes, links)


def build_torus_topology(
    rows: int,
    cols: int,
    node_prefix: str = "t",
    link_bandwidth: float = 12e9,
    link_latency: float = 2e-6,
    n_hosts: int = 1,
    host_bandwidth: float = 6e9,
    host_latency: float = 5e-6,
    name: str = "torus",
) -> Topology:
    """A 2-D torus of ``rows`` × ``cols`` device nodes (``t{r}_{c}``).

    Each node links to its four wrap-around neighbours, the layout of the
    Blue-Gene-class machines the paper's conclusion alludes to: constant
    per-node degree, bisection that grows with the smaller dimension, and no
    single funnel point — a ring allreduce maps onto a snaking Hamiltonian
    path with every hop a physical link.  ``n_hosts`` host nodes attach at
    evenly-spaced torus positions (flattened row-major order) through
    ``host_bandwidth`` links; a centralised or sharded parameter server lives
    there, so its O(m·p) traffic still converges onto a handful of links
    while allreduce traffic stays neighbour-to-neighbour.
    """
    if rows < 1 or cols < 1 or rows * cols < 2:
        raise ValueError(f"torus needs >= 2 nodes, got {rows}x{cols}")
    if n_hosts < 1:
        raise ValueError(f"n_hosts must be >= 1, got {n_hosts}")
    nodes = [f"{node_prefix}{r}_{c}" for r in range(rows) for c in range(cols)]
    links: list[LinkSpec] = []
    seen: set = set()

    def add(u: str, v: str) -> None:
        key = (u, v) if u <= v else (v, u)
        if u != v and key not in seen:
            seen.add(key)
            links.append(LinkSpec(u, v, link_bandwidth, link_latency))

    for r in range(rows):
        for c in range(cols):
            here = f"{node_prefix}{r}_{c}"
            add(here, f"{node_prefix}{r}_{(c + 1) % cols}")
            add(here, f"{node_prefix}{(r + 1) % rows}_{c}")
    all_nodes = list(nodes)
    stride = max(1, (rows * cols) // n_hosts)
    for h in range(n_hosts):
        host = f"host{h}" if n_hosts > 1 else "host"
        all_nodes.append(host)
        anchor = nodes[(h * stride) % (rows * cols)]
        links.append(LinkSpec(anchor, host, host_bandwidth, host_latency))
    return Topology(name, all_nodes, links)


def build_binary_tree_topology(
    n_leaves: int,
    leaf_prefix: str = "gpu",
    tree_bandwidth: float = 12e9,
    tree_latency: float = 2e-6,
    host: str | None = "host",
    host_bandwidth: float = 6e9,
    host_latency: float = 5e-6,
    name: str = "pcie-tree",
) -> Topology:
    """A binary tree of PCIe switches over ``n_leaves`` devices.

    Leaves ``gpu0..gpu{n-1}`` pair up under switches level by level up to the
    root switch; the host (if given) attaches to the root through the
    (typically narrower) host channel.  ``n_leaves`` must be a power of two,
    matching the OSS accelerator's layout of 8 GPUs.
    """
    if n_leaves < 1 or (n_leaves & (n_leaves - 1)) != 0:
        raise ValueError(f"n_leaves must be a power of two, got {n_leaves}")
    leaves = [f"{leaf_prefix}{i}" for i in range(n_leaves)]
    all_nodes, links, root = _switch_tree(leaves, "sw", tree_bandwidth, tree_latency)
    if host is not None:
        all_nodes.append(host)
        links.append(LinkSpec(root, host, host_bandwidth, host_latency))
    return Topology(name, all_nodes, links)
