"""The simulated machine: engine + topology + devices + tracer, wired up.

A :class:`Machine` is the root object every trainer runs against.  It owns

* the virtual-time :class:`~repro.sim.Engine`,
* the interconnect :class:`~repro.cluster.topology.Topology`,
* one :class:`~repro.cluster.devices.Device` per compute node,
* a :class:`~repro.sim.Tracer` for time accounting, and
* the devices' seed tree: every device draws its RNG from
  ``numpy.random.SeedSequence.spawn`` so runs replay bit-exactly (learners
  draw theirs from the trainer's own tree, the same on every backend).

Placement conventions follow the paper: learners live on GPUs (round-robin
with device sharing once p exceeds the GPU count — the paper's CUDA MPS
setup), and parameter-server shards live on the host.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from ..sim import Engine, Tracer
from ..spec.registry import MACHINES
from .devices import Device, DeviceSpec
from .topology import (
    Topology,
    build_binary_tree_topology,
    build_fat_tree_topology,
    build_multinode_topology,
    build_torus_topology,
)

__all__ = [
    "MachineSpec",
    "Machine",
    "power8_oss_spec",
    "power8_cluster_spec",
    "fat_tree_spec",
    "torus_spec",
]


@dataclass(frozen=True)
class MachineSpec:
    """Static machine description (hashable inputs for a simulation run)."""

    name: str
    topology: Topology
    device_specs: Dict[str, DeviceSpec]
    host: Optional[str] = "host"

    def __post_init__(self) -> None:
        for dev in self.device_specs.values():
            if dev.name not in self.topology:
                raise ValueError(f"device {dev.name!r} not in topology")
        if self.host is not None and self.host not in self.topology:
            raise ValueError(f"host {self.host!r} not in topology")

    @property
    def gpu_names(self) -> List[str]:
        return [n for n, d in self.device_specs.items() if d.kind == "gpu"]


class Machine:
    """A live simulation instance of a :class:`MachineSpec`."""

    def __init__(self, spec: MachineSpec, seed: int = 0, trace: bool = True) -> None:
        self.spec = spec
        self.engine = Engine()
        self.tracer = Tracer(self.engine, enabled=trace)
        children = np.random.SeedSequence(seed).spawn(len(spec.device_specs) + 1)
        self.root_rng = np.random.default_rng(children[0])
        self.devices: Dict[str, Device] = {}
        for child, (name, dspec) in zip(
            children[1:], sorted(spec.device_specs.items())
        ):
            self.devices[name] = Device(dspec, np.random.default_rng(child))

    @property
    def topology(self) -> Topology:
        return self.spec.topology

    @property
    def host(self) -> Optional[str]:
        return self.spec.host

    def place_learners(self, p: int) -> List[str]:
        """Device names for p learners, round-robin over the GPUs.

        Mirrors the paper: one learner per GPU up to the GPU count, then
        multiple learners share a GPU ("for p = 16 we run 2 learners per GPU
        using CUDA multi-process service").  Sharing is modelled by the
        device's ``mps_share`` applying per resident learner at compute time —
        the trainer divides the rate by the residency it observes.
        """
        gpus = self.spec.gpu_names
        if not gpus:
            raise ValueError(f"machine {self.spec.name!r} has no GPUs")
        return [gpus[i % len(gpus)] for i in range(p)]

    def residency(self, placement: List[str]) -> Dict[str, int]:
        """How many learners share each device under ``placement``."""
        counts: Dict[str, int] = {}
        for name in placement:
            counts[name] = counts.get(name, 0) + 1
        return counts


@MACHINES.register(
    "power8_oss", description="single POWER8 node, GPUs on a binary host tree"
)
def power8_oss_spec(
    n_gpus: int = 8,
    gpu_flops: float = 2.0e12,
    gpu_jitter: float = 0.05,
    gpu_overhead: float = 1e-4,
    host_flops: float = 1.5e11,
    host_overhead: float = 5e-5,
    tree_bandwidth: float = 12e9,
    tree_latency: float = 2e-6,
    host_bandwidth: float = 6e9,
    host_latency: float = 5e-6,
    name: str = "power8-oss",
) -> MachineSpec:
    """The paper's testbed: Power8 host + OSS accelerator with ``n_gpus`` K80s.

    Defaults are calibration-friendly stand-ins: ``gpu_flops`` is the
    *achieved* dense throughput of one K80 GK210 die on this workload (the
    harness refits it against the paper's sequential epoch times), the PCIe
    tree runs at gen3-x16-class bandwidth and the host channel at half that —
    the ratio, not the absolute numbers, drives every reproduced shape.
    """
    topo = build_binary_tree_topology(
        n_leaves=n_gpus,
        tree_bandwidth=tree_bandwidth,
        tree_latency=tree_latency,
        host_bandwidth=host_bandwidth,
        host_latency=host_latency,
        name=f"{name}-topo",
    )
    devs: Dict[str, DeviceSpec] = {}
    for i in range(n_gpus):
        devs[f"gpu{i}"] = DeviceSpec(
            name=f"gpu{i}",
            flops=gpu_flops,
            jitter=gpu_jitter,
            overhead=gpu_overhead,
            kind="gpu",
        )
    devs["host"] = DeviceSpec(
        name="host", flops=host_flops, jitter=0.02, overhead=host_overhead, kind="cpu"
    )
    return MachineSpec(name=name, topology=topo, device_specs=devs, host="host")


@MACHINES.register(
    "power8_cluster", description="multi-node POWER8 cluster over an inter-node link"
)
def power8_cluster_spec(
    n_nodes: int,
    gpus_per_node: int = 8,
    gpu_flops: float = 2.0e12,
    gpu_jitter: float = 0.05,
    gpu_overhead: float = 1e-4,
    host_flops: float = 1.5e11,
    host_overhead: float = 5e-5,
    tree_bandwidth: float = 12e9,
    tree_latency: float = 2e-6,
    host_bandwidth: float = 6e9,
    host_latency: float = 5e-6,
    network_bandwidth: float = 1.2e9,
    network_latency: float = 3e-6,
    name: str = "power8-cluster",
) -> MachineSpec:
    """Several Power8/OSS nodes on a cluster network (the conclusion's
    "future systems" with more GPUs).

    GPU names are ``n{j}gpu{i}``; the machine's ``host`` is node 0's host,
    where a (centralised) parameter server would live — so PS traffic from
    other nodes crosses the slow network links while allreduce traffic stays
    mostly inside the per-node PCIe trees.
    """
    topo = build_multinode_topology(
        n_nodes=n_nodes,
        gpus_per_node=gpus_per_node,
        tree_bandwidth=tree_bandwidth,
        tree_latency=tree_latency,
        host_bandwidth=host_bandwidth,
        host_latency=host_latency,
        network_bandwidth=network_bandwidth,
        network_latency=network_latency,
        name=f"{name}-topo",
    )
    devs: Dict[str, DeviceSpec] = {}
    for j in range(n_nodes):
        for i in range(gpus_per_node):
            gname = f"n{j}gpu{i}"
            devs[gname] = DeviceSpec(
                name=gname,
                flops=gpu_flops,
                jitter=gpu_jitter,
                overhead=gpu_overhead,
                kind="gpu",
            )
        hname = f"n{j}host"
        devs[hname] = DeviceSpec(
            name=hname, flops=host_flops, jitter=0.02, overhead=host_overhead, kind="cpu"
        )
    return MachineSpec(name=name, topology=topo, device_specs=devs, host="n0host")


def _gpu_specs(
    names: list, gpu_flops: float, gpu_jitter: float, gpu_overhead: float
) -> Dict[str, DeviceSpec]:
    return {
        n: DeviceSpec(
            name=n, flops=gpu_flops, jitter=gpu_jitter, overhead=gpu_overhead, kind="gpu"
        )
        for n in names
    }


@MACHINES.register(
    "fat_tree", description="fat-tree fabric with full bisection bandwidth"
)
def fat_tree_spec(
    n_gpus: int,
    gpu_flops: float = 2.0e12,
    gpu_jitter: float = 0.05,
    gpu_overhead: float = 1e-4,
    host_flops: float = 1.5e11,
    host_overhead: float = 5e-5,
    leaf_bandwidth: float = 12e9,
    leaf_latency: float = 2e-6,
    fatness: float = 2.0,
    max_bandwidth: float = 96e9,
    n_hosts: int = 1,
    host_bandwidth: float = 6e9,
    host_latency: float = 5e-6,
    name: str = "fat-tree",
) -> MachineSpec:
    """A scale-out fat-tree machine: ``n_gpus`` leaves, constant bisection.

    The interconnect for the large-p half of the `scaling` experiment family:
    link bandwidth doubles per level toward the root (capped), so allreduce
    cost per rank stays nearly flat to p=1024 while ``n_hosts`` parameter-
    server hosts at the root still see all O(m·p) PS bytes.
    """
    topo = build_fat_tree_topology(
        n_leaves=n_gpus,
        leaf_bandwidth=leaf_bandwidth,
        leaf_latency=leaf_latency,
        fatness=fatness,
        max_bandwidth=max_bandwidth,
        n_hosts=n_hosts,
        host_bandwidth=host_bandwidth,
        host_latency=host_latency,
        name=f"{name}-topo",
    )
    devs = _gpu_specs(
        [f"gpu{i}" for i in range(n_gpus)], gpu_flops, gpu_jitter, gpu_overhead
    )
    hosts = [f"host{h}" for h in range(n_hosts)] if n_hosts > 1 else ["host"]
    for hname in hosts:
        devs[hname] = DeviceSpec(
            name=hname, flops=host_flops, jitter=0.02, overhead=host_overhead, kind="cpu"
        )
    return MachineSpec(name=name, topology=topo, device_specs=devs, host=hosts[0])


@MACHINES.register("torus", description="2-D torus fabric (rows x cols GPUs)")
def torus_spec(
    rows: int,
    cols: int,
    gpu_flops: float = 2.0e12,
    gpu_jitter: float = 0.05,
    gpu_overhead: float = 1e-4,
    host_flops: float = 1.5e11,
    host_overhead: float = 5e-5,
    link_bandwidth: float = 12e9,
    link_latency: float = 2e-6,
    n_hosts: int = 1,
    host_bandwidth: float = 6e9,
    host_latency: float = 5e-6,
    name: str = "torus",
) -> MachineSpec:
    """A ``rows``×``cols`` 2-D torus machine, one GPU per torus node.

    The other large-p interconnect of the `scaling` family: neighbour links
    only, so ring allreduce maps onto physical links while PS traffic
    converges on the ``n_hosts`` host attachment points.
    """
    topo = build_torus_topology(
        rows=rows,
        cols=cols,
        link_bandwidth=link_bandwidth,
        link_latency=link_latency,
        n_hosts=n_hosts,
        host_bandwidth=host_bandwidth,
        host_latency=host_latency,
        name=f"{name}-topo",
    )
    devs = _gpu_specs(
        [f"t{r}_{c}" for r in range(rows) for c in range(cols)],
        gpu_flops,
        gpu_jitter,
        gpu_overhead,
    )
    hosts = [f"host{h}" for h in range(n_hosts)] if n_hosts > 1 else ["host"]
    for hname in hosts:
        devs[hname] = DeviceSpec(
            name=hname, flops=host_flops, jitter=0.02, overhead=host_overhead, kind="cpu"
        )
    return MachineSpec(name=name, topology=topo, device_specs=devs, host=hosts[0])
