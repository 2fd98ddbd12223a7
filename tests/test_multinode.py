"""Tests for the multi-node cluster topology and machine preset."""

import numpy as np
import pytest

from repro.cluster import (
    Machine,
    build_multinode_topology,
    power8_cluster_spec,
)
from repro.comm import Fabric
from repro.runtime import SimCollective


def test_multinode_validation():
    with pytest.raises(ValueError):
        build_multinode_topology(0)


def test_single_node_degenerates_to_tree():
    topo = build_multinode_topology(1, gpus_per_node=4)
    assert "net" not in topo.graph
    assert "n0gpu0" in topo.graph and "n0host" in topo.graph


def test_two_nodes_connected_via_net():
    topo = build_multinode_topology(2, gpus_per_node=4)
    hops = topo.route("n0gpu0", "n1gpu0")
    assert ("n0host", "net") in hops or ("net", "n0host") in hops


def test_cross_node_bottleneck_is_network():
    topo = build_multinode_topology(
        2, gpus_per_node=4, network_bandwidth=1e9, tree_bandwidth=12e9
    )
    assert topo.bottleneck_bandwidth("n0gpu0", "n1gpu3") == 1e9
    assert topo.bottleneck_bandwidth("n0gpu0", "n0gpu1") == 12e9


def test_cluster_spec_structure():
    spec = power8_cluster_spec(3, gpus_per_node=4)
    assert len(spec.gpu_names) == 12
    assert spec.host == "n0host"
    m = Machine(spec, seed=0)
    placement = m.place_learners(24)
    assert placement[0] == "n0gpu0"
    res = m.residency(placement)
    assert all(v == 2 for v in res.values())


def test_intra_node_names_do_not_collide():
    topo = build_multinode_topology(2, gpus_per_node=4)
    # each node's switches were re-namespaced: node counts add up
    n0 = [n for n in topo.nodes if n.startswith("n0")]
    n1 = [n for n in topo.nodes if n.startswith("n1")]
    assert len(n0) == len(n1)
    assert set(n0) & set(n1) == set()


def test_allreduce_works_across_nodes():
    spec = power8_cluster_spec(2, gpus_per_node=2)
    m = Machine(spec, seed=0)
    fab = Fabric(m.engine, m.topology, contention=True)
    p = 4
    names = [f"r{i}" for i in range(p)]
    placement = m.place_learners(p)
    coll = SimCollective([fab.attach(names[i], placement[i]) for i in range(p)], names)
    results = {}

    def worker(rank):
        out = yield from coll.allreduce(
            rank, np.full(10, float(rank)), ctx="x", algorithm="ring"
        )
        results[rank] = out

    for i in range(p):
        m.engine.spawn(worker(i))
    m.engine.run()
    for rank in range(p):
        assert np.allclose(results[rank], sum(range(p)))
    # cross-node traffic actually used the network links
    net_bytes = sum(v for k, v in fab.bytes_per_link.items() if "net" in k)
    assert net_bytes > 0


def test_scaling_experiment_registry():
    from repro.harness import run_experiment

    r = run_experiment("scaling", p_values=(8,), n_nodes=2, T=1)
    algos = {row["algorithm"] for row in r.rows}
    assert algos == {"sasgd", "downpour"}
    by_algo = {row["algorithm"]: row["epoch_s"] for row in r.rows}
    assert by_algo["sasgd"] < by_algo["downpour"]


def test_averaging_experiment_registry():
    from repro.harness import run_experiment

    r = run_experiment("averaging", p=2, epochs=2, scale="unit")
    methods = {row["method"] for row in r.rows}
    assert methods == {"oneshot-averaging", "minibatch-averaging", "sasgd(T=4)"}
