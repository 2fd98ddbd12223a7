"""Unit tests for devices, topology and machine presets."""

import numpy as np
import pytest

from repro.cluster import (
    Device,
    DeviceSpec,
    LinkSpec,
    Machine,
    Topology,
    build_binary_tree_topology,
    power8_oss_spec,
)


# -- DeviceSpec / Device ------------------------------------------------------


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(flops=0),
        dict(flops=-1.0),
        dict(jitter=-0.1),
        dict(jitter=1.0),
        dict(overhead=-1e-3),
        dict(mps_share=0.0),
        dict(mps_share=1.5),
    ],
)
def test_device_spec_validation(kwargs):
    base = dict(name="g", flops=1e12)
    base.update(kwargs)
    with pytest.raises(ValueError):
        DeviceSpec(**base)


def test_compute_seconds_no_jitter():
    dev = Device(DeviceSpec(name="g", flops=1e9, jitter=0.0, overhead=1e-3))
    assert dev.compute_seconds(1e9) == pytest.approx(1.0 + 1e-3)


def test_compute_seconds_rejects_negative_flop():
    dev = Device(DeviceSpec(name="g", flops=1e9, jitter=0.0))
    with pytest.raises(ValueError):
        dev.compute_seconds(-1.0)


def test_jitter_factor_mean_is_one():
    dev = Device(DeviceSpec(name="g", flops=1e9, jitter=0.2), np.random.default_rng(0))
    samples = [dev.jitter_factor() for _ in range(20000)]
    assert np.mean(samples) == pytest.approx(1.0, rel=0.01)


def test_jitter_disabled_is_exactly_one():
    dev = Device(DeviceSpec(name="g", flops=1e9, jitter=0.0))
    assert dev.jitter_factor() == 1.0


def test_mps_share_slows_compute():
    full = Device(DeviceSpec(name="g", flops=1e9, jitter=0.0))
    half = Device(DeviceSpec(name="g", flops=1e9, jitter=0.0, mps_share=0.5))
    assert half.compute_seconds(1e9) == pytest.approx(2 * full.compute_seconds(1e9))


def test_device_rng_determinism():
    mk = lambda: Device(DeviceSpec(name="g", flops=1e9, jitter=0.1), np.random.default_rng(7))
    a, b = mk(), mk()
    assert [a.jitter_factor() for _ in range(5)] == [b.jitter_factor() for _ in range(5)]


# -- Topology ------------------------------------------------------------------


def test_link_spec_validation():
    with pytest.raises(ValueError):
        LinkSpec("a", "b", bandwidth=0)
    with pytest.raises(ValueError):
        LinkSpec("a", "b", bandwidth=1e9, latency=-1.0)


def test_topology_rejects_unknown_node_in_link():
    with pytest.raises(ValueError, match="unknown node"):
        Topology("t", ["a"], [LinkSpec("a", "b", 1e9)])


def test_topology_rejects_duplicate_links():
    with pytest.raises(ValueError, match="duplicate"):
        Topology(
            "t", ["a", "b"], [LinkSpec("a", "b", 1e9), LinkSpec("b", "a", 1e9)]
        )


def test_topology_rejects_disconnected():
    with pytest.raises(ValueError, match="not connected"):
        Topology("t", ["a", "b", "c"], [LinkSpec("a", "b", 1e9)])


def test_topology_rejects_no_nodes():
    with pytest.raises(ValueError, match="no nodes"):
        Topology("t", [], [])


def test_binary_tree_structure():
    topo = build_binary_tree_topology(8)
    gpus = [f"gpu{i}" for i in range(8)]
    for g in gpus:
        assert g in topo.graph
    assert "host" in topo.graph
    # 8 leaves -> 7 switches -> 8+7+1 nodes, 14 tree links + 1 host link
    assert topo.graph.number_of_nodes() == 16
    assert len(topo.links) == 15


def test_binary_tree_requires_power_of_two():
    with pytest.raises(ValueError):
        build_binary_tree_topology(6)


def test_binary_tree_single_leaf():
    topo = build_binary_tree_topology(1)
    assert topo.route("gpu0", "host")


def test_route_is_symmetric_in_hops():
    topo = build_binary_tree_topology(8)
    fwd = topo.route("gpu0", "gpu7")
    rev = topo.route("gpu7", "gpu0")
    assert sorted(fwd) == sorted(rev)


def test_route_adjacent_leaves_short():
    topo = build_binary_tree_topology(8)
    assert len(topo.route("gpu0", "gpu1")) == 2  # via their shared switch
    assert len(topo.route("gpu0", "gpu7")) == 6  # across the root


def test_route_to_self_is_empty():
    topo = build_binary_tree_topology(4)
    assert topo.route("gpu0", "gpu0") == []


def test_bottleneck_bandwidth_host_channel():
    topo = build_binary_tree_topology(8, tree_bandwidth=12e9, host_bandwidth=6e9)
    assert topo.bottleneck_bandwidth("gpu0", "host") == 6e9
    assert topo.bottleneck_bandwidth("gpu0", "gpu7") == 12e9


def test_route_caching_returns_same_object():
    topo = build_binary_tree_topology(4)
    assert topo.route("gpu0", "gpu3") is topo.route("gpu0", "gpu3")


# -- Machine ------------------------------------------------------------------


def test_power8_spec_has_8_gpus_and_host():
    spec = power8_oss_spec()
    assert len(spec.gpu_names) == 8
    assert spec.host == "host"


def test_machine_devices_built():
    m = Machine(power8_oss_spec(), seed=0)
    assert set(m.devices) == {f"gpu{i}" for i in range(8)} | {"host"}


def test_place_learners_round_robin():
    m = Machine(power8_oss_spec(), seed=0)
    assert m.place_learners(4) == ["gpu0", "gpu1", "gpu2", "gpu3"]
    placement16 = m.place_learners(16)
    assert placement16[:8] == placement16[8:]  # two learners per GPU


def test_residency_counts():
    m = Machine(power8_oss_spec(), seed=0)
    res = m.residency(m.place_learners(16))
    assert all(v == 2 for v in res.values())


def test_machine_seed_determinism():
    a = Machine(power8_oss_spec(), seed=3)
    b = Machine(power8_oss_spec(), seed=3)
    assert a.devices["gpu0"].jitter_factor() == b.devices["gpu0"].jitter_factor()


def test_machine_different_seeds_differ():
    a = Machine(power8_oss_spec(), seed=3)
    b = Machine(power8_oss_spec(), seed=4)
    assert a.devices["gpu0"].jitter_factor() != b.devices["gpu0"].jitter_factor()


def test_spawn_rngs_independent():
    m = Machine(power8_oss_spec(), seed=0)
    r1, r2 = m.spawn_rngs(2)
    assert r1.random() != r2.random()


def test_machine_spec_validates_device_membership():
    from repro.cluster.machine import MachineSpec

    topo = build_binary_tree_topology(2)
    with pytest.raises(ValueError):
        MachineSpec(
            name="bad",
            topology=topo,
            device_specs={"nope": DeviceSpec(name="nope", flops=1e9)},
        )
