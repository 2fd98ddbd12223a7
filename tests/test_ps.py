"""Unit tests for the sharded parameter server."""

import numpy as np
import pytest

from repro.cluster import Machine, power8_oss_spec
from repro.comm import Fabric
from repro.ps import PSClient, ShardedParameterServer, ShardLayout
from repro.sim import Delay


def make_ps(size=10, n_shards=2, lr=0.1, timing_only=False, seed=0):
    machine = Machine(power8_oss_spec(), seed=seed)
    fabric = Fabric(machine.engine, machine.topology, contention=True)
    server = ShardedParameterServer(
        machine, fabric, size=size, n_shards=n_shards, learning_rate=lr,
        dtype=np.float64, timing_only=timing_only,
    )
    return machine, fabric, server


# -- ShardLayout ---------------------------------------------------------------


def test_layout_even_partition():
    layout = ShardLayout.even(10, 3)
    assert layout.n_shards == 3
    sizes = [hi - lo for lo, hi in layout.bounds]
    assert sum(sizes) == 10
    assert max(sizes) - min(sizes) <= 1
    # contiguous and ordered
    flat = [b for lo, hi in layout.bounds for b in (lo, hi)]
    assert flat == sorted(flat)


def test_layout_bounds_are_ints_and_downpour_rows_plain_floats():
    from repro.harness.experiments import scaling

    assert {type(b) for pair in ShardLayout.even(10, 3).bounds for b in pair} == {int}
    rows = scaling(p_values=(8,), topology="fat-tree").rows
    assert {row["algorithm"] for row in rows} == {"sasgd", "downpour"}
    # an np.int64 bound made every Downpour cell's clock, and so its row, np.float64
    assert {type(row[key]) for row in rows for key in ("epoch_s", "comm_%")} == {float}


def test_layout_validation():
    with pytest.raises(ValueError):
        ShardLayout.even(2, 3)
    with pytest.raises(ValueError):
        ShardLayout.even(10, 0)


def test_layout_slice_bytes():
    layout = ShardLayout.even(10, 2)
    assert layout.slice_bytes(0, 4) == 20.0


# -- push / pull ----------------------------------------------------------------


def test_push_applies_gradient_descent():
    machine, fabric, server = make_ps(size=10, n_shards=2, lr=0.5)
    x0 = np.arange(10, dtype=np.float64)
    server.set_params(x0)
    ep = fabric.attach("w", "gpu0")
    client = PSClient(server, ep)
    grad = np.ones(10)

    def learner():
        yield from client.push(grad)

    machine.engine.spawn(learner())
    machine.engine.run()
    assert np.allclose(server.x, x0 - 0.5 * grad)
    assert server.pushes_applied == 2  # one apply per shard


def test_pull_returns_current_params():
    machine, fabric, server = make_ps(size=8, n_shards=2)
    x0 = np.linspace(0, 1, 8)
    server.set_params(x0)
    ep = fabric.attach("w", "gpu0")
    client = PSClient(server, ep)
    out = {}

    def learner():
        x = yield from client.pull()
        out["x"] = x

    machine.engine.spawn(learner())
    machine.engine.run()
    assert np.allclose(out["x"], x0)


def test_set_params_shape_check():
    _, _, server = make_ps(size=8)
    with pytest.raises(ValueError):
        server.set_params(np.zeros(9))


def test_pushes_applied_in_arrival_order():
    """Two learners' pushes apply sequentially; the end state is the sum."""
    machine, fabric, server = make_ps(size=4, n_shards=1, lr=1.0)
    server.set_params(np.zeros(4))
    clients = []
    for i in range(2):
        ep = fabric.attach(f"w{i}", f"gpu{i}")
        clients.append(PSClient(server, ep))

    def learner(i):
        yield Delay(i * 1e-6)
        yield from clients[i].push(np.full(4, float(i + 1)))

    for i in range(2):
        machine.engine.spawn(learner(i))
    machine.engine.run()
    assert np.allclose(server.x, -3.0)


def test_staleness_zero_without_contention():
    machine, fabric, server = make_ps(size=4, n_shards=1)
    server.set_params(np.zeros(4))
    ep = fabric.attach("w", "gpu0")
    client = PSClient(server, ep)

    def learner():
        yield from client.pull()
        yield from client.push(np.ones(4))

    machine.engine.spawn(learner())
    machine.engine.run()
    assert client.staleness_samples == [0]


def test_staleness_counts_interleaved_pushes():
    machine, fabric, server = make_ps(size=4, n_shards=1)
    server.set_params(np.zeros(4))
    fast_ep = fabric.attach("fast", "gpu0")
    slow_ep = fabric.attach("slow", "gpu1")
    fast, slow = PSClient(server, fast_ep), PSClient(server, slow_ep)

    def slow_learner():
        yield from slow.pull()
        yield Delay(1.0)  # long compute: misses fast's pushes
        yield from slow.push(np.ones(4))

    def fast_learner():
        yield from fast.pull()
        for _ in range(3):
            yield from fast.push(np.ones(4))

    machine.engine.spawn(slow_learner())
    machine.engine.spawn(fast_learner())
    machine.engine.run()
    assert slow.staleness_samples[-1] == 3


def test_sharded_pull_can_mix_versions():
    """A pull that straddles a concurrent push sees inconsistent shards."""
    machine, fabric, server = make_ps(size=4, n_shards=2, lr=1.0)
    server.set_params(np.zeros(4))
    reader_ep = fabric.attach("reader", "gpu0")
    writer_ep = fabric.attach("writer", "gpu1")
    reader, writer = PSClient(server, reader_ep), PSClient(server, writer_ep)
    out = {}

    def read():
        x = yield from reader.pull()
        out["x"] = x

    def write():
        yield Delay(1e-7)  # lands between the reader's two shard requests
        yield from writer.push(np.ones(4))

    machine.engine.spawn(read())
    machine.engine.spawn(write())
    machine.engine.run()
    # the reader got *some* mixture; the end state on the server is consistent
    assert np.allclose(server.x, -1.0)
    assert out["x"].shape == (4,)


def test_elastic_moves_center_and_returns_e():
    machine, fabric, server = make_ps(size=6, n_shards=2)
    center0 = np.zeros(6)
    server.set_params(center0)
    ep = fabric.attach("w", "gpu0")
    client = PSClient(server, ep)
    x_local = np.full(6, 2.0)
    alpha = 0.25
    out = {}

    def learner():
        e = yield from client.elastic(x_local, alpha)
        out["e"] = e

    machine.engine.spawn(learner())
    machine.engine.run()
    expected_e = alpha * (x_local - center0)
    assert np.allclose(out["e"], expected_e)
    assert np.allclose(server.x, center0 + expected_e)


def test_elastic_fixed_point_is_agreement():
    """When x_local == center, the elastic exchange is a no-op."""
    machine, fabric, server = make_ps(size=4, n_shards=1)
    center = np.full(4, 3.0)
    server.set_params(center)
    ep = fabric.attach("w", "gpu0")
    client = PSClient(server, ep)
    out = {}

    def learner():
        e = yield from client.elastic(center.copy(), 0.5)
        out["e"] = e

    machine.engine.spawn(learner())
    machine.engine.run()
    assert np.allclose(out["e"], 0.0)
    assert np.allclose(server.x, center)


def test_timing_only_mode_skips_math():
    machine, fabric, server = make_ps(size=8, timing_only=True)
    assert server.x is None  # no parameter vector to hold
    with pytest.raises(TypeError, match="timing-only"):
        server.set_params(np.zeros(8))
    ep = fabric.attach("w", "gpu0")
    client = PSClient(server, ep)
    out = {}

    def learner():
        yield from client.push(None)
        x = yield from client.pull()
        out["x"] = x

    machine.engine.spawn(learner())
    machine.engine.run()
    assert out["x"] is None
    assert server.x is None and server.pushes_applied == server.layout.n_shards
    assert machine.engine.now > 0.0  # the schedule still took time


def test_requests_move_bytes_through_host_link():
    machine, fabric, server = make_ps(size=1000)
    server.set_params(np.zeros(1000))
    ep = fabric.attach("w", "gpu0")
    client = PSClient(server, ep)

    def learner():
        yield from client.push(np.ones(1000))
        yield from client.pull()

    machine.engine.spawn(learner())
    machine.engine.run()
    host_links = [k for k in fabric.bytes_per_link if "host" in k]
    assert sum(fabric.bytes_per_link[k] for k in host_links) >= 2 * 1000 * 8


def test_server_requires_host():
    machine = Machine(power8_oss_spec(), seed=0)
    machine.spec.__dict__["host"] = None  # simulate a host-less machine
    fabric = Fabric(machine.engine, machine.topology)
    with pytest.raises(ValueError, match="no host"):
        ShardedParameterServer(machine, fabric, size=4)
