"""Microbenchmarks of the substrate itself (engine, fabric, conv kernel).

These guard the simulation's own performance: the event engine must stay far
cheaper than the NumPy gradient math it schedules, or the convergence
experiments' wall time would be dominated by bookkeeping.
"""

import time

import numpy as np

from repro.cluster import build_binary_tree_topology
from repro.comm import Fabric
from repro.nn import Conv2d
from repro.obs import active
from repro.runtime import SimCollective
from repro.sim import Delay, Engine


def test_engine_event_throughput(benchmark):
    """Schedule+resume cost of 10k timer events."""

    def run():
        eng = Engine()

        def ticker():
            for _ in range(10_000):
                yield Delay(1e-6)

        eng.spawn(ticker())
        eng.run()
        return eng.now

    now = benchmark(run)
    assert now > 0


def test_fabric_message_throughput(benchmark):
    """1 000 point-to-point messages across the PCIe tree with contention."""

    def run():
        eng = Engine()
        topo = build_binary_tree_topology(8)
        fab = Fabric(eng, topo, contention=True)
        a = fab.attach("a", "gpu0")
        fab.attach("b", "gpu7")

        def sender():
            for i in range(1_000):
                yield from a.send("b", ("t", i), None, nbytes=1024.0)

        eng.spawn(sender())
        eng.run()
        return fab.total_messages

    assert benchmark(run) == 1_000


def test_ring_allreduce_throughput(benchmark):
    """Full 8-rank ring allreduce of a 0.5M-float buffer (real math)."""

    def run():
        eng = Engine()
        topo = build_binary_tree_topology(8)
        fab = Fabric(eng, topo, contention=False)
        names = [f"r{i}" for i in range(8)]
        coll = SimCollective([fab.attach(names[i], f"gpu{i}") for i in range(8)], names)
        arrays = [np.full(506378, float(i), dtype=np.float32) for i in range(8)]
        out = {}

        def worker(rank):
            res = yield from coll.allreduce(rank, arrays[rank], ctx="m", algorithm="ring")
            out[rank] = res

        for i in range(8):
            eng.spawn(worker(i))
        eng.run()
        return out[0]

    result = benchmark(run)
    assert np.allclose(result, sum(range(8)))


def test_obs_disabled_overhead(benchmark):
    """With no ObsSession installed, instrumentation must cost <5% per message.

    The observability hooks on the fabric/PS/trainer hot paths reduce, when
    disabled, to one ``active()`` read plus a per-link dict increment and a
    ``None`` check.  This times exactly that guard sequence against the full
    per-message cost of the contended fabric workload and bounds the ratio.
    """

    def run():
        eng = Engine()
        topo = build_binary_tree_topology(8)
        fab = Fabric(eng, topo, contention=True)
        a = fab.attach("a", "gpu0")
        fab.attach("b", "gpu7")

        def sender():
            for i in range(1_000):
                yield from a.send("b", ("t", i), None, nbytes=1024.0)

        eng.spawn(sender())
        eng.run()
        return fab.total_messages

    assert benchmark(run) == 1_000
    assert active() is None  # the benchmark exercised the disabled path

    # message cost: best of 5 un-instrumented-scale repeats
    per_message = []
    for _ in range(5):
        t0 = time.perf_counter()
        run()
        per_message.append((time.perf_counter() - t0) / 1_000)

    # guard cost: the disabled-path work a message adds
    counts = {}
    hop = ("gpu0", "sw0_0")
    n = 100_000
    t0 = time.perf_counter()
    for _ in range(n):
        sess = active()
        counts[hop] = counts.get(hop, 0) + 1
        if sess is not None:
            pass
    per_guard = (time.perf_counter() - t0) / n

    assert per_guard < 0.05 * min(per_message)


def test_events_disabled_overhead(benchmark):
    """With no EventBus installed, ``emit()`` must add no measurable cost.

    Every event hook on the training hot paths (PS applies, faults, epoch
    records) reduces, when disabled, to one module-global read plus a
    ``None`` check inside :func:`repro.obs.events.emit`.  This times the
    full disabled-path call — including Python call overhead and the
    ``**data`` packing a real call site pays — against the per-message cost
    of the contended fabric workload and bounds the ratio.
    """
    from repro.obs.events import active_bus, emit

    def run():
        eng = Engine()
        topo = build_binary_tree_topology(8)
        fab = Fabric(eng, topo, contention=True)
        a = fab.attach("a", "gpu0")
        fab.attach("b", "gpu7")

        def sender():
            for i in range(1_000):
                yield from a.send("b", ("t", i), None, nbytes=1024.0)

        eng.spawn(sender())
        eng.run()
        return fab.total_messages

    assert benchmark(run) == 1_000
    assert active_bus() is None  # the benchmark exercised the disabled path

    # message cost: best of 5 un-instrumented-scale repeats
    per_message = []
    for _ in range(5):
        t0 = time.perf_counter()
        run()
        per_message.append((time.perf_counter() - t0) / 1_000)

    # disabled-emit cost: exactly what an instrumented call site pays
    n = 100_000
    t0 = time.perf_counter()
    for i in range(n):
        emit("ps_apply", source="learner0", op="push_pull", step=i)
    per_emit = (time.perf_counter() - t0) / n

    assert per_emit < 0.05 * min(per_message)


def test_conv_forward_backward_kernel(benchmark):
    """The hot kernel of every convergence experiment (bench-width conv)."""
    rng = np.random.default_rng(0)
    conv = Conv2d(16, 32, 3, padding=1, dtype=np.float32, rng=rng)
    x = rng.standard_normal((16, 16, 16, 16)).astype(np.float32)

    def step():
        y = conv.forward(x)
        return conv.backward(y)

    gx = benchmark(step)
    assert gx.shape == x.shape
