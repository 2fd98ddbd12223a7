"""Correctness and traffic tests for the collective schedules, run by the
one executor: over an in-memory fake channel (every rank, every round) and
over the simulated fabric's channel."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import build_binary_tree_topology
from repro.comm import (
    ALLREDUCE_ALGORITHMS,
    Fabric,
    allgather_schedule,
    allreduce_schedule,
    broadcast_schedule,
    contiguous_groups,
    run_schedule,
)
from repro.comm.schedule import gather_start
from repro.runtime import SimCollective
from repro.sim import Engine


def finish(coroutine):
    """Drive a coroutine that never yields (a process backend's collective)
    to completion; returns its value."""
    try:
        command = next(coroutine)
    except StopIteration as done:
        return done.value
    raise AssertionError(f"a blocking collective yielded {command!r}")


def run_collective(p, fn_builder, contention=True, n_leaves=None):
    """SPMD-run a collective over the simulated fabric:
    fn_builder(coll, rank) -> coroutine, ``coll`` a :class:`SimCollective`."""
    if n_leaves is None:
        n_leaves = 1
        while n_leaves < p:
            n_leaves *= 2
        n_leaves = min(8, n_leaves)
    eng = Engine()
    topo = build_binary_tree_topology(max(1, n_leaves))
    fab = Fabric(eng, topo, contention=contention)
    names = [f"r{i}" for i in range(p)]
    eps = [fab.attach(names[i], f"gpu{i % n_leaves}") for i in range(p)]
    coll = SimCollective(eps, names)
    results = {}

    def worker(rank):
        out = yield from fn_builder(coll, rank)
        results[rank] = out

    procs = [eng.spawn(worker(i), name=names[i]) for i in range(p)]
    eng.run()
    for proc in procs:
        assert proc.finished, f"{proc.name} deadlocked"
    return results, fab, eng


# -- the executor over an in-memory channel --------------------------------------


class FakeWire:
    """Pieces in flight, keyed by (src, dst, round), and each rank's channel
    calls.  A channel posts its send, yields once so the driver can bring
    every rank to the same round, then takes its receive."""

    def __init__(self):
        self.pieces = {}
        self.calls = {}

    def channel(self, rank):
        self.calls[rank] = 0

        def channel(k, step, piece, size, into):
            self.calls[rank] += 1
            if step is not None and step.send is not None:
                self.pieces[rank, step.send_to, k] = piece.copy()
            yield ("round", k)
            if step is None or step.recv is None:
                return None
            return self.pieces.pop((step.recv_from, rank, k))

        return channel


def run_in_lockstep(wire, schedules, starts):
    """Drive one executor per rank a round at a time; returns the results."""
    live = {
        rank: run_schedule(wire.channel(rank), schedules[rank], starts[rank])
        for rank in range(len(schedules))
    }
    results = {}
    while live:
        for rank, gen in list(live.items()):
            try:
                next(gen)
            except StopIteration as done:
                results[rank] = done.value
                del live[rank]
    return results


@settings(max_examples=200, deadline=None)
@given(
    p=st.integers(min_value=1, max_value=9),
    op=st.sampled_from(sorted(ALLREDUCE_ALGORITHMS) + ["broadcast", "allgather"]),
    dtype=st.sampled_from([np.float32, np.float64]),
    data=st.data(),
)
def test_executor_over_a_fake_channel_ends_every_rank_on_the_same_bits(
    p, op, dtype, data
):
    n = data.draw(st.integers(min_value=0, max_value=2 * p + 3), label="n")
    seed = data.draw(st.integers(min_value=0, max_value=2**16), label="seed")
    rng = np.random.default_rng(seed)
    xs = [rng.integers(-50, 50, n).astype(dtype) for _ in range(p)]
    if op == "broadcast":
        root = data.draw(st.integers(min_value=0, max_value=p - 1), label="root")
        schedules = [broadcast_schedule(p, r, root) for r in range(p)]
        starts = [xs[r] if r == root else None for r in range(p)]
        want = xs[root]
    elif op == "allgather":
        schedules = [allgather_schedule(p, r) for r in range(p)]
        starts = [gather_start(p, r, xs[r]) for r in range(p)]
        want = np.concatenate(xs)
    else:
        size = data.draw(st.integers(min_value=1, max_value=p), label="group size")
        groups = contiguous_groups(p, size) if op == "hierarchical" else None
        schedules = [allreduce_schedule(op, p, r, groups) for r in range(p)]
        starts = xs
        want = np.sum(xs, axis=0, dtype=dtype)
    wire = FakeWire()
    results = run_in_lockstep(wire, schedules, starts)
    assert not wire.pieces  # every piece sent was taken
    for rank in range(p):
        # the channel sees every round, idle ones too: mp counts on that
        assert wire.calls[rank] == len(schedules[rank])
        assert results[rank].dtype == dtype
        assert results[rank].tobytes() == want.tobytes()


# -- broadcast -----------------------------------------------------------------


@pytest.mark.parametrize("p", [1, 2, 3, 4, 5, 8])
@pytest.mark.parametrize("root", [0, 1])
def test_broadcast_delivers_root_value(p, root):
    if root >= p:
        pytest.skip("root out of range")
    data = np.arange(7, dtype=np.float64)

    def build(coll, rank):
        arr = data if rank == root else None
        return coll.broadcast(rank, arr, root=root, nbytes=data.nbytes, ctx="b")

    results, _, _ = run_collective(p, build)
    for rank in range(p):
        assert np.array_equal(results[rank], data)


def test_broadcast_rank_validation():
    eng = Engine()
    topo = build_binary_tree_topology(1)
    fab = Fabric(eng, topo)
    coll = SimCollective([fab.attach("r0", "gpu0")], ["r0"])
    with pytest.raises(ValueError):
        eng.run_process(coll.broadcast(5, np.zeros(1)))


# -- reduce: the first half of the tree schedule ---------------------------------


def _reduce_schedule(p, rank):
    return allreduce_schedule("tree", p, rank)[: (p - 1).bit_length()]


def reduce(coll, rank, arr, ctx):
    schedule = _reduce_schedule(coll.p, rank)
    return run_schedule(coll.channel(rank, ctx, "reduce"), schedule, arr)


@pytest.mark.parametrize("p", [1, 2, 3, 4, 7, 8])
def test_reduce_sums_to_root(p):
    def build(coll, rank):
        arr = np.full(5, float(rank + 1))
        return reduce(coll, rank, arr, ctx="r")

    results, _, _ = run_collective(p, build)
    expected = sum(range(1, p + 1))
    assert np.allclose(results[0], expected)
    for rank in range(1, p):
        # a non-root retires after its one send: nothing reaches it later
        steps = [step for step in _reduce_schedule(p, rank) if step is not None]
        assert [step.send is not None for step in steps].count(True) == 1
        assert steps[-1].send is not None and steps[-1].recv is None


def test_reduce_does_not_mutate_input():
    def build(coll, rank):
        arr = np.full(3, float(rank))
        def inner():
            out = yield from reduce(coll, rank, arr, ctx="r")
            return (arr.copy(), out)
        return inner()

    results, _, _ = run_collective(4, build)
    for rank in range(4):
        original, _ = results[rank]
        assert np.allclose(original, rank)


# -- allgather -------------------------------------------------------------------


@pytest.mark.parametrize("p", [1, 2, 3, 5, 8])
def test_allgather_ring_collects_in_rank_order(p):
    def build(coll, rank):
        return coll.allgather(rank, np.array([float(rank), -rank]), ctx="g")

    results, _, _ = run_collective(p, build)
    want = np.array([[float(i), -i] for i in range(p)])
    for rank in range(p):
        assert results[rank].shape == (p, 2)
        assert np.array_equal(results[rank], want)


# -- allreduce: all algorithms, exact sums ----------------------------------------


@pytest.mark.parametrize("algo", sorted(ALLREDUCE_ALGORITHMS))
@pytest.mark.parametrize("p", [1, 2, 4, 8])
def test_allreduce_sum_pow2(algo, p):
    rng = np.random.default_rng(p)
    inputs = [rng.standard_normal(33) for _ in range(p)]
    expected = np.sum(inputs, axis=0)

    def build(coll, rank):
        return coll.allreduce(rank, inputs[rank], ctx=("a", algo), algorithm=algo)

    results, _, _ = run_collective(p, build)
    for rank in range(p):
        assert np.allclose(results[rank], expected), (algo, rank)


@pytest.mark.parametrize("algo", ["ring", "tree"])
@pytest.mark.parametrize("p", [3, 5, 6, 7])
def test_allreduce_sum_non_pow2(algo, p):
    rng = np.random.default_rng(p)
    inputs = [rng.standard_normal(10) for _ in range(p)]
    expected = np.sum(inputs, axis=0)

    def build(coll, rank):
        return coll.allreduce(rank, inputs[rank], ctx="a", algorithm=algo)

    results, _, _ = run_collective(p, build)
    for rank in range(p):
        assert np.allclose(results[rank], expected)


def test_recursive_doubling_rejects_non_pow2():
    # the builder itself; allreduce_schedule runs the ring under the name
    with pytest.raises(ValueError, match="power-of-two"):
        ALLREDUCE_ALGORITHMS["recursive_doubling"](3, 0)


def test_allreduce_dispatch_falls_back_to_ring_for_non_pow2():
    inputs = [np.full(4, float(r)) for r in range(3)]

    def build(coll, rank):
        return coll.allreduce(
            rank, inputs[rank], ctx="a", algorithm="recursive_doubling"
        )

    results, _, _ = run_collective(3, build)
    assert np.allclose(results[0], 0 + 1 + 2)


def test_allreduce_dispatch_unknown_algorithm():
    eng = Engine()
    topo = build_binary_tree_topology(1)
    fab = Fabric(eng, topo)
    coll = SimCollective([fab.attach("r0", "gpu0")], ["r0"])
    with pytest.raises(ValueError, match="unknown allreduce"):
        eng.run_process(coll.allreduce(0, np.zeros(1), algorithm="nope"))


def test_allreduce_does_not_mutate_inputs():
    inputs = [np.full(8, float(r)) for r in range(4)]
    snapshots = [arr.copy() for arr in inputs]

    def build(coll, rank):
        return coll.allreduce(rank, inputs[rank], ctx="a", algorithm="ring")

    run_collective(4, build)
    for arr, snap in zip(inputs, snapshots):
        assert np.array_equal(arr, snap)


def test_consecutive_allreduces_do_not_crosstalk():
    """Distinct ctx values keep rounds separate even when interleaved."""
    p = 4
    rng = np.random.default_rng(0)
    round1 = [rng.standard_normal(6) for _ in range(p)]
    round2 = [rng.standard_normal(6) for _ in range(p)]

    def build(coll, rank):
        def inner():
            a = yield from coll.allreduce(rank, round1[rank], ctx=1, algorithm="ring")
            b = yield from coll.allreduce(rank, round2[rank], ctx=2, algorithm="ring")
            return a, b

        return inner()

    results, _, _ = run_collective(p, build)
    for rank in range(p):
        a, b = results[rank]
        assert np.allclose(a, np.sum(round1, axis=0))
        assert np.allclose(b, np.sum(round2, axis=0))


@settings(max_examples=25, deadline=None)
@given(
    p=st.integers(min_value=1, max_value=8),
    size=st.integers(min_value=1, max_value=40),
    seed=st.integers(min_value=0, max_value=2**16),
    algo=st.sampled_from(["ring", "tree"]),
)
def test_allreduce_matches_numpy_sum_property(p, size, seed, algo):
    rng = np.random.default_rng(seed)
    inputs = [rng.standard_normal(size) for _ in range(p)]
    expected = np.sum(inputs, axis=0)

    def build(coll, rank):
        return coll.allreduce(rank, inputs[rank], ctx="h", algorithm=algo)

    results, _, _ = run_collective(p, build, contention=False)
    for rank in range(p):
        np.testing.assert_allclose(results[rank], expected, rtol=1e-10, atol=1e-10)


@settings(max_examples=15, deadline=None)
@given(
    p=st.sampled_from([1, 2, 4, 8]),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_allreduce_algorithms_agree_property(p, seed):
    rng = np.random.default_rng(seed)
    inputs = [rng.standard_normal(17) for _ in range(p)]
    outs = {}
    for algo in sorted(ALLREDUCE_ALGORITHMS):
        def build(coll, rank, algo=algo):
            return coll.allreduce(rank, inputs[rank], ctx=algo, algorithm=algo)

        results, _, _ = run_collective(p, build, contention=False)
        outs[algo] = results[0]
    base = outs.pop("ring")
    for algo, out in outs.items():
        np.testing.assert_allclose(out, base, rtol=1e-9)


# -- traffic accounting vs the closed-form counts ---------------------------------


@pytest.mark.parametrize("p", [2, 4, 8])
def test_tree_allreduce_traffic_matches_formula(p):
    nbytes = 1000.0

    def build(coll, rank):
        return coll.allreduce(rank, None, nbytes=nbytes, ctx="t", algorithm="tree")

    _, fab, _ = run_collective(p, build)
    # reduce: p-1 sends; broadcast: p-1 sends; all of m bytes
    assert fab.total_bytes == pytest.approx(2 * (p - 1) * nbytes)


@pytest.mark.parametrize("p", [2, 4, 8])
def test_ring_allreduce_per_rank_bytes(p):
    nbytes = 800.0

    def build(coll, rank):
        return coll.allreduce(rank, None, nbytes=nbytes, ctx="t", algorithm="ring")

    results, fab, _ = run_collective(p, build)
    # each rank sends 2(p-1) chunks of m/p bytes
    assert fab.total_bytes == pytest.approx(p * 2 * (p - 1) * nbytes / p)


@pytest.mark.parametrize("p", [2, 4, 8])
def test_recursive_doubling_traffic(p):
    nbytes = 512.0

    def build(coll, rank):
        return coll.allreduce(
            rank, None, nbytes=nbytes, ctx="t", algorithm="recursive_doubling"
        )

    _, fab, _ = run_collective(p, build)
    assert fab.total_bytes == pytest.approx(p * math.log2(p) * nbytes)


def test_timing_only_mode_returns_none():
    def build(coll, rank):
        return coll.allreduce(rank, None, nbytes=100.0, ctx="t", algorithm="ring")

    results, _, _ = run_collective(4, build)
    assert all(v is None for v in results.values())


def test_p1_allreduce_copies_not_aliases():
    arr = np.ones(4)

    def build(coll, rank):
        return coll.allreduce(rank, arr, ctx="t", algorithm="ring")

    results, _, _ = run_collective(1, build)
    assert np.array_equal(results[0], arr)
    assert results[0] is not arr
