"""Exactness contract of the vectorised wave fabric (repro.comm.fastfabric).

Every assertion here pins the vector mode to the per-message reference:

* byte/message counters must be *identical* to simulating each transfer
  through :meth:`Fabric._transfer` (busy-seconds agree to float rounding —
  the vector path computes ``nbytes * (1/bw)`` where the scalar path
  computes ``nbytes / bw``);
* wave spans are bit-equal where the docstring promises exactness
  (uncontended waves, parameter-server stars, disjoint single-hop rounds
  such as the torus ring);
* the hierarchical allreduce schedule the wave model prices is the same
  one :mod:`repro.comm.schedule` writes and the fabric actually runs,
  so it is checked for numeric correctness too;
* a full epoch simulated in ``comm_mode="vector"`` moves exactly the same
  number of bytes as ``comm_mode="message"``.
"""

import numpy as np
import pytest

from repro.cluster.machine import Machine, power8_oss_spec, torus_spec
from repro.comm import (
    FastFabric,
    Fabric,
    allreduce_schedule,
    contiguous_groups,
    run_schedule,
    sim_channel,
)
from repro.harness.timing import TimingWorkload, simulate_epoch_time

TINY = TimingWorkload(
    name="tiny",
    param_bytes=4e6,
    train_flops_per_example=1e9,
    batch_size=128,
    n_train=2048,
)


def _counters(fabric):
    return (
        fabric.total_bytes,
        fabric.total_messages,
        dict(fabric.bytes_per_link),
        dict(fabric.messages_per_link),
        dict(fabric.busy_seconds_per_link),
    )


def _message_rounds(spec, rounds, contention=True):
    """Per-message reference: run each round's transfers concurrently, rounds
    back-to-back.  ``rounds`` is a list of (pairs, nbytes-scalar-or-list)."""
    m = Machine(spec, trace=False)
    fabric = Fabric(m.engine, m.topology, contention=contention)
    for pairs, nbytes in rounds:
        sizes = nbytes if isinstance(nbytes, (list, tuple)) else [nbytes] * len(pairs)
        for (src, dst), nb in zip(pairs, sizes):
            m.engine.spawn(fabric._transfer(src, dst, nb))
        m.engine.run()
    return m.engine.now, _counters(fabric)


def _fresh_fast(spec, contention=True):
    m = Machine(spec, trace=False)
    fabric = Fabric(m.engine, m.topology, contention=contention)
    return fabric, FastFabric(fabric)


def _assert_counters_match(got, want):
    """Bytes and message counts identical; busy-seconds to float rounding."""
    assert got[0] == want[0]  # total_bytes
    assert got[1] == want[1]  # total_messages
    assert got[2] == want[2]  # bytes_per_link
    assert got[3] == want[3]  # messages_per_link
    assert got[4] == pytest.approx(want[4], rel=1e-12)


# -- single waves --------------------------------------------------------------


def test_ps_star_wave_span_and_counters_exact():
    # 8 GPUs pushing to the one host: every message holds the shared host
    # link, so the contended wave serialises into the busy sum — exact.
    spec = power8_oss_spec(n_gpus=8)
    pairs = [(f"gpu{i}", "host") for i in range(8)]
    ref_span, ref = _message_rounds(spec, [(pairs, 1e6)])
    fabric, fast = _fresh_fast(spec)
    span = fast.wave_span(pairs, 1e6)
    assert span == ref_span
    _assert_counters_match(_counters(fabric), ref)


def test_uncontended_wave_span_is_max_duration():
    spec = power8_oss_spec(n_gpus=8)
    pairs = [(f"gpu{i}", "host") for i in range(8)]
    ref_span, ref = _message_rounds(spec, [(pairs, 1e6)], contention=False)
    fabric, fast = _fresh_fast(spec, contention=False)
    span = fast.wave_span(pairs, 1e6)
    assert span == ref_span
    _assert_counters_match(_counters(fabric), ref)


def test_per_pair_sizes_and_self_pairs():
    # mixed sizes in one wave (the PS volley case: shard slices differ by one
    # itemsize) and a free self-pair, repeated over several waves
    spec = power8_oss_spec(n_gpus=4)
    pairs = [("gpu0", "host"), ("gpu1", "host"), ("gpu2", "gpu2")]
    sizes = [1e6, 1e6 + 4, 5e5]
    waves = 3
    ref_span, ref = _message_rounds(spec, [(pairs, sizes)] * waves)
    fabric, fast = _fresh_fast(spec)
    span = fast.wave_span(pairs, sizes, waves=waves)
    assert span == ref_span
    _assert_counters_match(_counters(fabric), ref)


def test_empty_wave_is_free():
    spec = power8_oss_spec(n_gpus=2)
    fabric, fast = _fresh_fast(spec)
    assert fast.wave_span([], 1e6) == 0.0
    assert fabric.total_messages == 0


# -- collectives ---------------------------------------------------------------

# a Hamiltonian ring over the 2x4 torus: every hop is its own physical link,
# so each ring round is a disjoint single-hop wave — the exact regime
RING = ["t0_0", "t0_1", "t0_2", "t0_3", "t1_3", "t1_2", "t1_1", "t1_0"]


def test_ring_allreduce_span_and_counters_exact_on_torus():
    spec = torus_spec(2, 4)
    p, nbytes = len(RING), 8e5
    pairs = [(RING[i], RING[(i + 1) % p]) for i in range(p)]
    ref_span, ref = _message_rounds(spec, [(pairs, nbytes / p)] * (2 * (p - 1)))
    fabric, fast = _fresh_fast(spec)
    span = fast.allreduce_span(RING, nbytes, algorithm="ring")
    assert span == ref_span
    _assert_counters_match(_counters(fabric), ref)


def test_tree_allreduce_counters_exact_on_torus():
    from repro.comm.fastfabric import _broadcast_rounds, _reduce_rounds

    spec = torus_spec(2, 4)
    nbytes = 8e5
    rounds = [(prs, nbytes) for prs in _reduce_rounds(RING) + _broadcast_rounds(RING)]
    ref_span, ref = _message_rounds(spec, rounds)
    fabric, fast = _fresh_fast(spec)
    span = fast.allreduce_span(RING, nbytes, algorithm="tree")
    assert span == pytest.approx(ref_span, rel=1e-12)
    _assert_counters_match(_counters(fabric), ref)


def test_recursive_doubling_counters_exact_on_torus():
    # rank i <-> i^mask routes overlap on the torus, so the span is a model
    # of the wave (not the per-message serialisation) — but the traffic it
    # books must still be identical
    spec = torus_spec(2, 4)
    p, nbytes = len(RING), 8e5
    rounds = []
    mask = 1
    while mask < p:
        rounds.append(([(RING[i], RING[i ^ mask]) for i in range(p)], nbytes))
        mask <<= 1
    _, ref = _message_rounds(spec, rounds)
    fabric, fast = _fresh_fast(spec)
    fast.allreduce_span(RING, nbytes, algorithm="recursive_doubling")
    _assert_counters_match(_counters(fabric), ref)


def test_recursive_doubling_non_pow2_falls_back_to_ring():
    spec = torus_spec(2, 4)
    nodes = RING[:6]
    fabric_a, fast_a = _fresh_fast(spec)
    fabric_b, fast_b = _fresh_fast(spec)
    span_rd = fast_a.allreduce_span(nodes, 8e5, algorithm="recursive_doubling")
    span_ring = fast_b.allreduce_span(nodes, 8e5, algorithm="ring")
    assert span_rd == span_ring
    assert fabric_a.total_bytes == fabric_b.total_bytes


def test_plan_cache_reuses_route_computation():
    spec = power8_oss_spec(n_gpus=4)
    _, fast = _fresh_fast(spec)
    pairs = [("gpu0", "host"), ("gpu1", "host")]
    assert fast.plan(pairs) is fast.plan(list(pairs))


# -- hierarchical allreduce ----------------------------------------------------


def test_contiguous_groups_partition():
    assert contiguous_groups(8, 3) == [[0, 1, 2], [3, 4, 5], [6, 7]]
    assert contiguous_groups(4, 8) == [[0, 1, 2, 3]]
    with pytest.raises(ValueError):
        contiguous_groups(8, 0)


@pytest.mark.parametrize("p,group_size", [(4, 2), (8, 3), (8, 4)])
def test_hierarchical_allreduce_numerically_correct(p, group_size):
    # the schedule the wave model prices must actually compute the global sum
    spec = torus_spec(2, 4)
    m = Machine(spec, trace=False)
    fabric = Fabric(m.engine, m.topology, contention=False)
    names = [f"r{i}" for i in range(p)]
    eps = [fabric.attach(names[i], RING[i]) for i in range(p)]
    rng = np.random.default_rng(7)
    arrays = [rng.normal(size=16) for _ in range(p)]
    groups = contiguous_groups(p, group_size)
    results = {}

    def worker(rank):
        out = yield from run_schedule(
            sim_channel(eps[rank], names),
            allreduce_schedule("hierarchical", p, rank, groups),
            arrays[rank],
        )
        results[rank] = out

    procs = [m.engine.spawn(worker(i), name=names[i]) for i in range(p)]
    m.engine.run()
    expected = np.sum(arrays, axis=0)
    for proc in procs:
        assert proc.finished, f"{proc.name} deadlocked"
    for rank in range(p):
        np.testing.assert_allclose(results[rank], expected)


def test_hierarchical_rejects_bad_groups():
    spec = torus_spec(2, 4)
    m = Machine(spec, trace=False)
    fabric = Fabric(m.engine, m.topology, contention=False)
    names = [f"r{i}" for i in range(4)]
    eps = [fabric.attach(names[i], RING[i]) for i in range(4)]

    def worker(rank):
        yield from run_schedule(
            sim_channel(eps[rank], names),
            allreduce_schedule(
                "hierarchical", 4, rank, [[0, 1], [1, 2, 3]]  # rank 1 appears twice
            ),
            np.ones(4),
        )

    with pytest.raises(ValueError):
        m.engine.run_process(worker(0))


# -- whole epochs --------------------------------------------------------------


@pytest.mark.parametrize("algorithm", ["sasgd", "downpour"])
def test_vector_epoch_moves_identical_bytes(algorithm):
    kwargs = dict(workload=TINY, p=8, T=1, epochs=1, seed=3)
    message = simulate_epoch_time(algorithm, comm_mode="message", **kwargs)
    vector = simulate_epoch_time(algorithm, comm_mode="vector", **kwargs)
    assert vector.total_bytes_per_epoch == message.total_bytes_per_epoch
    assert vector.epoch_seconds > 0.0


def test_vector_mode_validated():
    with pytest.raises(ValueError):
        simulate_epoch_time("sasgd", TINY, p=2, T=1, comm_mode="telepathy")
