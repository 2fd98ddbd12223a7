"""The mp transport's hand-offs: barrier wake-up and the PS mailbox channel.

``test_mp_starvation.py`` pins what a failed round *reports*; this file pins
how one process hands work to another — the bounded yield-spin of
:class:`PollingBarrier` (progress, dead-peer abort and timeout in both the
spin and the sleep phase, the heartbeat thread alive meanwhile) and the
shared-memory mailbox + header pipes of the parameter server (bit-equality
with the :class:`ShardState` oracle, the fused push and its legs in flight
under one stamp included; stale headers, same-``seq`` resends, a
shard that never drains its pipe, segment cleanup).
"""

import multiprocessing
import os
import threading
import time
from multiprocessing import shared_memory

import numpy as np
import pytest

from repro.faults.plan import RetryPolicy
from repro.faults.supervisor import HeartbeatThread, LivenessBlock, PollingBarrier
from repro.runtime import RetryBudgetExhausted
from repro.runtime.mp_backend import MPParameterServer, _unlink_quietly
from repro.runtime.process_backend import ShardState

HAVE_FORK = "fork" in multiprocessing.get_all_start_methods()
needs_fork = pytest.mark.skipif(not HAVE_FORK, reason="mp backend needs fork")


def _segment_exists(name: str) -> bool:
    return os.path.exists(os.path.join("/dev/shm", name.lstrip("/")))


# --------------------------------------------------------------------------
# barrier wake-up
# --------------------------------------------------------------------------


class SpinOnly(PollingBarrier):
    """Never reaches the sleep loop: whatever happens, happens while spinning."""

    SPIN_PROBES = 10**9


class SleepOnly(PollingBarrier):
    SPIN_PROBES = 0


@needs_fork
def test_barrier_rounds_stay_within_one_of_each_other_oversubscribed():
    # 3 ranks on (at most) 2 cores: a yielded core must reach the peer that
    # still has to arrive.  After a rank leaves round r every peer has
    # published r and may at most have entered r + 1
    p, rounds = 3, 2000
    ctx = multiprocessing.get_context("fork")
    block = LivenessBlock(p, ["coll"])

    def rank_main(rank: int) -> None:
        barrier = PollingBarrier(block, "coll", rank)
        arrivals = block.arrivals["coll"]
        code = 0
        try:
            for r in range(1, rounds + 1):
                barrier.wait(10.0)
                seen = arrivals.copy()
                if seen.min() < r or seen.max() > r + 1:
                    code = 1
                    break
        except BaseException:
            code = 2
        os._exit(code)

    procs = [ctx.Process(target=rank_main, args=(r,), daemon=True) for r in range(p)]
    try:
        for proc in procs:
            proc.start()
        for proc in procs:
            proc.join(timeout=20.0)
        assert [proc.exitcode for proc in procs] == [0] * p
        assert block.arrivals["coll"].tolist() == [rounds] * p
    finally:
        for proc in procs:
            if proc.is_alive():
                proc.terminate()
        block.close()


@pytest.mark.parametrize("barrier_cls", [SpinOnly, SleepOnly])
def test_barrier_dead_peer_aborts_the_waiter_in_either_phase(barrier_cls):
    block = LivenessBlock(2, ["coll"])
    try:
        barrier = barrier_cls(block, "coll", 0)
        killer = threading.Timer(0.05, block.declare_dead, args=(1, 11))
        killer.start()
        t0 = time.monotonic()
        with pytest.raises(PollingBarrier.DeadPeer) as err:
            barrier.wait(5.0)
        assert time.monotonic() - t0 < 0.25
        assert (err.value.rank, err.value.step) == (1, 11)
        killer.join()
        # the failed round left the barrier usable
        with pytest.raises(PollingBarrier.DeadPeer):
            barrier.wait(5.0)
    finally:
        block.close()


@pytest.mark.parametrize("barrier_cls", [SpinOnly, SleepOnly, PollingBarrier])
def test_barrier_live_peer_that_never_arrives_times_out(barrier_cls):
    block = LivenessBlock(2, ["coll"])
    try:
        t0 = time.monotonic()
        with pytest.raises(PollingBarrier.Timeout):
            barrier_cls(block, "coll", 0).wait(0.1)
        assert 0.1 <= time.monotonic() - t0 < 1.0
    finally:
        block.close()


def test_barrier_spin_is_bounded_then_sleeps():
    # a long wait must cost (almost) no CPU: the spin ends after SPIN_PROBES
    block = LivenessBlock(2, ["coll"])
    try:
        cpu0 = time.process_time()
        with pytest.raises(PollingBarrier.Timeout):
            PollingBarrier(block, "coll", 0).wait(0.5)
        assert time.process_time() - cpu0 < 0.25
    finally:
        block.close()


def test_heartbeat_keeps_stamping_while_its_rank_spins():
    block = LivenessBlock(2, ["coll"])
    heartbeat = HeartbeatThread(block, 0, interval=0.01).start()
    try:
        stamp0 = float(block.heartbeats[0])
        with pytest.raises(PollingBarrier.Timeout):
            SpinOnly(block, "coll", 0).wait(0.3)
        # ~30 stamps were due; the spinning main thread must not have
        # starved the heartbeat thread of the interpreter
        assert float(block.heartbeats[0]) - stamp0 > 0.2
    finally:
        heartbeat.stop()
        block.close()


class FakeClock:
    """The ``time`` and ``os`` a barrier sees: a monotonic clock that only
    moves when the barrier yields (by ``yield_seconds``) or sleeps (by the
    time asked), so how long each yield took is the test's to decide."""

    def __init__(self, yield_seconds: float) -> None:
        self.now = 0.0
        self.yield_seconds = yield_seconds
        self.yields = 0
        self.sleeps = []  # (yields so far, seconds)

    def monotonic(self) -> float:
        return self.now

    def sched_yield(self) -> None:
        self.yields += 1
        self.now += self.yield_seconds

    def sleep(self, seconds: float) -> None:
        self.sleeps.append((self.yields, seconds))
        self.now += seconds


def _wait_on_clock(monkeypatch, yield_seconds: float) -> tuple:
    """One barrier round nobody else joins, timed on a :class:`FakeClock`."""
    from repro.faults import supervisor

    block = LivenessBlock(2, ["coll"])
    clock = FakeClock(yield_seconds)
    monkeypatch.setattr(supervisor, "time", clock)
    monkeypatch.setattr(supervisor, "os", clock)
    try:
        barrier = PollingBarrier(block, "coll", 0)
        with pytest.raises(PollingBarrier.Timeout):
            barrier.wait(0.1)
    finally:
        block.close()
    return barrier, clock


def test_barrier_blocks_for_an_instant_when_its_yields_are_stolen(monkeypatch):
    # a yield that returns late ran somebody else on this core — with an idle
    # core next door if that was the peer.  Only a wake-up lets the scheduler
    # place the rank anew, so every NAP_EVERY-th stolen yield really sleeps
    barrier, clock = _wait_on_clock(
        monkeypatch, 4 * PollingBarrier.STOLEN_YIELD_SECONDS)
    spins, every = PollingBarrier.SPIN_PROBES, PollingBarrier.NAP_EVERY
    assert clock.yields == barrier._stolen == spins
    naps = [at for at, s in clock.sleeps if s < PollingBarrier.POLL_SECONDS]
    assert naps == list(range(every, spins + 1, every))
    assert all(s > 0 for _, s in clock.sleeps)
    # after the spin the waiter only polls asleep
    polls = clock.sleeps[len(naps):]
    assert polls and all(
        (at, s) == (spins, PollingBarrier.POLL_SECONDS) for at, s in polls)


def test_barrier_never_naps_when_its_yields_come_straight_back(monkeypatch):
    barrier, clock = _wait_on_clock(monkeypatch, 0.0)
    assert clock.yields == PollingBarrier.SPIN_PROBES
    assert barrier._stolen == 0
    assert clock.sleeps and all(
        at == PollingBarrier.SPIN_PROBES and s == PollingBarrier.POLL_SECONDS
        for at, s in clock.sleeps)


# --------------------------------------------------------------------------
# shared-memory teardown
# --------------------------------------------------------------------------


def test_unlink_quietly_unlinks_a_segment_that_is_still_viewed():
    shm = shared_memory.SharedMemory(create=True, size=64)
    view = np.ndarray((8,), dtype=np.float64, buffer=shm.buf)
    view[:] = 1.0
    try:
        _unlink_quietly(shm)  # close() raises BufferError under the view
        assert not _segment_exists(shm.name)
    finally:
        del view
        shm.close()
    _unlink_quietly(shm)  # torn down twice: still quiet


# --------------------------------------------------------------------------
# PS mailbox channel
# --------------------------------------------------------------------------

SIZE = 10
LR = 0.5


@pytest.fixture
def make_ps():
    made = []

    def make(n_shards=1, timeout=5.0, start=True):
        ctx = multiprocessing.get_context("fork")
        ps = MPParameterServer(ctx, 1, SIZE, n_shards, LR, np.float32, timeout)
        made.append(ps)
        ps.set_params(np.linspace(-1.0, 1.0, SIZE, dtype=np.float32))
        if start:
            ps.start()
        return ps

    yield make
    for ps in made:
        ps.shutdown()


def _oracle(ps):
    """The same slices served in-process, no transport."""
    x = np.array(ps.x, copy=True)
    return x, [ShardState(x[lo:hi], LR) for lo, hi in ps.layout.bounds]


@needs_fork
@pytest.mark.parametrize("n_shards", [1, 2])
def test_push_pull_elastic_equal_the_shard_oracle_bit_for_bit(make_ps, n_shards):
    ps = make_ps(n_shards)
    x, shards = _oracle(ps)
    client = ps.client(0)
    rng = np.random.default_rng(n_shards)
    grad = rng.standard_normal(SIZE).astype(np.float32)
    local = rng.standard_normal(SIZE).astype(np.float32)

    client._push(grad)
    pulled = client._pull()
    e = client._elastic(local, 0.25)
    after = client._pull()
    fresh = client._push(local, pull=True)  # the fused exchange, all legs at once

    want_e = np.empty(SIZE, dtype=np.float32)
    for shard, (lo, hi) in zip(shards, ps.layout.bounds):
        shard.apply(0, 1, "push", grad[lo:hi])
        np.testing.assert_array_equal(pulled[lo:hi], shard.apply(0, 2, "pull", None)[1])
        want_e[lo:hi] = shard.apply(0, 3, "elastic", local[lo:hi], 0.25)[1]
        np.testing.assert_array_equal(after[lo:hi], x[lo:hi])
        shard.apply(0, 5, "push", local[lo:hi])
    np.testing.assert_array_equal(e, want_e)
    assert fresh.tobytes() == x.tobytes()
    assert client.staleness_samples == [0, 0]  # nothing landed since the pull
    ps.shutdown()
    np.testing.assert_array_equal(ps.x, x)
    assert ps.pushes_applied == 2 * n_shards and ps.versions == [3] * n_shards


@needs_fork
def test_header_older_than_the_stamp_is_not_applied(make_ps):
    ps = make_ps()
    x, (shard,) = _oracle(ps)
    channel = ps.client(0).channel
    grad = np.ones(SIZE, dtype=np.float32)
    channel.send(0, "push", 5, grad, None)
    assert channel.recv(2.0)[:3] == (0, 5, 1)
    # a header the rank abandoned (seq 3 < stamp 5): the dedupe cache only
    # remembers seq 5, so without the stamp this would be applied — with
    # whatever the request slot holds now
    ps._request_pipes[0][1].send(("push", 0, 3, True, None))
    channel.send(0, "pull", 6, None, None)
    sid, seq, version, array, error = channel.recv(2.0)
    assert (sid, seq, version, error) == (0, 6, 1, None)  # no reply to seq 3
    shard.apply(0, 5, "push", grad)
    np.testing.assert_array_equal(array, x)


@needs_fork
def test_same_seq_resend_is_answered_from_cache_into_the_reply_slot(make_ps):
    ps = make_ps()
    x, (shard,) = _oracle(ps)
    channel = ps.client(0).channel
    local = np.full(SIZE, 2.0, dtype=np.float32)
    channel.send(0, "elastic", 1, local, 0.5)
    first = channel.recv(2.0)
    ps._mail[0, 1, :] = np.nan  # the reply was lost; the slot is garbage
    channel.send(0, "elastic", 1, local, 0.5)
    again = channel.recv(2.0)
    assert again[:3] == first[:3] == (0, 1, 1)
    want = shard.apply(0, 1, "elastic", local, 0.5)[1]
    np.testing.assert_array_equal(first[3], want)
    np.testing.assert_array_equal(again[3], want)
    channel.send(0, "pull", 2, None, None)
    np.testing.assert_array_equal(channel.recv(2.0)[3], x)  # applied once


@needs_fork
def test_never_started_shard_costs_the_retry_budget_not_a_blocked_send(make_ps):
    ps = make_ps(timeout=0.3, start=False)
    ps.retry = RetryPolicy(max_retries=2, base_seconds=0.01)
    client = ps.client(0)
    grad = np.ones(SIZE, dtype=np.float32)
    t0 = time.monotonic()
    with pytest.raises(RetryBudgetExhausted) as err:
        client._push(grad)
    assert err.value.attempts == 2  # max_retries + 1 sends, none answered
    assert time.monotonic() - t0 < 2.0
    # nothing drains the pipe: far more headers than it holds must each
    # return at once (lost), never block the learner
    t0 = time.monotonic()
    for seq in range(10, 5010):
        client.channel.send(0, "push", seq, grad, None)
    assert time.monotonic() - t0 < 2.0
    assert client.channel.recv(0.01) is None


@needs_fork
def test_shutdown_leaves_no_segment_behind_a_referenced_client(make_ps):
    ps = make_ps(n_shards=2)
    client = ps.client(0)
    client._push(np.ones(SIZE, dtype=np.float32))
    names = [ps._shm.name, ps._mail_shm.name]
    assert all(_segment_exists(name) for name in names)
    ps.shutdown()
    assert client.channel is not None  # still referenced, still no segment
    assert not any(_segment_exists(name) for name in names)
