"""Unit tests of the process-backend core (:mod:`repro.runtime.process_backend`).

The shard apply/dedupe loop, the PS client's retry protocol and the worker
payload builders are driven here against an in-memory fake channel — no
fork, no queue, no socket — so the behaviours the forked mp/net suites
reach only through multi-second runs are pinned in milliseconds.  The last
section runs the same protocol end to end on both transports.
"""

import multiprocessing
import threading
import time
from collections import deque
from types import SimpleNamespace

import numpy as np
import pytest

from repro.algos import (
    DownpourOptions,
    DownpourTrainer,
    SASGDOptions,
    SASGDTrainer,
    TrainerConfig,
)
from repro.algos.problems import cifar_problem
from repro.faults import FaultContext, FaultPlan
from repro.faults.plan import RetryPolicy
from repro.obs import events as obs_events
from repro.runtime import RetryBudgetExhausted, make_backend
from repro.runtime import process_backend as core
from repro.runtime.process_backend import (
    ProcessParameterServer,
    PSClient,
    ShardState,
)

HAVE_FORK = "fork" in multiprocessing.get_all_start_methods()
needs_fork = pytest.mark.skipif(not HAVE_FORK, reason="mp/net backends need fork")


# --------------------------------------------------------------------------
# ShardState
# --------------------------------------------------------------------------

X0 = [1.0, 2.0, 3.0]
G = np.array([10.0, 20.0, 30.0])

SHARD_TABLE = [
    # op, payload, alpha, expected xs, version, pushes, reply array, error
    ("push", G, None, [0.0, 0.0, 0.0], 1, 1, None, None),
    ("push", None, None, X0, 1, 1, None, None),
    ("push_pull", G, None, [0.0, 0.0, 0.0], 1, 1, [0.0, 0.0, 0.0], None),
    ("pull", None, None, X0, 0, 0, X0, None),
    ("elastic", G, 0.5, [5.5, 11.0, 16.5], 1, 0, [4.5, 9.0, 13.5], None),
    ("elastic", None, 0.5, X0, 1, 0, None, None),
    ("scale", None, None, X0, 0, 0, None, "unknown op 'scale'"),
]


@pytest.mark.parametrize(
    "op,payload,alpha,xs_after,version,pushes,array,error", SHARD_TABLE,
    ids=["push", "push-none", "fused", "pull", "elastic", "elastic-none", "unknown"],
)
def test_shard_state_applies_each_op(
    op, payload, alpha, xs_after, version, pushes, array, error
):
    xs = np.array(X0)
    state = ShardState(xs, learning_rate=0.1)
    got_version, got_array, got_error = state.apply(0, 1, op, payload, alpha)
    state.settle()
    np.testing.assert_allclose(xs, xs_after)
    assert (got_version, state.version, state.pushes) == (version, version, pushes)
    assert got_error == error
    if array is None:
        assert got_array is None
    else:
        np.testing.assert_allclose(got_array, array)
        assert not np.shares_memory(got_array, xs)  # a pull hands out a copy


def test_shard_state_answers_a_duplicate_seq_from_cache():
    xs = np.array(X0)
    state = ShardState(xs, learning_rate=0.1)
    first = state.apply(0, 7, "push", G)
    again = state.apply(0, 7, "push", G)  # the client resent seq 7
    assert again is first
    np.testing.assert_allclose(xs, [0.0, 0.0, 0.0])  # applied once
    assert (state.version, state.pushes, state.applies) == (1, 1, 1)
    # the cache is per rank, and a newer seq from the same rank applies
    assert state.apply(1, 7, "push", None)[0] == 2
    assert state.apply(0, 8, "push", None)[0] == 3
    # a fused push too: its cached reply carries the slice it answered with
    fused = state.apply(0, 9, "push_pull", G)
    assert state.apply(0, 9, "push_pull", G) is fused
    np.testing.assert_allclose(fused[1], [-1.0, -2.0, -3.0])
    np.testing.assert_allclose(xs, fused[1])  # applied once


def test_shard_state_snapshot_cadence_and_crash_after(monkeypatch):
    exits = []
    monkeypatch.setattr(core.os, "_exit", exits.append)
    snaps = []
    state = ShardState(
        np.array(X0), 0.1, crash_after=5, snapshot=snaps.append, snapshot_every=2
    )
    for seq in range(1, 6):
        state.apply(0, seq, "push" if seq % 2 else "elastic", None, 0.5)
        state.settle()
        state.apply(0, 100 + seq, "pull", None)  # pulls never snapshot
        state.settle()
        state.settle()  # settling twice is a no-op
    assert snaps == [2, 4]  # the version, every second apply
    assert exits == [core.PS_CRASH_EXIT]  # once, after the fifth apply's reply


# --------------------------------------------------------------------------
# PSClient against an in-memory channel
# --------------------------------------------------------------------------


class FakePS(ProcessParameterServer):
    """The handle surface PSClient reads, with no processes behind it."""

    def __init__(self, size=4, n_shards=1, timeout=0.2, lr=0.5):
        super().__init__(None, size, n_shards, lr, np.float64, timeout)
        self._x_local = np.zeros(size)
        self.shards = [
            ShardState(self._x_local[lo:hi], lr) for lo, hi in self.layout.bounds
        ]

    def client(self, rank, **channel_kwargs):
        return PSClient(self, rank, FakeChannel(self, rank, **channel_kwargs))

    def shutdown(self):
        pass


class FakeChannel:
    """Delivers each request straight into the shard's ShardState and queues
    the reply; ``silent`` shards swallow requests, ``recv`` never blocks
    (a silent wait costs ``tick`` seconds of real time) and hands out the
    queued replies oldest first, or newest first when ``newest_first``."""

    lost_where = ""

    def __init__(self, ps, rank, silent=(), tick=0.0, newest_first=False):
        self.ps = ps
        self.rank = rank
        self.silent = set(silent)
        self.tick = tick
        self.newest_first = newest_first
        self.sent = []
        self.recvs_before = []  # how many sends had happened at each recv
        self.inbox = deque()

    def send(self, sid, op, seq, payload, alpha):
        self.sent.append((sid, op, seq))
        if sid in self.silent:
            return
        shard = self.ps.shards[sid]
        self.inbox.append((sid, seq) + shard.apply(self.rank, seq, op, payload, alpha))
        shard.settle()

    def recv(self, wait):
        self.recvs_before.append(len(self.sent))
        if self.inbox:
            return self.inbox.pop() if self.newest_first else self.inbox.popleft()
        time.sleep(self.tick)
        return None


NO_SLEEP = RetryPolicy(max_retries=3, base_seconds=0.0)


def test_client_discards_stale_replies():
    ps = FakePS()
    client = ps.client(0)
    client._seq = 5  # the next request is seq 6
    client.channel.inbox.extend([
        (0, 4, 99, None, None),   # an abandoned attempt's late answer
        (1, 6, 99, None, None),   # right seq, wrong shard
    ])
    assert client._request("push", None)[0] == 1
    assert not client.channel.inbox
    assert ps.retries == 0


def test_client_sends_every_leg_before_it_awaits_the_first_reply():
    ps = FakePS(size=6, n_shards=3)
    client = ps.client(0)
    client._push(np.ones(6))
    channel = client.channel
    assert channel.sent == [(0, "push", 1), (1, "push", 1), (2, "push", 1)]
    assert channel.recvs_before == [3, 3, 3]  # one seq, three legs, then replies


@pytest.mark.parametrize("op", ["pull", "elastic", "fused"])
def test_client_takes_replies_in_any_shard_order(op):
    def run(**channel_kwargs):
        ps = FakePS(size=5, n_shards=2)
        ps.set_params(np.arange(5.0))
        client = ps.client(0, **channel_kwargs)
        if op == "pull":
            return client._pull()
        if op == "elastic":
            return client._elastic(np.ones(5), 0.5)
        return client._push(np.ones(5), pull=True)

    assert run(newest_first=True).tobytes() == run().tobytes()


def test_client_resends_only_the_silent_leg_and_names_it():
    ps = FakePS(size=4, n_shards=2)
    ps.install_faults(FaultPlan(), NO_SLEEP, "fail_fast")
    client = ps.client(0, silent=[1])
    with pytest.raises(RetryBudgetExhausted) as err:
        client._push(np.ones(4))
    assert client.channel.sent == [(0, "push", 1)] + [(1, "push", 1)] * 4
    assert "shard 1 gave no reply to 'push' after 4 attempts" in str(err.value)
    assert ps.shards[0].pushes == 1 and ps.retries == 3


def test_client_discards_a_second_answer_from_a_shard_already_in():
    ps = FakePS(size=4, n_shards=2)
    client = ps.client(0)
    # shard 0's answer to seq 1 is already waiting when the legs go out: the
    # one the send provokes is a duplicate and must not be counted again
    client.channel.inbox.append((0, 1, 40, np.full(2, 7.0), None))
    version_sum, out = client._request("pull", None)
    assert version_sum == 40 + 0
    np.testing.assert_array_equal(out, [7.0, 7.0, 0.0, 0.0])
    assert not client.channel.inbox and ps.retries == 0


def test_client_injected_drops_resend_the_same_seq_exactly():
    ps = FakePS()
    plan = FaultPlan.parse("drop:learner=0,nth=1,count=2")  # ops 1 and 2
    ps.install_faults(plan, NO_SLEEP, "fail_fast")
    client = ps.client(0)
    for _ in range(3):
        client._push(np.ones(4))
    assert ps.retries == 2
    assert dict(ps.fault_counts) == {"drop": 2}
    assert client.channel.sent == (
        [(0, "push", 1)] + [(0, "push", 2)] * 2 + [(0, "push", 3)] * 2
    )
    # the shard deduped the resends: three pushes applied, not five
    assert (ps.shards[0].version, ps.shards[0].pushes) == (3, 3)
    np.testing.assert_allclose(ps.x, -1.5)


def test_client_silent_shard_exhausts_the_typed_budget():
    ps = FakePS()
    ps.install_faults(FaultPlan(), NO_SLEEP, "fail_fast")
    client = ps.client(1, silent=[0])
    with pytest.raises(RetryBudgetExhausted) as err:
        client._pull()
    assert (err.value.learner_id, err.value.attempts) == (1, 3)
    assert str(err.value) == (
        "parameter-server shard 0 gave no reply to 'pull' after 4 attempts "
        "(~0.2s waited); learner1 exhausted its retry budget and the run "
        "deadlocked"
    )
    assert ps.retries == 3
    assert len(client.channel.sent) == 4  # the send + max_retries resends


def test_client_vanishing_replies_exhaust_the_typed_budget():
    ps = FakePS()
    plan = FaultPlan.parse(";".join(["drop:learner=0,nth=0"] * 4))
    ps.install_faults(plan, NO_SLEEP, "fail_fast")
    with pytest.raises(RetryBudgetExhausted) as err:
        ps.client(0)._push(np.ones(4))
    assert err.value.attempts == 3
    assert str(err.value) == (
        "parameter-server shard 0: replies to 'push' kept vanishing; "
        "learner0 exhausted its retry budget after 4 attempts and the run "
        "deadlocked"
    )
    assert dict(ps.fault_counts) == {"drop": 4}
    assert ps.shards[0].pushes == 1  # every resend hit the dedupe cache


def test_client_retry_deadline_ends_the_wait_before_the_budget():
    ps = FakePS()
    retry = RetryPolicy(max_retries=50, base_seconds=0.0, deadline_seconds=0.05)
    ps.install_faults(FaultPlan(), retry, "fail_fast")
    client = ps.client(0, silent=[0], tick=0.02)
    with pytest.raises(RetryBudgetExhausted) as err:
        client._push(np.ones(4))
    assert err.value.attempts < 50
    assert "retry deadline exceeded" in str(err.value)


def test_client_jittered_backoff_is_seeded_and_accumulated():
    def run(seed):
        ps = FakePS()
        retry = RetryPolicy(max_retries=3, base_seconds=1e-4, jitter=1.0)
        plan = FaultPlan.parse("drop:learner=0,nth=0,count=2", seed=seed)
        ps.install_faults(plan, retry, "fail_fast")
        ps.client(0)._push(None)
        return ps.backoff_seconds

    assert run(1) == run(1) > 0.0
    assert run(1) != run(2)


@pytest.mark.parametrize("n_shards", [1, 2])
def test_client_staleness_counts_pushes_since_the_last_pull(n_shards):
    ps = FakePS(size=4, n_shards=n_shards)
    mine, other = ps.client(0), ps.client(1)
    grad = np.ones(4)
    mine._pull()
    assert mine._push(grad) == 0  # nobody pushed in between
    mine._pull()
    other._push(grad)
    other._push(grad)
    # each of the two foreign pushes bumped every shard's version once
    assert mine._push(grad) == 2 * n_shards
    assert mine.staleness_samples == [0, 2 * n_shards]
    assert ps.bytes_moved == 6 * 4 * 8  # 4 pushes + 2 pulls of 4 float64
    np.testing.assert_allclose(mine._pull(), -2.0)


@pytest.mark.parametrize("n_shards", [1, 2])
def test_fused_push_equals_push_then_pull_bit_for_bit(n_shards):
    rng = np.random.default_rng(n_shards)
    x0, grads = rng.standard_normal(5), rng.standard_normal((2, 5))

    def run(fused):
        ps = FakePS(size=5, n_shards=n_shards, lr=0.3)
        ps.set_params(x0)
        mine, other = ps.client(0), ps.client(1)
        mine._pull()
        other._push(grads[1])
        if fused:
            fresh = mine._push(grads[0], pull=True)
        else:
            mine._push(grads[0])
            fresh = mine._pull()
        return ps, mine, fresh

    ps, mine, fresh = run(fused=True)
    ps2, mine2, fresh2 = run(fused=False)
    assert fresh.tobytes() == fresh2.tobytes() == ps.x.tobytes()
    # one staleness sample (the other rank's push, once per shard), and the
    # pull version is the exchange's own: the next push sees nothing stale
    assert mine.staleness_samples == mine2.staleness_samples == [n_shards]
    assert mine._pull_version == mine2._pull_version == 2 * n_shards
    # two requests' worth of bytes in half the requests
    assert ps.bytes_moved == ps2.bytes_moved
    assert len(mine.channel.sent) + n_shards == len(mine2.channel.sent)
    assert mine._push(None) == 0


def test_fused_push_is_two_fault_ordinals_and_its_resend_is_deduped():
    ps = FakePS()
    # ordinals: 0 the pull, 1 + 2 the exchange, 3 the pull after it
    plan = FaultPlan.parse(
        "drop:learner=0,nth=1,count=2;delay:learner=0,nth=2,seconds=0.001"
    )
    ps.install_faults(plan, NO_SLEEP, "fail_fast")
    client = ps.client(0)
    client._pull()
    client._push(np.ones(4), pull=True)
    assert client._op_ordinal == 3
    assert dict(ps.fault_counts) == {"drop": 2, "delay": 1}
    assert ps.retries == 2  # both ordinals' drops, stacked on the one leg
    assert client.channel.sent == [(0, "pull", 1)] + [(0, "push_pull", 2)] * 3
    assert ps.shards[0].pushes == 1  # the resends hit the dedupe cache
    np.testing.assert_allclose(client._pull(), -0.5)
    assert ps.retries == 2  # ordinal 3 is clean


def test_client_elastic_moves_center_and_returns_the_difference():
    ps = FakePS(size=4, n_shards=2)
    client = ps.client(0)
    e = client._elastic(np.full(4, 2.0), 0.25)
    np.testing.assert_allclose(e, 0.5)
    np.testing.assert_allclose(ps.x, 0.5)
    assert ps.bytes_moved == 2 * 4 * 8


def test_client_surfaces_an_error_reply():
    ps = FakePS()
    with pytest.raises(ValueError, match="unknown op 'scale'"):
        ps.client(0)._request("scale", None)


# --------------------------------------------------------------------------
# worker payloads and the parent's drain
# --------------------------------------------------------------------------


def _stub_trainer(ps=None, failure=None):
    backend = SimpleNamespace(
        name="mp", _ps=ps, _failure=failure, _comm_seconds=0.25,
        _worker_fault_counts={"straggle": 1},
        collective=SimpleNamespace(bytes_moved=100.0),
    )
    tape = SimpleNamespace(
        records=["epoch-1"], samples=64, epoch=1,
        rank_summary=lambda: {"samples": 32, "batches": 4},
    )
    flat = SimpleNamespace(data=np.arange(3.0))
    return SimpleNamespace(
        backend=backend, tape=tape,
        workloads=[SimpleNamespace(flat=flat), SimpleNamespace(flat=flat)],
        _worker_export=lambda lid: {"lid": lid},
    )


def test_worker_result_ships_rank0_records_and_client_counters():
    ps = FakePS()
    ps.retries, ps.backoff_seconds, ps.bytes_moved = 2, 0.5, 28.0
    ps.fault_counts["drop"] = 2
    trainer = _stub_trainer(ps)
    rank0 = core.worker_result(trainer, 0, wall=1.5)
    rank1 = core.worker_result(trainer, 1, wall=1.5)
    assert rank0["records"] == ["epoch-1"] and rank1["records"] is None
    np.testing.assert_array_equal(rank0["flat"], np.arange(3.0))
    assert rank1["flat"] is None
    assert rank1["export"] == {"lid": 1}
    assert rank0["bytes"] == 128.0
    assert (rank0["retries"], rank0["backoff"]) == (2, 0.5)
    assert rank0["fault_counts"] == {"drop": 2, "straggle": 1}
    assert (rank0["comm_seconds"], rank0["wall_seconds"]) == (0.25, 1.5)
    assert rank0["failed_at"] is None


def test_worker_error_carries_the_typed_failure_fields():
    trainer = _stub_trainer(failure=(1, 9))
    data = core.worker_error(trainer, RetryBudgetExhausted(1, 3, "gave up"))
    assert data["error"] == "RetryBudgetExhausted: gave up"
    assert data["retry_exhausted"] and data["attempts"] == 3
    assert (data["learner_id"], data["failed_at"]) == (1, 9)
    assert (data["retries"], data["fault_counts"]) == (0, {"straggle": 1})
    plain = core.worker_error(trainer, ValueError("boom"))
    assert not plain["retry_exhausted"] and plain["attempts"] == 0


class _ScriptedProbe:
    """A transport for the supervision loop: ``pump`` hands out one scripted
    batch of outcomes per pass (after ``wait`` seconds); ranks in ``lost``
    have cut connections, ranks in ``exited`` are provably gone."""

    def __init__(self, batches, lost=(), exited=(), wait=0.0):
        self.batches = deque(batches)
        self.lost_ranks = set(lost)
        self.exited_ranks = set(exited)
        self.wait = wait

    def pump(self, wait):
        time.sleep(self.wait)
        return self.batches.popleft() if self.batches else []

    def last_seen(self, rank):
        return time.monotonic()

    def exited(self, rank):
        return True if rank in self.exited_ranks else None

    def lost(self, rank):
        return rank in self.lost_ranks


def _supervise(probe, p, timeout=60.0, grace=None):
    deaths = []
    payloads, errors = core.supervise(
        probe, p, timeout, 5.0, lambda rank, latency: deaths.append(rank), grace
    )
    return payloads, errors, deaths


def test_supervise_sorts_payloads_from_errors_and_stops_on_the_dead(monkeypatch):
    monkeypatch.setattr(core, "DEAD_GRACE", 0.0)
    probe = _ScriptedProbe(
        [[("done", 0, {"a": 1})], [], [("error", 2, {"b": 2})]], lost={1, 3}
    )
    payloads, errors, deaths = _supervise(probe, 4)
    assert payloads == {0: {"a": 1}} and errors == {2: {"b": 2}}
    assert deaths == [1, 3]


def test_supervise_gives_each_payload_a_fresh_patience_budget():
    # patience is timeout + 10 s = 0.3 s here; five payloads 0.1 s apart
    # outlast it, and only the rank that never answers is given up on
    probe = _ScriptedProbe(
        [[("done", rank, {})] for rank in range(5)], wait=0.1
    )
    payloads, errors, deaths = _supervise(probe, 6, timeout=-9.7)
    assert sorted(payloads) == [0, 1, 2, 3, 4] and not errors and not deaths


def test_supervise_gives_a_lost_rank_the_reconnect_grace_unless_it_exited():
    batches = [[("done", 0, {})], [], [], [("done", 1, {})]]
    _, _, deaths = _supervise(
        _ScriptedProbe(batches, lost={1}, wait=0.05), 2, grace=1.0
    )
    assert deaths == []  # re-attached and finished inside the grace
    payloads, _, deaths = _supervise(
        _ScriptedProbe(batches, lost={1}, exited={1}, wait=0.05), 2, grace=1.0
    )
    assert deaths == [1]  # a process that exited cannot re-attach
    assert sorted(payloads) == [0, 1]  # what it flushed still counts


def test_death_rule_counts_heartbeat_staleness_from_the_seat():
    def dead(now, seen, exited=None, lost=False):
        return core.looks_dead(now, 0.0, seen, exited, lost, 120.0, 5.0)

    # not seated yet — a by-hand worker still being started owes no beat
    assert not dead(60.0, None)
    assert not dead(60.0, None, exited=False)
    assert dead(0.5, None, exited=True)  # its process died before the seat
    assert dead(0.5, None, lost=True)  # it hung up before the rendezvous
    assert dead(120.5, None)  # the rendezvous bound
    # seated at t = 100: staleness counts from there
    assert not dead(104.0, 100.0)
    assert dead(105.5, 100.0)
    assert dead(100.1, 100.0, lost=True)
    # an exit alone is no death once seated: the result may be in flight
    assert not dead(100.1, 100.0, exited=True)


# --------------------------------------------------------------------------
# the same protocol end to end, on both transports
# --------------------------------------------------------------------------


def _downpour(backend, timeout, spec):
    return DownpourTrainer(
        cifar_problem(scale="unit", seed=1),
        TrainerConfig(p=2, epochs=2, batch_size=8, lr=0.02, seed=3),
        DownpourOptions(T=2),
        backend=make_backend(backend, timeout=timeout) if backend else None,
        fault_ctx=FaultContext(plan=FaultPlan.parse(spec)),
    )


@needs_fork
@pytest.mark.parametrize(
    "backend,timeout", [("mp", 3.0), ("net", 5.0)], ids=["mp", "net"]
)
def test_ps_starvation_exhausts_retry_budget(backend, timeout):
    # four stacked drops of learner 0's first PS request outlast the default
    # 3-retry budget: the client must give up with a typed, shard-naming
    # RetryBudgetExhausted instead of hanging on the queue/socket forever
    spec = ";".join(["drop:learner=0,nth=0"] * 4)
    with pytest.raises(RetryBudgetExhausted) as err:
        _downpour(backend, timeout, spec).train()
    assert err.value.learner_id == 0
    assert err.value.attempts >= 3
    msg = str(err.value)
    assert "parameter-server shard" in msg
    assert "deadlocked" in msg


@needs_fork
@pytest.mark.parametrize(
    "backend,timeout", [("mp", 10.0), ("net", 30.0)], ids=["mp", "net"]
)
@pytest.mark.parametrize(
    "spec",
    [";".join(["drop:learner=0,nth=0"] * 2), "drop:learner=0,nth=1,count=2"],
    ids=["stacked", "count"],
)
def test_ps_drops_within_budget_are_retried_and_counted(backend, timeout, spec):
    # two deterministic drops of learner 0's replies: the same request seq is
    # resent, the shard's dedupe cache absorbs the duplicates, and the run
    # completes with the retries — and the backoff they slept — counted
    res = _downpour(backend, timeout, spec).train()
    assert res.records
    assert res.extras["ps_retries"] == 2  # deterministic: the counts are exact
    assert res.extras["ps_retry_backoff_seconds"] > 0.0


@pytest.mark.parametrize(
    "spec,virtual_seconds",
    [
        (";".join(["drop:learner=0,nth=0"] * 2), 0.15204487321690752),
        ("drop:learner=0,nth=1,count=2", 0.1020452986397787),
    ],
    ids=["stacked", "count"],
)
def test_sim_reads_the_same_plan_as_the_same_two_retries(spec, virtual_seconds):
    # on sim the exchange still runs as a push and a pull, an ordinal each:
    # the plan that costs mp/net two resends above costs sim two backoffs,
    # at the virtual time it had before the fused push existed, to the bit
    trainer = _downpour(None, None, spec)
    res = trainer.train()
    assert trainer.backend._retries_total == 2
    assert float(res.virtual_seconds) == virtual_seconds


class _ThreadRecorder(obs_events.Sink):
    """Notes the threads alive in this process at every event it receives."""

    def __init__(self):
        self.seen = []

    def emit(self, event):
        self.seen.append((event.kind, set(threading.enumerate())))


@needs_fork
@pytest.mark.parametrize(
    "backend,algo,faults,recovery",
    [
        ("mp", "sasgd", None, "fail_fast"),
        ("net", "downpour", None, "fail_fast"),
        ("mp", "downpour", "ps_crash:shard=0,push=5", "restart_shard"),
    ],
    ids=["mp-sasgd", "net-downpour", "mp-restart-shard"],
)
def test_the_parent_supervises_a_run_on_its_main_thread_alone(
    backend, algo, faults, recovery
):
    # results, republished worker events, liveness and the shard checks all
    # run in one loop on the calling thread: the parent starts no thread
    cls, options = (
        (SASGDTrainer, SASGDOptions(T=2)) if algo == "sasgd"
        else (DownpourTrainer, DownpourOptions(T=2))
    )
    trainer = cls(
        cifar_problem(scale="unit", seed=1),
        TrainerConfig(p=2, epochs=2, batch_size=8, lr=0.02, seed=3),
        options,
        backend=make_backend(backend, timeout=60.0),
        fault_ctx=faults and FaultContext(
            plan=FaultPlan.parse(faults), recovery=recovery
        ),
    )
    recorder = _ThreadRecorder()
    before = set(threading.enumerate())
    with obs_events.use_events(obs_events.EventBus(sinks=[recorder])):
        res = trainer.train()
    assert res.records
    kinds = [kind for kind, _ in recorder.seen]
    assert obs_events.EPOCH_PROGRESS in kinds  # forwarded from rank 0
    if recovery == "restart_shard":
        assert obs_events.RECOVERY_ACTION in kinds
        assert res.extras["ps_shard_restarts"] >= 1
    extra = [
        (kind, sorted(t.name for t in alive - before))
        for kind, alive in recorder.seen if alive - before
    ]
    assert not extra
