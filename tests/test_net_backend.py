"""End-to-end suite for the ``net`` (TCP socket) runtime backend.

Mirrors the mp-backend guarantees on real sockets:

* **Equivalence** — synchronous SASGD over sockets ends on the sim
  backend's bits (identical per-rank RNG streams, the same collective
  schedule); PS algorithms complete with finite losses.
* **Failure** — a killed learner process surfaces as a typed
  :class:`LearnerFailure` naming the victim, detected via connection loss;
  elastic recovery finishes the run with the survivors (injected frame
  drops and the retry budget: ``test_process_backend.py``, both transports).
* **Capability honesty** — options and recovery modes the backend cannot
  honour raise :class:`BackendCapabilityError` that names a backend that
  can, instead of a traceback.
* **Shard loop** — the frame channel against the :class:`ShardState`
  oracle, bit for bit; a shard process is one thread, and a client that
  stalls mid-frame or sends garbage loses its connection, nobody else's.
* **Telemetry** — :class:`TcpEventSink` hands a late subscriber one
  snapshot then live deltas; ``repro launch`` brings up a real loopback
  cluster from a spec file.
"""

import json
import multiprocessing
import socket
import threading
import time

import numpy as np
import pytest

from repro.algos import (
    DownpourOptions,
    DownpourTrainer,
    EAMSGDOptions,
    EAMSGDTrainer,
    SASGDOptions,
    SASGDTrainer,
    TrainerConfig,
)
from repro.algos.problems import cifar_problem
from repro.faults import FaultContext, FaultPlan
from repro.net import ClusterSpec, NetBackend
from repro.net import backend as net_backend
from repro.net.cluster import allocate_loopback, close_all
from repro.net.frames import parse_addr
from repro.net.events import TcpEventSink, iter_remote_events, strip_scheme
from repro.obs import events as obs_events
from repro.runtime import (
    BackendCapabilityError,
    LearnerFailure,
    make_backend,
)
from repro.runtime.process_backend import ShardState

HAVE_FORK = "fork" in multiprocessing.get_all_start_methods()
needs_fork = pytest.mark.skipif(not HAVE_FORK, reason="net backend needs fork")


def _p2_config(seed=3, epochs=2):
    return TrainerConfig(p=2, epochs=epochs, batch_size=8, lr=0.02, seed=seed)


def _make_trainer(algo, backend=None, fault_ctx=None, **opt_kwargs):
    problem = cifar_problem(scale="unit", seed=1)
    config = _p2_config()
    if algo == "sasgd":
        return SASGDTrainer(
            problem, config, SASGDOptions(T=2, **opt_kwargs),
            backend=backend, fault_ctx=fault_ctx,
        )
    if algo == "downpour":
        return DownpourTrainer(
            problem, config, DownpourOptions(T=2, **opt_kwargs),
            backend=backend, fault_ctx=fault_ctx,
        )
    return EAMSGDTrainer(
        problem, config, EAMSGDOptions(tau=2, **opt_kwargs),
        backend=backend, fault_ctx=fault_ctx,
    )


# --------------------------------------------------------------------------
# training equivalence on the socket substrate
# --------------------------------------------------------------------------


@needs_fork
def test_net_sasgd_matches_sim_within_tolerance():
    sim = _make_trainer("sasgd")
    sim_res = sim.train()
    net = _make_trainer("sasgd", backend=NetBackend(timeout=60.0))
    net_res = net.train()
    # identical per-rank RNG streams and the same allreduce schedule: the
    # same bits (the tolerance in the name is the one the test once had)
    assert np.array_equal(sim.workloads[0].flat.data, net.workloads[0].flat.data)
    assert net_res.records
    assert abs(sim_res.records[-1].test_acc - net_res.records[-1].test_acc) <= 0.1
    assert net.allreduce_count == sim.allreduce_count
    assert net_res.extras["backend"] == "net"
    assert net_res.extras["workers"] == 2
    # the address book the run actually used rides on the result
    spec = json.loads(net_res.extras["cluster_spec"])
    assert len(spec["worker"]) == 2


@needs_fork
@pytest.mark.parametrize("algo", ["downpour", "eamsgd"])
def test_net_ps_algorithms_complete(algo):
    trainer = _make_trainer(algo, backend=NetBackend(timeout=60.0))
    res = trainer.train()
    assert res.records, f"{algo} net run recorded no epochs"
    assert all(np.isfinite(r.train_loss) for r in res.records)
    assert res.extras["backend"] == "net"
    assert trainer.machine is None  # no simulated cluster was built
    assert trainer.server.layout.n_shards == 2
    # the drained shard state came back over STOP/STATS: params moved
    assert float(np.abs(np.asarray(trainer.server.x, np.float64)).sum()) > 0
    if algo == "downpour":
        assert trainer.server.pushes_applied > 0


# --------------------------------------------------------------------------
# the PS frame channel and the one-thread shard loop
# --------------------------------------------------------------------------

SIZE = 10
LR = 0.5


class _ThreadProbe(ShardState):
    """Answers the made-up op ``threads`` with the serving process's thread
    count (in the reply's error field) and everything else as usual."""

    def apply(self, rank, seq, op, payload, alpha=None):
        if op == "threads":
            return self.version, None, str(threading.active_count())
        return super().apply(rank, seq, op, payload, alpha)


def _probed_shard_main(ps, sid, listeners):
    net_backend.ShardState = _ThreadProbe
    net_backend._shard_child_main(ps, sid, listeners)


@pytest.fixture
def make_net_ps():
    made = []

    def make(n_shards=2, timeout=5.0):
        ctx = multiprocessing.get_context("fork")
        spec, listeners = allocate_loopback(0, n_shards)
        ps = net_backend.NetParameterServer(
            ctx, 2, SIZE, n_shards, LR, np.float32, timeout, addrs=spec.ps
        )
        made.append(ps)
        ps.set_params(np.linspace(-1.0, 1.0, SIZE, dtype=np.float32))
        ps._procs = [
            ps._fork_shard(_probed_shard_main, sid, listeners)
            for sid in range(n_shards)
        ]
        close_all(listeners)
        return ps

    yield make
    for ps in made:
        ps.shutdown()


@needs_fork
def test_frame_channel_equals_the_shard_oracle_bit_for_bit(make_net_ps):
    ps = make_net_ps(n_shards=2)
    x = np.array(ps.x, copy=True)
    shards = [ShardState(x[lo:hi], LR) for lo, hi in ps.layout.bounds]
    client = ps.client(0)
    rng = np.random.default_rng(2)
    grad, local, grad2 = rng.standard_normal((3, SIZE)).astype(np.float32)

    client._push(grad)
    pulled = client._pull()
    e = client._elastic(local, 0.25)
    fresh = client._push(grad2, pull=True)

    want_e = np.empty(SIZE, dtype=np.float32)
    for shard, (lo, hi) in zip(shards, ps.layout.bounds):
        shard.apply(0, 1, "push", grad[lo:hi])
        assert pulled[lo:hi].tobytes() == shard.apply(0, 2, "pull", None)[1].tobytes()
        want_e[lo:hi] = shard.apply(0, 3, "elastic", local[lo:hi], 0.25)[1]
        shard.apply(0, 4, "push", grad2[lo:hi])
    assert e.tobytes() == want_e.tobytes()
    assert fresh.tobytes() == x.tobytes()
    # the elastic in between moved each shard's version once since the pull
    assert client.staleness_samples == [0, 2]
    ps.shutdown()
    assert ps.x.tobytes() == x.tobytes()
    assert ps.pushes_applied == 4 and ps.versions == [3, 3]


@needs_fork
def test_shard_process_is_one_thread_and_outlives_a_stalled_client(
    make_net_ps, monkeypatch
):
    monkeypatch.setattr(net_backend, "_CLIENT_STALL", 0.2)  # inherited by fork
    ps = make_net_ps(n_shards=1, timeout=8.0)
    channel = ps.client(0).channel
    channel.send(0, "threads", 1, None, None)
    assert channel.recv(2.0)[4] == "1"  # no acceptor, no readers: the loop

    # one client sends half a frame header and goes quiet, another sends
    # bytes that are no frame at all
    stalled = socket.create_connection(parse_addr(ps.addrs[0]))
    stalled.sendall(b"rN\x01\x04" + b"\x00" * 6)
    garbage = socket.create_connection(parse_addr(ps.addrs[0]))
    garbage.sendall(b"GET / HTTP/1.1\r\n\r\n" + b"\x00" * 8)

    client = ps.client(1)
    grad = np.ones(SIZE, dtype=np.float32)
    t0 = time.monotonic()
    fresh = client._push(grad, pull=True)
    assert time.monotonic() - t0 < 1.5  # held for one stall bound at most
    assert ps.retries == 0
    np.testing.assert_array_equal(
        fresh, np.linspace(-1.0, 1.0, SIZE, dtype=np.float32) - LR * grad
    )
    for sock in (stalled, garbage):
        sock.settimeout(2.0)
        try:
            assert sock.recv(1) == b""  # the shard hung up on it
        except ConnectionResetError:
            pass  # hung up with our bytes unread: a reset, same verdict
        sock.close()
    channel.send(0, "threads", 2, None, None)  # the first client still has its line
    assert channel.recv(2.0)[4] == "1"
    ps.shutdown()  # STOP is still answered with STATS
    assert ps.pushes_applied == 1 and ps.versions == [1]


# --------------------------------------------------------------------------
# failure injection over real sockets
# --------------------------------------------------------------------------


@needs_fork
def test_net_killed_learner_detected_via_connection_loss():
    # the planned crash is a real os._exit in the learner process — no
    # farewell frame — so detection is purely the coordinator watching
    # the control connection drop
    trainer = _make_trainer(
        "sasgd",
        backend=NetBackend(timeout=30.0),
        fault_ctx=FaultContext(plan=FaultPlan.parse("crash:learner=1,step=3")),
    )
    with pytest.raises(LearnerFailure) as err:
        trainer.train()
    failure = err.value
    assert failure.learner_id == 1
    assert failure.step == 3
    assert "learner1 died after 3 local steps" in str(failure)
    assert "deadlocked" in str(failure)
    assert failure.detection_seconds is not None
    assert 0.0 <= failure.detection_seconds < 5.0


@needs_fork
def test_net_elastic_recovery_finishes_with_survivors():
    trainer = _make_trainer(
        "downpour",
        backend=NetBackend(timeout=60.0),
        fault_ctx=FaultContext(
            plan=FaultPlan.parse("crash:learner=1,step=6"), recovery="elastic"
        ),
    )
    res = trainer.train()  # learner 1 dies for real; the run must finish
    assert res.records
    assert all(np.isfinite(r.train_loss) for r in res.records)
    assert res.extras["backend"] == "net"


@needs_fork
def test_coordinator_loop_outlives_a_silent_and_a_stalled_control_peer(
    monkeypatch,
):
    # the coordinator's control plane is one loop on the parent's only
    # thread: a connection that never says HELLO, and one that stops half
    # way through a frame header, must cost it one stall bound at most
    bad = []

    def cluster_with_bad_peers(*args, **kwargs):
        spec, listeners = allocate_loopback(*args, **kwargs)
        silent = socket.create_connection(parse_addr(spec.coordinator))
        stalled = socket.create_connection(parse_addr(spec.coordinator))
        stalled.sendall(b"rN\x01\x04" + b"\x00" * 6)  # half a frame header
        bad.extend([silent, stalled])
        return spec, listeners

    monkeypatch.setattr(net_backend, "allocate_loopback", cluster_with_bad_peers)
    trainer = _make_trainer(
        "sasgd",
        backend=NetBackend(
            timeout=30.0, heartbeat_interval=0.1, heartbeat_timeout=1.0
        ),
        fault_ctx=FaultContext(plan=FaultPlan.parse("crash:learner=1,step=3")),
    )
    t0 = time.monotonic()
    with pytest.raises(LearnerFailure) as err:
        trainer.train()
    # the rendezvous went ahead (learner 1 reached its planned crash) and its
    # death was seen through the dropped connection, not a stale heartbeat
    assert err.value.step == 3
    assert err.value.detection_seconds < 1.0
    assert time.monotonic() - t0 < 15.0
    for sock in bad:
        sock.settimeout(2.0)
        try:
            assert sock.recv(1) == b""  # the coordinator hung up on it
        except ConnectionResetError:
            pass  # hung up with our bytes unread: a reset, same verdict
        sock.close()


def _by_hand_worker(cluster, task, delay):
    time.sleep(delay)
    backend = NetBackend(
        mode="worker", spec=cluster, task=task, timeout=30.0,
        heartbeat_interval=0.1, heartbeat_timeout=0.5,
    )
    _make_trainer("sasgd", backend=backend).train()  # exits the process


@needs_fork
def test_a_worker_started_after_the_heartbeat_timeout_is_not_dead():
    # `repro launch --print-commands` has the user start one role per
    # terminal: a worker owes no heartbeat before the rendezvous, so one
    # that comes up three heartbeat timeouts late joins a healthy run
    cluster, listeners = allocate_loopback(2, 0)
    close_all(listeners)
    ctx = multiprocessing.get_context("fork")
    workers = [
        ctx.Process(target=_by_hand_worker, args=(cluster, task, delay))
        for task, delay in ((0, 0.0), (1, 1.5))
    ]
    for proc in workers:
        proc.start()
    sink = obs_events.InMemorySink()
    try:
        coordinator = _make_trainer("sasgd", backend=NetBackend(
            mode="coordinator", spec=cluster, timeout=30.0,
            heartbeat_interval=0.1, heartbeat_timeout=0.5,
        ))
        with obs_events.use_events(obs_events.EventBus(sinks=[sink])):
            res = coordinator.train()
    finally:
        for proc in workers:
            proc.join(timeout=30.0)
            if proc.is_alive():
                proc.terminate()
    assert res.records and res.extras["workers"] == 2
    assert not [
        e for e in sink.events if e.kind == obs_events.FAILURE_DETECTED
    ]
    assert [proc.exitcode for proc in workers] == [0, 0]


# --------------------------------------------------------------------------
# reconnect-and-resume recovery: heal the session, keep the cohort
# --------------------------------------------------------------------------


@needs_fork
def test_net_reconnect_resumes_full_cohort_and_matches_sim():
    # a mid-run TCP disconnect under recovery="reconnect": the victim
    # re-dials, RESUME/RESUME_OK replays the un-acked frames, and the run
    # finishes with all p learners — no respawn, no degradation — landing
    # on the same bits as an undisturbed sim run: the replay re-delivers
    # the cut frames, so every sum is the one the schedule makes
    sim = _make_trainer("sasgd")
    sim.train()
    net = _make_trainer(
        "sasgd",
        backend=NetBackend(timeout=60.0),
        fault_ctx=FaultContext(
            plan=FaultPlan.parse("disconnect:learner=1,step=3"),
            recovery="reconnect",
        ),
    )
    sink = obs_events.InMemorySink()
    with obs_events.use_events(obs_events.EventBus(sinks=[sink])):
        res = net.train()
    assert res.records
    assert res.extras["workers"] == 2  # resumed, not degraded
    assert np.array_equal(sim.workloads[0].flat.data, net.workloads[0].flat.data)
    assert any(
        e.kind == obs_events.FAULT_INJECTED
        and e.data.get("fault") == "disconnect"
        for e in sink.events
    )
    resumes = [
        e.data for e in sink.events
        if e.kind == obs_events.RECOVERY_ACTION
        and e.data.get("action") == "reconnect"
    ]
    assert resumes, "no reconnect recovery event was emitted"
    assert resumes[0].get("mode") == "reconnect"
    assert resumes[0].get("learner") == 1


@needs_fork
@pytest.mark.parametrize("p, victim, step", [(2, 1, 7), (2, 0, 7), (4, 1, 3)])
def test_net_reconnect_resumes_a_cut_before_the_last_allreduce(p, victim, step):
    # recursive doubling sends once per link per allreduce: a frame written
    # into a link the victim has cut would be the last one on that link, so
    # the sender re-dials before it sends, not at a next send that never
    # comes (p = 2 runs 4 allreduces of 2 steps, p = 4 runs 2)
    config = TrainerConfig(p=p, epochs=2, batch_size=8, lr=0.02, seed=3)
    problem = cifar_problem(scale="unit", seed=1)
    sim = SASGDTrainer(problem, config, SASGDOptions(T=2))
    sim.train()
    net = SASGDTrainer(
        problem, config, SASGDOptions(T=2), backend=NetBackend(timeout=60.0),
        fault_ctx=FaultContext(
            plan=FaultPlan.parse(f"disconnect:learner={victim},step={step}"),
            recovery="reconnect",
        ),
    )
    res = net.train()
    assert res.extras["workers"] == p  # resumed, not degraded
    assert np.array_equal(sim.workloads[0].flat.data, net.workloads[0].flat.data)


@needs_fork
def test_net_reconnect_deadline_expiry_degrades_to_elastic():
    # reconnect_deadline=0 is the deterministic never-resume knob: the
    # victim's resume loop gives up immediately, the coordinator declares
    # it dead, and the reconnect policy degrades to an elastic restart
    # with the p-1 survivors
    trainer = _make_trainer(
        "downpour",
        backend=NetBackend(timeout=60.0, reconnect_deadline=0.0),
        fault_ctx=FaultContext(
            plan=FaultPlan.parse("disconnect:learner=1,step=6"),
            recovery="reconnect",
        ),
    )
    sink = obs_events.InMemorySink()
    with obs_events.use_events(obs_events.EventBus(sinks=[sink])):
        res = trainer.train()
    assert res.records
    assert all(np.isfinite(r.train_loss) for r in res.records)
    degraded = [
        e.data for e in sink.events
        if e.kind == obs_events.RECOVERY_ACTION
        and e.data.get("action") == "reconnect_degraded"
    ]
    assert degraded, "deadline expiry did not degrade to elastic"
    assert degraded[0]["failed_learner"] == 1
    assert degraded[0]["survivors"] == 1


def test_net_heartbeat_and_reconnect_options_validated():
    with pytest.raises(ValueError, match="heartbeat_interval"):
        NetBackend(heartbeat_interval=0.0)
    with pytest.raises(ValueError, match="heartbeat_timeout"):
        NetBackend(heartbeat_interval=1.0, heartbeat_timeout=0.5)
    with pytest.raises(ValueError, match="reconnect_deadline"):
        NetBackend(reconnect_deadline=-1.0)


def test_make_backend_exposes_detection_tuning():
    backend = make_backend(
        "net", heartbeat_interval=0.1, heartbeat_timeout=2.0,
        reconnect_deadline=5.0,
    )
    assert backend.heartbeat_interval == 0.1
    assert backend.heartbeat_timeout == 2.0
    assert backend.reconnect_deadline == 5.0
    mp_backend = make_backend(
        "mp", heartbeat_interval=0.1, heartbeat_timeout=2.0
    )
    assert mp_backend.heartbeat_timeout == 2.0
    with pytest.raises(ValueError, match="heartbeat_timeout"):
        make_backend("mp", heartbeat_interval=3.0, heartbeat_timeout=1.0)


def test_registry_notes_reconnect_and_heartbeat_tuning():
    from repro.spec import registry

    net_caps = registry.BACKENDS.meta("net")["capabilities"]
    assert "reconnect" in net_caps
    assert "heartbeat_interval=" in net_caps
    assert "reconnect_deadline=" in net_caps
    assert "heartbeat_interval=" in registry.BACKENDS.meta("mp")["capabilities"]


# --------------------------------------------------------------------------
# capability honesty: typed errors, not tracebacks
# --------------------------------------------------------------------------


def test_make_backend_net_rejects_sim_only_options():
    with pytest.raises(BackendCapabilityError) as err:
        make_backend("net", machine="power8")
    msg = str(err.value)
    assert "machine=" in msg
    assert "sim" in msg  # names the backend that does support it
    assert "repro list backends" in msg


def test_make_backend_net_accepts_its_own_options():
    backend = make_backend("net", timeout=30.0)
    assert isinstance(backend, NetBackend)
    assert backend.name == "net"


def test_net_rejects_restart_shard_recovery():
    backend = NetBackend(timeout=5.0)
    with pytest.raises(BackendCapabilityError, match="restart_shard"):
        backend.install_faults(
            FaultPlan.parse("ps_crash:shard=0,push=5"),
            recovery="restart_shard",
        )


def test_net_rejects_elastic_outside_fork_mode():
    cluster = ClusterSpec(
        coordinator="127.0.0.1:7470",
        workers=("127.0.0.1:7471", "127.0.0.1:7472"),
    )
    backend = NetBackend(mode="coordinator", spec=cluster, timeout=5.0)
    with pytest.raises(BackendCapabilityError, match="elastic"):
        backend.install_faults(
            FaultPlan.parse("crash:learner=1,step=3"), recovery="elastic"
        )


def test_registry_carries_capability_notes():
    from repro.spec import registry

    for name in ("sim", "mp", "net"):
        assert registry.BACKENDS.meta(name).get("capabilities")
    net_caps = registry.BACKENDS.meta("net")["capabilities"]
    assert "repro launch" in net_caps
    assert "restart_shard" in registry.BACKENDS.meta("mp")["capabilities"]


# --------------------------------------------------------------------------
# socket event streaming: snapshot + deltas to a live subscriber
# --------------------------------------------------------------------------


def test_tcp_event_sink_sends_snapshot_then_deltas():
    sink = TcpEventSink("tcp://127.0.0.1:0")
    try:
        # one event *before* the subscriber attaches: it must arrive
        # folded into the bootstrap snapshot, not be lost
        sink.emit(obs_events.Event(
            kind=obs_events.RUN_STARTED,
            data={"algo": "downpour", "p": 2, "backend": "net"},
            source="run", t=0.0, seq=1,
        ))
        stream = iter_remote_events(sink.addr, timeout=5.0)
        first = next(stream)
        assert first.kind == obs_events.SNAPSHOT
        assert first.data["status"] == "running"
        # live delta after attach
        sink.emit(obs_events.Event(
            kind=obs_events.EPOCH_PROGRESS,
            data={"epoch": 1, "train_loss": 2.3},
            source="run", t=0.5, seq=2,
        ))
        delta = next(stream)
        assert delta.kind == obs_events.EPOCH_PROGRESS
        assert delta.data["epoch"] == 1
        # publisher closing ends the stream (run over)
        sink.close()
        assert list(stream) == []
    finally:
        sink.close()


def test_remote_stream_replays_into_identical_snapshot():
    # the watcher contract: folding the socket stream into a fresh
    # RunSnapshot reconstructs the publisher's state
    sink = TcpEventSink("127.0.0.1:0")
    try:
        stream = iter_remote_events(sink.addr, timeout=5.0)
        first = next(stream)
        view = obs_events.RunSnapshot()
        view.apply(first)
        for seq, (kind, data) in enumerate([
            (obs_events.RUN_STARTED, {"algo": "sasgd", "p": 2}),
            (obs_events.EPOCH_PROGRESS, {"epoch": 1, "train_loss": 2.0}),
            (obs_events.RUN_FINISHED, {"status": "ok"}),
        ], start=1):
            sink.emit(obs_events.Event(
                kind=kind, data=data, source="run", t=float(seq), seq=seq,
            ))
        for _ in range(3):
            view.apply(next(stream))
        assert view.to_dict() == sink._snapshot.to_dict()
    finally:
        sink.close()


def test_strip_scheme():
    assert strip_scheme("tcp://127.0.0.1:7900") == "127.0.0.1:7900"
    assert strip_scheme("127.0.0.1:7900") == "127.0.0.1:7900"


# --------------------------------------------------------------------------
# repro launch: a real loopback cluster from a spec file
# --------------------------------------------------------------------------

_LAUNCH_SPEC = {
    "name": "launch_smoke",
    "problem": "cifar",
    "problem_args": {"scale": "unit", "seed": 1},
    "algorithm": "downpour",
    "options": {"T": 2, "n_shards": 1},
    "config": {"p": 2, "epochs": 1, "batch_size": 8, "lr": 0.02, "seed": 3},
    "backend": "net",
}


def test_parse_role():
    from repro.net.launch import parse_role

    assert parse_role("coordinator") == ("coordinator", 0)
    assert parse_role("worker:1") == ("worker", 1)
    assert parse_role("ps:0") == ("ps", 0)
    with pytest.raises(ValueError, match="unknown role"):
        parse_role("learner:0")
    with pytest.raises(ValueError, match="integer"):
        parse_role("worker:one")


def test_launch_print_commands_covers_every_role(tmp_path, capsys):
    from repro.net.launch import launch

    path = tmp_path / "spec.json"
    path.write_text(json.dumps(_LAUNCH_SPEC))
    assert launch(str(path), print_commands=True) == 0
    out = capsys.readouterr().out
    for role in ("coordinator:0", "ps:0", "worker:0", "worker:1"):
        assert f"--role {role}" in out
    assert "REPRO_CLUSTER_SPEC" in out


@needs_fork
def test_launch_propagates_role_death_as_nonzero_exit(tmp_path, capsys):
    # a worker role that dies (real os._exit, no farewell) must surface as
    # a non-zero launch exit — and as a message, not a traceback
    from repro.net.launch import launch

    spec = dict(_LAUNCH_SPEC)
    spec["faults"] = ["crash:learner=1,step=2"]
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    assert launch(str(path), timeout=60.0) != 0
    err = capsys.readouterr().err
    assert "launch failed" in err
    assert "exit" in err  # the dead role and its exit code are named


def test_launch_runs_a_loopback_cluster(tmp_path, capsys):
    # the full external path: one subprocess per worker and PS shard
    # (python -m repro launch --role ...), coordinator inline; every role
    # rebuilds the trainer from the spec file, rendezvous over TCP, train
    from repro.net.launch import launch

    path = tmp_path / "spec.json"
    path.write_text(json.dumps(_LAUNCH_SPEC))
    assert launch(str(path), timeout=90.0) == 0
    out = capsys.readouterr().out
    assert "downpour" in out  # the formatted TrainResult was printed


# --------------------------------------------------------------------------
# the coordinator's control plane, driven by hand
# --------------------------------------------------------------------------


def _control_plane(p=1, session="s3ss"):
    from types import SimpleNamespace

    from repro.net.frames import bind_listener, listener_addr

    listener = bind_listener("127.0.0.1:0")
    backend = SimpleNamespace(
        mode="fork", _ps=None, heartbeat_timeout=2.0, _session=session,
        _listeners={"coordinator": listener}, _alive={}, _detections={},
        clock=lambda: 0.0,
    )
    return net_backend._ControlPlane(backend, p), listener_addr(listener)


def _pump_until(ctrl, done, seconds=5.0):
    got = []
    deadline = time.monotonic() + seconds
    while not done() and time.monotonic() < deadline:
        got += ctrl.pump(0.05)
    return got


def test_a_resume_in_the_same_pass_as_the_cut_connection_keeps_the_seat():
    # the re-dialled RESUME can be read before the cut connection's EOF in
    # one selector pass: the replaced connection is hung up, its pending
    # EOF is skipped, and the rank stays seated on the new one
    from repro.net.frames import (
        HELLO, RESULT, RESUME, RESUME_OK, WELCOME, SessionConn, connect,
    )

    ctrl, addr = _control_plane()
    try:
        old = connect(addr, "coordinator", timeout=5.0)
        old.send(HELLO, {"job": "worker", "task": 0}, seq=0)
        _pump_until(ctrl, lambda: ctrl.welcomed)
        old.settimeout(5.0)
        assert old.recv().kind == WELCOME
        new = connect(addr, "coordinator", timeout=5.0)
        _pump_until(ctrl, lambda: ctrl.greeting)  # accepted, owes its RESUME
        new.send(RESUME, {"task": 0, "sess": "s3ss"}, seq=0)
        time.sleep(0.2)  # the RESUME is ready before the cut's EOF
        old.close()
        time.sleep(0.2)
        _pump_until(ctrl, lambda: ctrl.resumes.get(0) == 1)
        new.settimeout(5.0)
        assert new.recv().kind == RESUME_OK
        assert not ctrl.lost(0)
        SessionConn(new, "s3ss").send_obj(RESULT, {"ok": 1})
        got = _pump_until(ctrl, lambda: 0 in ctrl.finished)
        assert got == [("done", 0, {"ok": 1})]
        new.close()
    finally:
        ctrl.close()


def test_the_control_plane_hangs_up_on_a_greeting_that_is_not_ours():
    from repro.net.frames import (
        _HEADER, HELLO, MAGIC, PROTOCOL_VERSION, WELCOME, connect,
    )

    ctrl, addr = _control_plane()
    try:
        strangers = []
        for meta in ({"job": "worker", "task": "0"}, {"job": "worker", "task": 9},
                     {"job": "ps", "task": 0}):
            conn = connect(addr, "coordinator", timeout=5.0)
            conn.send(HELLO, meta, seq=0)
            strangers.append(conn)
        raw = socket.create_connection(parse_addr(addr))  # meta not an object
        raw.sendall(_HEADER.pack(MAGIC, PROTOCOL_VERSION, HELLO, 0, 7, 0) + b"[1,2,3]")
        worker = connect(addr, "coordinator", timeout=5.0)
        worker.send(HELLO, {"job": "worker", "task": 0}, seq=0)
        _pump_until(ctrl, lambda: ctrl.welcomed)
        worker.settimeout(5.0)
        assert worker.recv().kind == WELCOME
        for conn in strangers:
            conn.settimeout(2.0)
            with pytest.raises(Exception):
                conn.recv()  # hung up, never welcomed
        raw.close()
        worker.close()
    finally:
        ctrl.close()
