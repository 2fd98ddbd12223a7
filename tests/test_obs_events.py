"""Structured event model: bus, sinks, snapshot/delta protocol, CLI replay.

Covers the tentpole contracts of ``repro.obs.events``:

* events round-trip through JSON byte-identically;
* the bus assigns gap-free seq numbers and folds a live ``RunSnapshot``;
* late-attached sinks bootstrap from a SNAPSHOT event, then see deltas;
* disabled by default: no installed bus means ``emit`` is a no-op;
* sim-backend streams are bit-reproducible for a fixed seed;
* a crash + elastic recovery yields a well-formed, seq-gap-free log
  ending in failure_detected/recovery_action on BOTH backends;
* an mp recorder file replays to the exact totals the run returned;
* every rank's tape survives the fork (``extras["rank_tapes"]``).
"""

import multiprocessing
import queue

import pytest

from repro import obs
from repro.__main__ import main
from repro.algos import (
    DownpourOptions,
    DownpourTrainer,
    SASGDOptions,
    SASGDTrainer,
    TrainerConfig,
)
from repro.algos.problems import cifar_problem
from repro.faults import FaultContext, FaultPlan
from repro.faults.checkpoint import MemoryCheckpointStore
from repro.obs import events as ev
from repro.runtime import MPBackend

HAVE_FORK = "fork" in multiprocessing.get_all_start_methods()
needs_fork = pytest.mark.skipif(not HAVE_FORK, reason="mp backend needs fork")


@pytest.fixture
def prob():
    return cifar_problem(scale="unit", seed=1)


def small_cfg(p=2, epochs=2):
    return TrainerConfig(p=p, epochs=epochs, batch_size=16, lr=0.05, seed=3)


def run_sasgd(prob, backend=None, fault_ctx=None, p=2, sinks=()):
    bus = ev.EventBus(sinks=list(sinks))
    with obs.use_events(bus):
        trainer = SASGDTrainer(
            prob, small_cfg(p=p), SASGDOptions(T=2),
            backend=backend, fault_ctx=fault_ctx,
        )
        result = trainer.train()
    return bus, trainer, result


def elastic_ctx():
    return FaultContext(
        plan=FaultPlan.parse("crash:learner=1,step=3"),
        recovery="elastic",
        store=MemoryCheckpointStore(),
        checkpoint_every=1,
    )


# --------------------------------------------------------------------------
# 1. event model: wire format
# --------------------------------------------------------------------------


def test_event_json_roundtrip():
    e = ev.Event(kind="run_started", data={"p": 4, "algo": "sasgd"},
                 source="run", t=1.5, seq=7)
    back = ev.Event.parse_line(e.to_json())
    assert back.to_dict() == e.to_dict()
    assert back.kind == "run_started" and back.seq == 7 and back.t == 1.5
    assert back.v == ev.EVENTS_VERSION


def test_event_json_is_canonical():
    a = ev.Event(kind="x", data={"b": 1, "a": 2}, source="s", t=0.0, seq=0)
    b = ev.Event(kind="x", data={"a": 2, "b": 1}, source="s", t=0.0, seq=0)
    assert a.to_json() == b.to_json()  # sorted keys, compact separators
    assert " " not in a.to_json()


def test_event_from_dict_rejects_garbage():
    with pytest.raises(ValueError):
        ev.Event.from_dict({"data": {}})  # no kind
    with pytest.raises(ValueError):
        ev.Event.parse_line("not json at all")


# --------------------------------------------------------------------------
# 2. bus: seq assignment, ambient install, snapshot folding
# --------------------------------------------------------------------------


def test_emit_without_bus_is_noop():
    assert ev.active_bus() is None
    assert ev.emit("run_started", p=2) is None


def test_bus_assigns_contiguous_seq_and_folds_snapshot():
    mem = ev.InMemorySink()
    bus = ev.EventBus(sinks=[mem])
    bus.publish(ev.RUN_STARTED, algo="sasgd", problem="toy", p=2,
                backend="sim", seed=1, epochs=1, n_shards=0, resumed=False)
    bus.publish(ev.EPOCH_PROGRESS, source="learner0", epoch=1, samples=32,
                train_loss=2.3, train_acc=0.1)
    bus.publish(ev.RUN_FINISHED, status="ok", duration=1.0, samples=32, epochs=1)
    assert [e.seq for e in mem.events] == [0, 1, 2]
    snap = bus.snapshot
    assert snap.status == "ok"
    assert snap.totals["samples"] == 32 and snap.totals["epochs"] == 1
    assert snap.run["algo"] == "sasgd"


def test_use_events_nests_and_restores():
    outer, inner = ev.EventBus(), ev.EventBus()
    with obs.use_events(outer):
        assert ev.active_bus() is outer
        with obs.use_events(inner):
            assert ev.active_bus() is inner
        assert ev.active_bus() is outer
    assert ev.active_bus() is None


def test_late_attach_gets_snapshot_then_deltas():
    bus = ev.EventBus()
    bus.publish(ev.RUN_STARTED, algo="sasgd", problem="toy", p=2,
                backend="sim", seed=1, epochs=2, n_shards=0, resumed=False)
    bus.publish(ev.EPOCH_PROGRESS, source="learner0", epoch=1, samples=16,
                train_loss=2.0, train_acc=0.2)
    late = ev.InMemorySink()
    bus.attach(late)
    bus.publish(ev.RUN_FINISHED, status="ok", duration=0.5, samples=16, epochs=1)
    # bootstrap: a SNAPSHOT event carrying the full state at attach time
    assert late.events[0].kind == ev.SNAPSHOT
    boot = ev.RunSnapshot()
    boot.load(late.events[0].data)
    assert boot.totals["samples"] == 16 and boot.status == "running"
    # then ordinary deltas
    assert [e.kind for e in late.events[1:]] == [ev.RUN_FINISHED]
    # resuming from the bootstrap + deltas equals the live snapshot
    for e in late.events[1:]:
        boot.apply(e, strict=True)
    assert boot.to_dict() == bus.snapshot.to_dict()


def test_snapshot_replay_detects_seq_gaps():
    bus = ev.EventBus(sinks=[mem := ev.InMemorySink()])
    for _ in range(4):
        bus.publish(ev.EPOCH_PROGRESS, source="learner0", epoch=1, samples=1,
                    train_loss=1.0, train_acc=0.5)
    holed = [mem.events[0], mem.events[1], mem.events[3]]  # drop seq 2
    with pytest.raises(ev.SeqGap) as exc:
        ev.RunSnapshot.from_events(holed, strict=True)
    assert exc.value.expected == 2 and exc.value.got == 3
    # non-strict replay tolerates the hole
    snap = ev.RunSnapshot.from_events(holed, strict=False)
    assert snap.seq == 3


# --------------------------------------------------------------------------
# 3. sinks
# --------------------------------------------------------------------------


def test_callback_and_queue_sinks():
    seen = []
    q = queue.Queue()
    bus = ev.EventBus(sinks=[ev.CallbackSink(seen.append), ev.QueueSink(q)])
    bus.publish(ev.FAULT_INJECTED, source="learner1", fault="crash", step=3)
    assert seen[0].kind == ev.FAULT_INJECTED
    assert ev.Event.from_dict(q.get_nowait()).data["fault"] == "crash"


def test_jsonl_recorder_roundtrip(tmp_path):
    path = tmp_path / "run.jsonl"
    bus = ev.EventBus(sinks=[ev.JsonlRecorderSink(path)])
    bus.publish(ev.RUN_STARTED, algo="sasgd", problem="toy", p=1,
                backend="sim", seed=0, epochs=1, n_shards=0, resumed=False)
    bus.publish(ev.RUN_FINISHED, status="ok", duration=0.1, samples=8, epochs=1)
    bus.close()
    events = ev.read_events(path)
    assert [e.kind for e in events] == [ev.RUN_STARTED, ev.RUN_FINISHED]
    snap = ev.RunSnapshot.from_events(events, strict=True)
    assert snap.to_dict() == bus.snapshot.to_dict()


def test_console_sink_formats_progress(capsys):
    sink = ev.ConsoleProgressSink()
    bus = ev.EventBus(sinks=[sink])
    bus.publish(ev.RUN_STARTED, algo="sasgd", problem="toy", p=2,
                backend="sim", seed=1, epochs=1, n_shards=0, resumed=False)
    bus.publish(ev.PS_APPLY, source="learner0", op="push_pull", step=4)
    bus.publish(ev.FAULT_INJECTED, source="learner1", fault="crash", step=3)
    bus.publish(ev.RUN_FINISHED, status="ok", duration=1.0, samples=8, epochs=1)
    out = capsys.readouterr().out
    assert "run started: sasgd" in out
    assert "FAULT crash at learner1" in out
    assert "run finished: ok" in out
    assert "ps_apply" not in out  # high-rate events stay off the console


# --------------------------------------------------------------------------
# 4. sim backend end-to-end
# --------------------------------------------------------------------------


def test_sim_run_emits_wellformed_stream(prob):
    mem = ev.InMemorySink()
    bus, trainer, result = run_sasgd(prob, sinks=[mem])
    kinds = [e.kind for e in mem.events]
    assert kinds[0] == ev.RUN_STARTED and kinds[-1] == ev.RUN_FINISHED
    assert [e.seq for e in mem.events] == list(range(len(mem.events)))
    snap = ev.RunSnapshot.from_events(mem.events, strict=True)
    assert snap.status == "ok"
    assert snap.totals["samples"] == result.records[-1].samples
    assert snap.totals["epochs"] == result.records[-1].epoch
    assert snap.to_dict() == bus.snapshot.to_dict()
    # virtual-time stamps: monotone within the run, no wall-clock leakage
    ts = [e.t for e in mem.events]
    assert ts == sorted(ts)
    assert ts[-1] == pytest.approx(trainer.machine.engine.now)


def test_sim_event_stream_is_bit_reproducible():
    def stream():
        mem = ev.InMemorySink()
        run_sasgd(cifar_problem(scale="unit", seed=1), sinks=[mem])
        return [e.to_json() for e in mem.events]

    assert stream() == stream()


def test_downpour_emits_ps_apply_events(prob):
    mem = ev.InMemorySink()
    bus = ev.EventBus(sinks=[mem])
    with obs.use_events(bus):
        trainer = DownpourTrainer(prob, small_cfg(), DownpourOptions(T=2))
        trainer.train()
    applies = [e for e in mem.events if e.kind == ev.PS_APPLY]
    assert applies and all(e.data["op"] == "push_pull" for e in applies)
    assert bus.snapshot.totals["ps_applies"] == len(applies)


# --------------------------------------------------------------------------
# 5. fault / recovery streams on both backends
# --------------------------------------------------------------------------


def _assert_recovery_stream(events):
    kinds = [e.kind for e in events]
    assert [e.seq for e in events] == list(range(len(events)))  # gap-free
    for needed in (ev.RUN_STARTED, ev.FAULT_INJECTED, ev.FAILURE_DETECTED,
                   ev.RECOVERY_ACTION, ev.RUN_FINISHED):
        assert needed in kinds
    # the failed attempt is detected before the recovery decision
    assert kinds.index(ev.FAILURE_DETECTED) < kinds.index(ev.RECOVERY_ACTION)
    snap = ev.RunSnapshot.from_events(events, strict=True)
    assert snap.status == "ok" and snap.attempts == 2
    assert snap.totals["faults"] >= 1 and snap.totals["recoveries"] == 1
    assert [f["event"] for f in snap.faults].count("recovery_action") == 1
    return snap


def test_sim_crash_elastic_recovery_stream(prob):
    mem = ev.InMemorySink()
    bus, trainer, result = run_sasgd(prob, fault_ctx=elastic_ctx(), p=3,
                                     sinks=[mem])
    snap = _assert_recovery_stream(mem.events)
    assert snap.totals["samples"] == result.records[-1].samples
    assert snap.run["p"] == 2  # the surviving attempt re-formed as p-1


@needs_fork
def test_mp_crash_elastic_recovery_stream(prob):
    mem = ev.InMemorySink()
    bus, trainer, result = run_sasgd(
        prob, backend=MPBackend(timeout=60.0), fault_ctx=elastic_ctx(), p=3,
        sinks=[mem],
    )
    snap = _assert_recovery_stream(mem.events)
    assert snap.run["backend"] == "mp"
    detections = [e for e in mem.events if e.kind == ev.FAILURE_DETECTED]
    assert detections[0].data["learner"] == 1


# --------------------------------------------------------------------------
# 6. mp backend: recorder replay and rank-tape merging
# --------------------------------------------------------------------------


@needs_fork
def test_mp_recorded_log_replays_to_returned_result(tmp_path, prob):
    path = tmp_path / "run.jsonl"
    bus, trainer, result = run_sasgd(
        prob, backend=MPBackend(timeout=60.0),
        sinks=[ev.JsonlRecorderSink(path)],
    )
    bus.close()
    events = ev.read_events(path)
    assert [e.seq for e in events] == list(range(len(events)))
    snap = ev.RunSnapshot.from_events(events, strict=True)
    assert snap.status == "ok"
    assert snap.totals["samples"] == result.records[-1].samples
    assert snap.totals["epochs"] == result.records[-1].epoch
    assert snap.to_dict() == bus.snapshot.to_dict()
    # worker-origin events made it through the queue with their sources
    assert any(e.source == "learner0" for e in events
               if e.kind == ev.EPOCH_PROGRESS)


@needs_fork
def test_mp_merges_all_rank_tapes(prob):
    trainer = SASGDTrainer(prob, small_cfg(p=2), SASGDOptions(T=2),
                           backend=MPBackend(timeout=60.0))
    result = trainer.train()
    tapes = result.extras["rank_tapes"]
    assert [t["rank"] for t in tapes] == [0, 1]
    for t in tapes:
        assert t["samples"] > 0 and t["batches"] > 0
        assert t["mean_loss"] > 0.0 and 0.0 <= t["mean_acc"] <= 1.0
    # rank tapes are unscaled: their sum is the true collective throughput,
    # which rank 0's tape reports via sample_scale
    assert result.extras["total_samples"] == sum(t["samples"] for t in tapes)
    assert result.extras["total_samples"] == trainer.tape.samples


@needs_fork
def test_mp_publishes_per_rank_counters(prob):
    with obs.observe() as session:
        trainer = SASGDTrainer(prob, small_cfg(p=2), SASGDOptions(T=2),
                               backend=MPBackend(timeout=60.0))
        result = trainer.train()
    reg = session.registry
    labels = dict(algo="sasgd", p=2, problem=prob.name)
    per_rank = [
        reg.counter("train.samples_total", rank=r, **labels).value
        for r in range(2)
    ]
    assert all(v > 0 for v in per_rank)
    assert sum(per_rank) == result.extras["total_samples"]


# --------------------------------------------------------------------------
# 7. sweep-level events (grid runner)
# --------------------------------------------------------------------------


def test_grid_runner_emits_sweep_events(tmp_path):
    from tests.test_harness_parallel import sweep

    mem = ev.InMemorySink()
    bus = ev.EventBus(sinks=[mem])
    with obs.use_events(bus):
        sweep(
            "fig2", jobs=1, cache_dir=tmp_path / "cache",
            p_values=(1, 2), epochs=1,
        )
    kinds = [e.kind for e in mem.events]
    assert kinds[0] == ev.SWEEP_STARTED and kinds[-1] == ev.SWEEP_FINISHED
    assert kinds.count(ev.CELL_STARTED) == 2
    assert kinds.count(ev.CELL_FINISHED) == 2
    assert mem.events[0].data["total"] == 2
    assert bus.snapshot.sweep["done"] == 2
    # a second sweep over the same grid is served from cache
    mem2 = ev.InMemorySink()
    bus2 = ev.EventBus(sinks=[mem2])
    with obs.use_events(bus2):
        sweep(
            "fig2", jobs=1, cache_dir=tmp_path / "cache",
            p_values=(1, 2), epochs=1,
        )
    finished = [e for e in mem2.events if e.kind == ev.CELL_FINISHED]
    assert all(e.data["cached"] for e in finished)


# --------------------------------------------------------------------------
# 8. CLI: --events recorder, inspect, watch
# --------------------------------------------------------------------------


def test_cli_run_records_and_watch_replays(tmp_path, capsys):
    log = tmp_path / "run.jsonl"
    code = main([
        "run", "fig2", "--set", "p_values=(2,)", "--set", "epochs=1",
        "--events", str(log), "--events", "console",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "run started" in out and "run finished: ok" in out
    assert f"replay with `repro watch {log}`" in out

    events = ev.read_events(log)
    assert [e.seq for e in events] == list(range(len(events)))
    snap = ev.RunSnapshot.from_events(events, strict=True)
    assert snap.finished and snap.status == "ok"
    assert ev.active_bus() is None  # the CLI uninstalled its bus

    assert main(["watch", str(log), "--once"]) == 0
    watched = capsys.readouterr().out
    assert "[ok]" in watched and "totals:" in watched


def test_cli_inspect_summarises_event_log(tmp_path, capsys):
    log = tmp_path / "run.jsonl"
    bus = ev.EventBus(sinks=[ev.JsonlRecorderSink(log)])
    bus.publish(ev.RUN_STARTED, algo="sasgd", problem="toy", p=2,
                backend="sim", seed=1, epochs=1, n_shards=0, resumed=False)
    bus.publish(ev.FAULT_INJECTED, source="learner1", fault="crash", step=3)
    bus.publish(ev.FAILURE_DETECTED, learner=1, step=3, reason="test")
    bus.publish(ev.RECOVERY_ACTION, action="elastic_restart",
                failed_learner=1, survivors=1, restarts=1)
    bus.publish(ev.RUN_FINISHED, status="ok", duration=1.0, samples=8, epochs=1)
    bus.close()
    assert main(["inspect", str(log)]) == 0
    out = capsys.readouterr().out
    assert "event log, 5 event(s)" in out
    assert "contiguous" in out
    assert "fault/recovery timeline:" in out
    assert "elastic_restart" in out


def test_cli_watch_connect_renders_a_live_stream_once(capsys):
    from repro.net.events import TcpEventSink

    sink = TcpEventSink("tcp://127.0.0.1:0")
    bus = ev.EventBus(sinks=[sink])
    try:
        bus.publish(ev.RUN_STARTED, algo="sasgd", problem="toy", p=2,
                    backend="mp", seed=1, epochs=3, n_shards=0, resumed=False)
        bus.publish(ev.EPOCH_PROGRESS, epoch=1, samples=64, train_loss=2.25,
                    train_acc=0.125)
        # a subscriber that attaches mid-run gets the snapshot first
        assert main(["watch", "--connect", sink.addr, "--once"]) == 0
    finally:
        bus.close()
    out = capsys.readouterr().out
    assert "[running]" in out and "totals:" in out
    assert "epoch 1  samples=64  train_loss=2.2500  train_acc=0.1250" in out


def test_cli_watch_connect_to_a_closed_port_fails(monkeypatch, capsys):
    import socket

    from repro.net import events as net_events

    # the connect retries for 10 s by default (the publisher may be starting)
    monkeypatch.setattr(net_events.iter_remote_events, "__defaults__", (0.5, None))
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
    # nothing listens there any more
    assert main(["watch", "--connect", f"127.0.0.1:{port}", "--once"]) == 1
    assert "cannot reach" in capsys.readouterr().err


def test_cli_watch_empty_log_fails(tmp_path, capsys):
    log = tmp_path / "empty.jsonl"
    log.write_text("")
    assert main(["watch", str(log), "--once"]) == 1
    assert "no events" in capsys.readouterr().err
