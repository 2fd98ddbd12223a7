"""End-to-end observability: trainers, fabric, PS, harness, and the CLI."""

import json

import pytest

from repro import obs
from repro.__main__ import main
from repro.algos import (
    DownpourOptions,
    DownpourTrainer,
    SASGDOptions,
    SASGDTrainer,
    TrainerConfig,
    cifar_problem,
)
from repro.harness.timing import TimingWorkload, simulate_epoch_time


@pytest.fixture(scope="module")
def prob():
    return cifar_problem(scale="unit", seed=1)


def small_cfg(p=2):
    return TrainerConfig(p=p, epochs=1, batch_size=8, lr=0.02, seed=3, eval_every=1)


# -- disabled by default -------------------------------------------------------------


def test_no_session_means_no_observation(prob):
    assert obs.active() is None
    tr = SASGDTrainer(prob, small_cfg(), SASGDOptions(T=2))
    tr.train()
    assert tr.fabric.message_log is None  # tracing never switched on
    assert tr._obs is None


def test_observe_nests_and_restores():
    outer = obs.ObsSession()
    inner = obs.ObsSession()
    with obs.observe(outer):
        assert obs.active() is outer
        with obs.observe(inner):
            assert obs.active() is inner
        assert obs.active() is outer
    assert obs.active() is None


# -- trainer metrics vs the tape -----------------------------------------------------


def test_registry_agrees_with_metrics_tape(prob):
    with obs.observe() as session:
        tr = SASGDTrainer(prob, small_cfg(), SASGDOptions(T=2))
        tr.train()
    reg = session.registry
    labels = dict(algo="sasgd", p=2, problem=prob.name)
    assert reg.counter("train.samples_total", **labels).value == tr.tape.samples
    batches = reg.counter("train.batches_total", **labels).value
    assert batches > 0
    # one gradient norm per batch, all finite and positive
    norms = reg.histogram("train.grad_norm", **labels)
    assert norms.count == batches
    assert norms.percentile(0) > 0.0
    assert reg.gauge("train.virtual_seconds", **labels).value == pytest.approx(
        tr.machine.engine.now
    )
    assert reg.counter("engine.events_total", **labels).value > 0
    assert reg.gauge("engine.max_heap_depth", **labels).value >= 1
    assert reg.counter("sasgd.allreduce_total", **labels).value == tr.allreduce_count


def test_downpour_staleness_and_ps_histograms(prob):
    with obs.observe() as session:
        tr = DownpourTrainer(prob, small_cfg(), DownpourOptions(T=2))
        tr.train()
    reg = session.registry
    labels = dict(algo="downpour", p=2, problem=prob.name)
    stale = reg.histogram("train.staleness", **labels)
    assert stale.count == sum(len(c.staleness_samples) for c in tr.clients)
    assert stale.percentile(0) >= 0.0
    # the PS shards saw requests: latency histograms exist and are non-empty
    latencies = [
        h
        for h in reg.histograms()
        if h.name == "ps.request_seconds" and h.count > 0
    ]
    assert latencies
    assert all(h.percentile(50) > 0.0 for h in latencies)
    shard_stale = [h for h in reg.histograms() if h.name == "ps.staleness"]
    assert shard_stale and all(h.count > 0 for h in shard_stale)


# -- fabric accounting ---------------------------------------------------------------


def test_fabric_publishes_per_link_counters(prob):
    with obs.observe() as session:
        tr = SASGDTrainer(prob, small_cfg(), SASGDOptions(T=2))
        tr.train()
    reg = session.registry
    labels = dict(algo="sasgd", p=2, problem=prob.name)
    total = reg.counter("fabric.messages_total", **labels).value
    assert total == tr.fabric.total_messages > 0
    per_link = reg.find_counters("fabric.link.messages", **labels)
    assert per_link
    # a message crosses >= 1 link, so per-hop counts bound the message count
    assert sum(c.value for c in per_link) >= total
    utils = [g for g in reg.gauges() if g.name == "fabric.link.utilization"]
    assert utils and all(0.0 < g.value <= 1.0 for g in utils)


def test_fabric_reset_counters_resets_everything(prob):
    with obs.observe(obs.ObsSession(trace=True)):
        tr = SASGDTrainer(prob, small_cfg(), SASGDOptions(T=2))
        tr.train()
    fab = tr.fabric
    assert fab.total_messages > 0
    assert any(fab.messages_per_link.values())
    assert any(fab.busy_seconds_per_link.values())
    assert fab.message_log  # trace was on
    fab.reset_counters()
    assert fab.total_bytes == 0.0
    assert fab.total_messages == 0
    assert not any(fab.bytes_per_link.values())
    assert not any(fab.messages_per_link.values())
    assert not any(fab.busy_seconds_per_link.values())
    assert fab.message_log == []


# -- the paper's traffic claim through the registry ----------------------------------


def test_comm_bytes_counters_separate_allreduce_from_ps():
    wl = TimingWorkload(
        name="toy",
        param_bytes=1e6,
        train_flops_per_example=1e6,
        batch_size=16,
        n_train=256,
    )
    with obs.observe() as session:
        simulate_epoch_time("sasgd", wl, p=4, T=4, epochs=1, allreduce_algorithm="tree")
        simulate_epoch_time("downpour", wl, p=4, T=4, epochs=1)
    reg = session.registry
    (sas,) = reg.find_counters("fabric.bytes_total", algo="sasgd")
    (dwn,) = reg.find_counters("fabric.bytes_total", algo="downpour")
    # O(m log p) tree allreduce moves fewer bytes than the O(mp) server
    assert 0 < sas.value < dwn.value


# -- trace capture through a real run ------------------------------------------------


def test_trainer_trace_run_has_learner_tracks(prob, tmp_path):
    with obs.observe(obs.ObsSession(trace=True)) as session:
        tr = SASGDTrainer(prob, small_cfg(), SASGDOptions(T=2))
        tr.train()
    assert len(session.trace_runs) == 1
    run = session.trace_runs[0]
    assert session.virtual_seconds == pytest.approx(tr.machine.engine.now)
    path = tmp_path / "trace.json"
    session.build_exporter().save(path)
    back = obs.TraceExporter.load(path)
    (parsed,) = back.values()
    actors = {s.actor for s in parsed.spans}
    assert set(tr.learner_names) <= actors
    # conservation survives export: busy <= span for every learner
    for name in tr.learner_names:
        busy = sum(obs.busy_seconds(parsed.spans, name).values())
        assert busy <= parsed.duration + 1e-9
    assert parsed.messages  # fabric transfers came through


# -- manifest ------------------------------------------------------------------------


def test_manifest_collect_write_load(tmp_path):
    m = obs.RunManifest.collect(
        exp_id="figX", config={"seed": 7, "p_values": (1, 2)}, wall_seconds=1.5
    )
    assert m.seed == 7
    assert m.git_rev  # the repo is a git checkout
    path = tmp_path / "m.manifest.json"
    m.write(path)
    back = obs.RunManifest.load(path)
    assert back.exp_id == "figX"
    assert back.wall_seconds == 1.5
    assert back.created == m.created


def test_manifest_path_for():
    assert str(obs.manifest_path_for("out/r.json")).endswith("out/r.manifest.json")


def test_manifest_load_rejects_other_files(tmp_path):
    path = tmp_path / "x.json"
    path.write_text('{"rows": []}')
    with pytest.raises(ValueError):
        obs.RunManifest.load(path)


# -- CLI -----------------------------------------------------------------------------


def test_cli_run_writes_all_artifacts(tmp_path, capsys):
    save = tmp_path / "fig1.json"
    trace = tmp_path / "fig1.trace.json"
    metrics = tmp_path / "fig1.metrics.json"
    rc = main(
        [
            "run",
            "fig1",
            "--set",
            "p_values=(2,)",
            "--save",
            str(save),
            "--trace",
            str(trace),
            "--metrics",
            str(metrics),
        ]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "trace saved" in out and "metrics saved" in out and "manifest saved" in out

    # trace: valid chrome trace-event JSON, one track per learner
    doc = json.loads(trace.read_text())
    assert doc["traceEvents"]
    runs = obs.TraceExporter.parse(doc)
    assert runs
    for run in runs.values():
        actors = {s.actor for s in run.spans}
        assert any(a.startswith("learner") for a in actors)

    # metrics: registry export with the fabric counters
    snap = obs.MetricsRegistry.load_snapshot(metrics)
    assert any(k.startswith("fabric.bytes_total") for k in snap["counters"])

    # manifest landed next to --save
    manifest = obs.RunManifest.load(obs.manifest_path_for(save))
    assert manifest.exp_id == "fig1"
    assert manifest.virtual_seconds > 0

    # inspect understands all four artifacts
    for artifact in (save, trace, metrics, obs.manifest_path_for(save)):
        assert main(["inspect", str(artifact)]) == 0
        assert capsys.readouterr().out

    # the trace summary is Fig. 1's breakdown: every learner of every run on
    # one line with its compute and comm busy seconds
    assert main(["inspect", str(trace)]) == 0
    lines = capsys.readouterr().out.splitlines()
    for run in runs.values():
        for actor in sorted({s.actor for s in run.spans if s.actor.startswith("learner")}):
            cats = obs.busy_seconds(run.spans, actor)
            assert cats["compute"] > 0 and cats["comm"] > 0
            want = (f"comm={cats['comm']:.3f}s", f"compute={cats['compute']:.3f}s")
            assert any(
                line.split()[0] == actor and all(w in line for w in want)
                for line in lines if line.strip()
            ), (actor, want)
    assert obs.active() is None  # the CLI uninstalled its session


def test_cli_inspect_rejects_unknown_file(tmp_path, capsys):
    path = tmp_path / "junk.json"
    path.write_text('{"hello": 1}')
    assert main(["inspect", str(path)]) == 1
    assert "unrecognised" in capsys.readouterr().err
