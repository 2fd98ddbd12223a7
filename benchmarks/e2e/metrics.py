"""Metric catalogue (name, unit, direction, bound, what it should move) and
the derivation of every metric from what a run measured.

End-to-end metrics come from untraced runs only.  Per-layer metrics come from
the traced pass: a layer is a module under ``src/repro``, its timing is self
time (span minus child spans), taken as the maximum over ranks, because the
slowest rank sets the time of a bulk-synchronous step.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence

from workloads import SCALING_N_TRAIN, SCALING_P, Workload

__all__ = ["EndToEnd", "Layer", "END_TO_END", "PER_LAYER", "E2E_BY_NAME",
           "end_to_end", "per_layer", "digest", "applies"]

TRAIN = "training"        # the six training workloads
REAL = "real"             # the four mp / net workloads
ALL = "all"


@dataclass(frozen=True)
class EndToEnd:
    name: str
    unit: str
    better: str
    #: share of the parent's median by which the metric may worsen
    bound: float
    on: str                     # ALL / TRAIN / REAL / a workload name
    definition: str
    #: gated metrics are listed in BENCHMARK.json and printed by every run;
    #: the others depend on the seed's learning curve or on a second workload
    #: and are judged only by ``run.py compare`` between equal-seed reports
    gated: bool = False
    #: absolute slack on top of the bound (epochs on the asynchronous trainer)
    slack: float = 0.0


# One 5-15 s run on this 2-core box repeats to a quartile spread of 1-9 % of
# its median, 14 % on the TCP ring (ten seeds per workload, measured twice when
# the benchmark was added), and medians drift by up to 11 % within the hour.
# The bound sits at about three times the usual spread, so that a spread
# never reads as a regression.
TIMING_BOUND = 0.25

END_TO_END: List[EndToEnd] = [
    EndToEnd("setup_s", "s", "lower", 0.25, ALL,
             "subprocess spawn to entry of train()/execute(): interpreter, imports, "
             "spec load/compile, dataset synthesis, trainer + backend construction",
             gated=True),
    EndToEnd("wall_s", "s", "lower", TIMING_BOUND, ALL,
             "wall time of train() (plan.execute() on scaling_sim): fork, "
             "rendezvous, training, harvest, teardown", gated=True),
    EndToEnd("samples_per_s", "samples/s", "higher", TIMING_BOUND, ALL,
             "collective samples (epochs x n_train; simulated samples on "
             "scaling_sim) / wall_s", gated=True),
    EndToEnd("cpu_s", "s", "lower", TIMING_BOUND, ALL,
             "user+sys CPU of the run's whole process tree (os.wait4): exposes "
             "polling barriers and spinning shards", gated=True),
    EndToEnd("peak_rss_mb", "MiB", "lower", 0.10, ALL,
             "largest resident process of the run's tree", gated=True),
    EndToEnd("time_to_target_s", "s", "lower", TIMING_BOUND, REAL,
             "wall_s - (t_final_record - t_target_record) on the backend's record "
             "clock; target = first epoch record with train_loss <= the workload's"),
    EndToEnd("sim_time_to_target_s", "sim_s", "lower", 0.0, "cifar_sasgd_sim",
             "virtual seconds of the target record (repeats exactly)"),
    EndToEnd("epochs_to_target", "epochs", "lower", 0.0, TRAIN,
             "index of the target record: statistical efficiency, so "
             "time_to_target_s factors into epochs x epoch time", slack=1.0),
    EndToEnd("speedup_vs_serial", "ratio", "higher", TIMING_BOUND, "cifar_sasgd_mp",
             "samples_per_s(cifar_sasgd_mp) / samples_per_s(cifar_sasgd_sim), "
             "medians of both printed as the base"),
    EndToEnd("wire_bytes_per_sample", "B/sample", "lower", 0.0, TRAIN,
             "extras['total_bytes'] / samples, the backend's own accounting; "
             "comparable across commits, not across backends"),
]
E2E_BY_NAME = {m.name: m for m in END_TO_END}


def applies(metric: EndToEnd, w: Workload) -> bool:
    if metric.on == ALL:
        return True
    if metric.on == TRAIN:
        return w.trains
    if metric.on == REAL:
        return w.real
    return metric.on == w.name


def slack_for(metric: EndToEnd, w: Workload) -> float:
    """SASGD repeats its curve exactly; only Downpour's arrival order may
    move the target by an epoch."""
    return metric.slack if w.algorithm == "downpour" else 0.0


@dataclass(frozen=True)
class Layer:
    name: str
    unit: str
    better: str
    moves: Optional[str]  # the end-to-end metric it should move (None: a
    where: str            # diagnostic that predicts no movement), and where


_SETUP = ("setup_s", "all workloads")
_COMPUTE = ("samples_per_s", "cifar_sasgd_sim, cifar_sasgd_mp (dominant); "
            "<= 40% of rank time on nlcf_*")
_MP = ("samples_per_s", "nlcf_sasgd_mp; flat on cifar_* and every net/sim workload")
_NET = ("samples_per_s", "nlcf_sasgd_net, nlcf_downpour_net; flat on mp/sim")
_PS = ("samples_per_s, epochs_to_target", "nlcf_downpour_mp, nlcf_downpour_net")
_FIXED = ("wall_s", "the four mp/net workloads (fixed cost)")
_CALIB = (None, "calibration row (Figs. 4-6) on the six training workloads")
_SIM = ("wall_s", "scaling_sim only (sim.engine.* also on cifar_sasgd_sim)")


def _layers() -> List[Layer]:
    out = [Layer(n, "s", "lower", *_SETUP) for n in
           ("import_s", "spec.load_compile_s", "data.synth_s", "algos.construct_s")]
    out += [Layer(n, "s", "lower", *_COMPUTE) for n in
            ("data.batch_s", "nn.forward_s", "nn.backward_s", "nn.loss_s",
             "algos.compute_gradient_s", "core.local_step_s", "core.apply_global_s")]
    out.append(Layer("nn.step_calls", "count", "lower", *_COMPUTE))
    out.append(Layer("algos.eval_s", "s", "lower", "wall_s",
                     "cifar_sasgd_mp (the peer waits it out in its next allreduce)"))
    out.append(Layer("algos.eval_calls", "count", "lower", "wall_s", "cifar_sasgd_mp"))
    out.append(Layer("comm.allreduce_s", "s", "lower", "wall_s",
                     "cifar_sasgd_sim (host time of the simulated collective)"))
    for prefix, note in (("runtime.mp", _MP), ("net", _NET)):
        out += [
            Layer(f"{prefix}.allreduce_s", "s", "lower", *note),
            Layer(f"{prefix}.allreduce_p50_ms", "ms", "lower", *note),
            Layer(f"{prefix}.allreduce_p99_ms", "ms", "lower", *note),
            Layer(f"{prefix}.allreduce_calls", "count", "lower", *note),
        ]
    out.append(Layer("runtime.mp.broadcast_s", "s", "lower", *_MP))
    out += [
        Layer("net.frames.send_s", "s", "lower", *_NET),
        Layer("net.frames.recv_s", "s", "lower", *_NET),
        Layer("net.frames.count", "count", "lower", *_NET),
        Layer("net.frames.bytes", "B", "lower", *_NET),
        Layer("ps.push_s", "s", "lower", *_PS),
        Layer("ps.pull_s", "s", "lower", *_PS),
        Layer("ps.push_p50_ms", "ms", "lower", *_PS),
        Layer("ps.push_p99_ms", "ms", "lower", *_PS),
        Layer("ps.calls", "count", "lower", *_PS),
        Layer("ps.retries", "count", "lower", *_PS),
        Layer("ps.pushes_applied", "count", "higher", *_PS),
        Layer("ps.staleness_mean", "count", "lower", *_PS),
        Layer("ps.staleness_max", "count", "lower", *_PS),
        Layer("backend.rank_body_s", "s", "lower", *_FIXED),
        Layer("backend.spinup_teardown_s", "s", "lower", *_FIXED),
        Layer("runtime.comm_frac", "frac", "lower", *_CALIB),
        Layer("sim.predicted_comm_frac", "frac", "lower", *_CALIB),
        Layer("runtime.achieved_epoch_s", "s", "lower", *_CALIB),
        Layer("sim.predicted_epoch_s", "sim_s", "lower", *_CALIB),
        Layer("sim.engine.run_s", "s", "lower", *_SIM),
        Layer("sim.engine.events", "count", "lower", *_SIM),
        Layer("sim.engine.events_per_s", "events/s", "higher", *_SIM),
        Layer("comm.fabric.cell_s", "s", "lower", *_SIM),
        Layer("comm.fastfabric.cell_s", "s", "lower", *_SIM),
    ]
    out += [Layer(f"harness.timing.cell_p{p}_s", "s", "lower", *_SIM) for p in SCALING_P]
    out += [
        Layer("algos.epochs_to_target", "epochs", "lower", "time_to_target_s",
              "the six training workloads (depends on the seed's curve)"),
        Layer("algos.time_to_target_s", "s", "lower", "time_to_target_s",
              "the six training workloads (host seconds to the target record)"),
        Layer("comm.wire_bytes_per_sample", "B/sample", "lower",
              "wire_bytes_per_sample", "the six training workloads"),
        Layer("trace.unattributed_frac", "frac", "lower", None,
              "sum-to-total check, must be <= 0.10, all workloads"),
        Layer("trace.overhead_frac", "frac", "lower", None,
              "traced wall / untraced wall - 1, target <= 0.15, all workloads"),
        Layer("runtime.blas_unpinned_slowdown", "ratio", "lower", None,
              "never gated; measured on cifar_sasgd_mp only"),
    ]
    return out


PER_LAYER: List[Layer] = _layers()


# -- derivation ----------------------------------------------------------------


def digest(values: Any) -> str:
    """Short stable hash of a JSON-able value (floats as repr)."""
    blob = json.dumps(values, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def expected_samples(w: Workload, run: Dict[str, Any]) -> int:
    if w.trains:
        return int(run["epochs"]) * int(run["n_train"])
    return len(run["rows"]) * SCALING_N_TRAIN


def target_record(w: Workload, run: Dict[str, Any]) -> Optional[Dict[str, Any]]:
    if w.target_loss is None:
        return None
    for rec in run.get("records", ()):
        if rec["train_loss"] <= w.target_loss:
            return rec
    return None


def end_to_end(w: Workload, run: Dict[str, Any]) -> Dict[str, float]:
    """Every end-to-end metric one untraced run yields on ``w``
    (``speedup_vs_serial`` needs two workloads: see ``run.py``)."""
    wall = run["wall_s"]
    samples = expected_samples(w, run)
    out = {
        "setup_s": run["phases"]["setup_s"],
        "wall_s": wall,
        "samples_per_s": samples / wall,
        "cpu_s": run["cpu_s"],
        "peak_rss_mb": run["peak_rss_mb"],
    }
    if not w.trains:
        return out
    out["wire_bytes_per_sample"] = run["extras"].get("total_bytes", 0.0) / samples
    hit = target_record(w, run)
    if hit is not None:
        out["epochs_to_target"] = float(hit["epoch"])
        if w.real:
            out["time_to_target_s"] = wall - (run["records"][-1]["t"] - hit["t"])
        elif w.name == "cifar_sasgd_sim":
            out["sim_time_to_target_s"] = hit["t"]
    return out


def _per_rank(spans: Dict[str, Any], names: Sequence[str], field: str) -> Dict[str, float]:
    acc: Dict[str, float] = {}
    for name in names:
        for rank, agg in spans.get(name, {}).get("ranks", {}).items():
            acc[rank] = acc.get(rank, 0.0) + agg[field]
    return acc


def _max(spans, names, field="self_s") -> float:
    """Sum over ``names`` per rank, then the slowest rank."""
    return max(_per_rank(spans, names, field).values(), default=0.0)


def _sum(spans, names, field) -> float:
    return float(sum(_per_rank(spans, names, field).values()))


def _latency(spans, name, pct) -> float:
    """p50 always; p99 only from >= 1000 calls, so ten samples lie beyond it."""
    agg = spans.get(name)
    if agg is None or (pct == "p99_ms" and agg["calls"] < 1000):
        return 0.0
    return agg[pct]


def unattributed_frac(spans: Dict[str, Any]) -> float:
    """1 - sum(spans) / body: the body's own self time, worst rank."""
    root = "backend.rank_body" if "backend.rank_body" in spans else "harness.execute"
    worst = 0.0
    for agg in spans.get(root, {}).get("ranks", {}).values():
        if agg["total_s"] > 0:
            worst = max(worst, agg["self_s"] / agg["total_s"])
    return worst


def per_layer(w: Workload, traced: Dict[str, Any], untraced_wall: float,
              untraced: Optional[Dict[str, Any]] = None,
              sim_ref: Optional[Dict[str, Any]] = None,
              blas_slowdown: float = 0.0) -> Dict[str, float]:
    """Every per-layer metric for ``w``; a layer the workload never enters
    reads 0 (no calls, no time).

    ``traced`` is the traced run, ``untraced`` an untraced run of the same
    spec (source of the run-reported numbers), ``sim_ref`` the same spec on
    the ``sim`` backend (the simulator's prediction for this run).
    """
    s = traced["spans"]
    ph = traced["phases"]
    base = untraced or traced
    extras = base.get("extras", {})
    m = {layer.name: 0.0 for layer in PER_LAYER}
    m["import_s"] = ph["import_s"]
    m["spec.load_compile_s"] = ph["spec.load_compile_s"]
    m["data.synth_s"] = ph["data.synth_s"]
    m["algos.construct_s"] = ph["algos.construct_s"]

    m["data.batch_s"] = _max(s, ["data.next_batch", "data.batch"])
    m["nn.forward_s"] = _max(s, ["nn.forward"])
    m["nn.backward_s"] = _max(s, ["nn.backward"])
    m["nn.loss_s"] = _max(s, ["nn.loss"])
    m["algos.compute_gradient_s"] = _max(s, ["algos.compute_gradient"])
    m["core.local_step_s"] = _max(s, ["core.local_step"])
    m["core.apply_global_s"] = _max(s, ["core.apply_global"])
    m["nn.step_calls"] = _sum(s, ["algos.compute_gradient"], "calls")
    m["algos.eval_s"] = _max(s, ["algos.eval"])
    m["algos.eval_calls"] = _sum(s, ["algos.eval"], "calls")
    m["comm.allreduce_s"] = _max(s, ["comm.allreduce", "comm.broadcast"])

    for prefix in ("runtime.mp", "net"):
        name = f"{prefix}.allreduce"
        m[f"{prefix}.allreduce_s"] = _max(s, [name])
        m[f"{prefix}.allreduce_p50_ms"] = _latency(s, name, "p50_ms")
        m[f"{prefix}.allreduce_p99_ms"] = _latency(s, name, "p99_ms")
        m[f"{prefix}.allreduce_calls"] = _sum(s, [name], "calls")
    m["runtime.mp.broadcast_s"] = _max(s, ["runtime.mp.broadcast"])
    m["net.frames.send_s"] = _max(s, ["net.frames.send"])
    m["net.frames.recv_s"] = _max(s, ["net.frames.recv"])
    m["net.frames.count"] = _sum(s, ["net.frames.send", "net.frames.recv"], "calls")
    m["net.frames.bytes"] = _sum(s, ["net.frames.send", "net.frames.recv"], "value")

    m["ps.push_s"] = _max(s, ["ps.push"])
    m["ps.pull_s"] = _max(s, ["ps.pull"])
    m["ps.push_p50_ms"] = _latency(s, "ps.push", "p50_ms")
    m["ps.push_p99_ms"] = _latency(s, "ps.push", "p99_ms")
    m["ps.calls"] = _sum(s, ["ps.push", "ps.pull"], "calls")
    m["ps.retries"] = extras.get("ps_retries", 0.0)
    m["ps.pushes_applied"] = extras.get("pushes_applied", 0.0)
    m["ps.staleness_mean"] = extras.get("staleness_mean", 0.0)
    m["ps.staleness_max"] = extras.get("staleness_max", 0.0)

    body = _max(s, ["backend.rank_body"], "total_s")
    m["backend.rank_body_s"] = body
    if w.real:
        m["backend.spinup_teardown_s"] = traced["wall_s"] - body
    if w.trains:
        if w.real:
            m["runtime.comm_frac"] = extras.get("comm_fraction", 0.0)
            m["runtime.achieved_epoch_s"] = base["run_seconds"] / base["epochs"]
        ref = sim_ref if sim_ref is not None else (base if w.backend == "sim" else None)
        if ref is not None:
            m["sim.predicted_comm_frac"] = ref["extras"].get("comm_fraction", 0.0)
            m["sim.predicted_epoch_s"] = ref["run_seconds"] / ref["epochs"]
        e2e = end_to_end(w, base)
        m["algos.epochs_to_target"] = e2e.get("epochs_to_target", 0.0)
        m["comm.wire_bytes_per_sample"] = e2e["wire_bytes_per_sample"]
        hit = target_record(w, base)
        if hit is not None:
            # host seconds: on sim the record clock is virtual, so scale wall
            m["algos.time_to_target_s"] = e2e.get(
                "time_to_target_s", base["wall_s"] * hit["epoch"] / base["epochs"])

    m["sim.engine.run_s"] = _max(s, ["sim.engine.run"])
    events = _sum(s, ["sim.engine.run"], "value")
    run_total = _sum(s, ["sim.engine.run"], "total_s")
    m["sim.engine.events"] = events
    m["sim.engine.events_per_s"] = events / run_total if run_total else 0.0
    for p in SCALING_P:
        cells = [f"harness.timing.cell_p{p}.fabric", f"harness.timing.cell_p{p}.fastfabric"]
        m[f"harness.timing.cell_p{p}_s"] = _sum(s, cells, "total_s")
    m["comm.fabric.cell_s"] = _sum(
        s, [f"harness.timing.cell_p{p}.fabric" for p in SCALING_P], "total_s")
    m["comm.fastfabric.cell_s"] = _sum(
        s, [f"harness.timing.cell_p{p}.fastfabric" for p in SCALING_P], "total_s")

    m["trace.unattributed_frac"] = unattributed_frac(s)
    m["trace.overhead_frac"] = traced["wall_s"] / untraced_wall - 1.0
    m["runtime.blas_unpinned_slowdown"] = blas_slowdown
    return m
