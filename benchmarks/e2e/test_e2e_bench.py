"""Self-test of the e2e benchmark (not part of tier-1; about three minutes):

    PYTHONPATH=src python -m pytest benchmarks/e2e -q

The fast tests pin the recorder arithmetic, the verdict rule and the
manifest.  The slow ones run the suite with ``--quick`` (two epochs): every
metric is emitted with a unit, spans sum to the total, an A/A comparison
finds nothing, and a sleep planted by this test inside one wrapped boundary
is reported ``worse`` on the predicted workload, in the predicted layer
metric, and ``same`` on the workload that bypasses the layer.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))

import compare  # noqa: E402
import metrics  # noqa: E402
import trace as e2e_trace  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


# -- fast: manifest, verdict rule, recorder --------------------------------------


def test_manifest_matches_catalogue():
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(manifest) == {"command", "paths", "run_seconds", "workloads",
                             "end_to_end", "per_layer"}
    assert manifest["paths"] == ["benchmarks/e2e"]
    assert [(w["name"], w["why"]) for w in manifest["workloads"]] == \
        [(w.name, w.why) for w in WORKLOADS]
    assert all(len(w["why"]) <= 200 for w in manifest["workloads"])
    gated = [m for m in metrics.END_TO_END if m.gated]
    assert manifest["end_to_end"] == [
        {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
        for m in gated
    ]
    assert manifest["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better} for m in metrics.PER_LAYER
    ]
    setup = next(m for m in gated if m.name == "setup_s")
    assert setup.bound == max(m.bound for m in gated)


def test_verdict_rule():
    v = compare.verdict
    steady = [10.0, 10.1, 9.9, 10.05, 9.95]
    assert v("lower", 0.10, steady, [x * 1.04 for x in steady]) == "same"
    assert v("lower", 0.10, steady, [x * 1.30 for x in steady]) == "worse"
    assert v("lower", 0.10, steady, [x * 0.70 for x in steady]) == "better"
    assert v("higher", 0.10, steady, [x * 0.70 for x in steady]) == "worse"
    # spread wider than the bound: unresolved, unless the sides separate
    wide = [8.0, 9.0, 10.0, 11.0, 12.0]
    assert v("lower", 0.10, wide, [x * 1.05 for x in wide]) == "unresolved"
    assert v("lower", 0.10, wide, [x + 10 for x in wide]) == "worse"
    assert v("lower", 0.10, wide, [x - 7.5 for x in wide]) == "better"
    # a loaded machine is never judged better or worse
    assert v("lower", 0.10, steady, [x * 1.30 for x in steady], noisy=True) == "unresolved"
    # exact metrics: any move counts; Downpour's target may slip one epoch
    assert v("lower", 0.0, [17.0] * 3, [17.0] * 3) == "same"
    assert v("lower", 0.0, [17.0] * 3, [18.0] * 3) == "worse"
    assert v("lower", 0.0, [13.0] * 3, [14.0] * 3, slack=1.0) == "same"


def test_recorder_self_time_leaf_and_coroutine_segments():
    rec = e2e_trace.Recorder()
    outer = rec.begin("outer")
    inner = rec.begin("inner")
    rec.end(inner, value=7.0)
    leaf = rec.begin("eval", leaf=True)
    assert rec.begin("hidden") == -1      # a leaf hides what it calls
    rec.end(-1)
    rec.end(leaf)
    rec.end(outer)
    table = rec.table()
    dur = table[:, e2e_trace.END] - table[:, e2e_trace.START]
    assert len(table) == 3
    assert table[0, e2e_trace.SELF] == pytest.approx(dur[0] - dur[1] - dur[2])
    assert table[1, e2e_trace.PARENT] == 0 and table[1, e2e_trace.VALUE] == 7.0

    def coroutine():
        got = yield "first"
        assert got == "reply"
        yield "second"
        return "done"

    driven = e2e_trace._drive(rec, "body", coroutine(), 0.0, rank=1)
    assert next(driven) == "first"
    assert rec.rank == -1                 # rank is set only inside a segment
    assert driven.send("reply") == "second"
    with pytest.raises(StopIteration) as stop:
        next(driven)
    assert stop.value.value == "done"
    body = rec.table()[3:]
    assert len(body) == 3 and set(body[:, e2e_trace.RANK]) == {1.0}

    # a forked rank's table re-seats names and parent links on merge
    child = e2e_trace.Recorder()
    child._base = 2
    child.rows = [[0, 0, 1, -1, -1, 1, 0]] * 2
    child.names = ["setup"]
    child._ids = {"setup": 0}
    a = child.begin("outer")
    b = child.begin("fresh")
    child.end(b)
    child.end(a)
    before = len(rec.rows)
    rec.merge(child.export())
    merged = rec.table()[before:]
    assert [rec.names[int(i)] for i in merged[:, e2e_trace.NAME]] == ["outer", "fresh"]
    assert merged[1, e2e_trace.PARENT] == before


# -- slow: the suite itself -------------------------------------------------------


def _suite(tmp: Path, name: str, workloads, repeats: int, inject: str = "") -> dict:
    out = tmp / f"{name}.json"
    cmd = [sys.executable, str(HERE / "run.py"), "--quick", "--repeats", str(repeats),
           "--out", str(out)]
    for w in workloads:
        cmd += ["--workload", w]
    if inject:
        cmd += ["--inject", inject]
    done = subprocess.run(cmd, cwd=str(ROOT), capture_output=True, text=True, timeout=900)
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    report = json.loads(out.read_text())
    # the suites of this file run back to back, so the 1-minute load still
    # holds the previous one; test_verdict_rule covers what `noisy` does
    report["env"]["noisy"] = False
    return report


def _verdicts(a: dict, b: dict) -> dict:
    return {(r["workload"], r["metric"]): r["verdict"]
            for r in compare.compare_reports(a, b)}


@pytest.fixture(scope="module")
def tmp(tmp_path_factory) -> Path:
    return tmp_path_factory.mktemp("e2e")


PROBE = ("nlcf_sasgd_mp", "cifar_sasgd_sim", "scaling_sim")


@pytest.fixture(scope="module")
def base(tmp) -> dict:
    """Three repeats, so that one slow run cannot move a median past a bound."""
    return _suite(tmp, "base", PROBE, repeats=3)


def test_quick_suite_emits_every_metric_with_a_unit(tmp):
    report = _suite(tmp, "all", [w.name for w in WORKLOADS], repeats=1)
    assert report["claim"] is None
    env = report["env"]
    assert {"git_rev", "nproc", "python", "numpy", "blas", "pins",
            "load_1m_start", "load_1m_end", "noisy"} <= set(env)
    needs_target = {"time_to_target_s", "sim_time_to_target_s", "epochs_to_target"}
    for w in WORKLOADS:
        entry = report["workloads"][w.name]
        assert entry["runs_failed"] == 0, entry["failures"]
        for m in metrics.END_TO_END:
            if metrics.applies(m, w) and m.name not in needs_target:
                assert entry["end_to_end"][m.name], (w.name, m.name)
                assert m.unit
        assert set(entry["per_layer"]) == {layer.name for layer in metrics.PER_LAYER}
        assert all(layer.unit for layer in metrics.PER_LAYER)
        # spans sum to the total: the body's own time is at most a tenth
        assert entry["per_layer"]["trace.unattributed_frac"] <= 0.10
    layers = {w.name: report["workloads"][w.name]["per_layer"] for w in WORKLOADS}
    assert layers["nlcf_sasgd_mp"]["runtime.mp.allreduce_calls"] == 1024
    assert layers["nlcf_sasgd_net"]["net.allreduce_calls"] == 1024
    assert layers["nlcf_sasgd_net"]["net.frames.bytes"] > 0
    assert layers["nlcf_sasgd_mp"]["net.frames.count"] == 0      # bypassed layer
    assert layers["nlcf_downpour_net"]["ps.pushes_applied"] == 2048
    assert layers["scaling_sim"]["sim.engine.events"] > 0
    assert layers["scaling_sim"]["nn.forward_s"] == 0
    assert layers["cifar_sasgd_mp"]["runtime.blas_unpinned_slowdown"] > 0


def test_a_a_comparison_finds_nothing(tmp, base):
    again = _suite(tmp, "again", PROBE, repeats=3)
    gated = {k: v for k, v in _verdicts(base, again).items()
             if k[1] in metrics.E2E_BY_NAME}
    assert gated and set(gated.values()) <= {"same", "unresolved"}, gated
    exact = [k for k in gated if metrics.E2E_BY_NAME[k[1]].bound == 0]
    assert all(gated[k] == "same" for k in exact)


def test_slow_allreduce_is_localised(tmp, base):
    slow = _suite(tmp, "slow_allreduce", PROBE[:2], repeats=3,
                  inject="Collective.allreduce=0.002")
    got = _verdicts(base, slow)
    assert got["nlcf_sasgd_mp", "wall_s"] == "worse"
    assert got["nlcf_sasgd_mp", "samples_per_s"] == "worse"
    assert got["nlcf_sasgd_mp", "runtime.mp.allreduce_s"] == "worse"
    # T=16: two allreduces per learner in the whole quick run
    assert got["cifar_sasgd_sim", "wall_s"] == "same"
    assert got["cifar_sasgd_sim", "samples_per_s"] == "same"


def test_slow_backward_is_localised(tmp, base):
    # 64 backward calls in the quick run: 20 ms each is half of its wall time
    slow = _suite(tmp, "slow_backward", PROBE[1:], repeats=3,
                  inject="model.backward=0.02")
    got = _verdicts(base, slow)
    assert got["cifar_sasgd_sim", "wall_s"] == "worse"
    assert got["cifar_sasgd_sim", "samples_per_s"] == "worse"
    assert got["cifar_sasgd_sim", "nn.backward_s"] == "worse"
    assert got["scaling_sim", "wall_s"] == "same"     # no nn at all
    assert got["scaling_sim", "samples_per_s"] == "same"
