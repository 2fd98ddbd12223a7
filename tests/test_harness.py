"""Tests for calibration, timing simulation, experiment registry, reporting."""

import pytest

from repro.harness import (
    PAPER_PROFILE,
    CalibrationProfile,
    TimingWorkload,
    calibrated_machine,
    format_result,
    format_series,
    format_table,
    list_experiments,
    run_experiment,
    simulate_epoch_time,
)
from repro.harness.experiments import ExperimentResult
from repro.nn.models import build_cifar10_cnn, build_nlcf_net


@pytest.fixture(scope="module")
def workloads():
    _, _, cinfo = build_cifar10_cnn()
    _, _, ninfo = build_nlcf_net()
    return {
        "cifar": TimingWorkload.from_model_info(cinfo, n_train=50_000),
        "nlcf": TimingWorkload.from_model_info(ninfo, n_train=2_500),
    }


# -- calibration ------------------------------------------------------------------


def test_calibrated_machine_structure():
    m = calibrated_machine(PAPER_PROFILE, seed=0)
    assert len(m.spec.gpu_names) == 8
    assert m.host == "host"


def test_profile_controls_machine():
    prof = CalibrationProfile(gpu_flops=1e9, n_gpus=4)
    m = calibrated_machine(prof)
    assert len(m.spec.gpu_names) == 4
    assert m.devices["gpu0"].spec.flops == 1e9


def test_host_channel_narrower_than_tree():
    assert PAPER_PROFILE.host_bandwidth < PAPER_PROFILE.tree_bandwidth


# -- timing workload ----------------------------------------------------------------


def test_workload_from_model_info(workloads):
    wl = workloads["cifar"]
    assert wl.batch_size == 64
    assert wl.param_bytes == pytest.approx(506378 * 4)
    assert wl.steps_per_learner_per_epoch(1) == 782
    assert wl.steps_per_learner_per_epoch(8) == 98


def test_nlcf_workload_minibatch_one(workloads):
    assert workloads["nlcf"].batch_size == 1
    assert workloads["nlcf"].steps_per_learner_per_epoch(8) == 313


# -- timing simulation ----------------------------------------------------------------


def test_sgd_timing_requires_p1(workloads):
    with pytest.raises(ValueError):
        simulate_epoch_time("sgd", workloads["cifar"], p=2, T=1)


def test_unknown_algorithm_rejected(workloads):
    with pytest.raises(ValueError):
        simulate_epoch_time("bogus", workloads["cifar"], p=2, T=1)


def test_timing_result_fields(workloads):
    r = simulate_epoch_time("sasgd", workloads["cifar"], p=2, T=10)
    assert r.epoch_seconds > 0
    assert r.compute_seconds > 0
    assert r.comm_seconds > 0
    assert 0 < r.comm_fraction < 1
    assert r.total_bytes_per_epoch > 0


def test_sasgd_epoch_time_decreases_with_p_at_large_T(workloads):
    ts = [
        simulate_epoch_time("sasgd", workloads["cifar"], p=p, T=50).epoch_seconds
        for p in (1, 2, 4, 8)
    ]
    assert ts == sorted(ts, reverse=True)


def test_larger_T_never_slower(workloads):
    for algo in ("sasgd", "downpour"):
        t1 = simulate_epoch_time(algo, workloads["nlcf"], p=8, T=1).epoch_seconds
        t50 = simulate_epoch_time(algo, workloads["nlcf"], p=8, T=50).epoch_seconds
        assert t50 < t1


def test_fig1_claim_nlcf_comm_over_60pct(workloads):
    """The paper's headline Fig. 1 claim reproduces."""
    for p in (1, 8):
        r = simulate_epoch_time("downpour", workloads["nlcf"], p=p, T=1)
        assert r.comm_fraction > 0.6


def test_fig6_claim_sasgd_fastest_at_T1(workloads):
    times = {
        algo: simulate_epoch_time(algo, workloads["nlcf"], p=8, T=1).epoch_seconds
        for algo in ("downpour", "eamsgd", "sasgd")
    }
    assert times["sasgd"] < times["eamsgd"]
    assert times["sasgd"] < times["downpour"]


def test_fig6_claim_similar_at_T50(workloads):
    times = [
        simulate_epoch_time(algo, workloads["cifar"], p=8, T=50).epoch_seconds
        for algo in ("downpour", "eamsgd", "sasgd")
    ]
    assert max(times) / min(times) < 1.3


def test_timing_deterministic(workloads):
    a = simulate_epoch_time("downpour", workloads["cifar"], p=4, T=5, seed=1)
    b = simulate_epoch_time("downpour", workloads["cifar"], p=4, T=5, seed=1)
    assert a.epoch_seconds == b.epoch_seconds


# -- experiment registry ----------------------------------------------------------------


def test_registry_covers_every_table_and_figure():
    expected = {
        "table1",
        "table2",
        "fig1",
        "fig2",
        "fig3",
        "fig4",
        "fig5",
        "fig6",
        "fig7",
        "fig8",
        "fig9",
        "fig10",
        "theorem1",
        "theorems_sasgd",
        "traffic",
    }
    assert expected <= set(list_experiments())


def test_run_experiment_unknown_id():
    with pytest.raises(ValueError, match="unknown experiment"):
        run_experiment("fig99")


def test_table_experiments_report_param_totals():
    r1 = run_experiment("table1")
    assert r1.rows[-1]["params"] == 506_378
    r2 = run_experiment("table2")
    assert r2.rows[-1]["params"] == 1_733_511


def test_fig1_experiment_rows():
    r = run_experiment("fig1", p_values=(1, 2))
    assert len(r.rows) == 4  # 2 workloads x 2 p values
    assert all("comm_%" in row for row in r.rows)


def test_fig4_experiment_has_sequential_row():
    r = run_experiment("fig4", T_values=(1,), p_values=(2,))
    assert r.rows[0]["note"] == "sequential"
    assert r.rows[1]["speedup"] > 0


def test_theorem1_experiment_skips_p_below_alpha():
    r = run_experiment("theorem1", alpha_values=(16.0,), p_values=(8, 16))
    assert [row["p"] for row in r.rows] == [16]


def test_theorems_sasgd_monotone_rows():
    r = run_experiment("theorems_sasgd", T_values=(1, 5, 25))
    bounds = [row["optimal_bound_at_S"] for row in r.rows]
    assert bounds == sorted(bounds)
    samples = [row["samples_to_target"] for row in r.rows]
    assert samples == sorted(samples)


def test_fig2_unit_scale_end_to_end():
    r = run_experiment("fig2", p_values=(1, 2), epochs=2, scale="unit", eval_every=1)
    assert set(r.series) == {"p=1", "p=2"}
    assert len(r.rows) == 2


def test_fig7_unit_scale_end_to_end():
    r = run_experiment(
        "fig7", T_values=(1, 2), p_values=(2,), epochs=2, scale="unit", eval_every=1
    )
    assert len(r.rows) == 2
    assert "p=2,T=1" in r.series


def test_fig9_unit_scale_end_to_end():
    r = run_experiment("fig9", p_values=(2,), T=2, epochs=2, scale="unit", eval_every=1)
    algos = {row["algorithm"] for row in r.rows}
    assert algos == {"downpour", "eamsgd", "sasgd"}
    assert "sasgd,p=2,test" in r.series and "sasgd,p=2,train" in r.series


def test_fig10_unit_scale_end_to_end():
    r = run_experiment("fig10", p_values=(2,), T=2, epochs=1, scale="unit", eval_every=1)
    assert len(r.rows) == 3


# -- reporting -----------------------------------------------------------------------------


def test_format_table_alignment():
    text = format_table([{"a": 1, "bb": "x"}, {"a": 22, "bb": "yy"}])
    lines = text.splitlines()
    assert len(lines) == 4
    assert lines[0].startswith("a")
    assert all(len(l) == len(lines[0]) or True for l in lines)


def test_format_table_empty():
    assert format_table([]) == "(no rows)"


def test_format_table_heterogeneous_columns():
    text = format_table([{"a": 1}, {"b": 2}])
    assert "a" in text and "b" in text


def test_format_series_subsamples():
    r = ExperimentResult("x", "t", "c", series={"s": [(i, 0.1) for i in range(100)]})
    text = format_series(r, max_points=5)
    assert text.count(":") <= 8
    assert "99:" in text  # last point always shown


def test_format_result_full_block():
    r = ExperimentResult(
        "figX", "Title", "Claim", rows=[{"a": 1}], series={"s": [(1, 0.5)]}, notes="n"
    )
    text = format_result(r)
    assert "figX" in text and "Claim" in text and "notes: n" in text
