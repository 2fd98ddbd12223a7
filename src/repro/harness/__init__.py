"""Experiment harness: calibration, timing simulation, registry, reporting,
parallel grid execution, and benchmark baselines."""

from .bench import compare_to_baseline, load_bench, run_benchmarks, save_bench
from .calibration import PAPER_PROFILE, CalibrationProfile, calibrated_machine
from .experiments import (
    EXPERIMENTS,
    ExperimentResult,
    list_experiments,
    run_experiment,
)
from .parallel import (
    ResultCache,
    config_key,
    expand_grid,
    iter_grid,
    merge_results,
    run_grid,
)
from .report import format_result, format_series, format_table
from .serialization import (
    load_result,
    result_from_dict,
    result_to_dict,
    save_result,
)
from .timing import TimingResult, TimingWorkload, simulate_epoch_time

__all__ = [
    "CalibrationProfile",
    "EXPERIMENTS",
    "ExperimentResult",
    "PAPER_PROFILE",
    "ResultCache",
    "TimingResult",
    "TimingWorkload",
    "calibrated_machine",
    "compare_to_baseline",
    "config_key",
    "expand_grid",
    "format_result",
    "format_series",
    "format_table",
    "iter_grid",
    "list_experiments",
    "load_bench",
    "load_result",
    "merge_results",
    "result_from_dict",
    "result_to_dict",
    "run_benchmarks",
    "run_experiment",
    "run_grid",
    "save_bench",
    "save_result",
    "simulate_epoch_time",
]
