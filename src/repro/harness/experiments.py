"""Experiment registry: one entry per table/figure in the paper.

Every experiment is a callable returning an :class:`ExperimentResult` whose
``rows``/``series`` are the same quantities the paper's table or figure
reports.  Grids default to bench scale (see DESIGN.md §"scales"); benchmarks
call them with reduced grids, ``examples/run_all_experiments.py`` runs the
full ones and renders EXPERIMENTS.md's measured numbers.

Scale mapping for convergence experiments (documented substitution): the
bench datasets are ~100× smaller than the paper's, so aggregation intervals
are mapped by *fraction of an epoch between aggregations* rather than by
absolute T — e.g. the paper's T=50 at M=64/n=50 000 aggregates every ~1.02
epochs per 16 learners, which bench CIFAR (M=16, n=512) hits near T=8.
p sweeps are unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..algos import (
    DownpourOptions,
    DownpourTrainer,
    EAMSGDOptions,
    EAMSGDTrainer,
    SASGDOptions,
    SASGDTrainer,
    SequentialSGDTrainer,
    TrainerConfig,
    TrainResult,
    cifar_problem,
    nlcf_problem,
)
from ..nn.models import build_cifar10_cnn, build_nlcf_net, cifar10_info, nlcf_info
from ..theory import (
    SurfaceConstants,
    asgd_gap_factor,
    corollary3_K_threshold,
    corollary3_rate,
    estimate_surface_constants,
    lian_learning_rate,
    optimal_c,
    samples_to_reach,
    sasgd_optimal_bound,
    theorem1_gap_approx,
)
from ..cluster.machine import (
    Machine,
    fat_tree_spec,
    power8_cluster_spec,
    torus_spec,
)
from ..comm.schedule import contiguous_groups
from ..spec import registry as _spec_registry
from .calibration import PAPER_PROFILE
from .timing import TimingWorkload, simulate_epoch_time

__all__ = ["ExperimentResult", "EXPERIMENTS", "run_experiment", "list_experiments"]


@dataclass
class ExperimentResult:
    """What a paper table/figure reports, in data form."""

    exp_id: str
    title: str
    paper_claim: str
    rows: List[dict] = field(default_factory=list)
    series: Dict[str, List[Tuple[float, float]]] = field(default_factory=dict)
    notes: str = ""


EXPERIMENTS: Dict[str, Callable[..., ExperimentResult]] = {}


def experiment(
    exp_id: str,
    title: str,
    paper_claim: str,
    split_axes: Tuple[str, ...] = (),
):
    """Register a figure/table reproduction under ``exp_id``.

    ``split_axes`` names the sweep axes forming the experiment body's
    *outermost* loop(s), in nesting order — the axes along which the grid
    runner may decompose a full-grid call into independent single-point
    calls whose concatenated rows/series are bit-identical to the one-shot
    run.  Leave empty for experiments with cross-axis state (e.g. fig4's
    shared sequential-baseline row).
    """

    def wrap(fn: Callable[..., ExperimentResult]) -> Callable[..., ExperimentResult]:
        def run(**kwargs) -> ExperimentResult:
            result = fn(**kwargs)
            result.exp_id = exp_id
            result.title = title
            result.paper_claim = paper_claim
            return result

        run.__name__ = fn.__name__
        run.__doc__ = fn.__doc__
        run.__wrapped__ = fn  # expose the signature (grid defaults) to the parallel runner
        EXPERIMENTS[exp_id] = run
        _spec_registry.EXPERIMENTS.register(
            exp_id, run, title=title, claim=paper_claim,
            split_axes=tuple(split_axes),
        )
        return run

    return wrap


def run_experiment(exp_id: str, **kwargs) -> ExperimentResult:
    if exp_id not in EXPERIMENTS:
        # registry error: names the value, suggests close matches
        _spec_registry.EXPERIMENTS.get(exp_id)
    fn = EXPERIMENTS[exp_id]
    # `backend` is ambient rather than a per-experiment parameter: every
    # trainer the experiment constructs picks it up, and experiment
    # signatures stay backend-free.  Timing-model experiments (fig1/4/5/6)
    # ignore it — they simulate wire schedules, not trainers.
    backend = kwargs.pop("backend", None)
    timeout = kwargs.pop("backend_timeout", None)
    if backend is None:
        return fn(**kwargs)
    from ..runtime import use_backend

    backend_kwargs = {}
    if timeout is not None and backend == "mp":
        # the sim backend has no starvation timeout; silently drop it there
        backend_kwargs["timeout"] = timeout
    with use_backend(backend, **backend_kwargs):
        return fn(**kwargs)


def list_experiments() -> List[str]:
    return sorted(EXPERIMENTS)


def _acc_series(res: TrainResult) -> List[Tuple[float, float]]:
    return [(float(e), float(a)) for e, a in res.test_accuracy_series()]


def _train_series(res: TrainResult) -> List[Tuple[float, float]]:
    return [(float(r.epoch), float(r.train_acc)) for r in res.records]


# --------------------------------------------------------------------------
# Tables I and II — the network architectures
# --------------------------------------------------------------------------


@experiment(
    "table1",
    "CIFAR-10 convolutional network",
    "4 conv/ReLU/pool/dropout stages + FC 128x10; ~0.5M parameters",
)
def table1(width: float = 1.0) -> ExperimentResult:
    model, _crit, info = build_cifar10_cnn(width=width)
    rows = model.layer_summary((3, 32, 32))
    rows.append(
        {
            "layer": "TOTAL",
            "config": "",
            "in_shape": (3, 32, 32),
            "out_shape": (10,),
            "params": info.num_parameters,
            "flops": info.flops_forward_per_example,
        }
    )
    return ExperimentResult(
        "", "", "", rows=rows, notes=f"total parameters: {info.num_parameters:,}"
    )


@experiment(
    "table2",
    "NLC-F sentence network",
    "per-token FC/tanh + temporal conv(1000,2) + pooling + FC head; ~2M parameters",
)
def table2(width: float = 1.0) -> ExperimentResult:
    model, _crit, info = build_nlcf_net(width=width)
    rows = model.layer_summary((20, 100))
    rows.append(
        {
            "layer": "TOTAL",
            "config": "",
            "in_shape": (20, 100),
            "out_shape": (311,),
            "params": info.num_parameters,
            "flops": info.flops_forward_per_example,
        }
    )
    return ExperimentResult(
        "", "", "", rows=rows, notes=f"total parameters: {info.num_parameters:,}"
    )


# --------------------------------------------------------------------------
# Timing experiments (paper-scale model sizes on the calibrated machine)
# --------------------------------------------------------------------------


def _paper_workloads() -> Dict[str, TimingWorkload]:
    return {
        "CIFAR-10": TimingWorkload.from_model_info(cifar10_info(), n_train=50_000),
        "NLC-F": TimingWorkload.from_model_info(nlcf_info(), n_train=2_500),
    }


@experiment(
    "fig1",
    "Breakdown of Downpour epoch time into computation and communication",
    "communication >60% for NLC-F at every p; ~20% rising to ~30% for CIFAR-10",
)
def fig1(p_values: Sequence[int] = (1, 2, 4, 8), epochs: int = 1) -> ExperimentResult:
    rows = []
    for label, wl in _paper_workloads().items():
        for p in p_values:
            r = simulate_epoch_time("downpour", wl, p=p, T=1, epochs=epochs)
            rows.append(
                {
                    "workload": label,
                    "p": p,
                    "epoch_s": round(r.epoch_seconds, 2),
                    "compute_s": round(r.compute_seconds, 2),
                    "comm_s": round(r.comm_seconds, 2),
                    "comm_%": round(100 * r.comm_fraction, 1),
                }
            )
    return ExperimentResult("", "", "", rows=rows)


def _fig45(workload_label: str, T_values, p_values, epochs) -> ExperimentResult:
    wl = _paper_workloads()[workload_label]
    seq = simulate_epoch_time("sgd", wl, p=1, T=10**9, epochs=epochs)
    rows = [
        {
            "T": "-",
            "p": 1,
            "epoch_s": round(seq.epoch_seconds, 2),
            "speedup": 1.0,
            "note": "sequential",
        }
    ]
    for T in T_values:
        for p in p_values:
            r = simulate_epoch_time("sasgd", wl, p=p, T=T, epochs=epochs)
            rows.append(
                {
                    "T": T,
                    "p": p,
                    "epoch_s": round(r.epoch_seconds, 2),
                    "speedup": round(seq.epoch_seconds / r.epoch_seconds, 2),
                    "note": "",
                }
            )
    return ExperimentResult("", "", "", rows=rows)


@experiment(
    "fig4",
    "Impact of T on SASGD epoch time, CIFAR-10",
    "T=50 faster than T=1 (paper: 1.3x at 8 learners); speedup 4.45x at 8 learners",
)
def fig4(
    T_values: Sequence[int] = (1, 50),
    p_values: Sequence[int] = (1, 2, 4, 8),
    epochs: int = 1,
) -> ExperimentResult:
    return _fig45("CIFAR-10", T_values, p_values, epochs)


@experiment(
    "fig5",
    "Impact of T on SASGD epoch time, NLC-F",
    "T=50 much faster than T=1 (paper: 9.7x at 8 learners); speedup 5.35x at 8 learners",
)
def fig5(
    T_values: Sequence[int] = (1, 50),
    p_values: Sequence[int] = (1, 2, 4, 8),
    epochs: int = 1,
) -> ExperimentResult:
    return _fig45("NLC-F", T_values, p_values, epochs)


@experiment(
    "fig6",
    "Epoch time of Downpour/EAMSGD/SASGD with 8 learners, T=1 and T=50",
    "SASGD much faster at T=1 (lower communication complexity); all similar at T=50",
)
def fig6(
    T_values: Sequence[int] = (1, 50), p: int = 8, epochs: int = 1
) -> ExperimentResult:
    rows = []
    for label, wl in _paper_workloads().items():
        for T in T_values:
            for algo in ("downpour", "eamsgd", "sasgd"):
                r = simulate_epoch_time(algo, wl, p=p, T=T, epochs=epochs)
                rows.append(
                    {
                        "workload": label,
                        "T": T,
                        "algorithm": algo,
                        "epoch_s": round(r.epoch_seconds, 2),
                        "comm_%": round(100 * r.comm_fraction, 1),
                    }
                )
    return ExperimentResult("", "", "", rows=rows)


# --------------------------------------------------------------------------
# Convergence experiments (bench scale, real training on the simulated
# cluster)
# --------------------------------------------------------------------------

_BENCH_CIFAR_LR = 0.05
_BENCH_CIFAR_BATCH = 16
_BENCH_NLCF_LR = 0.05
_BENCH_NLCF_BATCH = 1


def _cifar_cfg(p: int, epochs: int, lr: float, seed: int, eval_every: int) -> TrainerConfig:
    return TrainerConfig(
        p=p,
        epochs=epochs,
        batch_size=_BENCH_CIFAR_BATCH,
        lr=lr,
        seed=seed,
        eval_every=eval_every,
    )


def _nlcf_cfg(p: int, epochs: int, lr: float, seed: int, eval_every: int) -> TrainerConfig:
    return TrainerConfig(
        p=p,
        epochs=epochs,
        batch_size=_BENCH_NLCF_BATCH,
        lr=lr,
        seed=seed,
        eval_every=eval_every,
    )


@experiment(
    "fig2",
    "Downpour (ASGD) convergence for CIFAR-10 with the practical learning rate",
    "with constant practical γ, the accuracy gap to SGD grows with p: "
    "convergence speedup is sublinear",
    split_axes=("p_values",),
)
def fig2(
    p_values: Sequence[int] = (1, 2, 8, 16),
    epochs: int = 30,
    lr: float = _BENCH_CIFAR_LR,
    seed: int = 5,
    eval_every: int = 3,
    scale: str = "bench",
) -> ExperimentResult:
    prob = cifar_problem(scale=scale, seed=seed)
    series = {}
    rows = []
    for p in p_values:
        if p == 1:
            res = SequentialSGDTrainer(prob, _cifar_cfg(1, epochs, lr, seed, eval_every)).train()
        else:
            res = DownpourTrainer(
                prob,
                _cifar_cfg(p, epochs, lr, seed, eval_every),
                DownpourOptions(T=4),
            ).train()
        series[f"p={p}"] = _acc_series(res)
        rows.append(
            {
                "p": p,
                "final_test_acc": round(res.final_test_acc or 0.0, 3),
                "staleness_mean": round(float(res.extras.get("staleness_mean", 0.0)), 1),
            }
        )
    return ExperimentResult("", "", "", rows=rows, series=series)


@experiment(
    "fig3",
    "Downpour convergence for CIFAR-10 with the theory learning rate",
    "with the tiny γ from Lian et al.'s analysis the curves for all p overlap "
    "(linear convergence speedup) but reach much worse accuracy than practical γ",
    split_axes=("p_values",),
)
def fig3(
    p_values: Sequence[int] = (1, 2, 8, 16),
    epochs: int = 30,
    seed: int = 5,
    eval_every: int = 3,
    theory_lr: Optional[float] = None,
    theory_samples: int = 500_000,
    scale: str = "bench",
) -> ExperimentResult:
    # The paper derives its theory γ from the *full* tuning budget
    # ("we use M·K = 500 000"), not from however many epochs a particular
    # run executes, so the lian rate here uses the same 500 000-sample
    # budget while the bench schedule runs its (shorter) epochs.
    prob = cifar_problem(scale=scale, seed=seed)
    if theory_lr is None:
        sc = estimate_surface_constants(
            prob, M=_BENCH_CIFAR_BATCH, seed=seed, n_variance_samples=8, n_lipschitz_probes=2
        )
        K = max(1, theory_samples // _BENCH_CIFAR_BATCH)
        theory_lr = lian_learning_rate(sc, M=_BENCH_CIFAR_BATCH, K=K)
    series = {}
    rows = []
    for p in p_values:
        if p == 1:
            res = SequentialSGDTrainer(
                prob, _cifar_cfg(1, epochs, theory_lr, seed, eval_every)
            ).train()
        else:
            res = DownpourTrainer(
                prob,
                _cifar_cfg(p, epochs, theory_lr, seed, eval_every),
                DownpourOptions(T=4),
            ).train()
        series[f"p={p}"] = _acc_series(res)
        rows.append({"p": p, "final_test_acc": round(res.final_test_acc or 0.0, 3)})
    return ExperimentResult(
        "", "", "", rows=rows, series=series, notes=f"theory lr = {theory_lr:.4g}"
    )


def _sasgd_T_sweep(problem_kind, T_values, p_values, epochs, lr, seed, eval_every, scale):
    series = {}
    rows = []
    for p in p_values:
        for T in T_values:
            if problem_kind == "cifar":
                prob = cifar_problem(scale=scale, seed=seed)
                cfg = _cifar_cfg(p, epochs, lr, seed, eval_every)
            else:
                prob = nlcf_problem(scale=scale, seed=seed)
                cfg = _nlcf_cfg(p, epochs, lr, seed, eval_every)
            res = SASGDTrainer(prob, cfg, SASGDOptions(T=T)).train()
            series[f"p={p},T={T}"] = _acc_series(res)
            rows.append(
                {
                    "p": p,
                    "T": T,
                    "final_test_acc": round(res.final_test_acc or 0.0, 3),
                    "final_train_acc": round(res.final_train_acc or 0.0, 3),
                }
            )
    return ExperimentResult("", "", "", rows=rows, series=series)


@experiment(
    "fig7",
    "SASGD test accuracy vs epochs for several T, CIFAR-10",
    "accuracy after a fixed number of epochs degrades as T grows; the "
    "degradation is negligible for small p and grows with p",
    split_axes=("p_values", "T_values"),
)
def fig7(
    T_values: Sequence[int] = (1, 2, 4, 8),
    p_values: Sequence[int] = (2, 4, 8, 16),
    epochs: int = 30,
    lr: float = _BENCH_CIFAR_LR,
    seed: int = 5,
    eval_every: int = 3,
    scale: str = "bench",
) -> ExperimentResult:
    return _sasgd_T_sweep("cifar", T_values, p_values, epochs, lr, seed, eval_every, scale)


@experiment(
    "fig8",
    "SASGD test accuracy vs epochs for several T, NLC-F",
    "same sweep as Fig 7 on NLC-F; degradation with T is milder and large T "
    "can even win at p=16",
    split_axes=("p_values", "T_values"),
)
def fig8(
    T_values: Sequence[int] = (1, 2, 8, 16),
    p_values: Sequence[int] = (2, 4, 8, 16),
    epochs: int = 30,
    lr: float = _BENCH_NLCF_LR,
    seed: int = 5,
    eval_every: int = 3,
    scale: str = "bench",
) -> ExperimentResult:
    return _sasgd_T_sweep("nlcf", T_values, p_values, epochs, lr, seed, eval_every, scale)


def _compare_algos(problem_kind, p_values, T, epochs, lr, seed, eval_every, scale):
    series = {}
    rows = []
    for p in p_values:
        if problem_kind == "cifar":
            mkprob = lambda: cifar_problem(scale=scale, seed=seed)
            mkcfg = lambda: _cifar_cfg(p, epochs, lr, seed, eval_every)
        else:
            mkprob = lambda: nlcf_problem(scale=scale, seed=seed)
            mkcfg = lambda: _nlcf_cfg(p, epochs, lr, seed, eval_every)
        trainers = {
            "downpour": lambda: DownpourTrainer(mkprob(), mkcfg(), DownpourOptions(T=T)),
            "eamsgd": lambda: EAMSGDTrainer(
                mkprob(), mkcfg(), EAMSGDOptions(tau=T, momentum=0.5)
            ),
            "sasgd": lambda: SASGDTrainer(mkprob(), mkcfg(), SASGDOptions(T=T)),
        }
        for algo, mk in trainers.items():
            res = mk().train()
            series[f"{algo},p={p},test"] = _acc_series(res)
            series[f"{algo},p={p},train"] = _train_series(res)
            rows.append(
                {
                    "p": p,
                    "algorithm": algo,
                    "final_test_acc": round(res.final_test_acc or 0.0, 3),
                    "final_train_acc": round(res.final_train_acc or 0.0, 3),
                }
            )
    return ExperimentResult("", "", "", rows=rows, series=series)


@experiment(
    "fig9",
    "Training/test accuracy of Downpour vs EAMSGD vs SASGD, CIFAR-10, large T",
    "SASGD > EAMSGD > Downpour; Downpour erratic from p=4 and near random guess "
    "at p=16; the SASGD-EAMSGD gap widens with p",
    split_axes=("p_values",),
)
def fig9(
    p_values: Sequence[int] = (2, 4, 8, 16),
    T: int = 4,
    epochs: int = 30,
    lr: float = _BENCH_CIFAR_LR,
    seed: int = 5,
    eval_every: int = 3,
    scale: str = "bench",
) -> ExperimentResult:
    return _compare_algos("cifar", p_values, T, epochs, lr, seed, eval_every, scale)


@experiment(
    "fig10",
    "Training/test accuracy of Downpour vs EAMSGD vs SASGD, NLC-F, large T",
    "SASGD stays near the sequential accuracy at every p while Downpour and "
    "EAMSGD collapse toward random guess at p>=8",
    split_axes=("p_values",),
)
def fig10(
    p_values: Sequence[int] = (2, 4, 8, 16),
    T: int = 16,
    epochs: int = 30,
    lr: float = _BENCH_NLCF_LR,
    seed: int = 5,
    eval_every: int = 3,
    scale: str = "bench",
) -> ExperimentResult:
    return _compare_algos("nlcf", p_values, T, epochs, lr, seed, eval_every, scale)


# --------------------------------------------------------------------------
# Theory experiments
# --------------------------------------------------------------------------


@experiment(
    "theorem1",
    "ASGD guarantee gap between 1 and p learners",
    "optimal guarantees differ by ~p/α for 16 <= α <= p (e.g. factor 2 for "
    "p=32 at α≈16, the paper's 50-epoch CIFAR-10 setting)",
)
def theorem1(
    alpha_values: Sequence[float] = (16.0, 20.0, 24.0, 32.0),
    p_values: Sequence[int] = (16, 32, 64, 128),
) -> ExperimentResult:
    rows = []
    for alpha in alpha_values:
        for p in p_values:
            if p < alpha:
                continue
            rows.append(
                {
                    "alpha": alpha,
                    "p": p,
                    "optimal_c": round(optimal_c(alpha, p), 4),
                    "exact_gap": round(asgd_gap_factor(alpha, p), 3),
                    "approx_p_over_alpha": round(theorem1_gap_approx(alpha, p), 3),
                }
            )
    return ExperimentResult("", "", "", rows=rows)


@experiment(
    "theorems_sasgd",
    "SASGD bounds: Theorem 2 optimum, Corollary 3 regime, Theorem 4 monotonicity",
    "the optimal guarantee and the sample complexity both increase with T; "
    "the K needed for the asymptotic O(1/sqrt(S)) rate grows with T",
)
def theorems_sasgd(
    T_values: Sequence[int] = (1, 5, 25, 50),
    p: int = 8,
    M: int = 64,
    S: int = 5_000_000,
    target: float = 1.0,
    constants: Optional[SurfaceConstants] = None,
) -> ExperimentResult:
    sc = constants if constants is not None else SurfaceConstants(Df=2.3, L=50.0, sigma2=100.0)
    rows = []
    for T in T_values:
        rows.append(
            {
                "T": T,
                "optimal_bound_at_S": round(sasgd_optimal_bound(sc, M, T, p, S), 5),
                "samples_to_target": samples_to_reach(sc, M, T, p, target),
                "K_threshold_cor3": int(corollary3_K_threshold(sc, M, T, p)),
                "asymptotic_rate_cor3": round(corollary3_rate(sc, S), 5),
            }
        )
    return ExperimentResult(
        "",
        "",
        "",
        rows=rows,
        notes=f"constants: Df={sc.Df}, L={sc.L}, sigma2={sc.sigma2}; p={p}, M={M}",
    )


@experiment(
    "traffic",
    "Data moved per aggregation: allreduce O(m log p) vs parameter server O(m p)",
    "SASGD transports O(m log p) per aggregation (tree allreduce) while a "
    "parameter server transports O(m p); the PS bytes all cross one host channel",
)
def traffic(p_values: Sequence[int] = (2, 4, 8, 16)) -> ExperimentResult:
    from ..comm.costmodel import allreduce_traffic_bytes, ps_traffic_bytes

    m = cifar10_info().param_bytes
    rows = []
    for p in p_values:
        rows.append(
            {
                "p": p,
                "allreduce_tree_MB": round(allreduce_traffic_bytes(m, p, "tree") / 2**20, 1),
                "allreduce_critical_path_MB": round(
                    allreduce_traffic_bytes(m, p, "tree_depth") / 2**20, 1
                ),
                "param_server_MB": round(ps_traffic_bytes(m, p) / 2**20, 1),
                "ratio_ps_over_critical": round(
                    ps_traffic_bytes(m, p)
                    / allreduce_traffic_bytes(m, p, "tree_depth"),
                    2,
                ),
            }
        )
    return ExperimentResult("", "", "", rows=rows, notes=f"m = {m/2**20:.1f} MiB (CIFAR-10 model)")


def _scaling_machine(topology: str, p: int, n_nodes: int, n_hosts: int) -> Machine:
    """The simulated machine for one scaling cell (fresh engine per cell)."""
    prof = PAPER_PROFILE
    if topology == "cluster":
        return Machine(
            power8_cluster_spec(
                n_nodes=n_nodes,
                gpu_flops=prof.gpu_flops,
                gpu_jitter=prof.gpu_jitter,
                gpu_overhead=prof.step_overhead,
                host_flops=prof.host_flops,
                host_overhead=prof.ps_request_overhead,
                tree_bandwidth=prof.tree_bandwidth,
                tree_latency=prof.tree_latency,
                host_bandwidth=prof.host_bandwidth,
                host_latency=prof.host_latency,
            ),
            seed=0,
        )
    if topology == "fat-tree":
        return Machine(
            fat_tree_spec(
                n_gpus=p,
                gpu_flops=prof.gpu_flops,
                gpu_jitter=prof.gpu_jitter,
                gpu_overhead=prof.step_overhead,
                host_flops=prof.host_flops,
                host_overhead=prof.ps_request_overhead,
                leaf_bandwidth=prof.tree_bandwidth,
                leaf_latency=prof.tree_latency,
                n_hosts=n_hosts,
                host_bandwidth=prof.host_bandwidth,
                host_latency=prof.host_latency,
            ),
            seed=0,
        )
    if topology == "torus":
        rows = 1 << (max(p.bit_length() - 1, 0) // 2)
        cols = p // rows
        if rows * cols != p:
            raise ValueError(f"torus scaling cell needs power-of-two p, got {p}")
        return Machine(
            torus_spec(
                rows=rows,
                cols=cols,
                gpu_flops=prof.gpu_flops,
                gpu_jitter=prof.gpu_jitter,
                gpu_overhead=prof.step_overhead,
                host_flops=prof.host_flops,
                host_overhead=prof.ps_request_overhead,
                link_bandwidth=prof.tree_bandwidth,
                link_latency=prof.tree_latency,
                n_hosts=n_hosts,
                host_bandwidth=prof.host_bandwidth,
                host_latency=prof.host_latency,
            ),
            seed=0,
        )
    raise ValueError(f"unknown scaling topology {topology!r}")


@experiment(
    "scaling",
    "SASGD vs parameter server as future systems grow to p=1024 (conclusion claim)",
    "\"As the number of GPUs in future systems is likely to increase, we expect "
    "SASGD [to] perform better than ASGD implementations\": on multi-node, "
    "fat-tree and torus machines the PS epoch time stops improving with p "
    "while SASGD keeps scaling through p=1024",
)
def scaling(
    p_values: Sequence[int] = (8, 16, 32),
    n_nodes: int = 4,
    T: int = 1,
    epochs: int = 1,
    topology: str = "cluster",
    comm_mode: Optional[str] = None,
    group_size: int = 8,
    n_hosts: int = 4,
    n_shards: int = 8,
) -> ExperimentResult:
    """Timing-only NLC-F epoch-time curves, SASGD vs Downpour, at scale.

    ``topology`` picks the machine family:

    * ``"cluster"`` (default) — the original conclusion cell: ``n_nodes``
      Power8/OSS nodes, centralised PS on node 0, ring allreduce.  Learners
      share GPUs once p exceeds the GPU count, as in the paper's MPS setup.
    * ``"fat-tree"`` — one GPU leaf per learner under a constant-bisection
      fat-tree, ``n_hosts`` PS hosts at the root, hierarchical allreduce
      (``group_size`` leaves per group) and an ``n_shards``-shard PS.
    * ``"torus"`` — one GPU per node of a 2-D torus, hosts anchored around
      the ring, same hierarchy/sharding.

    ``comm_mode=None`` picks per-cell: the per-message fabric up to p=32
    (reference fidelity) and the vectorised wave fabric beyond, which is what
    makes the p=128–1024 cells tractable (see DESIGN §11).
    """
    wl = TimingWorkload.from_model_info(nlcf_info(), n_train=2_500)
    rows = []
    for p in p_values:
        cell_mode = comm_mode or ("message" if p <= 32 else "vector")
        if topology == "cluster":
            algo_kwargs: Dict[str, dict] = {
                "sasgd": dict(allreduce_algorithm="ring"),
                "downpour": dict(),
            }
        else:
            hosts = [f"host{h}" for h in range(n_hosts)] if n_hosts > 1 else ["host"]
            algo_kwargs = {
                "sasgd": dict(
                    allreduce_algorithm="hierarchical",
                    allreduce_groups=contiguous_groups(p, group_size),
                ),
                "downpour": dict(n_shards=n_shards, ps_hosts=hosts),
            }
        for algo in ("sasgd", "downpour"):
            machine = _scaling_machine(topology, p, n_nodes, n_hosts)
            r = simulate_epoch_time(
                algo,
                wl,
                p=p,
                T=T,
                epochs=epochs,
                machine=machine,
                comm_mode=cell_mode,
                **algo_kwargs[algo],
            )
            rows.append(
                {
                    "p": p,
                    "algorithm": algo,
                    "topology": topology,
                    "comm_mode": cell_mode,
                    "epoch_s": round(r.epoch_seconds, 4),
                    "comm_%": round(100 * r.comm_fraction, 1),
                    "GB_per_epoch": round(r.total_bytes_per_epoch / 1e9, 3),
                }
            )
    label = {
        "cluster": f"{n_nodes} nodes x 8 GPUs",
        "fat-tree": f"fat-tree, {n_hosts} hosts, groups of {group_size}",
        "torus": f"2-D torus, {n_hosts} hosts, groups of {group_size}",
    }[topology]
    return ExperimentResult(
        "", "", "", rows=rows, notes=f"{label}, T={T}, NLC-F scale"
    )


@experiment(
    "averaging",
    "Model-averaging heuristics vs SASGD (Sec. III discussion)",
    "one-shot averaging \"results in very poor training and test accuracies\"; "
    "per-minibatch averaging works but pays maximal communication (= SASGD T=1)",
)
def averaging(
    p: int = 4,
    epochs: int = 12,
    lr: float = _BENCH_CIFAR_LR,
    seed: int = 5,
    scale: str = "bench",
) -> ExperimentResult:
    from ..algos import MinibatchAveragingTrainer, OneShotAveragingTrainer

    prob = cifar_problem(scale=scale, seed=seed)
    cfg = _cifar_cfg(p, epochs, lr, seed, eval_every=epochs)
    rows = []
    runs = {
        "oneshot-averaging": OneShotAveragingTrainer(prob, cfg),
        "minibatch-averaging": MinibatchAveragingTrainer(prob, cfg),
        "sasgd(T=4)": SASGDTrainer(prob, cfg, SASGDOptions(T=4)),
    }
    for name, trainer in runs.items():
        res = trainer.train()
        rows.append(
            {
                "method": name,
                "final_train_acc": round(res.final_train_acc or 0.0, 3),
                "final_test_acc": round(res.final_test_acc or 0.0, 3),
            }
        )
    return ExperimentResult("", "", "", rows=rows)
