"""Backend-equivalence suite for the repro.runtime layer.

Pins the three guarantees the runtime refactor makes:

1. **Import boundary** — the trainer modules speak only to
   ``repro.runtime`` interfaces, never to the simulator / fabric / PS
   modules directly (AST-enforced).
2. **Sim bit-identity** — the sim backend reproduces the pre-runtime
   implementation exactly: golden curves/timings/bytes captured from
   ``main`` must match to the last bit.
3. **MP equivalence** — the real-multiprocessing backend trains the same
   problems to the same bits (identical RNG streams, and every substrate
   runs the same collective schedule, so the same additions in the same
   order), and failure injection surfaces as a typed
   :class:`~repro.runtime.LearnerFailure` on both substrates.
"""

import ast
import json
import multiprocessing
import os
from pathlib import Path

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
from repro.comm.schedule import (
    ALLREDUCE_ALGORITHMS,
    allgather_schedule,
    allreduce_schedule,
    bounds,
    broadcast_schedule,
)
from repro.runtime import (
    LearnerFailure,
    MPBackend,
    SimBackend,
    make_backend,
    use_backend,
)

HAVE_FORK = "fork" in multiprocessing.get_all_start_methods()
needs_fork = pytest.mark.skipif(not HAVE_FORK, reason="mp backend needs fork")

GOLDEN = json.loads(
    (Path(__file__).parent / "data" / "golden_sim_unit.json").read_text()
)


def _golden_config():
    g = GOLDEN["config"]
    return TrainerConfig(
        p=g["p"], epochs=g["epochs"], batch_size=g["batch_size"],
        lr=g["lr"], seed=g["seed"],
    )


def _make_trainer(algo, config=None, backend=None, **opt_kwargs):
    problem = cifar_problem(scale="unit", seed=1)
    config = config or _golden_config()
    if algo == "sasgd":
        return SASGDTrainer(
            problem, config, SASGDOptions(T=2, **opt_kwargs), backend=backend
        )
    if algo == "downpour":
        return DownpourTrainer(
            problem, config, DownpourOptions(T=2, **opt_kwargs), backend=backend
        )
    return EAMSGDTrainer(
        problem, config, EAMSGDOptions(tau=2, **opt_kwargs), backend=backend
    )


# --------------------------------------------------------------------------
# 1. import boundary
# --------------------------------------------------------------------------

FORBIDDEN_MODULES = (
    "repro.sim",
    "repro.comm.fabric",
    "repro.comm.collectives",
    "repro.ps.server",
)
TRAINER_MODULES = ("sasgd.py", "downpour.py", "eamsgd.py", "distributed.py")


def _imported_modules(path: Path):
    """Absolute module names imported by ``path`` (resolving relative dots)."""
    # trainer modules live at repro/algos/<name>.py → package repro.algos
    tree = ast.parse(path.read_text())
    package_parts = ["repro", "algos"]
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            out.extend(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            if node.level == 0:
                base = node.module or ""
            else:
                anchor = package_parts[: len(package_parts) - (node.level - 1)]
                base = ".".join(anchor + ([node.module] if node.module else []))
            out.append(base)
            out.extend(f"{base}.{alias.name}" for alias in node.names)
    return out


@pytest.mark.parametrize("module_name", TRAINER_MODULES)
def test_trainer_modules_import_only_runtime(module_name):
    algos_dir = Path(__file__).parent.parent / "src" / "repro" / "algos"
    imported = _imported_modules(algos_dir / module_name)
    offenders = [
        mod
        for mod in imported
        if any(mod == bad or mod.startswith(bad + ".") for bad in FORBIDDEN_MODULES)
    ]
    assert not offenders, (
        f"{module_name} imports simulator internals {offenders}; trainers "
        "must use only the repro.runtime interfaces"
    )


# --------------------------------------------------------------------------
# 2. sim backend is bit-identical to main
# --------------------------------------------------------------------------


@pytest.mark.parametrize("algo", ["sasgd", "downpour", "eamsgd"])
def test_sim_backend_bit_identical_to_main(algo):
    golden = GOLDEN["runs"][algo]
    trainer = _make_trainer(algo)
    res = trainer.train()
    got = {
        "train_loss": [repr(float(r.train_loss)) for r in res.records],
        "train_acc": [repr(float(r.train_acc)) for r in res.records],
        "test_acc": [repr(float(r.test_acc)) for r in res.records],
        "virtual_seconds": repr(float(res.virtual_seconds)),
        "total_bytes": repr(float(res.extras["total_bytes"])),
        "comm_seconds_per_learner": repr(
            float(res.extras["comm_seconds_per_learner"])
        ),
        "compute_seconds_per_learner": repr(
            float(res.extras["compute_seconds_per_learner"])
        ),
        "flat0_sum": repr(
            float(np.asarray(trainer.workloads[0].flat.data, np.float64).sum())
        ),
    }
    for key, want in golden.items():
        assert got[key] == want, f"{algo}.{key} drifted from main: {got[key]} != {want}"


def test_sim_is_the_default_backend():
    trainer = _make_trainer("sasgd")
    assert isinstance(trainer.backend, SimBackend)
    assert trainer.machine is not None  # sim plumbing is reachable
    assert trainer.fabric is not None


# --------------------------------------------------------------------------
# 3. mp backend equivalence + behaviour
# --------------------------------------------------------------------------


def _p2_config(seed=3, epochs=2):
    return TrainerConfig(p=2, epochs=epochs, batch_size=8, lr=0.02, seed=seed)


@needs_fork
def test_mp_sasgd_matches_sim_within_tolerance():
    sim = _make_trainer("sasgd", config=_p2_config())
    sim_res = sim.train()
    mp = _make_trainer(
        "sasgd", config=_p2_config(), backend=MPBackend(timeout=60.0)
    )
    mp_res = mp.train()
    # identical per-rank RNG streams and the same allreduce schedule: the
    # same bits (the tolerance in the name is the one the test once had)
    assert np.array_equal(sim.workloads[0].flat.data, mp.workloads[0].flat.data)
    assert mp_res.records, "mp run recorded no epochs"
    sim_acc = sim_res.records[-1].test_acc
    mp_acc = mp_res.records[-1].test_acc
    assert abs(sim_acc - mp_acc) <= 0.1
    assert mp.allreduce_count == sim.allreduce_count
    assert mp_res.extras["backend"] == "mp"
    assert mp_res.extras["workers"] == 2


def _sent_bytes(schedule, n: int, itemsize: int) -> int:
    return sum(
        (hi - lo) * itemsize
        for step in schedule if step is not None and step.send is not None
        for lo, hi in [bounds(step.send, n)]
    )


def _bytes_everywhere(p, **options):
    """Train one SASGD spec on sim, mp and net: assert they end on the same
    bits; return each one's ``total_bytes``, the final parameters and the
    trainer that ran last."""
    from repro.net import NetBackend

    config = TrainerConfig(p=p, epochs=2, batch_size=8, lr=0.02, seed=3)
    got, params = {}, {}
    for name, backend in (
        ("sim", None),
        ("mp", MPBackend(timeout=60.0)),
        ("net", NetBackend(timeout=60.0)),
    ):
        trainer = _make_trainer("sasgd", config=config, backend=backend, **options)
        got[name] = trainer.train().extras["total_bytes"]
        params[name] = np.array(trainer.workloads[0].flat.data, copy=True)
    assert np.array_equal(params["sim"], params["mp"])
    assert np.array_equal(params["sim"], params["net"])
    return got, params["sim"], trainer


@needs_fork
@pytest.mark.parametrize("algorithm", sorted(ALLREDUCE_ALGORITHMS))
@pytest.mark.parametrize("p", [2, 3, 4])
def test_sasgd_total_bytes_equal_on_sim_mp_net(p, algorithm):
    """One SASGD spec ends on the same bits and reports the same bytes on
    every substrate — the sum of what the broadcast and allreduce schedules
    send: mp once counted each allreduce twice, and mp and net once ran
    their own allreduce whatever the algorithm."""
    got, flat, trainer = _bytes_everywhere(p, allreduce_algorithm=algorithm)
    want = sum(
        _sent_bytes(broadcast_schedule(p, r), flat.size, flat.itemsize)
        + trainer.allreduce_count
        * _sent_bytes(allreduce_schedule(algorithm, p, r), flat.size, flat.itemsize)
        for r in range(p)
    )
    assert got["mp"] == got["sim"] == got["net"] == want > 0, got


@needs_fork
@pytest.mark.parametrize(
    "compression,p,k_frac",
    [(c, p, 0.1) for c in ("topk", "randomk") for p in (2, 3, 4)]
    + [("topk", 2, 1.0)],  # the largest row: twice the dense vector
)
def test_compressed_sasgd_total_bytes_equal_on_sim_mp_net(compression, p, k_frac):
    """Compressed SASGD gathers one fixed-size row per rank through the
    same allgather schedule everywhere: the same bits, and bytes that are
    the sum of what the broadcast and allgather schedules send.  mp and
    net once counted each allgather twice, and random-k once drew its
    coordinates from backend-specific streams."""
    got, flat, trainer = _bytes_everywhere(p, compression=compression, k_frac=k_frac)
    row = trainer.compressors[0].compressor.k_for(flat.size) * (4 + flat.itemsize)
    want = sum(
        _sent_bytes(broadcast_schedule(p, r), flat.size, flat.itemsize)
        + trainer.allreduce_count * _sent_bytes(allgather_schedule(p, r), p * row, 1)
        for r in range(p)
    )
    assert got["mp"] == got["sim"] == got["net"] == want > 0, got


def test_an_unknown_allreduce_algorithm_is_refused_before_any_backend():
    with pytest.raises(ValueError, match="unknown allreduce algorithm 'rign'") as err:
        SASGDOptions(allreduce_algorithm="rign")
    for name in ALLREDUCE_ALGORITHMS:
        assert repr(name) in str(err.value)


@needs_fork
def test_mp_sasgd_compressed_aggregation():
    mp = _make_trainer(
        "sasgd",
        config=_p2_config(),
        backend=MPBackend(timeout=60.0),
        compression="topk",
        k_frac=0.1,
    )
    res = mp.train()
    assert res.records
    assert res.extras["compression"].startswith("topk")
    assert res.extras["compressed_bytes_saved"] > 0


@needs_fork
@pytest.mark.parametrize("algo", ["downpour", "eamsgd"])
def test_mp_ps_algorithms_complete(algo):
    trainer = _make_trainer(
        algo, config=_p2_config(), backend=MPBackend(timeout=60.0)
    )
    res = trainer.train()
    assert res.records, f"{algo} mp run recorded no epochs"
    assert all(np.isfinite(r.train_loss) for r in res.records)
    assert trainer.machine is None  # no simulated cluster was built
    assert trainer.server.layout.n_shards == 2
    if algo == "downpour":
        assert trainer.server.pushes_applied > 0
        # staleness samples travel back via the worker export hook
        assert all(c.staleness_samples for c in trainer.clients)
    # the center/param vector actually moved away from the zero init
    assert float(np.abs(np.asarray(trainer.server.x, np.float64)).sum()) > 0


@needs_fork
def test_mp_backend_skips_simulated_machine():
    trainer = _make_trainer(
        "sasgd", config=_p2_config(), backend=MPBackend(timeout=60.0)
    )
    assert trainer.machine is None
    assert trainer.fabric is None
    assert trainer.endpoints is None


# --------------------------------------------------------------------------
# failure injection: typed LearnerFailure everywhere
# --------------------------------------------------------------------------


def test_sasgd_failure_raises_typed_learner_failure_sim():
    trainer = _make_trainer("sasgd", fail_at={1: 2})
    with pytest.raises(LearnerFailure) as err:
        trainer.train()
    assert err.value.learner_id == 1
    assert err.value.step == 2
    assert isinstance(err.value, RuntimeError)  # back-compat contract
    assert "deadlocked" in str(err.value)


def test_downpour_failure_tolerated_sim():
    trainer = _make_trainer("downpour", fail_at={1: 3})
    res = trainer.train()  # PS algorithms survive a dead learner
    assert res.records


def test_eamsgd_failure_injection_tolerated_sim():
    # the previously-missing third failure-injection test: EAMSGD's
    # asynchronous elastic exchange must survive a dead replica
    healthy = _make_trainer("eamsgd")
    healthy.train()
    trainer = _make_trainer("eamsgd", fail_at={1: 2})
    res = trainer.train()
    assert res.records
    assert all(np.isfinite(r.train_loss) for r in res.records)
    # the center keeps moving on pushes from the survivors
    assert float(np.abs(np.asarray(trainer.server.x, np.float64)).sum()) > 0
    # fewer elastic exchanges reach the server than in the healthy run
    assert trainer.fabric.total_messages < healthy.fabric.total_messages


@needs_fork
def test_mp_sasgd_failure_raises_typed_learner_failure():
    trainer = _make_trainer(
        "sasgd",
        config=_p2_config(),
        backend=MPBackend(timeout=5.0),
        fail_at={1: 2},
    )
    with pytest.raises(LearnerFailure) as err:
        trainer.train()
    assert err.value.learner_id == 1
    assert err.value.step == 2


@needs_fork
def test_mp_eamsgd_failure_tolerated():
    trainer = _make_trainer(
        "eamsgd",
        config=_p2_config(),
        backend=MPBackend(timeout=30.0),
        fail_at={1: 2},
    )
    res = trainer.train()
    assert res.records


# --------------------------------------------------------------------------
# backend selection plumbing
# --------------------------------------------------------------------------


def test_make_backend_rejects_unknown_names():
    with pytest.raises(ValueError, match="unknown backend"):
        make_backend("carrier-pigeon")


def test_backend_and_machine_are_mutually_exclusive():
    from repro.cluster.machine import Machine, power8_oss_spec

    machine = Machine(power8_oss_spec(n_gpus=8), seed=0)
    problem = cifar_problem(scale="unit", seed=1)
    with pytest.raises(ValueError, match="either machine"):
        SASGDTrainer(
            problem, _p2_config(), SASGDOptions(T=2),
            machine=machine, backend=SimBackend(),
        )


def test_backend_instance_is_single_use():
    backend = SimBackend()
    _make_trainer("sasgd", config=_p2_config(), backend=backend)
    with pytest.raises(RuntimeError, match="exactly one trainer"):
        _make_trainer("sasgd", config=_p2_config(), backend=backend)


def test_use_backend_installs_ambient_default():
    with use_backend("sim"):
        trainer = _make_trainer("sasgd", config=_p2_config())
        assert isinstance(trainer.backend, SimBackend)
    made = []

    def factory():
        backend = SimBackend()
        made.append(backend)
        return backend

    with use_backend(factory):
        trainer = _make_trainer("sasgd", config=_p2_config())
    assert made and trainer.backend is made[0]


def test_run_experiment_accepts_backend_kwarg():
    from repro.harness import run_experiment

    res = run_experiment(
        "fig2", backend="sim", p_values=(2,), epochs=1, scale="unit"
    )
    assert res.rows


# --------------------------------------------------------------------------
# wall-clock parallelism (needs real cores)
# --------------------------------------------------------------------------


@needs_fork
@pytest.mark.skipif(
    (os.cpu_count() or 1) < 4, reason="speedup check needs >= 4 host cores"
)
def test_mp_sasgd_per_interval_speedup_over_p1():
    import time

    def per_interval_seconds(p):
        problem = cifar_problem(scale="unit", seed=1)
        config = TrainerConfig(p=p, epochs=2, batch_size=8, lr=0.02, seed=3)
        trainer = SASGDTrainer(
            problem, config, SASGDOptions(T=4), backend=MPBackend(timeout=120.0)
        )
        t0 = time.perf_counter()
        trainer.train()
        return (time.perf_counter() - t0) / trainer.n_intervals

    t1 = per_interval_seconds(1)
    t4 = per_interval_seconds(4)
    # p=4 splits the same collective epoch across 4 cores: each interval
    # covers 4x the samples, so even with fork+barrier overhead it must
    # beat 1x the p=1 interval wall time
    assert t4 < 4.0 * t1, f"no parallel speedup: p=4 interval {t4:.3f}s vs p=1 {t1:.3f}s"
