"""Cross-module integration tests: the full stack end to end."""

import numpy as np
import pytest

from repro.algos import (
    DownpourOptions,
    DownpourTrainer,
    EAMSGDOptions,
    EAMSGDTrainer,
    SASGDOptions,
    SASGDTrainer,
    SequentialSGDTrainer,
    TrainerConfig,
    cifar_problem,
    nlcf_problem,
)
from repro.comm.costmodel import ps_traffic_bytes


@pytest.fixture(scope="module")
def prob():
    # slightly bigger than unit so a learning signal is measurable
    return cifar_problem(scale="unit", n_train=128, n_test=64, seed=2, noise=0.7)


def test_all_algorithms_learn_something(prob):
    """After a few epochs every algorithm beats random guessing on train."""
    cfg = TrainerConfig(p=2, epochs=12, batch_size=8, lr=0.05, seed=1, eval_every=12)
    results = {
        "sgd": SequentialSGDTrainer(
            prob, TrainerConfig(p=1, epochs=12, batch_size=8, lr=0.05, seed=1, eval_every=12)
        ).train(),
        "sasgd": SASGDTrainer(prob, cfg, SASGDOptions(T=2)).train(),
        "downpour": DownpourTrainer(prob, cfg, DownpourOptions(T=2)).train(),
        "eamsgd": EAMSGDTrainer(prob, cfg, EAMSGDOptions(tau=2, momentum=0.5)).train(),
    }
    # the sequential baseline clearly beats chance...
    assert results["sgd"].records[-1].train_acc > 0.15
    # ...and every distributed variant is making optimisation progress
    # (loss below the ln(10) = 2.303 of uniform guessing)
    for name, res in results.items():
        assert res.records[-1].train_loss < 2.30, (name, res.records[-1])


def test_sasgd_and_sgd_reach_similar_quality(prob):
    """SASGD at small T/p tracks the sequential baseline."""
    sgd = SequentialSGDTrainer(
        prob, TrainerConfig(p=1, epochs=8, batch_size=8, lr=0.05, seed=1, eval_every=8)
    ).train()
    sas = SASGDTrainer(
        prob,
        TrainerConfig(p=2, epochs=8, batch_size=8, lr=0.05, seed=1, eval_every=8),
        SASGDOptions(T=1),
    ).train()
    assert sas.final_test_acc >= sgd.final_test_acc - 0.25


def test_downpour_bytes_scale_linearly_with_p(prob):
    """The O(m·p) parameter-server traffic claim, measured end to end."""
    bytes_per_p = {}
    for p in (2, 4):
        tr = DownpourTrainer(
            prob,
            TrainerConfig(p=p, epochs=1, batch_size=8, lr=0.02, seed=1),
            DownpourOptions(T=2),
        )
        res = tr.train()
        rounds = tr.server.pushes_applied / tr.server.layout.n_shards
        bytes_per_p[p] = res.extras["total_bytes"] / rounds
    # per aggregation round the traffic is ~independent of p per learner,
    # so p learners move ~p x the bytes per round of a fixed wall of rounds
    assert bytes_per_p[4] == pytest.approx(bytes_per_p[2], rel=0.35)


def test_sasgd_total_bytes_below_downpour(prob):
    cfg = TrainerConfig(p=4, epochs=2, batch_size=8, lr=0.02, seed=1)
    sas = SASGDTrainer(prob, cfg, SASGDOptions(T=2, allreduce_algorithm="tree")).train()
    dwn = DownpourTrainer(prob, cfg, DownpourOptions(T=2)).train()
    assert sas.extras["total_bytes"] < dwn.extras["total_bytes"]


def test_tracer_spans_conserved(prob):
    """compute + comm per learner never exceeds the simulated span."""
    cfg = TrainerConfig(p=2, epochs=2, batch_size=8, lr=0.02, seed=1)
    tr = SASGDTrainer(prob, cfg, SASGDOptions(T=2))
    tr.train()
    span = tr.machine.engine.now
    for name in tr.learner_names:
        bd = tr.machine.tracer.breakdown(name)
        assert bd.compute_seconds + bd.comm_seconds <= span * (1 + 1e-9)


def test_seed_isolation_between_learners(prob):
    """Different learners draw different minibatch orders."""
    cfg = TrainerConfig(p=2, epochs=1, batch_size=8, lr=0.02, seed=1)
    tr = SASGDTrainer(prob, cfg, SASGDOptions(T=1))
    b0 = tr.workloads[0].next_batch()
    b1 = tr.workloads[1].next_batch()
    assert not np.array_equal(b0, b1)


def test_same_initial_broadcast_across_learners(prob):
    """After training starts, learner 0's init was installed everywhere."""
    cfg = TrainerConfig(p=3, epochs=1, batch_size=8, lr=0.02, seed=1)
    tr = SASGDTrainer(prob, cfg, SASGDOptions(T=1))
    init0 = tr.workloads[0].flat.copy_data()
    inits_differ = any(
        not np.array_equal(init0, wl.flat.copy_data()) for wl in tr.workloads[1:]
    )
    assert inits_differ  # before broadcast, replicas start different
    tr.train()
    for wl in tr.workloads[1:]:
        np.testing.assert_allclose(wl.flat.data, tr.workloads[0].flat.data, rtol=1e-5)


def test_nlcf_full_stack_m1():
    prob = nlcf_problem(scale="unit", seed=3)
    cfg = TrainerConfig(p=2, epochs=2, batch_size=1, lr=0.05, seed=1, eval_every=2)
    res = SASGDTrainer(prob, cfg, SASGDOptions(T=4)).train()
    assert res.final_test_acc is not None
    assert res.virtual_seconds > 0


def test_eval_records_align_with_eval_every(prob):
    cfg = TrainerConfig(p=2, epochs=4, batch_size=8, lr=0.02, seed=1, eval_every=2)
    res = SASGDTrainer(prob, cfg, SASGDOptions(T=1)).train()
    evaluated = [r.epoch for r in res.records if r.test_acc is not None]
    assert all(e % 2 == 0 or e == cfg.epochs for e in evaluated)


def test_public_api_surface():
    import repro

    assert repro.__version__
    assert callable(repro.run_experiment)
    assert "fig7" in repro.list_experiments()


def test_training_imports_do_not_load_scipy():
    # scipy.optimize (0.46 s, ~40 MB) serves one theory function; a training
    # process must not pay for it at import
    import os
    import subprocess
    import sys

    import repro

    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    code = (
        "import sys; import repro.algos, repro.runtime, repro.spec; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"
