"""Model-averaging heuristics the paper rules out (Sec. III).

Two variants are discussed and dismissed before SASGD is introduced:

* **one-shot averaging** (Zinkevich et al.) — p learners train completely
  independently and their parameters are averaged once at the end: "results
  in very poor training and test accuracies";
* **per-minibatch averaging** (Li et al.) — parameters averaged after every
  minibatch: equivalent to SASGD with T = 1 and γp = γ/p, but "incurs high
  communication overhead".

Both are implemented here as plain (engine-free) trainers so the claims can
be measured; the per-minibatch variant is also the algebraic identity used to
test SASGD's global step.
"""

from __future__ import annotations

import time

import numpy as np

from ..obs.runtime import TrainerObs
from ..spec.registry import TRAINERS
from .base import (
    MetricsTape,
    Problem,
    TrainerConfig,
    TrainResult,
    build_workloads,
    evaluate_model,
)

__all__ = ["OneShotAveragingTrainer", "MinibatchAveragingTrainer"]


@TRAINERS.register(
    "oneshot_averaging",
    description="p independent replicas, parameters averaged once at the end",
)
class OneShotAveragingTrainer:
    """Train p independent replicas; average parameters once at the end."""

    algorithm = "oneshot-averaging"

    def __init__(self, problem: Problem, config: TrainerConfig) -> None:
        self.problem = problem
        self.config = config
        self.workloads = build_workloads(problem, config)
        # common initialisation (learner 0's), as all compared methods use
        x0 = self.workloads[0].flat.copy_data()
        for wl in self.workloads[1:]:
            wl.flat.set_data(x0)

    def train(self) -> TrainResult:
        cfg = self.config
        obs = TrainerObs.maybe(self.algorithm, cfg.p, self.problem.name)
        t0 = time.perf_counter()
        steps_each = max(1, (cfg.epochs * self.problem.n_train) // (cfg.p * cfg.batch_size))
        for wl in self.workloads:
            for _ in range(steps_each):
                idx = wl.next_batch()
                wl.compute_gradient(idx)
                if obs is not None:
                    obs.on_batch(len(idx), wl.flat.grad)
                wl.flat.data -= cfg.lr * wl.flat.grad
        avg = np.mean([wl.flat.data for wl in self.workloads], axis=0)
        self.workloads[0].flat.set_data(avg)
        test_acc, test_loss = evaluate_model(
            self.workloads[0].model, self.problem.test_set, cfg.eval_batch
        )
        train_acc, train_loss = evaluate_model(
            self.workloads[0].model, self.problem.train_set, cfg.eval_batch
        )
        from .base import EpochRecord

        rec = EpochRecord(
            epoch=cfg.epochs,
            samples=steps_each * cfg.p * cfg.batch_size,
            virtual_time=0.0,
            train_acc=train_acc,
            train_loss=train_loss,
            test_acc=test_acc,
            test_loss=test_loss,
        )
        wall = time.perf_counter() - t0
        if obs is not None:
            obs.finish(rec.samples, 0.0, wall)
        return TrainResult(
            algorithm=self.algorithm,
            problem=self.problem.name,
            config=cfg,
            records=[rec],
            wall_seconds=wall,
            extras={"steps_per_learner": steps_each},
        )


@TRAINERS.register(
    "minibatch_averaging",
    description="parameters averaged after every minibatch (= SASGD T=1, γp=γ/p)",
)
class MinibatchAveragingTrainer:
    """Average all replicas' parameters after every (parallel) minibatch.

    Algebraically identical to SASGD(T=1, γp=γ/p); implemented literally —
    each learner steps from the shared x, then parameters are averaged —
    so the identity can be asserted against :mod:`repro.core`.
    """

    algorithm = "minibatch-averaging"

    def __init__(self, problem: Problem, config: TrainerConfig) -> None:
        self.problem = problem
        self.config = config
        self.workloads = build_workloads(problem, config)
        x0 = self.workloads[0].flat.copy_data()
        for wl in self.workloads[1:]:
            wl.flat.set_data(x0)

    def train(self) -> TrainResult:
        cfg = self.config
        obs = TrainerObs.maybe(self.algorithm, cfg.p, self.problem.name)
        t0 = time.perf_counter()
        tape = MetricsTape(self.problem, cfg, clock=lambda: 0.0)
        while not tape.done:
            crossed = 0
            for wl in self.workloads:
                idx = wl.next_batch()
                loss, acc, nb = wl.compute_gradient(idx)
                if obs is not None:
                    obs.on_batch(nb, wl.flat.grad)
                wl.flat.data -= cfg.lr * wl.flat.grad
                crossed += tape.on_batch(nb, loss, acc)
            avg = np.mean([wl.flat.data for wl in self.workloads], axis=0)
            for wl in self.workloads:
                wl.flat.set_data(avg)
            if crossed:
                tape.record_epochs(crossed, self.workloads[0].model)
        wall = time.perf_counter() - t0
        if obs is not None:
            obs.finish(tape.samples, 0.0, wall)
        return TrainResult(
            algorithm=self.algorithm,
            problem=self.problem.name,
            config=cfg,
            records=tape.records,
            wall_seconds=wall,
        )
