"""Sequential SGD — the p = 1 baseline every speedup is measured against.

Runs as a plain Python loop (no event engine) for speed; virtual time is
accumulated from the same device compute model the simulated learners use, so
its epoch times are directly comparable with the distributed trainers'.
"""

from __future__ import annotations

import time
from typing import Optional

from ..cluster.devices import Device, DeviceSpec
from ..obs.runtime import TrainerObs
from ..spec.registry import TRAINERS
from .base import (
    LearnerWorkload,
    MetricsTape,
    Problem,
    TrainerConfig,
    TrainResult,
    spawn_rngs,
)

__all__ = ["SequentialSGDTrainer"]


@TRAINERS.register(
    "sgd", description="sequential minibatch SGD, the p=1 baseline"
)
class SequentialSGDTrainer:
    """Vanilla minibatch SGD on one simulated GPU."""

    algorithm = "sgd"

    def __init__(
        self,
        problem: Problem,
        config: TrainerConfig,
        device_spec: Optional[DeviceSpec] = None,
    ) -> None:
        if config.p != 1:
            raise ValueError("SequentialSGDTrainer requires p=1")
        self.problem = problem
        self.config = config
        rngs = spawn_rngs(config.seed, 4)
        self.device = Device(
            device_spec
            if device_spec is not None
            else DeviceSpec(name="gpu0", flops=2.0e12, jitter=0.05, overhead=1e-4),
            rngs[0],
        )
        self.workload = LearnerWorkload(
            problem, config.batch_size, rngs[1], rngs[2], rngs[3]
        )

    def train(self) -> TrainResult:
        cfg = self.config
        wl = self.workload
        vclock = [0.0]
        tape = MetricsTape(self.problem, cfg, clock=lambda: vclock[0])
        obs = TrainerObs.maybe(self.algorithm, 1, self.problem.name)
        t0 = time.perf_counter()
        while not tape.done:
            idx = wl.next_batch()
            vclock[0] += self.device.compute_seconds(wl.batch_flops(len(idx)))
            loss, acc, nb = wl.compute_gradient(idx)
            if obs is not None:
                obs.on_batch(nb, wl.flat.grad)
            wl.flat.data -= cfg.lr * wl.flat.grad
            crossed = tape.on_batch(nb, loss, acc)
            if crossed:
                tape.record_epochs(crossed, wl.model)
        if obs is not None:
            obs.finish(tape.samples, vclock[0], time.perf_counter() - t0)
        return TrainResult(
            algorithm=self.algorithm,
            problem=self.problem.name,
            config=cfg,
            records=tape.records,
            virtual_seconds=vclock[0],
            wall_seconds=time.perf_counter() - t0,
            extras={"steps": tape.samples // max(1, cfg.batch_size)},
        )
