"""Shared trainer infrastructure: problems, workloads, metrics, results.

Conventions common to all four algorithms (matching the paper's Sec. IV
methodology):

* Every learner draws random minibatches from the **full** training set; an
  *epoch* means the learners have **collectively** processed ``n_train``
  samples ("all learners collectively make 100 passes of all input data").
* Accuracy-vs-epoch curves are recorded at collective-epoch boundaries:
  training accuracy is the running minibatch accuracy over the epoch window
  (the quantity a Torch training loop prints), test accuracy is a full
  evaluation of learner 0's current model (the paper "collect[s] accuracy
  numbers from one learner").
* All randomness (init, minibatch order, dropout, compute jitter) descends
  from one seed through ``SeedSequence.spawn``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple, Union

import numpy as np

from ..data.datasets import ArrayDataset, SequenceDataset
from ..data.sampler import MinibatchSampler
from ..nn.dropout import Dropout
from ..nn.loss import CrossEntropyLoss, accuracy
from ..nn.models import ModelInfo
from ..nn.module import FlatParams, Module, flatten_module

__all__ = [
    "Problem",
    "TrainerConfig",
    "LearnerWorkload",
    "EpochRecord",
    "TrainResult",
    "MetricsTape",
    "evaluate_model",
]

Dataset = Union[ArrayDataset, SequenceDataset]
ModelBuilder = Callable[[np.random.Generator], Tuple[Module, CrossEntropyLoss, ModelInfo]]


@dataclass
class Problem:
    """A learning task: how to build the model, and the data to train on."""

    name: str
    build_model: ModelBuilder
    train_set: Dataset
    test_set: Dataset

    @property
    def n_train(self) -> int:
        return len(self.train_set)


@dataclass(frozen=True)
class TrainerConfig:
    """Knobs shared by every trainer.

    ``p`` learners, ``epochs`` collective passes, minibatch ``batch_size``
    (the paper: 64 for CIFAR-10, 1 for NLC-F), learning rate ``lr`` (γ).
    ``eval_every`` controls how often (in epochs) the test set is scored;
    train-window statistics are recorded every epoch regardless.
    """

    p: int = 1
    epochs: int = 10
    batch_size: int = 32
    lr: float = 0.1
    seed: int = 0
    eval_every: int = 1
    eval_batch: int = 64
    contention: bool = True

    def __post_init__(self) -> None:
        if self.p < 1:
            raise ValueError(f"p must be >= 1, got {self.p}")
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.lr <= 0:
            raise ValueError(f"lr must be positive, got {self.lr}")
        if self.eval_every < 1:
            raise ValueError(f"eval_every must be >= 1, got {self.eval_every}")


class LearnerWorkload:
    """One learner's model replica, criterion, flat params, and sampler."""

    def __init__(
        self,
        problem: Problem,
        batch_size: int,
        model_rng: np.random.Generator,
        sample_rng: np.random.Generator,
        dropout_rng: np.random.Generator,
    ) -> None:
        self.problem = problem
        self.model, self.criterion, self.info = problem.build_model(model_rng)
        self.dropout_rng = dropout_rng  # kept for checkpoint/restore
        self.model.set_rng(dropout_rng)
        self.flat: FlatParams = flatten_module(self.model)
        self.batch_size = batch_size
        self.sampler = MinibatchSampler(
            np.arange(len(problem.train_set)), batch_size, sample_rng
        )

    def next_batch(self) -> np.ndarray:
        return self.sampler.next()

    def compute_gradient(self, idx: np.ndarray) -> Tuple[float, float, int]:
        """Fill ``flat.grad`` with the minibatch gradient.

        Returns ``(loss, batch_accuracy, batch_size)``.
        """
        xb, yb = self.problem.train_set.batch(idx)
        self.model.train()
        return self._gradient(xb, yb)

    def compute_gradient_eval(self, idx: np.ndarray) -> Tuple[float, float, int]:
        """Deterministic (dropout-free) gradient for surface probing by
        :mod:`repro.theory.estimators`.  Eval-mode layers keep nothing for
        ``backward``, so the model stays in training mode with only its
        dropout layers switched off (callers restore training mode)."""
        xb, yb = self.problem.train_set.batch(idx)
        self.model.train()
        for mod in self.model.modules():
            if isinstance(mod, Dropout):
                mod.training = False
        return self._gradient(xb, yb)

    def _gradient(self, xb: np.ndarray, yb: np.ndarray) -> Tuple[float, float, int]:
        self.flat.zero_grad()
        logits = self.model.forward(xb)
        loss = self.criterion.forward(logits, yb)
        # nobody reads the gradient with respect to the input batch
        self.model.backward(self.criterion.backward(), input_grad=False)
        return loss, accuracy(logits, yb), len(yb)

    def batch_flops(self, nb: int) -> float:
        return self.info.flops_train_per_example * nb


def build_workloads(problem: Problem, config: TrainerConfig) -> List[LearnerWorkload]:
    """``config.p`` learners (rng streams: model init, minibatch order, dropout)
    sharing the first model's layer pools, safe as no process interleaves two
    gradients (sim runs each to completion; an mp/net rank trains one model)."""
    rngs = spawn_rngs(config.seed, 3 * config.p)
    workloads = [LearnerWorkload(problem, config.batch_size, *rngs[3 * i : 3 * i + 3])
                 for i in range(config.p)]
    for wl in workloads[1:]:
        for ours, theirs in zip(workloads[0].model.modules(), wl.model.modules(), strict=True):
            if type(ours) is not type(theirs):
                raise ValueError("learner models differ in their layers: they cannot share pools")
            if hasattr(ours, "_pool"):
                theirs._pool = ours._pool
    return workloads


def evaluate_model(
    model: Module, dataset: Dataset, batch: int = 64
) -> Tuple[float, float]:
    """Test accuracy and mean loss over contiguous batches (``ArrayDataset``
    views, not copies); the model is left in training mode."""
    crit = CrossEntropyLoss()
    model.eval()
    correct = 0.0
    total_loss = 0.0
    n = len(dataset)
    try:
        for lo in range(0, n, batch):
            nb = min(batch, n - lo)
            xb, yb = dataset.batch(slice(lo, lo + nb))
            logits = model.forward(xb)
            total_loss += crit.forward(logits, yb) * nb
            correct += accuracy(logits, yb) * nb
    finally:
        model.train()
    return correct / n, total_loss / n


@dataclass
class EpochRecord:
    """Metrics at one collective-epoch boundary."""

    epoch: int
    samples: int
    virtual_time: float
    train_acc: float
    train_loss: float
    test_acc: Optional[float] = None
    test_loss: Optional[float] = None


@dataclass
class TrainResult:
    """Everything a benchmark needs to print a paper figure's series."""

    algorithm: str
    problem: str
    config: TrainerConfig
    records: List[EpochRecord] = field(default_factory=list)
    virtual_seconds: float = 0.0
    wall_seconds: float = 0.0
    extras: Dict[str, object] = field(default_factory=dict)

    def series(self, name: str) -> List:
        return [getattr(r, name) for r in self.records]

    def test_accuracy_series(self) -> List[Tuple[int, float]]:
        return [(r.epoch, r.test_acc) for r in self.records if r.test_acc is not None]

    @property
    def final_test_acc(self) -> Optional[float]:
        for rec in reversed(self.records):
            if rec.test_acc is not None:
                return rec.test_acc
        return None

    @property
    def final_train_acc(self) -> Optional[float]:
        return self.records[-1].train_acc if self.records else None


class MetricsTape:
    """Collective sample counter + per-epoch train/test metric recorder."""

    def __init__(
        self,
        problem: Problem,
        config: TrainerConfig,
        clock: Callable[[], float],
    ) -> None:
        self.problem = problem
        self.config = config
        self.clock = clock
        self.samples = 0
        self.epoch = 0
        self._boundaries_seen = 0  # boundaries already returned by on_batch
        self.records: List[EpochRecord] = []
        self._win_loss = 0.0
        self._win_acc = 0.0
        self._win_batches = 0
        # cumulative, *unscaled* accounting for this rank alone — the mp
        # backend's collective tape scales nb by p, so per-rank attribution
        # needs the raw count carried separately
        self.own_samples = 0
        self.batches_total = 0
        self.loss_total = 0.0
        self.acc_total = 0.0

    def on_batch(self, nb: int, loss: float, acc: float, raw: Optional[int] = None) -> int:
        """Account one minibatch; returns how many *new* epoch boundaries the
        collective sample counter crossed (each boundary is reported once,
        even if recording is deferred to a later synchronisation point).
        ``raw`` is the unscaled batch size when ``nb`` carries a collective
        sample-scale factor (the mp backend)."""
        self.samples += nb
        self.own_samples += nb if raw is None else raw
        self.batches_total += 1
        self.loss_total += loss
        self.acc_total += acc
        self._win_loss += loss
        self._win_acc += acc
        self._win_batches += 1
        total_boundaries = self.samples // self.problem.n_train
        crossed = int(total_boundaries - self._boundaries_seen)
        self._boundaries_seen = int(total_boundaries)
        return crossed

    def record_epochs(self, crossed: int, eval_model: Optional[Module]) -> None:
        """Close ``crossed`` epoch windows, scoring the test set per config."""
        for _ in range(crossed):
            self.epoch += 1
            batches = max(1, self._win_batches)
            rec = EpochRecord(
                epoch=self.epoch,
                samples=self.samples,
                virtual_time=self.clock(),
                train_acc=self._win_acc / batches,
                train_loss=self._win_loss / batches,
            )
            if eval_model is not None and (
                self.epoch % self.config.eval_every == 0
                or self.epoch == self.config.epochs
            ):
                rec.test_acc, rec.test_loss = evaluate_model(
                    eval_model, self.problem.test_set, self.config.eval_batch
                )
            self.records.append(rec)
            self._win_loss = 0.0
            self._win_acc = 0.0
            self._win_batches = 0

    @property
    def done(self) -> bool:
        return self.epoch >= self.config.epochs

    def rank_summary(self) -> Dict[str, float]:
        """This rank's own (unscaled) cumulative contribution."""
        batches = max(1, self.batches_total)
        return {
            "samples": int(self.own_samples),
            "batches": int(self.batches_total),
            "mean_loss": self.loss_total / batches,
            "mean_acc": self.acc_total / batches,
        }

    # -- checkpoint support ---------------------------------------------------

    def state(self) -> Dict[str, object]:
        """Everything needed to resume recording mid-run (records included,
        so a restored run re-emits a complete curve)."""
        return {
            "samples": self.samples,
            "epoch": self.epoch,
            "boundaries_seen": self._boundaries_seen,
            "records": list(self.records),
            "win_loss": self._win_loss,
            "win_acc": self._win_acc,
            "win_batches": self._win_batches,
            "own_samples": self.own_samples,
            "batches_total": self.batches_total,
            "loss_total": self.loss_total,
            "acc_total": self.acc_total,
        }

    def restore(self, state: Dict[str, object]) -> None:
        self.samples = int(state["samples"])
        self.epoch = int(state["epoch"])
        self._boundaries_seen = int(state["boundaries_seen"])
        self.records = list(state["records"])  # type: ignore[arg-type]
        self._win_loss = float(state["win_loss"])
        self._win_acc = float(state["win_acc"])
        self._win_batches = int(state["win_batches"])
        self.own_samples = int(state.get("own_samples", 0))  # type: ignore[arg-type]
        self.batches_total = int(state.get("batches_total", 0))  # type: ignore[arg-type]
        self.loss_total = float(state.get("loss_total", 0.0))  # type: ignore[arg-type]
        self.acc_total = float(state.get("acc_total", 0.0))  # type: ignore[arg-type]


def spawn_rngs(seed: int, n: int) -> List[np.random.Generator]:
    """n independent generators from one seed (helper for trainers)."""
    return [np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(n)]
