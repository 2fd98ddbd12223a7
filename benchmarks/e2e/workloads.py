"""The seven workloads: what each generates from the seed, and why it exists.

Training is a closed loop with ``p = 2`` learners: a learner's next step waits
for its previous allreduce or parameter-server reply.  The box has two cores,
so every real-backend workload uses ``p = 2`` with one BLAS thread each.

A workload is only its generated scenario document; the program never sees a
workload name.  ``quick`` shrinks a training run to two epochs for the
self-test (no target can be reached in two epochs, so target checks are off).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional

__all__ = ["Workload", "WORKLOADS", "BY_NAME", "make_spec"]

SCALING_P = (8, 32, 128, 512, 1024)
SCALING_N_TRAIN = 2500  # TimingWorkload n_train of the scaling experiment


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: wall seconds of one run's train()/execute() at the commit that added
    #: the benchmark; with --seconds it fixes how many runs one call makes
    nominal_s: float
    backend: str
    problem: Optional[str] = None        # None: an experiment-mode scenario
    algorithm: Optional[str] = None
    options: Optional[Dict[str, Any]] = None
    batch_size: int = 1
    epochs: int = 1
    #: first epoch record with train_loss <= target is the quality target
    target_loss: Optional[float] = None

    @property
    def trains(self) -> bool:
        return self.problem is not None

    @property
    def real(self) -> bool:
        """Runs learners as real processes (mp / net)."""
        return self.backend in ("mp", "net")


_CIFAR = dict(problem="cifar", algorithm="sasgd", options={"T": 16},
              batch_size=16, epochs=16, target_loss=1.4)
_NLCF_SASGD = dict(problem="nlcf", algorithm="sasgd", options={"T": 1},
                   batch_size=1, epochs=20, target_loss=3.0)
_NLCF_DOWNPOUR = dict(problem="nlcf", algorithm="downpour",
                      options={"T": 1, "n_shards": 2},
                      batch_size=1, epochs=16, target_loss=3.0)

WORKLOADS = [
    Workload(
        "cifar_sasgd_sim",
        "one process does every learner's arithmetic, no real transport: nn conv "
        "forward/backward is nearly all the time; the serial baseline of the task",
        nominal_s=13.2, backend="sim", **_CIFAR,
    ),
    Workload(
        "cifar_sasgd_mp",
        "compute-bound real parallelism, one 130 KB allreduce per epoch: fork and "
        "rendezvous cost, rank-0 evaluation stalling its peer; transport changes flat",
        nominal_s=7.4, backend="mp", **_CIFAR,
    ),
    Workload(
        "nlcf_sasgd_mp",
        "one 178 KB allreduce per sample, the paper's >60% communication regime, "
        "through MPCollective's three-barrier shared-memory path",
        nominal_s=9.5, backend="mp", **_NLCF_SASGD,
    ),
    Workload(
        "nlcf_sasgd_net",
        "the same traffic through the framed TCP ring (NetCollective, net.frames), "
        "so a transport-specific gain shows in exactly one of the pair",
        nominal_s=5.3, backend="net", **_NLCF_SASGD,
    ),
    Workload(
        "nlcf_downpour_mp",
        "request/reply parameter-server traffic, arrival-order applies, two shard "
        "processes beside two learners: queues + shm instead of the barrier collective",
        nominal_s=12.0, backend="mp", **_NLCF_DOWNPOUR,
    ),
    Workload(
        "nlcf_downpour_net",
        "push/pull over frames and serve_shard: the request/reply use of net.frames "
        "beside the streaming ring use in nlcf_sasgd_net",
        nominal_s=9.5, backend="net", **_NLCF_DOWNPOUR,
    ),
    Workload(
        "scaling_sim",
        "no nn at all: sim.engine, comm.fabric (p<=32), comm.fastfabric (p>=128), "
        "cluster.topology; simulated rows repeat exactly and pin correctness",
        nominal_s=7.6, backend="sim",
    ),
]

BY_NAME = {w.name: w for w in WORKLOADS}


def make_spec(w: Workload, seed: int, quick: bool = False,
              backend: Optional[str] = None,
              epochs: Optional[int] = None) -> Dict[str, Any]:
    """The scenario document of one run.  Problem seed and trainer seed both
    derive from ``seed``.  ``backend`` / ``epochs`` override the workload's own
    for the same-spec-on-sim reference runs of the traced pass."""
    if not w.trains:
        # the scaling experiment has no random input: its machines are built
        # with a fixed seed, so every seed generates the same document
        return {
            "experiment": "scaling",
            "params": {
                "topology": "fat-tree",
                "p_values": [8, 128] if quick else list(SCALING_P),
                "T": 1,
            },
        }
    if epochs is None:
        epochs = 2 if quick else w.epochs
    return {
        "name": w.name,
        "problem": w.problem,
        "problem_args": {"scale": "bench", "seed": seed},
        "algorithm": w.algorithm,
        "options": dict(w.options or {}),
        "config": {
            "p": 2, "epochs": epochs, "batch_size": w.batch_size,
            "lr": 0.05, "seed": seed, "eval_every": 1,
        },
        "backend": backend or w.backend,
    }
