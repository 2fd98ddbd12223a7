"""repro — full reproduction of SASGD (Cong, Bhardwaj, Feng — ICPP 2017).

"An efficient, distributed stochastic gradient descent algorithm for
deep-learning applications", ICPP 2017, DOI 10.1109/ICPP.2017.10.

Subpackages
-----------
``repro.core``      the SASGD algorithm itself (paper Alg. 1), cluster-free
``repro.nn``        Torch7-style NumPy neural-network framework (Tables I/II)
``repro.data``      synthetic CIFAR-10 / NLC-F dataset generators
``repro.sim``       discrete-event engine (virtual time)
``repro.cluster``   Power8 + 8xK80 PCIe-tree machine model
``repro.comm``      point-to-point fabric, collectives, cost models
``repro.ps``        sharded parameter server (Downpour/EAMSGD substrate)
``repro.algos``     trainers: SGD, SASGD, Downpour, EAMSGD, model averaging
``repro.theory``    convergence bounds (Thm 1/2, Cor 3, Thm 4) + estimators
``repro.harness``   per-figure experiment registry and reporting
``repro.obs``       opt-in metrics/trace/manifest/event observability

Quick start::

    from repro.algos import cifar_problem, TrainerConfig, SASGDTrainer, SASGDOptions
    prob = cifar_problem(scale="bench", seed=0)
    cfg = TrainerConfig(p=4, epochs=10, batch_size=16, lr=0.05)
    result = SASGDTrainer(prob, cfg, SASGDOptions(T=4)).train()
    print(result.test_accuracy_series())
"""

from .algos import (
    DownpourOptions,
    DownpourTrainer,
    EAMSGDOptions,
    EAMSGDTrainer,
    Problem,
    SASGDOptions,
    SASGDTrainer,
    SequentialSGDTrainer,
    TrainerConfig,
    TrainResult,
    cifar_problem,
    nlcf_problem,
)
from .core import SASGDConfig, SASGDLocalState, reference_sasgd, sasgd_global_step
from .harness import list_experiments, run_experiment

__version__ = "1.0.0"

__all__ = [
    "DownpourOptions",
    "DownpourTrainer",
    "EAMSGDOptions",
    "EAMSGDTrainer",
    "Problem",
    "SASGDConfig",
    "SASGDLocalState",
    "SASGDOptions",
    "SASGDTrainer",
    "SequentialSGDTrainer",
    "TrainResult",
    "TrainerConfig",
    "cifar_problem",
    "list_experiments",
    "nlcf_problem",
    "reference_sasgd",
    "run_experiment",
    "sasgd_global_step",
    "__version__",
]
