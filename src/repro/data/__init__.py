"""Synthetic dataset generators and sampling utilities."""

from .datasets import ArrayDataset, SequenceDataset
from .sampler import MinibatchSampler
from .synth_cifar import make_cifar_prototypes, make_synthetic_cifar
from .synth_nlcf import make_synthetic_nlcf

__all__ = [
    "ArrayDataset",
    "MinibatchSampler",
    "SequenceDataset",
    "make_cifar_prototypes",
    "make_synthetic_cifar",
    "make_synthetic_nlcf",
]
