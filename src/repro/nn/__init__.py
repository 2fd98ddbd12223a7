"""Torch7-style neural-network framework on NumPy.

Layers implement explicit ``forward``/``backward``; models flatten into one
contiguous parameter/gradient vector (:func:`flatten_module`) which is what
the distributed algorithms broadcast and allreduce.
"""

from .activations import Flatten, ReLU, Tanh
from .bufferpool import BufferPool
from .conv import Conv2d
from .dropout import Dropout
from .functional import ConvPlan, conv_plan, log_softmax
from .linear import Linear
from .loss import CrossEntropyLoss, accuracy
from .models import (
    CIFAR10_INPUT_SHAPE,
    NLCF_EMBED_DIM,
    NLCF_NUM_CLASSES,
    ModelInfo,
    build_cifar10_cnn,
    build_nlcf_net,
)
from .module import FlatParams, Module, Parameter, Sequential, flatten_module
from .optim import SGD, MomentumSGD
from .pool import MaxPool2d
from .temporal import MaxOverTime, TemporalConvolution, TemporalMaxPooling

__all__ = [
    "CIFAR10_INPUT_SHAPE",
    "BufferPool",
    "Conv2d",
    "ConvPlan",
    "CrossEntropyLoss",
    "Dropout",
    "FlatParams",
    "Flatten",
    "Linear",
    "MaxOverTime",
    "MaxPool2d",
    "Module",
    "ModelInfo",
    "NLCF_EMBED_DIM",
    "NLCF_NUM_CLASSES",
    "MomentumSGD",
    "Parameter",
    "SGD",
    "ReLU",
    "Sequential",
    "Tanh",
    "TemporalConvolution",
    "TemporalMaxPooling",
    "accuracy",
    "build_cifar10_cnn",
    "build_nlcf_net",
    "conv_plan",
    "flatten_module",
    "log_softmax",
]
