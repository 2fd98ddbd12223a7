"""The paper's two networks (Tables I and II), exactly and scalably.

Both builders accept a ``width`` multiplier: 1.0 is the paper architecture
(≈0.5 M parameters for CIFAR-10, ≈1.7 M for NLC-F — the paper quotes "about
0.5 million" and "about 2 million"); smaller widths shrink every hidden
channel count proportionally so convergence experiments run at laptop scale
while preserving the layer structure, depth and loss surface character.
The paper-scale sizes are what the epoch-time experiments size their
messages and FLOP counts from: each network is one list of ``(layer class,
*config)`` rows, which ``build_*`` instantiates and ``*_info`` walks through
the layers' ``geometry`` without allocating a parameter, so a timing run
holds no model.

Padding note (CIFAR-10): Table I lists kernel sizes only.  The referenced
Torch model zoo network uses 'same'-style padding on the 5×5/3×3 stages; that
choice is also the unique one that makes the final stage emit 128 features
for the "Fully connected layer: 128 × 10" row and reproduces the quoted
~0.5 M parameter count, so we adopt it (pad 2, 1, 1, 0).

Read-out note (NLC-F): Table II goes from the temporal stage straight to a
1000×1000 fully connected layer, which requires a fixed-size vector; we apply
the standard max-over-time read-out after the temporal pooling (documented
inference, see DESIGN.md).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from .activations import Flatten, ReLU, Tanh
from .conv import Conv2d
from .dropout import Dropout
from .linear import Linear
from .loss import CrossEntropyLoss
from .module import Sequential
from .pool import MaxPool2d
from .temporal import MaxOverTime, TemporalConvolution, TemporalMaxPooling

__all__ = [
    "ModelInfo",
    "build_cifar10_cnn",
    "build_nlcf_net",
    "cifar10_info",
    "nlcf_info",
    "CIFAR10_INPUT_SHAPE",
    "NLCF_EMBED_DIM",
    "NLCF_NUM_CLASSES",
]

CIFAR10_INPUT_SHAPE: Tuple[int, int, int] = (3, 32, 32)
NLCF_EMBED_DIM = 100
NLCF_NUM_CLASSES = 311

_WEIGHTED = (Conv2d, Linear, TemporalConvolution)  # built with the caller's dtype and rng


@dataclass(frozen=True)
class ModelInfo:
    """Metadata the cluster simulation needs about a model."""

    name: str
    num_parameters: int
    param_bytes: float  # size of the flat parameter/gradient buffer
    flops_forward_per_example: float
    default_minibatch: int  # the paper's setting (64 CIFAR / 1 NLC-F)

    @property
    def flops_train_per_example(self) -> float:
        """Forward + backward ≈ 3× forward (input-grad + weight-grad passes)."""
        return 3.0 * self.flops_forward_per_example


def _scaled(base: int, width: float, minimum: int = 1) -> int:
    return max(minimum, int(round(base * width)))


def _info(
    name: str, layers: List[tuple], in_shape: Tuple[int, ...], dtype, minibatch: int
) -> ModelInfo:
    """``layers``' parameters and forward FLOPs, summed by the walk the built
    :class:`Sequential` runs on its own rows."""
    _, flops, params = Sequential.geometry(in_shape, *layers)
    return ModelInfo(
        name=name,
        num_parameters=params,
        param_bytes=float(params * np.dtype(dtype).itemsize),
        flops_forward_per_example=flops,
        default_minibatch=minibatch,
    )


def _build(layers: List[tuple], dtype, rng: Optional[np.random.Generator]) -> Sequential:
    rng = rng if rng is not None else np.random.default_rng(0)
    return Sequential(
        *(
            cls(*config, dtype=dtype, rng=rng) if cls in _WEIGHTED else cls(*config)
            for cls, *config in layers
        )
    )


def _cifar10_layers(width: float, num_classes: int, dropout: float = 0.5) -> List[tuple]:
    """Table I: 4 conv/ReLU/pool/dropout stages + FC head."""
    c1 = _scaled(64, width)
    c2 = _scaled(128, width)
    c3 = _scaled(256, width)
    c4 = _scaled(128, width)
    layers: List[tuple] = []
    # (in, out, kernel, stride, padding) per stage
    for conv in ((3, c1, 5, 1, 2), (c1, c2, 3, 1, 1), (c2, c3, 3, 1, 1), (c3, c4, 2, 1, 0)):
        layers += [(Conv2d, *conv), (ReLU,), (MaxPool2d, 2), (Dropout, dropout)]
    return layers + [(Flatten,), (Linear, c4, num_classes)]


def cifar10_info(
    width: float = 1.0, num_classes: int = 10, input_hw: int = 32, dtype=np.float32
) -> ModelInfo:
    """The :class:`ModelInfo` of ``build_cifar10_cnn`` with these arguments,
    derived from the architecture alone."""
    if input_hw % 16 != 0:
        raise ValueError(f"input_hw must be divisible by 16, got {input_hw}")
    layers = _cifar10_layers(width, num_classes)
    return _info(f"cifar10-cnn-w{width:g}", layers, (3, input_hw, input_hw), dtype, 64)


def build_cifar10_cnn(
    width: float = 1.0,
    num_classes: int = 10,
    input_hw: int = 32,
    dropout: float = 0.5,
    dtype=np.float32,
    rng: Optional[np.random.Generator] = None,
) -> Tuple[Sequential, CrossEntropyLoss, ModelInfo]:
    """Table I: 4 conv/ReLU/pool/dropout stages + FC head, cross-entropy.

    Returns ``(model, criterion, info)``.
    """
    info = cifar10_info(width, num_classes, input_hw, dtype)
    model = _build(_cifar10_layers(width, num_classes, dropout), dtype, rng)
    if model.output_shape((3, input_hw, input_hw)) != (num_classes,):
        raise RuntimeError("the built network's head is not the described one")  # pragma: no cover
    return model, CrossEntropyLoss(), info


def _nlcf_layers(width: float, num_classes: int, embed_dim: int) -> List[tuple]:
    """Table II: per-token FC/tanh → temporal conv → pooling → FC head."""
    h1 = _scaled(200, width)
    nkern = _scaled(1000, width)
    h2 = _scaled(1000, width)
    return [
        (Linear, embed_dim, h1),
        (Tanh,),
        (TemporalConvolution, h1, nkern, 2),
        (TemporalMaxPooling, 2),
        (Tanh,),
        (MaxOverTime,),
        (Linear, nkern, h2),
        (Tanh,),
        (Linear, h2, num_classes),
    ]


def nlcf_info(
    width: float = 1.0,
    num_classes: int = NLCF_NUM_CLASSES,
    embed_dim: int = NLCF_EMBED_DIM,
    typical_len: int = 20,
    dtype=np.float32,
) -> ModelInfo:
    """The :class:`ModelInfo` of ``build_nlcf_net`` with these arguments,
    derived from the architecture alone.

    ``typical_len`` only affects the FLOP estimate (sentences vary in length;
    the paper trains with minibatch size 1 for this workload).
    """
    layers = _nlcf_layers(width, num_classes, embed_dim)
    return _info(f"nlcf-net-w{width:g}", layers, (typical_len, embed_dim), dtype, 1)


def build_nlcf_net(
    width: float = 1.0,
    num_classes: int = NLCF_NUM_CLASSES,
    embed_dim: int = NLCF_EMBED_DIM,
    typical_len: int = 20,
    dtype=np.float32,
    rng: Optional[np.random.Generator] = None,
) -> Tuple[Sequential, CrossEntropyLoss, ModelInfo]:
    """Table II: per-token FC/tanh → temporal conv → pooling → FC head.

    Returns ``(model, criterion, info)``; ``typical_len`` is :func:`nlcf_info`'s.
    """
    info = nlcf_info(width, num_classes, embed_dim, typical_len, dtype)
    model = _build(_nlcf_layers(width, num_classes, embed_dim), dtype, rng)
    if model.output_shape((typical_len, embed_dim)) != (num_classes,):
        raise RuntimeError("the built network's head is not the described one")  # pragma: no cover
    return model, CrossEntropyLoss(), info
