"""Synthetic CIFAR-10 stand-in.

The real CIFAR-10 is not available offline; the convergence claims we
reproduce (staleness degrades accuracy with p; accuracy vs aggregation
interval T; learning-rate sensitivity) need a dataset that is

* non-trivially learnable by the Table I CNN over tens of epochs,
* class-structured with within-class variation (shift, contrast, clutter)
  so minibatch gradients have realistic variance — gradient variance σ² is
  the quantity the paper's bounds are written in,
* deterministic from a seed.

Each class gets a smooth low-frequency prototype field (random coarse grid,
bilinearly upsampled) plus a class-keyed oriented grating; a sample applies a
random circular shift, contrast scale, per-image color cast and additive
Gaussian noise.  Classes overlap enough that test accuracy climbs gradually
(single-digit epochs to beat chance, tens of epochs toward the plateau),
mirroring the paper's accuracy-vs-epoch curves.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from .datasets import ArrayDataset

__all__ = ["make_synthetic_cifar", "make_cifar_prototypes"]

_SLAB = 64  # images synthesised per float64 batch


def _upsample_bilinear(coarse: np.ndarray, hw: int) -> np.ndarray:
    """Bilinear upsample of (C, h, w) to (C, hw, hw) on a periodic grid."""
    c, h, w = coarse.shape
    # sample positions in coarse-grid coordinates
    ys = np.linspace(0, h, hw, endpoint=False)
    xs = np.linspace(0, w, hw, endpoint=False)
    y0 = np.floor(ys).astype(int)
    x0 = np.floor(xs).astype(int)
    fy = (ys - y0)[None, :, None]
    fx = (xs - x0)[None, None, :]
    y1 = (y0 + 1) % h
    x1 = (x0 + 1) % w
    g00 = coarse[:, y0][:, :, x0]
    g01 = coarse[:, y0][:, :, x1]
    g10 = coarse[:, y1][:, :, x0]
    g11 = coarse[:, y1][:, :, x1]
    return (
        g00 * (1 - fy) * (1 - fx)
        + g01 * (1 - fy) * fx
        + g10 * fy * (1 - fx)
        + g11 * fy * fx
    )


def make_cifar_prototypes(
    num_classes: int, hw: int, rng: np.random.Generator
) -> np.ndarray:
    """(num_classes, 3, hw, hw) smooth class prototypes, unit-ish scale."""
    protos = np.empty((num_classes, 3, hw, hw), dtype=np.float64)
    yy, xx = np.mgrid[0:hw, 0:hw] / hw
    for k in range(num_classes):
        coarse = rng.standard_normal((3, 4, 4))
        field = _upsample_bilinear(coarse, hw)
        # class-keyed oriented grating: distinct spatial frequency signature
        theta = np.pi * k / num_classes
        freq = 2.0 + 1.5 * (k % 3)
        grating = np.sin(2 * np.pi * freq * (np.cos(theta) * xx + np.sin(theta) * yy))
        protos[k] = 0.8 * field + 0.6 * grating[None]
        protos[k] -= protos[k].mean()
        protos[k] /= protos[k].std() + 1e-12
    return protos


def _sample_images(
    protos: np.ndarray,
    labels: np.ndarray,
    rng: np.random.Generator,
    noise: float,
    max_shift: int,
) -> np.ndarray:
    """float32 images, built in float64 ``_SLAB`` rows at a time.

    The noise is drawn slab by slab in row order, which is the stream one
    full-size ``standard_normal`` draw yields, so slabs change no bit.
    """
    n = labels.shape[0]
    _, c, hw, _ = protos.shape
    out = np.empty((n, c, hw, hw), dtype=np.float32)
    shifts = rng.integers(-max_shift, max_shift + 1, size=(n, 2))
    contrast = rng.uniform(0.7, 1.3, size=n)
    cast = rng.normal(0.0, 0.15, size=(n, c))
    x = np.empty((min(n, _SLAB), c, hw, hw), dtype=np.float64)
    for lo in range(0, n, _SLAB):
        xs = x[: min(_SLAB, n - lo)]
        for i, xi in enumerate(xs, lo):
            img = np.roll(protos[labels[i]], tuple(shifts[i]), axis=(1, 2))
            xi[...] = contrast[i] * img + cast[i][:, None, None]
        xs += noise * rng.standard_normal(xs.shape)
        out[lo : lo + len(xs)] = xs
    return out


def make_synthetic_cifar(
    n_train: int = 2048,
    n_test: int = 512,
    num_classes: int = 10,
    hw: int = 32,
    noise: float = 0.9,
    max_shift: int = 3,
    seed: int = 0,
) -> Tuple[ArrayDataset, ArrayDataset]:
    """Generate a (train, test) pair; paper scale is 50 000 / 10 000.

    Train and test samples share prototypes but use independent RNG streams,
    and labels are balanced round-robin so tiny subsets stay stratified.
    """
    if n_train < num_classes or n_test < 1:
        raise ValueError("dataset too small")
    ss = np.random.SeedSequence(seed)
    proto_rng, train_rng, test_rng = (np.random.default_rng(s) for s in ss.spawn(3))
    protos = make_cifar_prototypes(num_classes, hw, proto_rng)

    def balanced_labels(n: int, rng: np.random.Generator) -> np.ndarray:
        labels = np.arange(n) % num_classes
        rng.shuffle(labels)
        return labels

    y_tr = balanced_labels(n_train, train_rng)
    y_te = balanced_labels(n_test, test_rng)
    x_tr = _sample_images(protos, y_tr, train_rng, noise, max_shift)
    x_te = _sample_images(protos, y_te, test_rng, noise, max_shift)
    name = f"synth-cifar(hw={hw},noise={noise:g},seed={seed})"
    return (
        ArrayDataset(x_tr, y_tr, num_classes, name + "/train"),
        ArrayDataset(x_te, y_te, num_classes, name + "/test"),
    )
