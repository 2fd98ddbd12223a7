"""Empirical estimation of the surface constants (D_f, L, σ²).

The paper instantiates its bounds for CIFAR-10 by estimating "the Lipschitz
constant L and an upper bound on gradient variance σ²" and bounding D_f by
f(x₁).  These estimators do the same against any model/problem pair:

* ``estimate_Df`` — initial loss (non-negative cross entropy ⇒ f(x*) ≥ 0, so
  f(x₁) upper-bounds D_f, the paper's choice);
* ``estimate_sigma2`` — Monte-Carlo E‖G(x,z) − ∇f(x)‖² over minibatches at
  fixed x, with the full-dataset gradient as ∇f;
* ``estimate_lipschitz`` — max of ‖∇f(x+δ) − ∇f(x)‖/‖δ‖ over random probe
  directions (a lower bound on the true L, which is the usual practical
  surrogate).
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from ..algos.base import LearnerWorkload, Problem
from .asgd import SurfaceConstants

__all__ = [
    "full_gradient",
    "estimate_Df",
    "estimate_sigma2",
    "estimate_lipschitz",
    "estimate_surface_constants",
]


def full_gradient(wl: LearnerWorkload, batch: int = 64) -> Tuple[float, np.ndarray]:
    """Mean loss and full-dataset gradient at the current parameters."""
    n = len(wl.problem.train_set)
    total = np.zeros_like(wl.flat.grad)
    loss_sum = 0.0
    try:  # compute_gradient_eval switches dropout off: deterministic probing
        for lo in range(0, n, batch):
            idx = np.arange(lo, min(lo + batch, n))
            loss, _acc, nb = wl.compute_gradient_eval(idx)
            total += wl.flat.grad * (nb / n)
            loss_sum += loss * nb
    finally:
        wl.model.train()
    return loss_sum / n, total


def estimate_Df(wl: LearnerWorkload, batch: int = 64) -> float:
    """D_f ≈ f(x₁): the paper's bound (cross entropy is non-negative)."""
    loss, _ = full_gradient(wl, batch)
    return loss


def estimate_sigma2(
    wl: LearnerWorkload,
    M: int,
    n_samples: int = 32,
    rng: Optional[np.random.Generator] = None,
    batch: int = 64,
) -> float:
    """E‖G(x, z) − ∇f(x)‖² over random size-M minibatches z at fixed x."""
    rng = rng if rng is not None else np.random.default_rng(0)
    _, grad_full = full_gradient(wl, batch)
    n = len(wl.problem.train_set)
    total = 0.0
    try:
        for _ in range(n_samples):
            idx = rng.choice(n, size=min(M, n), replace=False)
            wl.compute_gradient_eval(idx)
            diff = wl.flat.grad - grad_full
            total += float(diff @ diff)
    finally:
        wl.model.train()
    return total / n_samples


def estimate_lipschitz(
    wl: LearnerWorkload,
    n_probes: int = 8,
    radius: float = 1e-2,
    rng: Optional[np.random.Generator] = None,
    batch: int = 64,
) -> float:
    """max over probes of ‖∇f(x+δ) − ∇f(x)‖ / ‖δ‖ with ‖δ‖ = radius."""
    rng = rng if rng is not None else np.random.default_rng(0)
    x0 = wl.flat.copy_data()
    _, g0 = full_gradient(wl, batch)
    best = 0.0
    try:
        for _ in range(n_probes):
            delta = rng.standard_normal(x0.shape).astype(x0.dtype)
            delta *= radius / np.linalg.norm(delta)
            wl.flat.set_data(x0 + delta)
            _, g1 = full_gradient(wl, batch)
            best = max(best, float(np.linalg.norm(g1 - g0) / radius))
    finally:
        wl.flat.set_data(x0)
    return best


def estimate_surface_constants(
    problem: Problem,
    M: int,
    seed: int = 0,
    n_variance_samples: int = 16,
    n_lipschitz_probes: int = 4,
    batch: int = 64,
) -> SurfaceConstants:
    """One-stop estimation of (D_f, L, σ²) at a fresh initialisation."""
    rngs = [np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(4)]
    wl = LearnerWorkload(problem, M, rngs[0], rngs[1], rngs[2])
    Df = estimate_Df(wl, batch)
    sigma2 = estimate_sigma2(wl, M, n_variance_samples, rngs[3], batch)
    L = estimate_lipschitz(wl, n_lipschitz_probes, rng=rngs[3], batch=batch)
    return SurfaceConstants(Df=max(Df, 1e-12), L=max(L, 1e-12), sigma2=max(sigma2, 1e-12))
