"""SASGD convergence theory (paper Sec. III-A/III-B).

* **Theorem 2** — after K global allreduce updates over S = M·T·K·p samples,

      R̄_K ≤ 2·D_f/(S·γp) + 2·L²·σ²·γp·γ·M·T + L·σ²·γp

  subject to γp·L·M·T·p + 2·L²·M²·T²·γp·γ ≤ 1.

* **Corollary 3** — with γ = γp = √(2·D_f/(S·L·σ²)) and
  K ≥ (4·M·L·D_f/σ²)·(max{p,T}+1)²/(p·T), the guarantee is ≤ 4·√(D_f·L·σ²/S):
  SASGD keeps SGD's asymptotic O(1/√S) rate for every T, but the number of
  global updates needed to *enter* that regime grows with T.

  (The paper's display of the corollary rate omits the L inside the radical;
  dimensional consistency with Theorem 2 — and the substitution itself —
  requires it, so it is included here and flagged in EXPERIMENTS.md.)

* **Theorem 4** — at fixed S, p, M and γp = γ, the optimal value of the
  Theorem-2 bound is non-decreasing in T: larger aggregation intervals always
  cost samples.  :func:`sasgd_optimal_bound` realises the minimisation the
  proof reasons about (the feasible γ range shrinks and the objective grows
  with T), so the monotonicity can be checked numerically over any grid.
"""

from __future__ import annotations

import math
from typing import Optional, Tuple

from .asgd import SurfaceConstants

__all__ = [
    "sasgd_bound",
    "sasgd_constraint_ok",
    "sasgd_gamma_max",
    "sasgd_optimal_bound",
    "corollary3_rate",
    "corollary3_K_threshold",
    "corollary3_gamma",
    "samples_to_reach",
]


def sasgd_bound(
    sc: SurfaceConstants,
    M: int,
    T: int,
    p: int,
    K: int,
    gamma: float,
    gamma_p: float,
) -> float:
    """Theorem 2's upper bound on the average gradient norm after K updates."""
    if min(M, T, p, K) < 1:
        raise ValueError("M, T, p, K must be >= 1")
    if gamma <= 0 or gamma_p <= 0:
        raise ValueError("learning rates must be positive")
    S = M * T * K * p
    return (
        2.0 * sc.Df / (S * gamma_p)
        + 2.0 * sc.L**2 * sc.sigma2 * gamma_p * gamma * M * T
        + sc.L * sc.sigma2 * gamma_p
    )


def sasgd_constraint_ok(
    sc: SurfaceConstants, M: int, T: int, p: int, gamma: float, gamma_p: float
) -> bool:
    """Theorem 2's feasibility: γp·L·M·T·p + 2·L²·M²·T²·γp·γ ≤ 1."""
    return (
        gamma_p * sc.L * M * T * p + 2.0 * sc.L**2 * M**2 * T**2 * gamma_p * gamma
        <= 1.0
    )


def sasgd_gamma_max(sc: SurfaceConstants, M: int, T: int, p: int) -> float:
    """Largest feasible γ when γp = γ (Theorem 4's shrinking range).

    With γp = γ the constraint is quadratic: 2L²M²T²γ² + LMTpγ − 1 ≤ 0, so
    γ_max = (√(p²+8) − p) / (4·L·M·T).
    """
    return (math.sqrt(p**2 + 8.0) - p) / (4.0 * sc.L * M * T)


def sasgd_optimal_bound(
    sc: SurfaceConstants,
    M: int,
    T: int,
    p: int,
    S: int,
    return_gamma: bool = False,
):
    """min over feasible γ (= γp) of the Theorem-2 bound at fixed samples S.

    ``S`` is held constant by K = S/(M·T·p) (fractional K is allowed in the
    continuous relaxation the theorem reasons over).  This is the quantity
    Theorem 4 proves non-decreasing in T.
    """
    # imported here: 0.46 s of start-up and ~40 MB that no training run needs
    from scipy.optimize import minimize_scalar

    if S < M * T * p:
        raise ValueError(f"S={S} smaller than one interval M*T*p={M * T * p}")
    gmax = sasgd_gamma_max(sc, M, T, p)

    def objective(gamma: float) -> float:
        return (
            2.0 * sc.Df / (S * gamma)
            + 2.0 * sc.L**2 * sc.sigma2 * gamma**2 * M * T
            + sc.L * sc.sigma2 * gamma
        )

    res = minimize_scalar(
        objective,
        bounds=(gmax * 1e-9, gmax),
        method="bounded",
        options={"xatol": gmax * 1e-12},
    )
    best_gamma = float(res.x)
    best = float(res.fun)
    # guard the optimiser with the boundary value
    if objective(gmax) < best:
        best_gamma, best = gmax, objective(gmax)
    if return_gamma:
        return best, best_gamma
    return best


def corollary3_gamma(sc: SurfaceConstants, S: int) -> float:
    """Corollary 3's rate choice γ = γp = √(2·D_f/(S·L·σ²))."""
    return math.sqrt(2.0 * sc.Df / (S * sc.L * sc.sigma2))


def corollary3_rate(sc: SurfaceConstants, S: int) -> float:
    """The asymptotic guarantee 4·√(D_f·L·σ²/S)."""
    return 4.0 * math.sqrt(sc.Df * sc.L * sc.sigma2 / S)


def corollary3_K_threshold(sc: SurfaceConstants, M: int, T: int, p: int) -> float:
    """K ≥ (4·M·L·D_f/σ²)·(max{p,T}+1)²/(p·T) — the entry price of the
    asymptotic regime, which "can substantially increase with the increase
    in T"."""
    return (4.0 * M * sc.L * sc.Df / sc.sigma2) * (max(p, T) + 1) ** 2 / (p * T)


def corollary3_feasible_K(sc: SurfaceConstants, M: int, T: int, p: int) -> float:
    """Smallest K at which Corollary 3's γ also satisfies Theorem 2's
    feasibility constraint.

    The corollary's printed threshold controls the bound's *value*; plugging
    γ = γp = √(2·D_f/(S·L·σ²)) into the constraint's first term
    (γp·L·M·T·p ≤ 1) additionally requires K ≥ 2·D_f·L·M·T·p/σ², which can
    exceed the printed threshold for large T·p.  Use the max of both.
    """
    return max(
        corollary3_K_threshold(sc, M, T, p),
        2.0 * sc.Df * sc.L * M * T * p / sc.sigma2,
    )


def samples_to_reach(
    sc: SurfaceConstants,
    M: int,
    T: int,
    p: int,
    target: float,
    s_hi: Optional[int] = None,
) -> int:
    """Smallest S whose optimal Theorem-2 guarantee is ≤ ``target``.

    Bisection over S; the bound is monotone decreasing in S.  This is the
    "sample complexity relative to T" the paper's Sec. III-B studies: for
    fixed target, the returned S grows with T.
    """
    if target <= 0:
        raise ValueError("target must be positive")
    lo = M * T * p
    if sasgd_optimal_bound(sc, M, T, p, lo) <= target:
        return lo
    hi = s_hi if s_hi is not None else lo
    while sasgd_optimal_bound(sc, M, T, p, hi) > target:
        hi *= 2
        if hi > 2**60:
            raise RuntimeError("target unreachable")  # pragma: no cover
    while hi - lo > max(1, lo // 1000):
        mid = (lo + hi) // 2
        if sasgd_optimal_bound(sc, M, T, p, mid) <= target:
            hi = mid
        else:
            lo = mid
    return hi
