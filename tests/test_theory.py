"""Tests for the convergence-theory module (Thm 1/2, Cor 3, Thm 4)."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.theory import (
    SurfaceConstants,
    corollary3_feasible_K,
    alpha_from_K,
    K_from_alpha,
    asgd_bound,
    asgd_constraint_ok,
    asgd_gap_factor,
    bound_in_c,
    c_max,
    corollary3_gamma,
    corollary3_K_threshold,
    corollary3_rate,
    lian_learning_rate,
    optimal_c,
    samples_to_reach,
    sasgd_bound,
    sasgd_constraint_ok,
    sasgd_gamma_max,
    sasgd_optimal_bound,
    theorem1_gap_approx,
)

SC = SurfaceConstants(Df=2.3, L=50.0, sigma2=100.0)


def test_surface_constants_validation():
    with pytest.raises(ValueError):
        SurfaceConstants(Df=0, L=1, sigma2=1)
    with pytest.raises(ValueError):
        SurfaceConstants(Df=1, L=-1, sigma2=1)


# -- ASGD (Eq 1/2, Thm 1) --------------------------------------------------------


def test_asgd_bound_formula():
    got = asgd_bound(SC, M=4, K=100, p=2, gamma=0.001)
    expected = 2 * 2.3 / (4 * 100 * 0.001) + 100 * 50 * 0.001 + 2 * 100 * 50**2 * 4 * 2 * 0.001**2
    assert got == pytest.approx(expected)


def test_asgd_bound_rejects_bad_gamma():
    with pytest.raises(ValueError):
        asgd_bound(SC, 4, 100, 2, 0.0)


def test_asgd_constraint():
    assert asgd_constraint_ok(SC, M=1, p=1, gamma=1e-6)
    assert not asgd_constraint_ok(SC, M=64, p=32, gamma=1.0)


def test_alpha_K_roundtrip():
    K = 1234
    alpha = alpha_from_K(SC, 8, K)
    assert K_from_alpha(SC, 8, alpha) == pytest.approx(K)


def test_bound_in_c_matches_asgd_bound():
    """Eq (4) is Eq (1) re-parameterised: they agree for matching (γ, K)."""
    M, p, alpha, c = 8, 4, 20.0, 0.5
    K = int(round(K_from_alpha(SC, M, alpha)))
    alpha_exact = alpha_from_K(SC, M, K)
    gamma = c / (alpha_exact * M * SC.L)
    lhs = asgd_bound(SC, M, K, p, gamma)
    rhs = bound_in_c(c, alpha_exact, p, SC.sigma2, M)
    assert lhs == pytest.approx(rhs, rel=1e-6)


def test_bound_in_c_infinite_at_zero():
    assert bound_in_c(0.0, 10.0, 2) == math.inf


def test_c_max_positive():
    assert c_max(16.0, 32) > 0


def test_optimal_c_satisfies_cubic_or_boundary():
    for alpha, p in [(16.0, 32), (30.0, 64), (5.0, 4)]:
        c = optimal_c(alpha, p)
        cubic = 4 * p * c**3 + alpha * c**2 - 2 * alpha
        at_boundary = abs(c - c_max(alpha, p)) < 1e-12
        assert abs(cubic) < 1e-6 or at_boundary


@settings(max_examples=40, deadline=None)
@given(
    alpha=st.floats(min_value=1.0, max_value=100.0),
    p=st.integers(min_value=1, max_value=128),
)
def test_optimal_c_beats_grid_search(alpha, p):
    c_star = optimal_c(alpha, p)
    best = bound_in_c(c_star, alpha, p)
    grid = np.linspace(1e-4, c_max(alpha, p), 400)
    for c in grid:
        assert best <= bound_in_c(float(c), alpha, p) + 1e-9


def test_theorem1_paper_example():
    """p=32, alpha~16 (50 CIFAR epochs): guarantee differs by ~2."""
    assert asgd_gap_factor(16.0, 32) == pytest.approx(2.0, rel=0.15)
    assert theorem1_gap_approx(16.0, 32) == 2.0


@settings(max_examples=30, deadline=None)
@given(alpha=st.floats(min_value=16.0, max_value=32.0), mult=st.integers(2, 8))
def test_theorem1_approx_tracks_exact_in_regime(alpha, mult):
    p = int(math.ceil(alpha)) * mult
    exact = asgd_gap_factor(alpha, p)
    approx = theorem1_gap_approx(alpha, p)
    assert exact == pytest.approx(approx, rel=0.6)


def test_gap_grows_with_p():
    gaps = [asgd_gap_factor(16.0, p) for p in (16, 32, 64, 128)]
    assert gaps == sorted(gaps)


def test_lian_learning_rate_magnitude():
    """The paper's CIFAR-10 estimate: ~0.005 with MK = 500 000."""
    sc = SurfaceConstants(Df=2.3, L=2.0, sigma2=0.1)
    gamma = lian_learning_rate(sc, M=64, K=500_000 // 64)
    assert 0.001 < gamma < 0.02


def test_lian_rate_shrinks_with_K():
    g1 = lian_learning_rate(SC, 64, 1000)
    g2 = lian_learning_rate(SC, 64, 4000)
    assert g2 == pytest.approx(g1 / 2)


# -- SASGD (Thm 2, Cor 3, Thm 4) ----------------------------------------------------


def test_sasgd_bound_formula():
    M, T, p, K, g, gp = 4, 5, 2, 100, 1e-3, 2e-3
    S = M * T * K * p
    expected = 2 * SC.Df / (S * gp) + 2 * SC.L**2 * SC.sigma2 * gp * g * M * T + SC.L * SC.sigma2 * gp
    assert sasgd_bound(SC, M, T, p, K, g, gp) == pytest.approx(expected)


def test_sasgd_bound_validation():
    with pytest.raises(ValueError):
        sasgd_bound(SC, 0, 1, 1, 1, 0.1, 0.1)
    with pytest.raises(ValueError):
        sasgd_bound(SC, 1, 1, 1, 1, -0.1, 0.1)


def test_sasgd_constraint():
    assert sasgd_constraint_ok(SC, M=1, T=1, p=1, gamma=1e-6, gamma_p=1e-6)
    assert not sasgd_constraint_ok(SC, M=64, T=50, p=16, gamma=0.1, gamma_p=0.1)


def test_gamma_max_is_constraint_root():
    M, T, p = 8, 10, 4
    g = sasgd_gamma_max(SC, M, T, p)
    lhs = g * SC.L * M * T * p + 2 * SC.L**2 * M**2 * T**2 * g * g
    assert lhs == pytest.approx(1.0, rel=1e-9)


def test_gamma_max_shrinks_with_T():
    gs = [sasgd_gamma_max(SC, 8, T, 4) for T in (1, 5, 25, 50)]
    assert gs == sorted(gs, reverse=True)


def test_optimal_bound_beats_grid():
    M, T, p, S = 8, 5, 4, 10**7
    best = sasgd_optimal_bound(SC, M, T, p, S)
    gmax = sasgd_gamma_max(SC, M, T, p)
    for g in np.linspace(gmax * 1e-6, gmax, 300):
        K = S / (M * T * p)
        val = 2 * SC.Df / (S * g) + 2 * SC.L**2 * SC.sigma2 * g * g * M * T + SC.L * SC.sigma2 * g
        assert best <= val + 1e-9


def test_optimal_bound_requires_enough_samples():
    with pytest.raises(ValueError):
        sasgd_optimal_bound(SC, M=8, T=10, p=4, S=100)


@settings(max_examples=25, deadline=None)
@given(
    p=st.integers(min_value=1, max_value=32),
    M=st.sampled_from([1, 8, 64]),
    seed=st.integers(0, 100),
)
def test_theorem4_monotonic_in_T_property(p, M, seed):
    """Theorem 4: at fixed S, the optimal guarantee is non-decreasing in T."""
    rng = np.random.default_rng(seed)
    sc = SurfaceConstants(
        Df=float(rng.uniform(0.5, 10)),
        L=float(rng.uniform(1, 100)),
        sigma2=float(rng.uniform(1, 500)),
    )
    S = 10**8
    bounds = [sasgd_optimal_bound(sc, M, T, p, S) for T in (1, 2, 5, 10, 25, 50)]
    for a, b in zip(bounds, bounds[1:]):
        assert b >= a - 1e-9 * max(1.0, abs(a))


def test_corollary3_gamma_feasible_for_large_K():
    M, T, p = 64, 50, 8
    K = 10 * corollary3_feasible_K(SC, M, T, p)
    S = int(M * T * p * K)
    g = corollary3_gamma(SC, S)
    assert sasgd_constraint_ok(SC, M, T, p, g, g)


def test_corollary3_feasible_K_at_least_threshold():
    for T in (1, 5, 50):
        assert corollary3_feasible_K(SC, 64, T, 8) >= corollary3_K_threshold(SC, 64, T, 8)


def test_corollary3_rate_scaling():
    assert corollary3_rate(SC, 4 * 10**6) == pytest.approx(corollary3_rate(SC, 10**6) / 2)


def test_corollary3_threshold_grows_with_large_T():
    Ks = [corollary3_K_threshold(SC, 64, T, 8) for T in (8, 16, 64, 256)]
    assert Ks[1] < Ks[2] < Ks[3]  # beyond T=p the threshold grows with T


def test_samples_to_reach_monotone_in_T():
    s = [samples_to_reach(SC, 64, T, 8, target=1.0) for T in (1, 5, 25, 50)]
    assert s == sorted(s)


def test_samples_to_reach_monotone_in_target():
    s_loose = samples_to_reach(SC, 64, 5, 8, target=2.0)
    s_tight = samples_to_reach(SC, 64, 5, 8, target=0.5)
    assert s_tight > s_loose


def test_samples_to_reach_validation():
    with pytest.raises(ValueError):
        samples_to_reach(SC, 64, 5, 8, target=0.0)


def test_bound_at_returned_samples_meets_target():
    target = 1.0
    s = samples_to_reach(SC, 64, 5, 8, target)
    assert sasgd_optimal_bound(SC, 64, 5, 8, s) <= target
