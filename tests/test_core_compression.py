"""Tests for gradient compression (the sparse-aggregation-in-space extension)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    ErrorFeedback,
    RandomKCompressor,
    TopKCompressor,
    make_compressor,
)


def test_topk_validation():
    with pytest.raises(ValueError):
        TopKCompressor(0.0)
    with pytest.raises(ValueError):
        TopKCompressor(1.5)


def test_topk_selects_largest_magnitudes():
    g = np.array([0.1, -5.0, 0.2, 3.0, -0.05], dtype=np.float32)
    sparse = TopKCompressor(0.4).compress(g)
    assert sorted(sparse.indices.tolist()) == [1, 3]
    dense = sparse.densify()
    np.testing.assert_allclose(dense[[1, 3]], [-5.0, 3.0])
    assert dense[0] == 0.0


def test_topk_full_fraction_is_lossless():
    g = np.random.default_rng(0).standard_normal(20).astype(np.float32)
    sparse = TopKCompressor(1.0).compress(g)
    np.testing.assert_array_equal(sparse.densify(), g)


def test_topk_indices_sorted_and_k_respected():
    g = np.random.default_rng(1).standard_normal(1000).astype(np.float32)
    comp = TopKCompressor(0.01)
    sparse = comp.compress(g)
    assert len(sparse.indices) == comp.k_for(1000) == 10
    assert np.all(np.diff(sparse.indices) > 0)


def test_compressed_nbytes_smaller():
    g = np.random.default_rng(1).standard_normal(10_000).astype(np.float32)
    sparse = TopKCompressor(0.01).compress(g)
    assert sparse.nbytes < 0.05 * g.nbytes


def test_randomk_unbiased_in_expectation():
    g = np.random.default_rng(2).standard_normal(500)
    comp = RandomKCompressor(0.2)
    rng = np.random.default_rng(3)
    mean = np.zeros_like(g)
    n = 400
    for _ in range(n):
        mean += comp.compress(g, rng).densify() / n
    # per-coordinate variance is large (each draw keeps 20% at 5x scale), so
    # assert unbiasedness in aggregate: the relative L2 error of the mean
    # estimator shrinks to ~1/sqrt(n*k_frac) of the signal
    assert np.linalg.norm(mean - g) < 0.2 * np.linalg.norm(g)


def test_randomk_scaling_factor():
    g = np.ones(10)
    sparse = RandomKCompressor(0.5).compress(g, np.random.default_rng(0))
    np.testing.assert_allclose(sparse.values, 2.0)  # scaled by size/k


def test_error_feedback_conserves_mass():
    """sent + residual == corrected gradient at every round."""
    rng = np.random.default_rng(4)
    ef = ErrorFeedback(TopKCompressor(0.1), size=100, dtype=np.float64)
    carried = np.zeros(100)
    for _ in range(5):
        g = rng.standard_normal(100)
        corrected = g + ef.residual.copy()
        sparse = ef.compress(g)
        np.testing.assert_allclose(sparse.densify() + ef.residual, corrected, rtol=1e-12)


def test_error_feedback_eventually_transmits_everything():
    """A constant gradient's small coordinates accumulate until they win."""
    ef = ErrorFeedback(TopKCompressor(0.2), size=5, dtype=np.float64)
    g = np.array([1.0, 0.1, 0.1, 0.1, 0.1])
    total_sent = np.zeros(5)
    for _ in range(30):
        total_sent += ef.compress(g).densify()
    # every coordinate has been transmitted by now (residual forced it)
    assert np.all(total_sent > 0)


def test_error_feedback_shape_check():
    ef = ErrorFeedback(TopKCompressor(0.5), size=10)
    with pytest.raises(ValueError):
        ef.compress(np.zeros(11, dtype=np.float32))


def test_make_compressor_factory():
    assert make_compressor(None, 0.1, 10) is None
    assert make_compressor("topk", 0.1, 10, error_feedback=False).name == "topk"
    assert make_compressor("topk", 0.1, 10).name == "topk+ef"
    assert make_compressor("randomk", 0.1, 10).name == "randomk+ef"
    with pytest.raises(ValueError):
        make_compressor("bogus", 0.1, 10)


@settings(max_examples=30, deadline=None)
@given(
    size=st.integers(2, 300),
    k_frac=st.floats(0.01, 1.0),
    seed=st.integers(0, 1000),
)
def test_topk_densify_error_bounded_property(size, k_frac, seed):
    """||g - densify(topk(g))|| <= ||g|| and kept coords are exact."""
    g = np.random.default_rng(seed).standard_normal(size)
    sparse = TopKCompressor(k_frac).compress(g)
    dense = sparse.densify()
    assert np.linalg.norm(g - dense) <= np.linalg.norm(g) + 1e-12
    np.testing.assert_array_equal(dense[sparse.indices], g[sparse.indices])


def test_sasgd_trainer_with_compression_learns():
    """End to end: compressed aggregation trains and saves bytes."""
    from repro.algos import SASGDOptions, SASGDTrainer, TrainerConfig, cifar_problem

    prob = cifar_problem(scale="unit", seed=1)
    cfg = TrainerConfig(p=2, epochs=3, batch_size=8, lr=0.05, seed=3, eval_every=3)
    dense = SASGDTrainer(prob, cfg, SASGDOptions(T=2)).train()
    comp = SASGDTrainer(
        prob, cfg, SASGDOptions(T=2, compression="topk", k_frac=0.1)
    ).train()
    assert comp.extras["compression"] == "topk+ef"
    assert comp.extras["compressed_bytes_saved"] > 0
    assert comp.extras["total_bytes"] < dense.extras["total_bytes"]
    assert np.isfinite(comp.records[-1].train_loss)


def test_sasgd_compression_full_k_matches_dense_math():
    """k_frac=1 without error feedback is numerically plain SASGD."""
    from repro.algos import SASGDOptions, SASGDTrainer, TrainerConfig, cifar_problem

    prob = cifar_problem(scale="unit", seed=1)
    cfg = TrainerConfig(p=2, epochs=2, batch_size=8, lr=0.05, seed=3)
    dense = SASGDTrainer(prob, cfg, SASGDOptions(T=2))
    dense.train()
    comp = SASGDTrainer(
        prob,
        cfg,
        SASGDOptions(T=2, compression="topk", k_frac=1.0, error_feedback=False),
    )
    comp.train()
    np.testing.assert_allclose(
        dense.workloads[0].flat.data, comp.workloads[0].flat.data, rtol=1e-5, atol=1e-6
    )
