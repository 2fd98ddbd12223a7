"""Tests for dataset containers, generators and samplers."""

import numpy as np
import pytest

from repro.data import (
    ArrayDataset,
    MinibatchSampler,
    SequenceDataset,
    make_synthetic_cifar,
    make_synthetic_nlcf,
)


# -- containers ------------------------------------------------------------------


def test_array_dataset_validation():
    with pytest.raises(ValueError):
        ArrayDataset(np.zeros((3, 2)), np.zeros(2, dtype=int), 2)
    with pytest.raises(ValueError):
        ArrayDataset(np.zeros((2, 2)), np.array([0, 5]), 2)


def test_array_dataset_batch_and_subset():
    ds = ArrayDataset(np.arange(12).reshape(6, 2), np.arange(6) % 3, 3)
    xb, yb = ds.batch(np.array([1, 4]))
    assert xb.shape == (2, 2) and list(yb) == [1, 1]
    sub = ds.subset(np.array([0, 5]))
    assert len(sub) == 2


def test_sequence_dataset_validation():
    seqs = [np.zeros((3, 4)), np.zeros((5, 4))]
    with pytest.raises(ValueError):
        SequenceDataset(seqs, np.array([0]), 2)
    with pytest.raises(ValueError):
        SequenceDataset([np.zeros((3, 4)), np.zeros((5, 3))], np.array([0, 1]), 2)


def test_sequence_batch_pads_with_last_token():
    seqs = [
        np.array([[1.0, 1.0], [2.0, 2.0]]),
        np.array([[3.0, 3.0], [4.0, 4.0], [5.0, 5.0]]),
    ]
    ds = SequenceDataset(seqs, np.array([0, 1]), 2)
    xb, yb = ds.batch([0, 1])
    assert xb.shape == (2, 3, 2)
    np.testing.assert_array_equal(xb[0, 2], [2.0, 2.0])  # replicated last token


def test_sequence_embed_dim():
    ds = SequenceDataset([np.zeros((3, 7))], np.array([0]), 1)
    assert ds.embed_dim == 7


# -- synthetic CIFAR ----------------------------------------------------------------


def test_cifar_shapes_and_dtypes():
    train, test = make_synthetic_cifar(n_train=40, n_test=20, seed=0)
    assert train.x.shape == (40, 3, 32, 32)
    assert train.x.dtype == np.float32
    assert test.x.shape == (20, 3, 32, 32)
    assert train.num_classes == 10


def test_cifar_deterministic_from_seed():
    a_train, _ = make_synthetic_cifar(n_train=20, n_test=10, seed=7)
    b_train, _ = make_synthetic_cifar(n_train=20, n_test=10, seed=7)
    np.testing.assert_array_equal(a_train.x, b_train.x)
    np.testing.assert_array_equal(a_train.y, b_train.y)


def test_cifar_different_seeds_differ():
    a, _ = make_synthetic_cifar(n_train=20, n_test=10, seed=1)
    b, _ = make_synthetic_cifar(n_train=20, n_test=10, seed=2)
    assert not np.array_equal(a.x, b.x)


def test_cifar_labels_balanced():
    train, _ = make_synthetic_cifar(n_train=100, n_test=10, seed=0)
    counts = np.bincount(train.y, minlength=10)
    assert counts.max() - counts.min() <= 1


def test_cifar_train_test_disjoint_noise():
    train, test = make_synthetic_cifar(n_train=20, n_test=20, seed=0)
    assert not np.array_equal(train.x[:10], test.x[:10])


def test_cifar_class_structure_is_learnable_signal():
    """Same-class images correlate more than cross-class, on average."""
    train, _ = make_synthetic_cifar(n_train=200, n_test=10, seed=3, noise=0.5)
    flat = train.x.reshape(len(train.x), -1)
    flat = flat - flat.mean(axis=1, keepdims=True)
    flat /= np.linalg.norm(flat, axis=1, keepdims=True)
    sims = flat @ flat.T
    same = sims[train.y[:, None] == train.y[None, :]]
    diff = sims[train.y[:, None] != train.y[None, :]]
    assert same.mean() > diff.mean() + 0.1


def test_cifar_too_small_raises():
    with pytest.raises(ValueError):
        make_synthetic_cifar(n_train=5, n_test=5, num_classes=10)


# -- synthetic NLC-F ------------------------------------------------------------------


def test_nlcf_shapes():
    train, test = make_synthetic_nlcf(n_train=62, n_test=31, num_classes=31, seed=0)
    assert len(train) == 62 and len(test) == 31
    assert train.num_classes == 31
    assert all(s.shape[1] == 100 for s in train.sequences)
    assert all(s.dtype == np.float32 for s in train.sequences)


def test_nlcf_lengths_in_range():
    train, _ = make_synthetic_nlcf(
        n_train=50, n_test=10, num_classes=10, min_len=4, max_len=9, seed=0
    )
    lengths = {s.shape[0] for s in train.sequences}
    assert min(lengths) >= 4 and max(lengths) <= 9


def test_nlcf_tokens_unit_norm():
    train, _ = make_synthetic_nlcf(n_train=20, n_test=5, num_classes=10, seed=0)
    for s in train.sequences[:5]:
        np.testing.assert_allclose(np.linalg.norm(s, axis=1), 1.0, rtol=1e-5)


def test_nlcf_deterministic():
    a, _ = make_synthetic_nlcf(n_train=20, n_test=5, num_classes=10, seed=9)
    b, _ = make_synthetic_nlcf(n_train=20, n_test=5, num_classes=10, seed=9)
    for sa, sb in zip(a.sequences, b.sequences):
        np.testing.assert_array_equal(sa, sb)


def test_nlcf_validation():
    with pytest.raises(ValueError):
        make_synthetic_nlcf(n_train=10, n_test=5, num_classes=20)
    with pytest.raises(ValueError):
        make_synthetic_nlcf(n_train=20, n_test=5, num_classes=10, min_len=5, max_len=4)


def test_nlcf_class_signal():
    """Class centroids are recoverable from the mean of signal tokens."""
    train, _ = make_synthetic_nlcf(
        n_train=64, n_test=8, num_classes=8, token_noise=0.1, background_frac=0.0, seed=1
    )
    means = {}
    for seq, lab in zip(train.sequences, train.y):
        means.setdefault(int(lab), []).append(seq.mean(axis=0))
    centroids = {k: np.mean(v, axis=0) for k, v in means.items()}
    # same-class sentence means align with their own centroid best
    hits = 0
    for seq, lab in zip(train.sequences[:32], train.y[:32]):
        sims = {k: float(seq.mean(axis=0) @ c) for k, c in centroids.items()}
        hits += int(max(sims, key=sims.get) == int(lab))
    assert hits >= 24


# -- sampler -------------------------------------------------------------------------


def test_sampler_steps_per_epoch():
    s = MinibatchSampler(np.arange(10), 3, np.random.default_rng(0))
    assert s.steps_per_epoch == 4
    s2 = MinibatchSampler(np.arange(10), 3, np.random.default_rng(0), drop_last=True)
    assert s2.steps_per_epoch == 3


def test_sampler_covers_every_index_each_pass():
    s = MinibatchSampler(np.arange(10), 3, np.random.default_rng(0))
    seen = np.concatenate([s.next() for _ in range(s.steps_per_epoch)])
    assert sorted(seen.tolist()) == list(range(10))


def test_sampler_drop_last_uniform_batches():
    s = MinibatchSampler(np.arange(10), 3, np.random.default_rng(0), drop_last=True)
    for _ in range(6):
        assert len(s.next()) == 3


def test_sampler_reshuffles_between_passes():
    s = MinibatchSampler(np.arange(64), 64, np.random.default_rng(0))
    first = s.next()
    second = s.next()
    assert not np.array_equal(first, second)


def test_sampler_epochs_completed_counter():
    s = MinibatchSampler(np.arange(6), 2, np.random.default_rng(0))
    for _ in range(3):
        s.next()
    assert s.epochs_completed == 1


def test_sampler_validation():
    with pytest.raises(ValueError):
        MinibatchSampler(np.array([]), 2, np.random.default_rng(0))
    with pytest.raises(ValueError):
        MinibatchSampler(np.arange(5), 0, np.random.default_rng(0))


def test_sampler_deterministic_given_rng():
    a = MinibatchSampler(np.arange(20), 4, np.random.default_rng(3))
    b = MinibatchSampler(np.arange(20), 4, np.random.default_rng(3))
    for _ in range(10):
        np.testing.assert_array_equal(a.next(), b.next())


def test_sampler_iter_protocol():
    s = MinibatchSampler(np.arange(4), 2, np.random.default_rng(0))
    it = iter(s)
    batch = next(it)
    assert len(batch) == 2
