"""Tests for Module, Sequential, Parameter and flat-parameter views."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn import (
    Dropout,
    Flatten,
    Linear,
    Parameter,
    ReLU,
    Sequential,
    Tanh,
    build_cifar10_cnn,
    build_nlcf_net,
    flatten_module,
)


def small_net(dtype=np.float64, seed=0):
    rng = np.random.default_rng(seed)
    return Sequential(
        Linear(4, 8, dtype=dtype, rng=rng),
        ReLU(),
        Linear(8, 3, dtype=dtype, rng=rng),
    )


def test_parameter_basics():
    p = Parameter(np.ones((2, 3)), "w")
    assert p.shape == (2, 3)
    assert p.size == 6
    assert np.all(p.grad == 0)
    p.grad += 1
    p.zero_grad()
    assert np.all(p.grad == 0)


def test_sequential_forward_backward_chain():
    net = small_net()
    x = np.random.default_rng(1).standard_normal((5, 4))
    y = net.forward(x)
    assert y.shape == (5, 3)
    gx = net.backward(np.ones_like(y))
    assert gx.shape == x.shape


def test_sequential_output_shape():
    net = small_net()
    assert net.output_shape((4,)) == (3,)


def test_sequential_len_getitem_append():
    net = small_net()
    assert len(net.layers) == 3
    assert isinstance(net.layers[1], ReLU)
    net.append(Tanh())
    assert len(net.layers) == 4


def test_parameters_recursive():
    net = small_net()
    params = net.parameters()
    assert len(params) == 4  # two Linears x (weight, bias)
    assert net.num_parameters() == 4 * 8 + 8 + 8 * 3 + 3


def test_zero_grad_clears_all():
    net = small_net()
    x = np.random.default_rng(1).standard_normal((2, 4))
    net.backward(np.ones((2, 3))) if False else None
    y = net.forward(x)
    net.backward(np.ones_like(y))
    assert any(np.abs(p.grad).sum() > 0 for p in net.parameters())
    net.zero_grad()
    assert all(np.abs(p.grad).sum() == 0 for p in net.parameters())


def test_train_eval_propagates():
    net = Sequential(Linear(4, 4), Dropout(0.5))
    net.eval()
    assert all(not m.training for m in net.modules())
    net.train()
    assert all(m.training for m in net.modules())


def test_set_rng_reaches_dropout():
    net = Sequential(Linear(4, 4), Dropout(0.5))
    rng = np.random.default_rng(7)
    net.set_rng(rng)
    assert net.layers[1].rng is rng


def test_modules_iterates_all():
    net = small_net()
    kinds = [type(m).__name__ for m in net.modules()]
    assert kinds == ["Sequential", "Linear", "ReLU", "Linear"]


def test_layer_summary_columns():
    net = small_net()
    rows = net.layer_summary((4,))
    assert [r["layer"] for r in rows] == ["Linear", "ReLU", "Linear"]
    assert rows[0]["out_shape"] == (8,)
    assert rows[-1]["params"] == 8 * 3 + 3


def test_repr_nested():
    text = repr(small_net())
    assert "Sequential" in text and "Linear" in text


# -- Sequential.backward(input_grad=False) ---------------------------------------


def _flat_grad(net, x, grad_out, **kwargs):
    net.zero_grad()
    net.forward(x)
    gin = net.backward(grad_out, **kwargs)
    return gin, np.concatenate([p.grad.ravel() for p in net.parameters()])


@pytest.mark.parametrize("which", ["cifar", "nlcf", "nlcf-batch1"])
def test_input_grad_false_leaves_paper_model_gradients_bit_equal(which):
    rng = np.random.default_rng(11)
    if which == "cifar":
        net, _, _ = build_cifar10_cnn(width=0.1, dropout=0.0, rng=rng)
        x = rng.standard_normal((3, 3, 32, 32)).astype(np.float32)
    else:
        net, _, _ = build_nlcf_net(width=0.05, num_classes=7, rng=rng)
        x = rng.standard_normal((1 if which == "nlcf-batch1" else 3, 9, 100)).astype(np.float32)
    grad_out = rng.standard_normal(net.forward(x).shape).astype(np.float32)
    gin, want = _flat_grad(net, x, grad_out)
    assert gin.shape == x.shape
    none, got = _flat_grad(net, x, grad_out, input_grad=False)
    assert none is None
    assert got.tobytes() == want.tobytes()


def test_input_grad_false_with_a_parameter_free_first_layer():
    # nothing to skip: the first layer just runs its ordinary backward
    rng = np.random.default_rng(12)
    net = Sequential(Flatten(), Linear(12, 3, dtype=np.float64, rng=rng))
    x = rng.standard_normal((2, 3, 4))
    gin, want = _flat_grad(net, x, np.ones((2, 3)))
    got_in, got = _flat_grad(net, x, np.ones((2, 3)), input_grad=False)
    np.testing.assert_array_equal(got_in, gin)
    np.testing.assert_array_equal(got, want)
    assert Sequential().backward(x, input_grad=False) is x  # empty chain: identity


# -- flatten_module -----------------------------------------------------------


def test_flatten_preserves_values():
    net = small_net()
    before = [p.data.copy() for p in net.parameters()]
    flat = flatten_module(net)
    for p, b in zip(net.parameters(), before):
        np.testing.assert_array_equal(p.data, b)
    assert flat.size == net.num_parameters()


def test_flatten_views_are_shared_both_ways():
    net = small_net()
    flat = flatten_module(net)
    flat.data[...] = 7.0
    for p in net.parameters():
        assert np.all(p.data == 7.0)
    net.parameters()[0].data[...] = 3.0
    assert np.all(flat.data[: net.parameters()[0].size] == 3.0)


def test_flatten_grad_views_shared():
    net = small_net()
    flat = flatten_module(net)
    x = np.random.default_rng(0).standard_normal((2, 4))
    y = net.forward(x)
    net.backward(np.ones_like(y))
    assert np.abs(flat.grad).sum() > 0
    flat.zero_grad()
    assert all(np.abs(p.grad).sum() == 0 for p in net.parameters())


def test_flat_training_step_updates_layers():
    net = small_net()
    flat = flatten_module(net)
    x = np.random.default_rng(0).standard_normal((2, 4))
    y = net.forward(x)
    net.backward(np.ones_like(y))
    w_before = net.parameters()[0].data.copy()
    flat.data -= 0.1 * flat.grad
    assert not np.array_equal(net.parameters()[0].data, w_before)


def test_flat_set_copy_roundtrip():
    net = small_net()
    flat = flatten_module(net)
    snap = flat.copy_data()
    flat.data += 1.0
    flat.set_data(snap)
    np.testing.assert_array_equal(flat.data, snap)
    assert flat.copy_data() is not flat.data


def test_flat_set_data_shape_check():
    flat = flatten_module(small_net())
    with pytest.raises(ValueError):
        flat.set_data(np.zeros(3))


def test_flat_add_inplace():
    flat = flatten_module(small_net())
    snap = flat.copy_data()
    v = np.ones_like(flat.data)
    flat.add_(v, alpha=-0.5)
    np.testing.assert_allclose(flat.data, snap - 0.5)
    flat.add_(v)
    np.testing.assert_allclose(flat.data, snap + 0.5)


def test_flatten_empty_module_raises():
    with pytest.raises(ValueError):
        flatten_module(ReLU())


def test_flatten_mixed_dtype_raises():
    net = Sequential(Linear(2, 2, dtype=np.float32), Linear(2, 2, dtype=np.float64))
    with pytest.raises(ValueError, match="mixed"):
        flatten_module(net)


@settings(max_examples=20, deadline=None)
@given(
    dims=st.lists(st.integers(1, 6), min_size=2, max_size=5),
    seed=st.integers(0, 1000),
)
def test_flatten_roundtrip_property(dims, seed):
    """flatten preserves every parameter exactly for arbitrary MLP shapes."""
    rng = np.random.default_rng(seed)
    layers = []
    for a, b in zip(dims, dims[1:]):
        layers.append(Linear(a, b, dtype=np.float64, rng=rng))
        layers.append(Tanh())
    net = Sequential(*layers)
    before = np.concatenate([p.data.ravel() for p in net.parameters()])
    flat = flatten_module(net)
    np.testing.assert_array_equal(flat.data, before)
    # forward result unchanged by flattening
    x = rng.standard_normal((2, dims[0]))
    y = net.forward(x)
    assert y.shape == (2, dims[-1])
