"""Tests for the Table I / Table II model builders."""

import numpy as np
import pytest

from repro.algos.problems import CIFAR_SCALES, NLCF_SCALES
from repro.nn import (
    CrossEntropyLoss,
    build_cifar10_cnn,
    build_nlcf_net,
    flatten_module,
)
from repro.nn.models import cifar10_info, nlcf_info


def test_cifar_paper_parameter_count():
    """Exact count under the documented padding choice — the paper's ~0.5M."""
    _, _, info = build_cifar10_cnn()
    assert info.num_parameters == 506_378


def test_nlcf_paper_parameter_count():
    """The paper's ~2M parameters."""
    _, _, info = build_nlcf_net()
    assert info.num_parameters == 1_733_511


def test_cifar_forward_shape():
    model, crit, _ = build_cifar10_cnn(width=0.1)
    x = np.zeros((2, 3, 32, 32), dtype=np.float32)
    logits = model.forward(x)
    assert logits.shape == (2, 10)


def test_cifar_train_step_runs():
    model, crit, _ = build_cifar10_cnn(width=0.1, rng=np.random.default_rng(0))
    x = np.random.default_rng(1).standard_normal((4, 3, 32, 32)).astype(np.float32)
    y = np.array([0, 1, 2, 3])
    loss = crit.forward(model.forward(x), y)
    model.backward(crit.backward())
    assert np.isfinite(loss)
    flat = flatten_module(model)
    assert np.abs(flat.grad).sum() > 0


def test_nlcf_forward_shape_variable_lengths():
    model, _, _ = build_nlcf_net(width=0.1, num_classes=17)
    for length in (5, 12, 30):
        x = np.zeros((1, length, 100), dtype=np.float32)
        assert model.forward(x).shape == (1, 17)


def test_nlcf_minibatch_one_default():
    _, _, info = build_nlcf_net()
    assert info.default_minibatch == 1


def test_cifar_minibatch_64_default():
    _, _, info = build_cifar10_cnn()
    assert info.default_minibatch == 64


def test_width_scaling_reduces_parameters():
    _, _, full = build_cifar10_cnn(width=1.0)
    _, _, quarter = build_cifar10_cnn(width=0.25)
    assert quarter.num_parameters < full.num_parameters / 8  # roughly quadratic


def test_width_scaling_nlcf():
    _, _, full = build_nlcf_net(width=1.0)
    _, _, small = build_nlcf_net(width=0.2)
    assert small.num_parameters < full.num_parameters / 10


def test_param_bytes_matches_dtype():
    _, _, info32 = build_cifar10_cnn(width=0.1, dtype=np.float32)
    _, _, info64 = build_cifar10_cnn(width=0.1, dtype=np.float64)
    assert info64.param_bytes == 2 * info32.param_bytes


def test_train_flops_is_3x_forward():
    _, _, info = build_cifar10_cnn(width=0.1)
    assert info.flops_train_per_example == pytest.approx(3 * info.flops_forward_per_example)


def test_cifar_input_hw_validation():
    with pytest.raises(ValueError):
        build_cifar10_cnn(input_hw=30)


def test_builders_deterministic_from_rng():
    a, _, _ = build_cifar10_cnn(width=0.1, rng=np.random.default_rng(5))
    b, _, _ = build_cifar10_cnn(width=0.1, rng=np.random.default_rng(5))
    for pa, pb in zip(a.parameters(), b.parameters()):
        np.testing.assert_array_equal(pa.data, pb.data)


def test_builders_return_fresh_criteria():
    _, c1, _ = build_cifar10_cnn(width=0.1)
    _, c2, _ = build_cifar10_cnn(width=0.1)
    assert isinstance(c1, CrossEntropyLoss)
    assert c1 is not c2


def test_cifar_dropout_count():
    model, _, _ = build_cifar10_cnn(width=0.1)
    from repro.nn import Dropout

    drops = [m for m in model.modules() if isinstance(m, Dropout)]
    assert len(drops) == 4  # one per conv stage (Table I)
    assert all(d.p == 0.5 for d in drops)


def test_nlcf_layer_structure_matches_table2():
    model, _, _ = build_nlcf_net()
    kinds = [type(layer).__name__ for layer in model.layers]
    assert kinds == [
        "Linear",
        "Tanh",
        "TemporalConvolution",
        "TemporalMaxPooling",
        "Tanh",
        "MaxOverTime",
        "Linear",
        "Tanh",
        "Linear",
    ]


def test_cifar_layer_structure_matches_table1():
    model, _, _ = build_cifar10_cnn()
    kinds = [type(layer).__name__ for layer in model.layers]
    stage = ["Conv2d", "ReLU", "MaxPool2d", "Dropout"]
    assert kinds == stage * 4 + ["Flatten", "Linear"]



@pytest.mark.parametrize("scale", ["paper", "bench", "unit"])
@pytest.mark.parametrize("net", ["cifar", "nlcf"])
def test_derived_info_equals_the_built_models(net, scale):
    """``*_info`` walks the architecture without building it: every field
    equals what the built model reports for itself, bit for bit."""
    if net == "cifar":
        width = CIFAR_SCALES[scale]["width"]
        model, _, _ = build_cifar10_cnn(width=width)
        info, in_shape = cifar10_info(width), (3, 32, 32)
    else:
        width, k = NLCF_SCALES[scale]["width"], NLCF_SCALES[scale]["num_classes"]
        model, _, _ = build_nlcf_net(width=width, num_classes=k)
        info, in_shape = nlcf_info(width, num_classes=k), (20, 100)
    assert info.num_parameters == model.num_parameters()
    assert info.param_bytes == float(model.num_parameters() * 4)
    assert info.flops_forward_per_example == model.flops_per_example(in_shape)


def test_paper_scale_info_keeps_its_digits():
    assert (cifar10_info().param_bytes, cifar10_info().flops_forward_per_example) == (
        2_025_512.0, 87_949_568.0)
    assert (nlcf_info().param_bytes, nlcf_info().flops_forward_per_example) == (
        6_934_044.0, 18_719_000.0)
