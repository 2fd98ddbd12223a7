"""The scratch rule: a layer writes over what its neighbour is done with.

``Sequential`` tells ``ReLU`` and ``MaxPool2d`` when their forward input or
backward ``grad_out`` is a dead intermediate, and they then write their
result over it instead of into a pooled buffer.  No bit may depend on that:
a chain must compute what the same layers compute standalone (where nothing
is scratch), and the caller's input and loss gradient must come back as they
were passed.
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.algos.base import TrainerConfig, build_workloads, evaluate_model
from repro.algos.problems import cifar_problem
from repro.nn import Conv2d, Dropout, Flatten, Linear, MaxPool2d, ReLU, Sequential, Tanh
from repro.nn.bufferpool import BufferPool

KINDS = ["conv", "linear", "tanh", "dropout", "flatten", "relu", "pool"]


def _build(kinds, shape, dtype, seed):
    """The layers ``kinds`` name, skipping any the running shape cannot take."""
    rng = np.random.default_rng(seed)
    layers = []
    for kind in kinds:
        spatial = len(shape) == 3
        if kind == "conv" and spatial:
            layers.append(Conv2d(shape[0], 3, 3, padding=1, dtype=dtype, rng=rng))
            shape = (3,) + shape[1:]
        elif kind == "linear":
            layers.append(Linear(shape[-1], 4, dtype=dtype, rng=rng))
            shape = shape[:-1] + (4,)
        elif kind == "tanh":
            layers.append(Tanh())
        elif kind == "dropout":
            layers.append(Dropout(0.5, rng=np.random.default_rng(seed + 1)))
        elif kind == "flatten" and spatial:
            layers.append(Flatten())
            shape = (int(np.prod(shape)),)
        elif kind == "relu":
            layers.append(ReLU())
        elif kind == "pool" and spatial and min(shape[1:]) >= 2:
            layers.append(MaxPool2d(2))
            shape = (shape[0], shape[1] // 2, shape[2] // 2)
    return layers


def _run(layers, chained, x, g_seed, training):
    """Two training steps (output, input and parameter gradients each), each
    followed by an eval forward, or one eval forward."""
    net = Sequential(*layers)
    if not chained:  # as standalone layers are: told nothing is scratch
        for layer in layers:
            layer._x_scratch = layer._grad_scratch = False
    net.train(training)
    got = []
    for _ in range(2 if training else 1):
        y = x
        for layer in layers:
            y = layer.forward(y)
        got.append(np.array(y, copy=True))
        if not training:
            break
        g_loss = np.random.default_rng(g_seed).standard_normal(y.shape).astype(y.dtype)
        g_passed = g_loss.copy()
        net.zero_grad()
        g = g_loss
        for layer in reversed(layers):
            g = layer.backward(g)
        got += [np.array(g, copy=True)] + [p.grad.copy() for p in net.parameters()]
        net.eval()
        y = x
        for layer in layers:
            y = layer.forward(y)
        got.append(np.array(y, copy=True))
        net.train()
        assert np.array_equal(g_loss, g_passed)
    return got


@settings(max_examples=80, deadline=None)
@given(
    kinds=st.lists(st.sampled_from(KINDS), min_size=1, max_size=6),
    seed=st.integers(0, 2**16),
    n=st.integers(1, 4),
    hw=st.integers(2, 7),
    dtype=st.sampled_from([np.float32, np.float64]),
    training=st.booleans(),
)
@example(kinds=["relu", "pool"], seed=0, n=2, hw=4, dtype=np.float32, training=True)
@example(kinds=["conv", "relu", "pool", "dropout", "conv"], seed=1, n=2, hw=6,
         dtype=np.float32, training=True)
@example(kinds=["linear", "relu", "pool", "linear"], seed=2, n=3, hw=5, dtype=np.float64,
         training=True)
@example(kinds=["tanh", "relu", "tanh", "pool"], seed=3, n=2, hw=4, dtype=np.float64,
         training=True)
@example(kinds=["dropout", "relu", "dropout", "pool", "relu"], seed=4, n=2, hw=5,
         dtype=np.float32, training=True)
@example(kinds=["conv", "flatten", "relu", "linear"], seed=5, n=2, hw=3, dtype=np.float32,
         training=True)
@example(kinds=["conv", "relu", "pool", "relu"], seed=6, n=3, hw=6, dtype=np.float32,
         training=False)
def test_a_chain_computes_what_its_layers_compute_standalone(kinds, seed, n, hw, dtype, training):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, 2, hw, hw)).astype(dtype)
    x_passed = x.copy()
    want = _run(_build(kinds, (2, hw, hw), dtype, seed), False, x, seed + 2, training)
    got = _run(_build(kinds, (2, hw, hw), dtype, seed), True, x, seed + 2, training)
    assert np.array_equal(x, x_passed)
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.dtype == b.dtype and np.array_equal(a, b)


def test_sequential_marks_what_is_scratch():
    layers = [ReLU(), Conv2d(1, 1, 1), ReLU(), MaxPool2d(2), Dropout(), ReLU()]
    Sequential(*layers)
    assert [layer._x_scratch for layer in layers] == [False, True, True, True, True, False]
    assert [layer._grad_scratch for layer in layers] == [True, True, True, False, True, False]
    # standalone, nothing is scratch: the caller's array stays the caller's
    x = np.arange(-4.0, 4.0).reshape(1, 2, 2, 2)
    y = ReLU().forward(x)
    assert y is not x and x.min() == -4.0


def _steps(workloads, evaluate):
    test_set = workloads[0].problem.test_set
    evals = []
    for wl in workloads:
        wl.compute_gradient(np.arange(8))
        wl.flat.data -= 0.1 * wl.flat.grad
        if evaluate:
            evals.append(evaluate_model(wl.model, test_set, 16))
    return [wl.flat.data.copy() for wl in workloads], evals


def test_a_sim_pair_sharing_pools_is_bit_identical_with_evaluations_between_steps():
    problem = cifar_problem(scale="unit", seed=3)
    config = TrainerConfig(p=2, epochs=1, batch_size=8, lr=0.1, seed=3)
    shared = build_workloads(problem, config)
    own = build_workloads(problem, config)
    for module in own[1].model.modules():
        if hasattr(module, "_pool"):
            module._pool = BufferPool()
    got, evals = _steps(shared, evaluate=True)  # an evaluation between the two steps
    want, _ = _steps(own, evaluate=False)
    for a, b in zip(got, want):
        assert np.array_equal(a, b)
    assert evals == [evaluate_model(wl.model, problem.test_set, 16) for wl in own]
