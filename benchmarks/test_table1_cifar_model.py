"""Table I — the CIFAR-10 network: architecture table + training-step cost."""

import numpy as np

from repro.nn import build_cifar10_cnn, flatten_module


def test_table1_architecture(run_figure):
    result = run_figure("table1")
    total = result.rows[-1]
    # the paper's "about 0.5 million" parameters, exactly
    assert total["params"] == 506_378
    # Table I structure: 4 conv stages then the 128x10 head
    convs = [r for r in result.rows if r["layer"] == "Conv2d"]
    assert [c["out_shape"][0] for c in convs] == [64, 128, 256, 128]
    head = [r for r in result.rows if r["layer"] == "Linear"][0]
    assert head["in_shape"] == (128,) and head["out_shape"] == (10,)


def test_table1_training_step_throughput(benchmark):
    """One fwd+bwd minibatch (M=64) through the full paper-width network."""
    model, crit, info = build_cifar10_cnn(rng=np.random.default_rng(0))
    flat = flatten_module(model)
    rng = np.random.default_rng(1)
    x = rng.standard_normal((64, 3, 32, 32)).astype(np.float32)
    y = rng.integers(0, 10, size=64)

    def step():
        model.zero_grad()
        loss = crit.forward(model.forward(x), y)
        model.backward(crit.backward())
        flat.data -= 0.01 * flat.grad
        return loss

    loss = benchmark(step)
    assert np.isfinite(loss)
    benchmark.extra_info["params"] = info.num_parameters
    benchmark.extra_info["flops_per_batch"] = info.flops_train_per_example * 64
