"""Table II — the NLC-F network: architecture table + training-step cost."""

import numpy as np

from repro.nn import build_nlcf_net, flatten_module


def test_table2_architecture(run_figure):
    result = run_figure("table2")
    total = result.rows[-1]
    # the paper's "about 2 million" parameters, exactly
    assert total["params"] == 1_733_511
    # Table II structure: 100->200 projection, temporal conv 1000 kernels kw=2,
    # 1000x1000 and 1000x311 heads
    linears = [r for r in result.rows if r["layer"] == "Linear"]
    assert linears[0]["out_shape"][-1] == 200
    assert linears[-1]["out_shape"] == (311,)
    tconv = [r for r in result.rows if r["layer"] == "TemporalConvolution"][0]
    assert tconv["out_shape"][-1] == 1000


def test_table2_training_step_throughput(benchmark):
    """One fwd+bwd sentence (the paper's M=1) through the paper-width network."""
    model, crit, info = build_nlcf_net(rng=np.random.default_rng(0))
    flat = flatten_module(model)
    rng = np.random.default_rng(1)
    x = rng.standard_normal((1, 20, 100)).astype(np.float32)
    y = np.array([7])

    def step():
        model.zero_grad()
        loss = crit.forward(model.forward(x), y)
        model.backward(crit.backward())
        flat.data -= 0.01 * flat.grad
        return loss

    loss = benchmark(step)
    assert np.isfinite(loss)
    benchmark.extra_info["params"] = info.num_parameters
