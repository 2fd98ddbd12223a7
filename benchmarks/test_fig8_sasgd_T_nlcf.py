"""Fig. 8 — SASGD test accuracy vs epochs for several T, NLC-F.

Paper: "In comparison to CIFAR-10, for a given p, the degradation in accuracy
... when T increases is not as pronounced ... For p=16, the best accuracy is
actually achieved with T=50."  The bench-scale assertion is the mild form:
large T costs little on this workload.
"""



def test_fig8_sasgd_T_sweep_nlcf(run_figure):
    result = run_figure(
        "fig8", T_values=(1, 8), p_values=(2, 8), epochs=64, eval_every=8
    )
    acc = {(row["p"], row["T"]): row["final_test_acc"] for row in result.rows}

    # p=2 configurations learn well beyond the 1/64 random-guess floor
    for T in (1, 8):
        assert acc[(2, T)] > 8.0 / 64.0, acc

    # p=8 is slower (fewer effective steps) but above chance
    for T in (1, 8):
        assert acc[(8, T)] > 4.0 / 64.0, acc

    # large T costs at most a modest accuracy delta on NLC-F (paper: the
    # degradation "is not as pronounced" than CIFAR-10, and can even invert)
    for p in (2, 8):
        assert acc[(p, 8)] >= acc[(p, 1)] - 0.25, acc
