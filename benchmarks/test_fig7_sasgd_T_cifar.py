"""Fig. 7 — SASGD test accuracy vs epochs for several T, CIFAR-10.

Paper: "as T increases, the test accuracy achieved at the end of [the run]
degrades slightly ... The degradation in accuracy is negligible when p is
small ... As p increases, the gap becomes larger."  (T values are mapped to
the bench scale by epoch fraction; see DESIGN.md.)
"""



def test_fig7_sasgd_T_sweep_cifar(run_figure):
    result = run_figure(
        "fig7", T_values=(1, 4), p_values=(2, 8), epochs=12, eval_every=3
    )
    acc = {(row["p"], row["T"]): row["final_test_acc"] for row in result.rows}

    # larger T does not help at fixed epochs (allow small noise)
    for p in (2, 8):
        assert acc[(p, 4)] <= acc[(p, 1)] + 0.1, acc

    # the T-degradation at p=8 is at least as large as at p=2 (within noise)
    gap_p2 = acc[(2, 1)] - acc[(2, 4)]
    gap_p8 = acc[(8, 1)] - acc[(8, 4)]
    assert gap_p8 >= gap_p2 - 0.15, (gap_p2, gap_p8)
