#!/usr/bin/env python
"""The paper's convergence theory, evaluated end to end.

1. Estimates the surface constants (D_f, L, σ²) of the bench CIFAR-10
   problem empirically, exactly as Sec. II-B does for the real CIFAR-10.
2. Derives the Lian-style theory learning rate (the γ behind Fig. 3) and
   evaluates Eq. (1)'s ASGD bound and Eq. (2)'s feasibility at it.
3. Prints Theorem 1's ASGD guarantee gap table.
4. Prints the SASGD bound's T sweep — Theorem 4's sample-complexity cost of
   sparse aggregation, the quantity practitioners trade against the epoch
   time savings of Figs. 4/5 — and where Corollary 3's rate choice meets
   Theorem 2's constraint.

Run:  python examples/theory_playground.py
"""

from repro.algos import cifar_problem
from repro.theory import (
    K_from_alpha,
    alpha_from_K,
    asgd_bound,
    asgd_constraint_ok,
    asgd_gap_factor,
    corollary3_feasible_K,
    corollary3_gamma,
    corollary3_K_threshold,
    estimate_surface_constants,
    lian_learning_rate,
    optimal_c,
    samples_to_reach,
    sasgd_constraint_ok,
    sasgd_optimal_bound,
    theorem1_gap_approx,
)


def main() -> None:
    print("estimating surface constants on the bench CIFAR-10 problem...")
    problem = cifar_problem(scale="bench", seed=5)
    sc = estimate_surface_constants(problem, M=16, seed=5)
    print(f"  D_f ≈ {sc.Df:.3f}   L ≈ {sc.L:.3f}   σ² ≈ {sc.sigma2:.3f}")

    M, K = 16, 500_000 // 16
    gamma = lian_learning_rate(sc, M=M, K=K)
    print(f"\ntheory learning rate for a 500k-sample budget: γ = {gamma:.4f}")
    print("(the paper finds ≈0.005 vs the practical 0.1 — small enough that")
    print(" asynchrony is harmless but convergence quality suffers; Fig. 3)")
    print(f"  α = {alpha_from_K(sc, M, K):.1f} at this budget; α = 16 takes "
          f"K = {K_from_alpha(sc, M, 16.0):,.0f} updates")
    print(f"  {'p':>5s} {'Eq.1 bound':>11s} {'Eq.2 holds':>11s}")
    for p in (1, 16, 64):
        print(f"  {p:5d} {asgd_bound(sc, M, K, p, gamma):11.4f} "
              f"{str(asgd_constraint_ok(sc, M, p, gamma)):>11s}")

    print("\nTheorem 1 — ASGD guarantee gap vs p (α = 16):")
    print(f"  {'p':>5s} {'optimal c':>10s} {'exact gap':>10s} {'p/α':>6s}")
    for p in (16, 32, 64, 128):
        print(
            f"  {p:5d} {optimal_c(16.0, p):10.4f} "
            f"{asgd_gap_factor(16.0, p):10.3f} {theorem1_gap_approx(16.0, p):6.2f}"
        )

    print("\nTheorem 4 — SASGD sample complexity vs T (p=8, M=64):")
    print(f"  {'T':>5s} {'bound@5M':>10s} {'samples to 1.0':>15s} {'Cor.3 K_min':>12s}")
    for T in (1, 5, 25, 50):
        print(
            f"  {T:5d} {sasgd_optimal_bound(sc, 64, T, 8, 5_000_000):10.5f} "
            f"{samples_to_reach(sc, 64, T, 8, 1.0):15,d} "
            f"{int(corollary3_K_threshold(sc, 64, T, 8)):12,d}"
        )
    S = 5_000_000
    g3 = corollary3_gamma(sc, S)
    print(f"\nCorollary 3 at S = {S:,}: γ = γp = {g3:.2e}")
    print(f"  {'T':>5s} {'Thm 2 holds':>12s} {'feasible K':>12s}")
    for T in (1, 5, 25, 50):
        print(
            f"  {T:5d} {str(sasgd_constraint_ok(sc, 64, T, 8, g3, g3)):>12s} "
            f"{int(corollary3_feasible_K(sc, 64, T, 8)):12,d}"
        )
    print(
        "\nReading: every row down costs more samples — the price of "
        "amortising communication over T local steps (paper Sec. III-B)."
    )


if __name__ == "__main__":
    main()
