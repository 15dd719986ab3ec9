"""Generate a corrupted low-rank matrix and split it back into L + S.

Shows the two-step initialization, the per-iteration error/threshold trace,
and the recovered factors for both solvers.
"""

import numpy as np

from rpca import (
    RpcaParams,
    SyntheticSpec,
    accaltproj_solve,
    altproj_solve,
    generate,
    recovery_success,
)


def run_demo():
    # problem setup
    n = 400
    rank = 5
    alpha = 0.15      # 15% of entries corrupted
    amplitude = 1.0   # corruption on the scale of the mean |L| entry
    spec = SyntheticSpec(m=n, n=n, rank=rank, alpha=alpha, amplitude=amplitude, seed=2024)
    problem = generate(spec)
    print(f"problem: {n} x {n}, rank {rank}, {spec.support_size} corrupted entries")
    print(f"ground truth: incoherence {problem.mu_true:.2f}, condition number {problem.kappa_true:.2f}")

    # the solvers receive a slightly inflated incoherence level, as one would
    # use in practice when the exact value is only estimated
    params = RpcaParams.defaults(problem.data.shape, rank, mu=1.1 * problem.mu_true, gamma=0.7)
    print(f"params: beta={params.beta:.4f} beta_init={params.beta_init:.4f} "
          f"gamma={params.gamma} tol={params.epsilon:g}")

    for name, solve in (("accelerated", accaltproj_solve), ("baseline", altproj_solve)):
        solution = solve(problem.data, params)
        print(f"\n{name} solver: converged={solution.converged} "
              f"after {solution.iterations} iterations")
        print("  k   err          zeta         sigma_r      sigma_r+1")
        for rec in solution.trace[:: max(1, len(solution.trace) // 10)]:
            print(f"  {rec.k:3d} {rec.err:.6e} {rec.zeta:.6e} "
                  f"{rec.sigma_window[rank - 1]:.6e} {rec.sigma_window[rank]:.6e}"
                  f"{'  (skipped idle step)' if rec.skipped else ''}")
        low = solution.low_rank.matrix()
        rec_err = np.linalg.norm(low - problem.low_rank) / np.linalg.norm(problem.low_rank)
        print(f"  low-rank recovery error {rec_err:.2e} "
              f"(success: {recovery_success(problem.low_rank, low)})")
        print(f"  sparse support: {np.count_nonzero(solution.sparse)} recovered entries, "
              f"{np.count_nonzero(solution.sparse[problem.sparse == 0])} outside the true support")


if __name__ == "__main__":
    run_demo()
