"""Measure why the tangent-space projection pays off.

Both solvers replace the current low-rank estimate once per iteration.  The
baseline truncates the SVD of the full residual; the accelerated update first
projects the residual onto the tangent space of the rank-r manifold, where it
factors through two tall-skinny QRs and one 2r x 2r SVD.  This script solves
the runtime harness's problems across sizes and prints each solver's mean
L-update time: for the accelerated solver trim, the gathered products U^T W
and W V and the structured truncation; for the baseline the truncated SVD.
"""

from rpca import run_runtime_experiment


def l_update_means(sizes, rank):
    """{(n, solver id): mean L-update seconds} of run_runtime_experiment's solves."""
    report = run_runtime_experiment(sizes, rank=rank)
    return {(rec.n, rec.solver): rec.mean_l_update_seconds for rec in report.records}


def run_demo():
    rank, sizes = 5, (200, 500, 1000, 2000)
    means = l_update_means(sizes, rank)
    # the baseline truncates with the certified subspace iteration of
    # rpca.kernel.svd_truncated, the same routine at every size
    print(f"mean L-update wall time per computed iteration of one solve, rank {rank}\n")
    print("     n   accelerated    baseline     speedup")
    for n in sizes:
        acc, base = means[n, "accaltproj"], means[n, "altproj"]
        print(f"  {n:4d}   {acc * 1e3:9.2f} ms {base * 1e3:9.2f} ms   {base / acc:7.1f}x")

    print("\nscaling in the target rank at n = 1000:")
    print("     r   accelerated")
    for r in (5, 10, 20):
        acc = (means if r == rank else l_update_means([1000], r))[1000, "accaltproj"]
        print(f"  {r:4d}   {acc * 1e3:9.2f} ms")


if __name__ == "__main__":
    run_demo()
