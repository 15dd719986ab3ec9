"""Measure why the tangent-space projection pays off.

Both solvers replace the current low-rank estimate once per iteration.  The
baseline truncates the SVD of the full residual; the accelerated update first
projects the residual onto the tangent space of the rank-r manifold, where it
factors through two tall-skinny QRs and one 2r x 2r SVD.  This script times
one update of each kind across problem sizes.
"""

from rpca import benchmark_l_updates


def run_demo():
    rank = 5
    # the baseline truncates with the certified subspace iteration of
    # rpca.kernel.svd_truncated, the same routine at every size
    print(f"single L-update wall time, rank {rank} (medians over 20 alternated calls)\n")
    print("     n   accelerated    baseline     speedup")
    for n in (200, 500, 1000, 2000):
        out = benchmark_l_updates(n, rank)
        acc = out["accelerated_median_seconds"]
        base = out["baseline_median_seconds"]
        print(f"  {n:4d}   {acc * 1e3:9.2f} ms {base * 1e3:9.2f} ms   {base / acc:7.1f}x")

    print("\nscaling in the target rank at n = 1000:")
    print("     r   accelerated")
    for r in (5, 10, 20):
        out = benchmark_l_updates(1000, r)
        print(f"  {r:4d}   {out['accelerated_median_seconds'] * 1e3:9.2f} ms")


if __name__ == "__main__":
    run_demo()
