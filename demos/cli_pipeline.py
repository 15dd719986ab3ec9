"""Drive the command-line interface end to end in a scratch directory.

Generates a problem with ``rpca synth``, decomposes it with ``rpca solve``,
and shows that trace.json carries enough to audit the threshold schedule.
"""

import json
import tempfile
from pathlib import Path

from rpca.cli import main
from rpca.matio import read_matrix
from rpca.solver import threshold_value


def run_demo():
    with tempfile.TemporaryDirectory() as scratch:
        scratch = Path(scratch)
        print("1. generate a 200 x 200 rank-5 problem with 10% corruption")
        code = main([
            "synth", "--n", "200", "--rank", "5", "--alpha", "0.1", "--c", "1",
            "--seed", "42", "--output-dir", str(scratch),
        ])
        assert code == 0
        meta = json.loads((scratch / "metadata.json").read_text())
        print(f"   wrote D/L/S.bin; true incoherence {meta['mu_true']:.2f}, "
              f"{meta['support_size']} corrupted entries")

        print("2. decompose D.bin (mu left for the solver to estimate)")
        code = main([
            "solve", "--input", str(scratch / "D.bin"), "--rank", "5",
            "--gamma", "0.7", "--output-dir", str(scratch),
        ])
        print(f"   exit code {code} (0 means converged)")

        trace = json.loads((scratch / "trace.json").read_text())
        errs = trace["trace"]["err"]
        print(f"3. trace.json: {trace['iterations']} iterations, "
              f"final err {trace['final_err']:.2e}")
        print(f"   err: {errs[0]:.2e} -> {errs[len(errs) // 2]:.2e} -> {errs[-1]:.2e}")

        print("4. audit: recompute each threshold from the logged singular values")
        p = trace["params"]
        worst = 0.0
        for k, zeta in enumerate(trace["trace"]["zeta"]):
            window = trace["trace"]["sigma_window"][k]
            expected = (
                p["beta"] * window[0]
                if k == 0
                else threshold_value(window, p["rank"], p["beta"], p["gamma"], k - 1)
            )
            worst = max(worst, abs(zeta - expected) / max(expected, 1e-300))
        skipped = sum(trace["trace"]["skipped"])
        print(f"   max relative mismatch {worst:.2e} over {len(trace['trace']['zeta'])} rows, "
              f"{skipped} of them idle steps that were skipped")

        low = read_matrix(scratch / "L.bin")
        residual = read_matrix(scratch / "D.bin") - low - read_matrix(scratch / "S.bin")
        print(f"5. written artifacts are consistent: max |D - L - S| entry "
              f"{abs(residual).max():.2e}")


if __name__ == "__main__":
    run_demo()
