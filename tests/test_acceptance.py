"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with ``pytest -v -s tests/test_acceptance.py`` to see the per-criterion
lines as they pass.
"""

import json
import time
from contextlib import contextmanager

import numpy as np
import pytest

from rpca.cli import main
from rpca.experiments import PhaseConfig, benchmark_l_updates, run_phase_experiment, trial_seed
from rpca.kernel import spectral_norm
from rpca.matio import read_matrix
from rpca.metrics import factor_incoherence, relative_error
from rpca.solver import (
    FactoredLowRank,
    RpcaParams,
    accaltproj_solve,
    hard_threshold,
    initialize,
    structured_truncate,
    threshold_value,
)
from rpca.solver import _Gather
from rpca.synthetic import SyntheticSpec, generate
from test_experiments import alternated_l_update_medians
from test_solver import desk_params, random_factored, sparse_of, tangent_project

# Desk-scale protocol: n = 200 with the slow threshold decay (gamma = 0.7,
# from the published parameter family); at this size the faster published
# decay rates undercut the contraction of the low-rank error.
DESK = dict(n=200, rank=5, amplitude=1.0, master_seed=0, gamma=0.7)
DESK_ALPHAS = (0.1, 0.2, 0.3)


@contextmanager
def criterion(number, name):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[criterion {number}] FAIL - {name}")
        raise
    else:
        print(f"[criterion {number}] PASS - {name} ({time.perf_counter() - start:.1f}s)")


def desk_problem(alpha, cell, trial):
    seed = trial_seed(DESK["master_seed"], cell, trial)
    return generate(
        SyntheticSpec(DESK["n"], DESK["n"], DESK["rank"], alpha, DESK["amplitude"], seed)
    )


def test_criterion_1_structured_truncation_matches_dense_oracle():
    with criterion(1, "structured truncation equals the dense projection + SVD oracle"):
        rng = np.random.default_rng(1001)
        start = time.perf_counter()
        worst = 0.0
        for _ in range(200):
            m, n = rng.integers(10, 41, size=2)
            r = int(rng.integers(1, 6))
            low = random_factored(rng, int(m), int(n), r)
            w = rng.standard_normal((int(m), int(n)))
            out, _ = structured_truncate(low, low.U.T @ w, w @ low.V)
            projected = tangent_project(low, w)
            u, s, vt = np.linalg.svd(projected)
            dense = (u[:, :r] * s[:r]) @ vt[:r]
            gap = np.linalg.norm(out.matrix() - dense) / max(np.linalg.norm(projected), 1.0)
            worst = max(worst, gap)
        elapsed = time.perf_counter() - start
        assert worst <= 1e-10, f"worst relative gap {worst:.3e}"
        assert elapsed < 10.0, f"took {elapsed:.1f}s, budget 10s"


def test_criterion_2_exact_recovery_desk_scale():
    with criterion(2, "10/10 exact recovery for all three solvers at desk scale"):
        start = time.perf_counter()
        config = PhaseConfig(
            alphas=DESK_ALPHAS,
            amplitudes=(DESK["amplitude"],),
            trials=10,
            n=DESK["n"],
            rank=DESK["rank"],
            master_seed=DESK["master_seed"],
            tol=1e-6,
            max_iter=100,
            gamma=DESK["gamma"],
        )
        report = run_phase_experiment(config)
        counts = report.success_counts()
        assert len(counts) == 9
        for key, (successes, trials) in sorted(counts.items()):
            assert (successes, trials) == (10, 10), f"{key}: {successes}/{trials}"
        elapsed = time.perf_counter() - start
        assert elapsed < 120.0, f"took {elapsed:.1f}s, budget 120s"


def test_criterion_3_linear_convergence():
    with criterion(3, "geometric error decay over the recovery runs"):
        for cell, alpha in enumerate(DESK_ALPHAS):
            for trial in range(10):
                problem = desk_problem(alpha, cell, trial)
                params = desk_params(problem, epsilon=1e-12, max_iter=100)
                solution = accaltproj_solve(problem.data, params)
                errs = np.array([rec.err for rec in solution.trace])
                assert solution.iterations <= 100
                ratios = [
                    errs[k + 1] / errs[k] for k in range(3, len(errs) - 1) if errs[k] > 0
                ]
                med = float(np.median(ratios))
                assert med < 0.9, f"alpha={alpha} trial={trial}: median ratio {med:.3f}"
                decay = float(errs.min() / errs[0])
                assert decay <= 1e-10, f"alpha={alpha} trial={trial}: decay {decay:.2e}"


def test_criterion_4_initialization_on_exact_low_rank():
    with criterion(4, "initialization returns the exact pair on uncorrupted input"):
        rng = np.random.default_rng(4040)
        for _ in range(20):
            n = int(rng.integers(30, 81))
            r = int(rng.integers(1, 6))
            low = random_factored(rng, n, n, r)
            d = low.matrix()
            mu = factor_incoherence(low.U, low.V)
            # admissible band for the first threshold is [mu r/n, 3 mu r/n]
            beta_init = 2.0 * mu * r / n
            params = RpcaParams(
                rank=r, mu=mu, beta=mu * r / (2 * n), beta_init=beta_init
            )
            s_first = hard_threshold(d, params.beta_init * spectral_norm(d))
            assert np.count_nonzero(s_first) == 0
            state, _ = initialize(d, params, _Gather)
            sparse = sparse_of(state, d)
            assert np.count_nonzero(sparse) == 0
            gap = np.linalg.norm(state.low_rank.matrix() - d) / np.linalg.norm(d)
            assert gap <= 1e-12
            assert relative_error(d, state.low_rank.matrix(), sparse) <= 1e-12


def test_criterion_5_tangent_projection_norm_bound():
    with criterion(5, "tangent projection norm bound sqrt(4/3) is attained, never exceeded"):
        bound = np.sqrt(4.0 / 3.0)
        basis = FactoredLowRank(
            np.array([[1.0], [0.0]]), np.array([1.0]), np.array([[1.0], [0.0]])
        )
        z = np.array([[1.0, np.sqrt(2.0)], [np.sqrt(2.0), -1.0]])
        ratio = spectral_norm(tangent_project(basis, z)) / spectral_norm(z)
        assert abs(ratio - bound) <= 1e-12

        rng = np.random.default_rng(5050)
        for _ in range(500):
            n = int(rng.integers(2, 31))
            r = int(rng.integers(1, n))
            qu = np.linalg.qr(rng.standard_normal((n, r)))[0]
            low = FactoredLowRank(qu, np.arange(r, 0, -1.0), qu)
            sym = rng.standard_normal((n, n))
            sym = (sym + sym.T) / 2.0
            ratio = spectral_norm(tangent_project(low, sym)) / spectral_norm(sym)
            assert ratio <= bound + 1e-10


def test_criterion_6_per_iteration_cost_direction():
    with criterion(6, "accelerated L-update beats the full SVD and scales near-linearly in r"):
        r5 = benchmark_l_updates(1000, 5)
        assert r5["accelerated_mean_seconds"] < r5["baseline_mean_seconds"], (
            f"accelerated {r5['accelerated_mean_seconds']:.4f}s "
            f"vs baseline {r5['baseline_mean_seconds']:.4f}s"
        )
        # medians for the rank-scaling check: single-call scheduler spikes on
        # millisecond timings would otherwise dominate the ratio; the two
        # ranks are timed in alternation, so host drift cannot either
        r5_median, r10_median = alternated_l_update_medians([(1000, 5), (1000, 10)])
        ratio = r10_median / r5_median
        assert ratio <= 3.0, f"r=10 vs r=5 L-update time ratio {ratio:.2f}"


def _strip_timing(obj):
    if isinstance(obj, dict):
        return {k: _strip_timing(v) for k, v in obj.items() if "seconds" not in k}
    if isinstance(obj, list):
        return [_strip_timing(item) for item in obj]
    return obj


def _run_cli_pipeline(base):
    synth_dir = base / "synth"
    args = ["synth", "--n", "64", "--rank", "2", "--alpha", "0.1", "--c", "1",
            "--seed", "17", "--output-dir", str(synth_dir)]
    assert main(args) == 0
    solve_dir = base / "solve"
    assert main(
        ["solve", "--input", str(synth_dir / "D.bin"), "--rank", "2",
         "--gamma", "0.7", "--output-dir", str(solve_dir)]
    ) == 0
    grid = base / "grid.json"
    grid.write_text(json.dumps({
        "n": 40, "rank": 2, "alphas": [0.0, 0.1], "cs": [1.0],
        "trials": 2, "seed": 11, "gamma": 0.7,
    }))
    phase_dir = base / "phase"
    assert main(["phase", "--grid", str(grid), "--output-dir", str(phase_dir)]) == 0
    bench_dir = base / "bench"
    assert main(["bench", "--sizes", "48", "--rank", "2", "--output-dir", str(bench_dir)]) == 0
    return {
        "metadata": synth_dir / "metadata.json",
        "trace": solve_dir / "trace.json",
        "report": phase_dir / "report.json",
        "timings": bench_dir / "timings.json",
        "solve_dir": solve_dir,
        "synth_dir": synth_dir,
    }


def test_criterion_7_determinism_and_artifact_completeness(tmp_path):
    with criterion(7, "CLI reruns reproduce identical reports; traces audit cleanly"):
        first = _run_cli_pipeline(tmp_path)
        snapshot = {
            key: json.loads(first[key].read_text())
            for key in ("metadata", "trace", "report", "timings")
        }
        data_bytes = (first["synth_dir"] / "D.bin").read_bytes()

        second = _run_cli_pipeline(tmp_path)  # same directories, overwritten
        for key, before in snapshot.items():
            after = json.loads(second[key].read_text())
            assert _strip_timing(before) == _strip_timing(after), f"{key} differs between reruns"

        # binary artifacts are bitwise identical
        assert (second["synth_dir"] / "D.bin").read_bytes() == data_bytes

        # the trace alone re-derives the threshold schedule ...
        trace = json.loads(first["trace"].read_text())
        params = trace["params"]
        zetas = trace["trace"]["zeta"]
        windows = trace["trace"]["sigma_window"]
        assert len(zetas) == len(windows) == len(trace["trace"]["err"])
        for k, zeta in enumerate(zetas):
            if k == 0:
                expected = params["beta"] * windows[0][0]
            else:
                expected = threshold_value(
                    windows[k], params["rank"], params["beta"], params["gamma"], k - 1
                )
            assert zeta == pytest.approx(expected, rel=1e-12, abs=1e-300)

        # ... and the final error is recomputable from the written matrices.
        d = read_matrix(first["synth_dir"] / "D.bin")
        l = read_matrix(first["solve_dir"] / "L.bin")
        s = read_matrix(first["solve_dir"] / "S.bin")
        recomputed = relative_error(d, l, s)
        assert recomputed == pytest.approx(trace["trace"]["err"][-1], rel=1e-9)
