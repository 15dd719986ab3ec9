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
from rpca.experiments import (
    PhaseConfig,
    run_phase_experiment,
    run_runtime_experiment,
    trial_seed,
)
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
from conftest import load
from test_experiments import alternated_l_update_medians
from test_solver import desk_params, random_factored, sparse_of, tangent_project

# Desk-scale protocol: n = 200 with the slow threshold decay (gamma = 0.7,
# from the published parameter family); at this size the faster published
# decay rates undercut the contraction of the low-rank error.
DESK = dict(n=200, rank=5, amplitude=1.0, master_seed=0, gamma=0.7)
DESK_ALPHAS = (0.1, 0.2, 0.3)

# Criterion 7 replays the CLI pipeline of tools/compare_artifacts.py.
compare = load("compare_artifacts")


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
        means = {
            rec.solver: rec.mean_l_update_seconds for rec in run_runtime_experiment([1000]).records
        }
        assert means["accaltproj"] < means["altproj"], (
            f"accelerated {means['accaltproj']:.4f}s vs baseline {means['altproj']:.4f}s"
        )
        # medians of the solves' rows for the rank-scaling check: single-row
        # scheduler spikes on millisecond timings would otherwise dominate the
        # ratio; the two ranks are solved in alternation, so host drift cannot
        r5_median, r10_median = alternated_l_update_medians([(1000, 5), (1000, 10)])
        ratio = r10_median / r5_median
        assert ratio <= 3.0, f"r=10 vs r=5 L-update time ratio {ratio:.2f}"


def test_criterion_7_determinism_and_artifact_completeness(tmp_path, monkeypatch):
    with criterion(7, "CLI reruns reproduce identical reports; traces audit cleanly"):
        runs, codes = [], []
        for name in ("first", "second"):
            runs.append(compare.prepare(tmp_path / name))
            monkeypatch.chdir(runs[-1])
            codes.append([main(argv) for argv in compare.COMMANDS])
        first, second = runs
        # every command exits 0 but the three that stop at the iteration cap
        capped = {"solve-trim", "solve-capped", "solve-capped-altproj"}
        outputs = [argv[argv.index("--output-dir") + 1] for argv in compare.COMMANDS]
        assert codes[0] == codes[1] == [2 if out in capped else 0 for out in outputs]

        # every file of the rerun equals the first run's, timing fields aside
        files = [{p.relative_to(out) for p in out.rglob("*") if p.is_file()} for out in runs]
        assert files[0] == files[1]
        for name in sorted(files[0]):
            assert compare.comparable(first / name) == compare.comparable(second / name), name

        traces = sorted(first.glob("*/trace.json"))
        assert len(traces) == [argv[0] for argv in compare.COMMANDS].count("solve")
        for path in traces:
            trace = json.loads(path.read_text())
            # the trace alone re-derives the threshold schedule ...
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
                assert zeta == pytest.approx(expected, rel=1e-12, abs=1e-300), (path, k)

            # ... and the final error is recomputable from the written matrices.
            d_path = first / trace["input"]["path"]
            d = read_matrix(d_path)
            l, s = (read_matrix(path.with_name(key + d_path.suffix)) for key in ("L", "S"))
            recomputed = relative_error(d, l, s)
            assert recomputed == pytest.approx(trace["trace"]["err"][-1], rel=1e-9), path
