import itertools
from dataclasses import asdict
from time import perf_counter

import numpy as np
import pytest

import rpca.experiments
from rpca.experiments import (
    SOLVER_IDS,
    PhaseConfig,
    benchmark_l_updates,
    paper_phase_config,
    run_phase_experiment,
    run_runtime_experiment,
    trial_seed,
)
from rpca.solver import _sparse_part, _step, accaltproj_solve, initialize
from rpca.synthetic import SyntheticSpec


def never_generate(spec):
    raise AssertionError("a problem was generated before every cell was checked")


def alternated_l_update_medians(shapes, calls=20):
    """Median seconds of the accelerated L-update at each (n, rank).

    Each state is built first, as :func:`benchmark_l_updates` builds it (at
    the first nonzero S_k); then one untimed round and ``calls`` timed rounds
    call the update once per shape in turn, so host drift slows every shape
    alike.
    """
    cases = [rpca.experiments._l_update_case(n, rank) for n, rank in shapes]
    seconds = [[] for _ in cases]
    for round_index in range(calls + 1):
        for case, times in zip(cases, seconds):
            t0 = perf_counter()
            rpca.experiments._accelerated_l_update(*case)
            if round_index:
                times.append(perf_counter() - t0)
    return [float(np.median(times)) for times in seconds]


def small_config(**overrides):
    base = dict(
        alphas=(0.0, 0.1),
        amplitudes=(1.0,),
        trials=2,
        n=40,
        rank=2,
        master_seed=11,
        tol=1e-6,
        gamma=0.7,
    )
    base.update(overrides)
    return PhaseConfig(**base)


class TestTrialSeed:
    def test_deterministic(self):
        assert trial_seed(5, 1, 2) == trial_seed(5, 1, 2)

    def test_distinct_across_indices(self):
        seeds = {trial_seed(5, c, t) for c in range(8) for t in range(8)}
        assert len(seeds) == 64

    def test_distinct_across_masters(self):
        assert trial_seed(1, 0, 0) != trial_seed(2, 0, 0)


class TestPhaseConfig:
    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            small_config(alphas=())
        with pytest.raises(ValueError, match="at least one"):
            small_config(amplitudes=())

    def test_bad_trials_rejected(self):
        with pytest.raises(ValueError, match="trials"):
            small_config(trials=0)

    def test_unknown_solver_rejected(self):
        with pytest.raises(ValueError, match="unknown solver"):
            small_config(solvers=("accaltproj_trim", "gradient_descent"))
        with pytest.raises(ValueError, match="at least one solver"):
            small_config(solvers=())

    @pytest.mark.parametrize(
        "overrides, message",
        [
            (dict(alphas=(0.1, 0.1)), r"alphas must not repeat a value, got \[0.1, 0.1\]"),
            (dict(amplitudes=(1.0, 5.0, 1.0)), "amplitudes must not repeat a value"),
            (dict(solvers=("altproj", "altproj")), "solvers must not repeat a value"),
            (dict(solvers=(1, "x")), r"unknown solver ids in solvers: \[1, 'x'\]"),
            (dict(solvers=(["altproj"],)), r"unknown solver ids in solvers: \[\['altproj'\]\]"),
        ],
        ids=["alphas", "amplitudes", "solvers", "int-solver", "list-solver"],
    )
    def test_repeated_values_and_non_string_solvers_rejected(self, overrides, message):
        with pytest.raises(ValueError, match=message):
            small_config(**overrides)

    def test_paper_config_shape(self):
        config = paper_phase_config()
        assert config.n == 2500 and config.rank == 5 and config.trials == 10
        assert config.alphas[0] == 0.3 and config.alphas[-1] == 0.75
        assert config.amplitudes == (0.2, 1.0, 5.0)
        assert config.gamma is None  # declared-alpha policy at full scale


class TestProblemAndParams:
    def test_gamma_switches_on_declared_alpha(self):
        def gamma(alpha, **override):
            spec = SyntheticSpec(50, 50, 2, alpha, 1.0, 3)
            return rpca.experiments._problem_and_params(spec, **override)[1].gamma

        assert gamma(0.54) == 0.5
        assert gamma(0.55) == 0.65
        assert gamma(0.55, gamma=0.7) == 0.7


class TestPhaseExperiment:
    def test_report_structure_and_clean_cells(self):
        config = small_config()
        report = run_phase_experiment(config)
        # 2 cells x 2 trials x 3 solvers
        assert len(report.records) == 12
        # each record carries the spec of the problem it solved, in (cell, trial, solver) order
        cells = list(itertools.product(config.alphas, config.amplitudes))
        for index, row in enumerate(report.as_dict()["records"]):
            cell, trial = divmod(index // len(SOLVER_IDS), config.trials)
            alpha, amplitude = cells[cell]
            spec = SyntheticSpec(
                config.rows, config.n, config.rank, alpha, amplitude,
                trial_seed(config.master_seed, cell, trial),
            )
            assert {key: row[key] for key in asdict(spec)} == asdict(spec)
        counts = report.success_counts()
        for solver in SOLVER_IDS:
            assert counts[(0.0, 1.0, solver)] == (2, 2)  # no corruption: always recovered
        for rec in report.records:
            assert rec.final_err >= 0.0
            assert len(rec.err_history) == len(rec.zeta_history)
            assert rec.iterations == len(rec.err_history) - 1

    def test_reproducible_across_runs(self):
        first = run_phase_experiment(small_config())
        second = run_phase_experiment(small_config())
        assert first.success_counts() == second.success_counts()
        for a, b in zip(first.records, second.records):
            assert a.solver == b.solver and a.seed == b.seed
            assert a.final_err == b.final_err
            assert a.err_history == b.err_history

    def test_monotonicity_summary_reflects_counts(self):
        report = run_phase_experiment(small_config())
        counts = report.success_counts()
        summary = report.monotone_in_alpha()
        for (solver, amplitude), flag in summary.items():
            wins = [
                counts[(alpha, amplitude, solver)][0]
                for alpha in sorted(a for a, c, s in counts if c == amplitude and s == solver)
            ]
            assert flag == all(y <= x for x, y in zip(wins, wins[1:]))

    def test_as_dict_is_json_ready(self):
        import json

        report = run_phase_experiment(small_config(trials=1))
        payload = report.as_dict()
        assert payload["schema_version"] == 1
        encoded = json.dumps(payload, allow_nan=False)
        assert "success_counts" in encoded

    def test_bad_cell_rejected_before_any_solve(self, monkeypatch):
        monkeypatch.setattr(rpca.experiments, "generate", never_generate)
        with pytest.raises(ValueError, match="alpha"):
            run_phase_experiment(small_config(alphas=(0.1, 1.0)))


class TestRuntimeExperiment:
    def test_single_size_rows(self):
        report = run_runtime_experiment([80], rank=2, master_seed=3)
        assert len(report.records) == len(SOLVER_IDS)
        assert report.config["gamma"] is None and report.config["solvers"] == list(SOLVER_IDS)
        for rec in report.records:
            assert rec.n == 80 and rec.wall_seconds > 0.0
            assert 0.0 < rec.init_seconds <= rec.wall_seconds
            assert rec.mean_l_update_seconds is None or rec.mean_l_update_seconds > 0.0

    def test_timing_means_are_over_executed_rows(self):
        spec = SyntheticSpec(80, 80, 2, 0.1, 0.2, 5)
        problem, params = rpca.experiments._problem_and_params(spec)
        trace = accaltproj_solve(problem.data, params).trace
        rows = trace[2:]  # past the initialization and warm-up rows
        assert any(rec.skipped for rec in rows)
        executed = [rec for rec in rows if not rec.skipped]
        mean_iter, mean_l = rpca.experiments._timing_means(trace)
        assert mean_iter == float(np.mean([rec.iter_seconds for rec in executed]))
        assert mean_l == float(np.mean([rec.l_update_seconds for rec in executed]))
        # the zero-second skipped rows would pull both means down
        assert mean_iter > float(np.mean([rec.iter_seconds for rec in rows]))
        assert mean_l > float(np.mean([rec.l_update_seconds for rec in rows]))

    def test_trial_peak_memory(self, peak_buffers):
        # Peak above what was live, in 400 x 400 float64 buffers: D and the
        # ground-truth L beside a solve's 1 buffer, or beside the solution's
        # S while the recovery check compares the factored L estimate tile
        # by tile (measured 3.23).  Neither the problem's S nor the previous
        # solution is held during a solve.
        report, peak = peak_buffers(lambda: run_runtime_experiment([400], rank=5), 400 * 400 * 8)
        assert len(report.records) == len(SOLVER_IDS)
        assert peak <= 3.4, f"peak {peak:.3f} buffers"

    def test_empty_sizes_rejected(self):
        with pytest.raises(ValueError, match="at least one size"):
            run_runtime_experiment([])

    def test_bad_size_rejected_before_any_solve(self, monkeypatch):
        monkeypatch.setattr(rpca.experiments, "generate", never_generate)
        with pytest.raises(ValueError, match="out of range"):
            run_runtime_experiment([100, 3], rank=5)


class TestBenchmark:
    def test_structure(self):
        out = benchmark_l_updates(100, 3)
        assert out["n"] == 100 and out["rank"] == 3
        assert out["iters"] == 20 and out["seed"] == 0
        assert out["accelerated_mean_seconds"] > 0.0
        assert out["baseline_mean_seconds"] > 0.0
        assert out["accelerated_median_seconds"] > 0.0
        assert out["baseline_median_seconds"] > 0.0

    def test_every_baseline_call_reads_the_first_nonzero_s_k(self, monkeypatch):
        # Both updates are timed at the first nonzero S_k of the accelerated
        # solve (S_0 is zero on the benchmark's problems, an idle step).  A
        # state holds no S, so each S_j is rebuilt from (L_j, zeta_j) as a
        # solve writes its final S.  The baseline forms D - S_k over its S
        # argument, as a solve does, so S_k must be put back before every call.
        iterates, seen = [], []

        def recording_initialize(d, params):
            state, residual_norm = initialize(d, params)
            iterates.append(_sparse_part(d, state.low_rank, state.zeta))
            return state, residual_norm

        def recording_step(state, d, params):
            state, residual_norm = _step(state, d, params)
            iterates.append(_sparse_part(d, state.low_rank, state.zeta))
            return state, residual_norm

        def recording_baseline(low_rank, d, sparse, params):
            seen.append(sparse.copy())
            return baseline(low_rank, d, sparse, params)

        baseline = rpca.experiments._baseline_l_update
        monkeypatch.setattr(rpca.experiments, "initialize", recording_initialize)
        monkeypatch.setattr(rpca.experiments, "_step", recording_step)
        monkeypatch.setattr(rpca.experiments, "_baseline_l_update", recording_baseline)
        out = benchmark_l_updates(100, 3)
        assert len(iterates) >= 2  # S_0 is zero here, so at least one step ran
        assert not any(s.any() for s in iterates[:-1])
        assert np.count_nonzero(iterates[-1]) > 0
        assert len(seen) == 1 + out["iters"]  # the warm-up round, then the timed ones
        assert all(arg.tobytes() == iterates[-1].tobytes() for arg in seen)

    def test_quadratic_scaling_in_n(self):
        # Doubling n at fixed r should scale the accelerated update by about
        # 4x (it is dominated by two (n x n)(n x r) products); allow a
        # factor-2 band around that on medians timed in alternation.
        small, large = alternated_l_update_medians([(1000, 5), (2000, 5)])
        ratio = large / small
        assert 2.0 <= ratio <= 8.0, f"doubling n scaled the update by {ratio:.2f}x"
