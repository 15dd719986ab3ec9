import itertools
import json
from dataclasses import asdict

import numpy as np
import pytest

import rpca.experiments
from rpca.experiments import (
    SOLVER_IDS,
    PhaseConfig,
    paper_phase_config,
    run_phase_experiment,
    run_runtime_experiment,
    trial_seed,
)
from rpca.metrics import recovery_success
from rpca.solver import _Gather, _solution, _solve, _Untrimmed, accaltproj_solve, altproj_solve
from rpca.synthetic import SyntheticSpec


def never_generate(spec):
    raise AssertionError("a problem was generated before every cell was checked")


def runtime_trial_inputs(n, rank=5):
    """The spec, D, ground-truth L and params of the runtime harness's first trial at ``n``."""
    runtime = rpca.experiments._RUNTIME
    spec = SyntheticSpec(n, n, rank, runtime["alpha"], runtime["amplitude"], trial_seed(0, 0, 0))
    problem, params = rpca.experiments._problem_and_params(
        spec, runtime["gamma"], epsilon=runtime["tol"], max_iter=runtime["max_iter"]
    )
    return spec, problem.data, problem.low_rank, params


def alternated_l_update_medians(shapes, rounds=3):
    """Median ``l_update_seconds`` of the accelerated solve at each (n, rank).

    Each round solves the runtime harness's problem of every shape in turn,
    so host drift slows every shape alike, and keeps the rows that
    :func:`rpca.experiments._timing_means` averages: computed loop rows past
    the warm-up.
    """
    problems = [runtime_trial_inputs(n, rank) for n, rank in shapes]
    seconds = [[] for _ in problems]
    skip = rpca.experiments._TIMING_SKIP
    for _ in range(rounds):
        for (_, d, _, params), times in zip(problems, seconds):
            _, trace, _ = _solve(d, params, _Gather)
            times += [rec.l_update_seconds for rec in trace[skip:] if not rec.skipped]
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
            small_config(solvers=("accaltproj", "gradient_descent"))
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

    @pytest.mark.parametrize(
        "overrides, field",
        [
            (dict(gamma=False), "gamma"),
            (dict(tol=True), "tol"),
            (dict(trials=1.5), "trials"),
            (dict(n=40.0), "n"),
            (dict(alphas=(True,)), "alphas"),
            (dict(max_iter=2.5), "max_iter"),
        ],
    )
    def test_wrong_kinds_rejected_before_any_problem(self, monkeypatch, overrides, field):
        monkeypatch.setattr(rpca.experiments, "generate", never_generate)
        with pytest.raises(ValueError, match=f"^{field} must be "):
            run_phase_experiment(small_config(**overrides))

    def test_numpy_and_list_values_stored_as_python_types(self):
        config = small_config(n=np.int64(40), alphas=[0, 0.1], trials=1)
        assert type(config.n) is int
        assert config.alphas == (0.0, 0.1) and all(type(a) is float for a in config.alphas)
        json.dumps(run_phase_experiment(config).as_dict(), allow_nan=False)

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
        report = run_phase_experiment(small_config(trials=1))
        payload = report.as_dict()
        assert payload["schema_version"] == 2
        encoded = json.dumps(payload, allow_nan=False)
        assert "success_counts" in encoded

    def test_bad_cell_rejected_before_any_solve(self, monkeypatch):
        monkeypatch.setattr(rpca.experiments, "generate", never_generate)
        with pytest.raises(ValueError, match="alpha"):
            run_phase_experiment(small_config(alphas=(0.1, 1.0)))

    def test_trial_peak_memory(self, peak_buffers):
        # Peak above what was live, in 400 x 400 float64 buffers, of a trial
        # at alpha 0.45, set by generate: L, S and D, as the index list of
        # the corrupted entries is freed before D is formed (measured 3.07;
        # 3.52 while the problem kept the list).  The solve runs beside D
        # and L with tiles and thin factors, below that.
        config = PhaseConfig(alphas=(0.45,), amplitudes=(1.0,), trials=1, n=400, rank=5,
                             gamma=0.7, solvers=("accaltproj",))
        report, peak = peak_buffers(lambda: run_phase_experiment(config), 400 * 400 * 8)
        assert len(report.records) == 1
        assert peak <= 3.1, f"peak {peak:.3f} buffers"


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
        # Peak above what was live, in 400 x 400 float64 buffers, set by
        # AltProj's trial, whose W is alive beside D and the ground-truth L
        # (measured 3.23; generate's L, S and D read 3.07).  A solve runs
        # beside D and L only: neither the problem's S nor the previous
        # solution is held, and no trial forms the solution's S
        # (test_one_trial_forms_no_s).
        report, peak = peak_buffers(lambda: run_runtime_experiment([400], rank=5), 400 * 400 * 8)
        assert len(report.records) == len(SOLVER_IDS)
        assert peak <= 3.3, f"peak {peak:.3f} buffers"

    @pytest.mark.parametrize(
        "solver_id, bound",
        [pytest.param("accaltproj", 0.35, id="accaltproj"),
         pytest.param("altproj", 1.3, id="altproj")],
    )
    def test_one_trial_forms_no_s(self, solver_id, bound, peak_buffers):
        # Peak of one trial above D and the ground-truth L, in 400 x 400
        # float64 buffers.  The record reads L, the trace and converged only,
        # so the solve builds no S: an accelerated trial holds row tiles and
        # thin factors (measured 0.262; 1.116 when the trial formed S), and
        # AltProj its one buffer W besides (measured 1.228 either way, as W
        # was freed before S).
        spec, d, l_true, params = runtime_trial_inputs(400)
        record, peak = peak_buffers(
            lambda: rpca.experiments._run_trial(solver_id, spec, d, l_true, params), d.nbytes
        )
        assert record.success
        assert peak <= bound, f"peak {peak:.3f} buffers"

    @pytest.mark.parametrize("solver_id", SOLVER_IDS)
    def test_trial_record_is_the_library_solve(self, solver_id):
        # Everything but the wall time equals what the entry point returns;
        # the no-trim ablation has none, and is the entry points' solve with
        # its class.
        spec, d, l_true, params = runtime_trial_inputs(120)
        record = rpca.experiments._run_trial(solver_id, spec, d, l_true, params)
        solve = {
            "accaltproj": accaltproj_solve,
            "accaltproj_notrim": lambda d, params: _solution(d, params, _Untrimmed),
            "altproj": altproj_solve,
        }[solver_id]
        solution = solve(d, params)
        assert record.iterations == solution.iterations
        assert record.final_err == solution.final_err
        assert record.converged == solution.converged
        assert record.success == recovery_success(l_true, solution.low_rank)
        assert record.err_history == [rec.err for rec in solution.trace]
        assert record.zeta_history == [rec.zeta for rec in solution.trace]

    def test_empty_sizes_rejected(self):
        with pytest.raises(ValueError, match="at least one size"):
            run_runtime_experiment([])

    def test_negative_master_seed_rejected_before_any_solve(self, monkeypatch):
        monkeypatch.setattr(rpca.experiments, "generate", never_generate)
        with pytest.raises(ValueError, match="master_seed must be >= 0, got -1"):
            run_runtime_experiment([20], master_seed=-1)

    def test_bad_size_rejected_before_any_solve(self, monkeypatch):
        monkeypatch.setattr(rpca.experiments, "generate", never_generate)
        with pytest.raises(ValueError, match="out of range"):
            run_runtime_experiment([100, 3], rank=5)


class TestBenchmark:
    """The L-update timings that run_runtime_experiment averages."""

    def test_quadratic_scaling_in_n(self):
        # Doubling n at fixed r should scale the accelerated update by about
        # 4x (it is dominated by the gathered (n x n)(n x r) products); allow
        # a factor-2 band around that on medians timed in alternation.
        small, large = alternated_l_update_medians([(1000, 5), (2000, 5)])
        ratio = large / small
        assert 2.0 <= ratio <= 8.0, f"doubling n scaled the update by {ratio:.2f}x"
