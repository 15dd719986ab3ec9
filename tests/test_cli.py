import json
import os
import subprocess
import sys
from dataclasses import asdict, fields, replace
from pathlib import Path

import numpy as np
import pytest

import rpca.experiments
from rpca.cli import _GRID_KEYS, _REQUIRED_GRID_KEYS, main
from rpca.experiments import (
    PhaseConfig,
    paper_phase_config,
    run_phase_experiment,
    run_runtime_experiment,
)
from rpca.kernel import svd_truncated
from rpca.matio import read_matrix, write_matrix
from rpca.solver import (
    IterationRecord,
    RpcaParams,
    _row_tiles,
    accaltproj_solve,
    altproj_solve,
    threshold_value,
)
from rpca.synthetic import SyntheticSpec, generate
from conftest import load

compare = load("compare_artifacts")


def run_synth(tmp_path, n=60, rank=2, alpha=0.1, c=1.0, seed=5, fmt="bin"):
    out = tmp_path / "synth"
    code = main(
        [
            "synth",
            "--n", str(n),
            "--rank", str(rank),
            "--alpha", str(alpha),
            "--c", str(c),
            "--seed", str(seed),
            "--format", fmt,
            "--output-dir", str(out),
        ]
    )
    assert code == 0
    return out


def never_run(*args, **kwargs):
    raise AssertionError("an experiment started despite conflicting flags")


class TestSynthCommand:
    def test_writes_consistent_artifacts(self, tmp_path):
        out = run_synth(tmp_path)
        d = read_matrix(out / "D.bin")
        l = read_matrix(out / "L.bin")
        s = read_matrix(out / "S.bin")
        assert np.array_equal(d, l + s)
        meta = json.loads((out / "metadata.json").read_text())
        assert meta["schema_version"] == 1
        assert meta["spec"]["n"] == 60 and meta["seed"] == 5
        assert meta["support_size"] == int(0.1 * 60 * 60)
        # files match a library regeneration with the same seed
        prob = generate(SyntheticSpec(60, 60, 2, 0.1, 1.0, 5))
        assert np.array_equal(d, prob.data)

    def test_invalid_spec_exits_one(self, tmp_path, capsys):
        code = main(
            ["synth", "--n", "10", "--rank", "20", "--alpha", "0.1", "--c", "1",
             "--seed", "0", "--output-dir", str(tmp_path)]
        )
        assert code == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("c", ["nan", "inf", "1e308"])
    def test_amplitude_without_a_finite_range_exits_one(self, tmp_path, capsys, c):
        out = tmp_path / "synth"
        code = main(
            ["synth", "--n", "40", "--rank", "5", "--alpha", "0.1", "--c", c,
             "--seed", "3", "--output-dir", str(out)]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert "error: amplitude" in err
        assert "Traceback" not in err
        assert not out.exists()


class TestSolveCommand:
    def test_end_to_end_convergence(self, tmp_path):
        out = run_synth(tmp_path, n=200, rank=5, alpha=0.1, c=1.0, seed=9)
        code = main(
            ["solve", "--input", str(out / "D.bin"), "--rank", "5",
             "--gamma", "0.7", "--output-dir", str(out)]
        )
        assert code == 0
        trace = json.loads((out / "trace.json").read_text())
        assert trace["converged"] is True
        assert trace["trace"]["err"][-1] < 1e-6
        assert trace["schema_version"] == 4
        l = read_matrix(out / "L.bin")
        s = read_matrix(out / "S.bin")
        d = read_matrix(out / "D.bin")
        err = np.linalg.norm(d - l - s) / np.linalg.norm(d)
        assert err == pytest.approx(trace["final_err"], rel=1e-9)
        # zeta schedule is auditable from the recorded windows
        p = trace["params"]
        for k, zeta in enumerate(trace["trace"]["zeta"]):
            window = trace["trace"]["sigma_window"][k]
            if k == 0:
                assert zeta == pytest.approx(p["beta"] * window[0], rel=1e-12)
            else:
                expected = threshold_value(window, p["rank"], p["beta"], p["gamma"], k - 1)
                assert zeta == pytest.approx(expected, rel=1e-12)

    def test_mu_warning_when_omitted(self, tmp_path, capsys):
        out = run_synth(tmp_path, n=40, rank=2, seed=3)
        code = main(
            ["solve", "--input", str(out / "D.bin"), "--rank", "2",
             "--gamma", "0.7", "--output-dir", str(out)]
        )
        assert code == 0
        assert "--mu not given" in capsys.readouterr().err

    def test_altproj_and_no_trim(self, tmp_path):
        # --solver takes each solver id, and trace.json names the variant by
        # it: the id that a phase trial of the variant on the same problem
        # and parameters carries, with the same solve.
        spec = SyntheticSpec(60, 60, 2, 0.1, 1.0, 4)
        prob = generate(spec)
        write_matrix(prob.data, tmp_path / "D.bin")
        mu = 1.1 * prob.mu_true
        params = RpcaParams.defaults(prob.data.shape, 2, mu, gamma=0.7)
        assert rpca.experiments.SOLVER_IDS == ("accaltproj", "accaltproj_notrim", "altproj")
        for solver_id in rpca.experiments.SOLVER_IDS:
            code = main(
                ["solve", "--input", str(tmp_path / "D.bin"), "--rank", "2", "--mu", repr(mu),
                 "--gamma", "0.7", "--solver", solver_id, "--output-dir", str(tmp_path)]
            )
            assert code == 0
            trace = json.loads((tmp_path / "trace.json").read_text())
            assert trace["params"] == asdict(params) and "trim_enabled" not in trace["params"]
            record = rpca.experiments._run_trial(solver_id, spec, prob.data, prob.low_rank, params)
            assert trace["solver"] == record.solver == solver_id
            assert trace["trace"]["err"] == record.err_history
            assert trace["trace"]["zeta"] == record.zeta_history

    def test_no_trim_with_altproj_exits_one(self, tmp_path, capsys, monkeypatch):
        # the variant is one --solver id, so there is no --no-trim flag to
        # combine with another; the run stops before the solve
        monkeypatch.setattr("rpca.cli._solve", never_run)
        out = run_synth(tmp_path, n=40, rank=2, seed=3)
        solved = tmp_path / "solved"
        code = main(
            ["solve", "--input", str(out / "D.bin"), "--rank", "2", "--solver", "altproj",
             "--no-trim", "--output-dir", str(solved)]
        )
        assert code == 1
        assert "error: unrecognized arguments: --no-trim" in capsys.readouterr().err
        assert not solved.exists()

    def test_trace_columns_are_the_record_fields(self, tmp_path):
        out = run_synth(tmp_path, n=60, rank=2, seed=4)
        for solver in ("accaltproj", "altproj"):
            code = main(
                ["solve", "--input", str(out / "D.bin"), "--rank", "2", "--gamma", "0.7",
                 "--solver", solver, "--output-dir", str(out)]
            )
            assert code == 0
            trace = json.loads((out / "trace.json").read_text())
            columns = trace["trace"]
            assert set(columns) == {f.name for f in fields(IterationRecord)}
            assert set(columns) == {
                "k", "err", "zeta", "sigma_window", "iter_seconds", "l_update_seconds",
                "skipped",
            }
            assert trace["schema_version"] == 4
            assert columns["k"] == list(range(trace["iterations"] + 1))
            assert all(isinstance(flag, bool) for flag in columns["skipped"])
            for values in columns.values():
                assert len(values) == trace["iterations"] + 1

    def test_trace_columns_equal_the_library_trace(self, tmp_path):
        prob = generate(SyntheticSpec(80, 80, 2, 0.1, 1.0, 4))
        write_matrix(prob.data, tmp_path / "D.bin")
        mu = 1.1 * prob.mu_true
        code = main(
            ["solve", "--input", str(tmp_path / "D.bin"), "--rank", "2", "--mu", repr(mu),
             "--gamma", "0.7", "--output-dir", str(tmp_path)]
        )
        assert code == 0
        payload = json.loads((tmp_path / "trace.json").read_text())
        params = RpcaParams.defaults(prob.data.shape, 2, mu, gamma=0.7)
        assert payload["params"] == asdict(params)
        solution = accaltproj_solve(read_matrix(tmp_path / "D.bin"), params)
        assert any(rec.skipped for rec in solution.trace)  # both kinds of row are compared
        for name, column in compare.strip_timing(payload["trace"]).items():
            want = [getattr(rec, name) for rec in solution.trace]
            if name == "sigma_window":
                want = [window.tolist() for window in want]
            assert column == want, name

    @staticmethod
    def solve_out_of_scale(tmp_path, capsys, scale, mu_flag):
        """Solve a D scaled out of range; return the stderr of the run."""
        prob = generate(SyntheticSpec(100, 100, 3, 0.1, 1.0, 1))
        write_matrix(prob.data * scale, tmp_path / "D.bin")
        solved = tmp_path / "solved"
        mu = ["--mu", repr(1.1 * prob.mu_true)] if mu_flag else []
        code = main(
            ["solve", "--input", str(tmp_path / "D.bin"), "--rank", "3", "--gamma", "0.7",
             "--output-dir", str(solved)] + mu
        )
        assert code == 1
        err = capsys.readouterr().err
        assert "error: D is zero or out of scale" in err
        assert "Traceback" not in err
        assert not solved.exists()
        return err

    @pytest.mark.parametrize("scale", [1e155, 1e-160])
    def test_d_out_of_scale_exits_one(self, tmp_path, capsys, scale):
        # at 1e155 sigma_1(D), then from ARPACK, failed with a traceback; at
        # 1e-160 the squared residual underflowed and the solve reported a
        # false convergence
        self.solve_out_of_scale(tmp_path, capsys, scale, mu_flag=True)

    @pytest.mark.parametrize("scale", [1e155, 1e-160])
    def test_d_out_of_scale_is_rejected_before_mu_is_measured(self, tmp_path, capsys, scale):
        err = self.solve_out_of_scale(tmp_path, capsys, scale, mu_flag=False)
        assert "--mu not given" not in err

    def test_all_ones_input_solves_without_mu(self, tmp_path, capsys):
        # its incoherence is exactly 1, which rounding measured one ulp below
        write_matrix(np.ones((5, 8)), tmp_path / "D.bin")
        code = main(["solve", "--input", str(tmp_path / "D.bin"), "--rank", "1",
                     "--output-dir", str(tmp_path / "out")])
        assert code == 0
        assert "--mu not given; using 1," in capsys.readouterr().err

    @pytest.mark.parametrize(
        "solver, bound",
        [pytest.param("accaltproj", 1.2, id="accaltproj"), pytest.param("altproj", 2.2, id="altproj")],
    )
    def test_peak_memory_with_the_read(self, tmp_path, solver, bound, peak_buffers):
        # Peak of the whole command above what was live at the call, in
        # n x n float64 buffers, with the read of D counted.  The solve
        # returns no S: S is written tile by tile from D, and the dense L is
        # formed only once D is dropped.  So AccAltProj peaks at D and the
        # solve's tiles and thin factors (measured 1.122), and AltProj at D
        # and its one buffer W (measured 2.092).
        n = 1000
        prob = generate(SyntheticSpec(n, n, 5, 0.1, 1.0, 9))
        write_matrix(prob.data, tmp_path / "D.bin")
        argv = ["solve", "--input", str(tmp_path / "D.bin"), "--rank", "5",
                "--mu", repr(1.1 * prob.mu_true), "--gamma", "0.7", "--solver", solver,
                "--output-dir", str(tmp_path)]
        del prob
        code, peak = peak_buffers(lambda: main(argv), 8 * n * n)
        assert code == 0
        assert peak <= bound, f"peak {peak:.3f} buffers"

    @pytest.mark.parametrize("suffix", ["bin", "csv"])
    @pytest.mark.parametrize("solver", ["accaltproj", "altproj"])
    @pytest.mark.parametrize(
        "m, n, rank",
        [pytest.param(300, 200, 30, id="300x200-r30"), pytest.param(200, 300, 5, id="200x300-r5")],
    )
    def test_files_hold_the_library_solution(self, tmp_path, m, n, rank, solver, suffix):
        # S is written row tile by row tile (8 tiles on both shapes) and L
        # whole; both read back as the library solve's, bit for bit.
        assert len(_row_tiles((m, n))) == 8
        prob = generate(SyntheticSpec(m, n, rank, 0.05, 1.0, 43))
        path = tmp_path / f"D.{suffix}"
        write_matrix(prob.data, path)
        mu = 1.1 * prob.mu_true
        out = tmp_path / "out"
        code = main(
            ["solve", "--input", str(path), "--rank", str(rank), "--mu", repr(mu),
             "--gamma", "0.7", "--solver", solver, "--output-dir", str(out)]
        )
        params = RpcaParams.defaults((m, n), rank, mu, gamma=0.7)
        solve = accaltproj_solve if solver == "accaltproj" else altproj_solve
        solution = solve(read_matrix(path), params)
        assert code == (0 if solution.converged else 2)
        assert np.count_nonzero(solution.sparse) > 0
        low, sparse = (read_matrix(out / f"{key}.{suffix}") for key in ("L", "S"))
        assert low.tobytes() == solution.low_rank.matrix().tobytes()
        assert sparse.tobytes() == solution.sparse.tobytes()

    def test_rank_out_of_range_exits_one(self, tmp_path, capsys):
        out = run_synth(tmp_path, n=20, rank=2, seed=6)
        code = main(["solve", "--input", str(out / "D.bin"), "--rank", "25"])
        assert code == 1
        assert "out of range" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag, name",
        [("--mu", "mu"), ("--beta", "beta"), ("--beta-init", "beta_init"),
         ("--gamma", "gamma"), ("--eps", "epsilon")],
    )
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_parameter_exits_one(self, tmp_path, capsys, flag, name, value):
        out = run_synth(tmp_path, n=60, rank=2, seed=5)
        solved = tmp_path / "solved"
        code = main(
            ["solve", "--input", str(out / "D.bin"), "--rank", "2", flag, value,
             "--output-dir", str(solved)]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert f"error: {name} must" in err
        assert "Traceback" not in err
        assert not solved.exists()

    def test_non_convergence_exits_two(self, tmp_path, capsys):
        out = run_synth(tmp_path, n=60, rank=2, alpha=0.2, seed=8)
        code = main(
            ["solve", "--input", str(out / "D.bin"), "--rank", "2",
             "--eps", "1e-15", "--max-iter", "2", "--output-dir", str(out)]
        )
        assert code == 2
        assert "did not converge" in capsys.readouterr().err
        trace = json.loads((out / "trace.json").read_text())
        assert trace["converged"] is False

    def test_missing_input_exits_one(self, tmp_path, capsys):
        code = main(["solve", "--input", str(tmp_path / "nope.bin"), "--rank", "2"])
        assert code == 1

    def test_unset_flags_take_the_params_defaults(self, tmp_path):
        out = run_synth(tmp_path, n=40, rank=2, seed=3)
        code = main(["solve", "--input", str(out / "D.bin"), "--rank", "2", "--mu", "2"])
        assert code in (0, 2)
        params = json.loads((out / "trace.json").read_text())["params"]
        assert params == asdict(RpcaParams.defaults((40, 40), 2, 2.0))

    def test_beta_alone_leaves_beta_init_at_its_default(self, tmp_path):
        out = run_synth(tmp_path, n=40, rank=2, seed=3)
        argv = ["solve", "--input", str(out / "D.bin"), "--rank", "2", "--mu", "2"]
        assert main(argv + ["--beta", "0.05"]) in (0, 2)
        params = json.loads((out / "trace.json").read_text())["params"]
        assert params["beta"] == 0.05
        # 1.1 mu r / sqrt(mn) = 0.11, whatever beta is; 2 beta would be 0.1
        expected = RpcaParams.defaults((40, 40), 2, 2.0).beta_init
        assert params["beta_init"] == expected == pytest.approx(0.11)

    @pytest.mark.parametrize("name, fmt", [("L", "bin"), ("S", "bin"), ("S", "csv")])
    @pytest.mark.parametrize("explicit_dir", [False, True])
    def test_refuses_to_overwrite_its_input(self, tmp_path, capsys, name, fmt, explicit_dir):
        out = run_synth(tmp_path, n=40, rank=2, seed=3, fmt=fmt)
        source = out / f"{name}.{fmt}"
        before = source.read_bytes()
        argv = ["solve", "--input", str(source), "--rank", "2"]
        code = main(argv + (["--output-dir", str(out)] if explicit_dir else []))
        assert code == 1
        assert "is the input file" in capsys.readouterr().err
        assert source.read_bytes() == before

    def test_csv_input_writes_csv_outputs(self, tmp_path):
        rng = np.random.default_rng(2)
        low = rng.standard_normal((30, 2)) @ rng.standard_normal((30, 2)).T
        for name in ("D.csv", "D.CSV"):  # the suffix is read case-insensitively
            path = tmp_path / name
            write_matrix(low, path)
            out = tmp_path / f"out-{name}"
            code = main(["solve", "--input", str(path), "--rank", "2", "--output-dir", str(out)])
            assert code == 0
            assert sorted(p.name for p in out.iterdir()) == ["L.csv", "S.csv", "trace.json"]


def write_grid(tmp_path, **overrides):
    """The basic grid of ``tools/compare_artifacts.py``, with ``overrides``."""
    path = tmp_path / "grid.json"
    path.write_text(json.dumps(dict(compare.GRIDS["grid.json"], **overrides)))
    return path


class TestPhaseCommand:
    def test_writes_report_and_csv(self, tmp_path):
        grid = write_grid(tmp_path)
        code = main(["phase", "--grid", str(grid), "--output-dir", str(tmp_path)])
        assert code == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["schema_version"] == 2
        assert len(report["records"]) == 12
        csv_lines = (tmp_path / "report.csv").read_text().strip().splitlines()
        assert len(csv_lines) == 13  # header + rows
        # TrialRecord's non-list fields in field order: the twelve columns
        # the CSV has always had, then the three timing columns
        assert csv_lines[0].split(",") == [
            "alpha", "amplitude", "solver", "seed", "m", "n", "rank", "iterations",
            "final_err", "converged", "success", "wall_seconds",
            "init_seconds", "mean_iter_seconds", "mean_l_update_seconds",
        ]

    def test_seed_replaces_the_grid_seed(self, tmp_path):
        # --seed sets the master seed of a grid file as its "seed" key does
        grid = write_grid(tmp_path)
        flag, key = tmp_path / "flag", tmp_path / "key"
        assert main(["phase", "--grid", str(grid), "--seed", "99", "--output-dir", str(flag)]) == 0
        grid = write_grid(tmp_path, seed=99)
        assert main(["phase", "--grid", str(grid), "--output-dir", str(key)]) == 0
        for name in ("report.json", "report.csv"):
            assert compare.comparable(flag / name) == compare.comparable(key / name), name
        assert json.loads((flag / "report.json").read_text())["seed"] == 99

    @pytest.mark.parametrize("argv, seed", [([], 0), (["--seed", "7"], 7)], ids=["default", "seed-7"])
    def test_paper_runs_the_published_grid_with_its_seed(self, tmp_path, monkeypatch, argv, seed):
        # the grid itself takes hours, so the run stops once it has its config
        configs = []

        def record(config):
            configs.append(config)
            raise ValueError("stopped before the grid runs")

        monkeypatch.setattr("rpca.cli.run_phase_experiment", record)
        assert main(["phase", "--paper", "--output-dir", str(tmp_path / "out")] + argv) == 1
        assert configs == [replace(paper_phase_config(), master_seed=seed)]

    def test_grid_keys_are_the_config_fields(self):
        # each key names its PhaseConfig field, but for cs and seed
        assert _GRID_KEYS == {
            "n": "n",
            "m": "m",
            "rank": "rank",
            "alphas": "alphas",
            "cs": "amplitudes",
            "trials": "trials",
            "seed": "master_seed",
            "tol": "tol",
            "max_iter": "max_iter",
            "gamma": "gamma",
            "solvers": "solvers",
        }

    def test_required_keys_are_the_fields_without_a_default(self):
        assert _REQUIRED_GRID_KEYS == {"n", "rank", "alphas", "cs", "trials"}
        with pytest.raises(TypeError, match="rank"):
            PhaseConfig(alphas=(0.1,), amplitudes=(1.0,), trials=1, n=20)

    def test_empty_grid_exits_one(self, tmp_path, capsys):
        grid = write_grid(tmp_path, alphas=[])
        assert main(["phase", "--grid", str(grid), "--output-dir", str(tmp_path)]) == 1
        assert "error:" in capsys.readouterr().err

    def test_amplitude_without_a_finite_range_exits_one(self, tmp_path, capsys):
        grid = write_grid(tmp_path, alphas=[0.1], cs=[1e308])
        out = tmp_path / "out"
        assert main(["phase", "--grid", str(grid), "--output-dir", str(out)]) == 1
        err = capsys.readouterr().err
        assert "error: amplitude" in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_unknown_key_exits_one(self, tmp_path, capsys):
        grid = write_grid(tmp_path, velocity=3)
        assert main(["phase", "--grid", str(grid), "--output-dir", str(tmp_path)]) == 1
        assert "unknown keys" in capsys.readouterr().err

    def test_missing_key_exits_one(self, tmp_path, capsys):
        path = tmp_path / "grid.json"
        path.write_text(json.dumps({"n": 20}))
        assert main(["phase", "--grid", str(path), "--output-dir", str(tmp_path)]) == 1
        assert "missing keys" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "key, value, field",
        [("cs", "15", "amplitudes"), ("alphas", "0", "alphas"), ("solvers", "altproj", "solvers"),
         ("alphas", 0.1, "alphas")],
        ids=["cs-15", "alphas-0", "solvers-altproj", "alphas-0.1"],
    )
    def test_non_array_values_exit_one(self, tmp_path, capsys, key, value, field):
        # the message names the PhaseConfig field that the key sets
        grid = write_grid(tmp_path, **{key: value})
        assert main(["phase", "--grid", str(grid), "--output-dir", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert f"{field} must be a tuple or list" in err
        assert not (tmp_path / "report.json").exists()

    @pytest.mark.parametrize(
        "overrides, message",
        [
            # each of these once ran, as n = 30, 1 trial, seed 1
            (dict(n=30.9), "n must be an integer"),
            (dict(trials=1.7), "trials must be an integer"),
            (dict(seed=True), "master_seed must be an integer"),
            (
                dict(m=40.0, rank=False, max_iter="50"),
                "rank must be an integer; m must be an integer or None; "
                "max_iter must be an integer",
            ),
            # ... and these as 0.1, 1.0 and 0.001
            (dict(alphas=["0.1"]), "alphas must be a tuple or list of finite numbers"),
            (dict(cs=[True]), "amplitudes must be a tuple or list of finite numbers"),
            (dict(tol="1e-3"), "tol must be a finite number"),
            (dict(gamma=False), "gamma must be a finite number or None"),
            (dict(alphas=[0.1, float("nan")]), "alphas must be a tuple or list of finite numbers"),
            (dict(tol=10**400), "tol must be a finite number"),
            (dict(n="40", tol=True), "n must be an integer; tol must be a finite number"),
        ],
        ids=["float-n", "float-trials", "bool-seed", "three-ints", "string-alpha", "bool-c",
             "string-tol", "bool-gamma", "nan-alpha", "huge-tol", "two-kinds"],
    )
    def test_mistyped_values_exit_one(self, tmp_path, capsys, overrides, message):
        grid = write_grid(tmp_path, **overrides)
        assert main(["phase", "--grid", str(grid), "--output-dir", str(tmp_path)]) == 1
        assert message in capsys.readouterr().err
        assert not (tmp_path / "report.json").exists()

    @pytest.mark.parametrize(
        "overrides, message",
        [
            # the first once exited 0 and reported 2 trials for its one cell
            (dict(alphas=[0.1, 0.1], trials=1), "alphas must not repeat a value"),
            (dict(cs=[1.0, 1.0]), "amplitudes must not repeat a value"),
            (dict(solvers=["altproj", "altproj"]), "solvers must not repeat a value"),
            (dict(solvers=[1, "x"]), "unknown solver ids in solvers: [1, 'x']"),
            (dict(solvers=[["altproj"]]), "unknown solver ids in solvers: [['altproj']]"),
        ],
        ids=["alphas", "cs", "solvers", "int-solver", "list-solver"],
    )
    def test_repeated_values_and_non_string_solvers_exit_one(
        self, tmp_path, capsys, overrides, message
    ):
        grid = write_grid(tmp_path, **overrides)
        out = tmp_path / "out"
        assert main(["phase", "--grid", str(grid), "--output-dir", str(out)]) == 1
        assert f"error: {grid}: {message}" in capsys.readouterr().err
        assert not out.exists()

    def test_integral_numbers_are_read_as_floats(self, tmp_path):
        grid = write_grid(tmp_path, alphas=[0], cs=[1], tol=1, gamma=None, trials=1)
        assert main(["phase", "--grid", str(grid), "--output-dir", str(tmp_path)]) == 0
        config = json.loads((tmp_path / "report.json").read_text())["config"]
        assert config["alphas"] == [0.0] and isinstance(config["alphas"][0], float)
        assert isinstance(config["amplitudes"][0], float) and isinstance(config["tol"], float)
        assert config["gamma"] is None

    def test_omitted_keys_take_the_config_defaults(self, tmp_path):
        path = tmp_path / "grid.json"
        path.write_text(json.dumps({"n": 20, "rank": 1, "alphas": [0.0], "cs": [1.0], "trials": 1}))
        assert main(["phase", "--grid", str(path), "--output-dir", str(tmp_path)]) == 0
        report = json.loads((tmp_path / "report.json").read_text())
        expected = PhaseConfig(alphas=(0.0,), amplitudes=(1.0,), trials=1, n=20, rank=1)
        assert report["config"] == json.loads(json.dumps(asdict(expected)))

    def test_grid_or_paper_required(self, tmp_path, capsys):
        assert main(["phase", "--output-dir", str(tmp_path)]) == 1
        assert "--grid" in capsys.readouterr().err


class TestBenchCommand:
    def test_writes_timings(self, tmp_path):
        code = main(
            ["bench", "--sizes", "48,64", "--rank", "2", "--output-dir", str(tmp_path)]
        )
        assert code == 0
        payload = json.loads((tmp_path / "timings.json").read_text())
        assert payload["kind"] == "runtime"
        assert len(payload["records"]) == 6  # 2 sizes x 3 solvers

    def test_bad_sizes_exit_one(self, tmp_path, capsys):
        assert main(["bench", "--sizes", "48,apple"]) == 1
        assert "--sizes" in capsys.readouterr().err

    def test_size_one_runs_as_the_library_does(self, tmp_path):
        assert main(["bench", "--sizes", "1", "--rank", "1", "--output-dir", str(tmp_path)]) == 0
        assert len(json.loads((tmp_path / "timings.json").read_text())["records"]) == 3


class TestReportsAreTheLibraryReports:
    def test_phase_and_bench_write_as_dict(self, tmp_path):
        grid = write_grid(tmp_path)
        assert main(["phase", "--grid", str(grid), "--output-dir", str(tmp_path)]) == 0
        config = PhaseConfig(
            alphas=(0.0, 0.1), amplitudes=(1.0,), trials=2, n=40, rank=2, master_seed=11,
            gamma=0.7,
        )
        argv = ["bench", "--sizes", "48,64", "--rank", "2", "--seed", "3"]
        assert main(argv + ["--output-dir", str(tmp_path)]) == 0
        for name, report in (
            ("report.json", run_phase_experiment(config)),
            ("timings.json", run_runtime_experiment([48, 64], rank=2, master_seed=3)),
        ):
            written = json.loads((tmp_path / name).read_text())
            expected = json.loads(json.dumps(report.as_dict()))
            assert compare.strip_timing(written) == compare.strip_timing(expected)
        assert written["seed"] == 3


class TestUsageErrors:
    def test_unknown_subcommand(self, capsys):
        assert main(["explode"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_missing_required_flag(self, capsys):
        assert main(["solve"]) == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["phase", "--grid", "{grid}", "--paper"],
            ["bench", "--sizes", "64", "--paper"],
        ],
        ids=["phase-grid-paper", "bench-sizes-paper"],
    )
    def test_conflicting_flags_exit_one(self, tmp_path, capsys, monkeypatch, argv):
        # --paper carries its own grid or sizes
        monkeypatch.setattr("rpca.cli.run_phase_experiment", never_run)
        monkeypatch.setattr("rpca.cli.run_runtime_experiment", never_run)
        grid = write_grid(tmp_path)
        out = tmp_path / "out"
        argv = [arg.format(grid=grid) for arg in argv] + ["--output-dir", str(out)]
        assert main(argv) == 1
        assert "error:" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv",
        [["phase", "--grid", "{grid}", "--seed", "-1"], ["bench", "--sizes", "48", "--seed", "-1"]],
        ids=["phase", "bench"],
    )
    def test_negative_seed_exits_one(self, tmp_path, capsys, monkeypatch, argv):
        # trial_seed names the field before a problem is generated, where
        # numpy's SeedSequence would reject the seed without naming it
        monkeypatch.setattr(rpca.experiments, "generate", never_run)
        grid = write_grid(tmp_path)
        out = tmp_path / "out"
        argv = [arg.format(grid=grid) for arg in argv] + ["--output-dir", str(out)]
        assert main(argv) == 1
        assert "error: master_seed must be >= 0, got -1" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv, owner",
        [
            (["solve", "--input", "{input}", "--rank", "25"], lambda d: svd_truncated(d, 25)),
            (
                ["solve", "--input", "{input}", "--rank", "25", "--mu", "2"],
                lambda d: svd_truncated(d, 25),
            ),
            (
                ["solve", "--input", "{input}", "--rank", "0", "--mu", "2"],
                lambda d: RpcaParams.defaults(d.shape, 0, 2.0),
            ),
            (["bench", "--sizes", "0"], lambda d: run_runtime_experiment([0])),
            (["bench", "--sizes", "3"], lambda d: run_runtime_experiment([3], rank=5)),
            (["bench", "--sizes", ","], lambda d: run_runtime_experiment([])),
        ],
        ids=["solve-rank-25", "solve-rank-25-mu", "solve-rank-0-mu", "bench-sizes-0",
             "bench-sizes-3", "bench-sizes-comma"],
    )
    def test_rejected_values_carry_the_owners_message(
        self, tmp_path, capsys, monkeypatch, argv, owner
    ):
        # rpca states none of these rules itself: the message is the one that
        # the library code owning the rule raises for the same value
        path = run_synth(tmp_path, n=20, rank=2, seed=6) / "D.bin"
        monkeypatch.setattr(rpca.experiments, "generate", never_run)
        with pytest.raises(ValueError) as owned:
            owner(read_matrix(path))
        out = tmp_path / "out"
        argv = [arg.format(input=path) for arg in argv] + ["--output-dir", str(out)]
        assert main(argv) == 1
        assert capsys.readouterr().err == f"error: {owned.value}\n"
        assert not out.exists()

    def test_module_entry_point_runs_the_command(self, tmp_path):
        # `python -m rpca.cli` with the package source first on the import path
        paths = [str(Path(__file__).resolve().parents[1] / "src"), os.environ.get("PYTHONPATH", "")]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(path for path in paths if path))
        done = subprocess.run(
            [sys.executable, "-m", "rpca.cli", "phase", "--grid", str(tmp_path / "missing.json")],
            capture_output=True, text=True, env=env, cwd=tmp_path, timeout=120,
        )
        assert done.returncode == 1
        assert "error:" in done.stderr
