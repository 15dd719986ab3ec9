"""Fast checks of the benchmark itself at tiny sizes.

    python3 -m pytest perfbench -q
"""

from dataclasses import replace

import numpy as np
import pytest

import run

run.prepare()

import bench  # noqa: E402  (needs the package path set by prepare)
import spans  # noqa: E402
import rpca.kernel  # noqa: E402
import rpca.solver  # noqa: E402

DECLARED = run.declared_metrics()


def tiny(name):
    return replace(bench.WORKLOADS[name], n=100, rank=2, alpha=0.05)


@pytest.mark.parametrize("name", sorted(bench.WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_every_workload_emits_every_declared_metric(name, trace, tmp_path):
    metrics, attempted, failed, correct, details = bench.run(tiny(name), 3, 0.0, bool(trace), tmp_path)
    assert set(metrics) == set(DECLARED[trace])
    assert all(np.isfinite(v) for v in metrics.values())
    assert attempted >= bench.PROBLEMS + 1
    assert (failed, correct) == (0, True)
    assert details["held_out_seed"]["attempted"] == 1


def test_traced_self_times_add_up_to_the_traced_solve(tmp_path):
    metrics = bench.run(tiny("cli-acc-n2000"), 3, 0.0, True, tmp_path)[0]
    layers = sum(metrics[f"{name}.s"] for name in bench.LAYER_SECONDS)
    assert layers == pytest.approx(metrics["trace.solve_s"], rel=1e-9)
    assert metrics["matio.bytes"] > 0 and metrics["cli.other.s"] > 0


@pytest.mark.parametrize("name", ["acc-n1000", "cli-acc-n2000"])
def test_corrupted_low_rank_fails_the_gate(name, tmp_path):
    runner = bench.Runner(tiny(name), tmp_path)
    case = runner.setup(7)
    outcome = runner.solve(case)
    assert bench.gate(case, outcome)
    outcome.l_estimate = outcome.l_estimate.copy()
    outcome.l_estimate[0, 0] += 1e-2 * np.linalg.norm(case.l_true)
    assert not bench.gate(case, outcome)


def test_non_converged_solve_fails_the_gate(tmp_path):
    runner = bench.Runner(tiny("acc-n1000"), tmp_path)
    outcome = runner.solve(runner.setup(7))
    outcome.converged = False
    assert not bench.gate(runner.setup(7), outcome)


def test_failing_cli_command_fails_the_gate(tmp_path, monkeypatch):
    runner = bench.Runner(tiny("cli-acc-n2000"), tmp_path)
    case = runner.setup(7)
    monkeypatch.setattr(bench, "EPSILON", 1e-300)  # cannot be reached: exit code 2
    outcome = runner.solve(case)
    assert (outcome.exit_code, bench.gate(case, outcome)) == (2, False)
    (case.workdir / "D.bin").unlink()  # unreadable input: exit code 1, no outputs
    outcome = runner.solve(case)
    assert (outcome.exit_code, outcome.converged, bench.gate(case, outcome)) == (1, False, False)


def test_wrappers_are_removed_after_the_traced_pass(tmp_path):
    originals = (rpca.kernel.svd_truncated, rpca.solver.svd_truncated, rpca.solver.FactoredLowRank.matrix)
    bench.run(tiny("acc-n1000"), 3, 0.0, True, tmp_path)
    assert spans.installed_wrappers() == []
    assert (rpca.kernel.svd_truncated, rpca.solver.svd_truncated, rpca.solver.FactoredLowRank.matrix) == originals


def test_wrappers_are_removed_when_a_traced_call_raises():
    tracer = spans.Tracer()
    with pytest.raises(ValueError):
        with spans.traced(tracer):
            assert spans.installed_wrappers()
            rpca.solver.hard_threshold(np.ones((2, 2)), -1.0)
    assert spans.installed_wrappers() == []


def test_kernel_calls_inside_a_kernel_span_fold_into_it_except_validation():
    tracer = spans.Tracer()
    with spans.traced(tracer):
        rpca.solver.svd_truncated(np.eye(4), 2)  # dense path: ensure_matrix, then svd_small
    names = [(s.name, s.parent) for s in tracer.take()[0]]
    assert names == [("kernel.svd_truncated", -1), ("kernel.ensure_matrix", 0), ("kernel.ensure_matrix", 0)]


def test_a_different_seed_changes_the_problem(tmp_path):
    runner = bench.Runner(tiny("acc-n1000"), tmp_path)
    first, again, other = (runner.setup(s) for s in (11, 11, 12))
    assert np.array_equal(first.data, again.data)
    assert not np.array_equal(first.data, other.data)
    seeds = bench.problem_seeds(1, bench.PROBLEMS)
    assert seeds != bench.problem_seeds(2, bench.PROBLEMS)
    assert seeds[-1] not in seeds[:-1]
