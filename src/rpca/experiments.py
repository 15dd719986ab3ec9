"""Experiment harnesses: phase-transition grids and runtime benchmarks.

Trial seeds are derived deterministically from a master seed, so a report is
reproducible from its configuration alone.  Trials run sequentially in a
fixed (cell, trial, solver) order.
"""

from __future__ import annotations

import itertools
from dataclasses import asdict, dataclass, field, replace
from time import perf_counter

import numpy as np

from .metrics import recovery_success
from .solver import (
    RpcaParams,
    _svd_l_update,
    _tangent_l_update,
    accaltproj_solve,
    altproj_solve,
    initialize,
)
from .synthetic import SyntheticSpec, generate

__all__ = [
    "SOLVER_IDS",
    "ExperimentReport",
    "PhaseConfig",
    "TrialRecord",
    "benchmark_l_updates",
    "paper_phase_config",
    "run_phase_experiment",
    "run_runtime_experiment",
    "trial_seed",
]

SOLVER_IDS = ("accaltproj_trim", "accaltproj_notrim", "altproj")

# Per-iteration timing summaries skip the initialization row and the first
# loop iteration (warm-up); wall clocks are monotonic (perf_counter).
_TIMING_SKIP = 2

# Problems and stopping rule of the runtime harnesses (run_runtime_experiment
# and benchmark_l_updates); run_runtime_experiment times every solver with
# gamma following the declared alpha.
_RUNTIME_ALPHA = 0.1
_RUNTIME_AMPLITUDE = 1.0
_RUNTIME_TOL = 1e-4
_RUNTIME_MAX_ITER = 100
_RUNTIME_GAMMA = None
_RUNTIME_SOLVERS = SOLVER_IDS


def trial_seed(master_seed, cell_index, trial_index):
    """Stable 64-bit seed for one trial, derived from the master seed."""
    words = np.random.SeedSequence([master_seed, cell_index, trial_index]).generate_state(2)
    return (int(words[0]) << 32) | int(words[1])


def _run_solver(solver_id, data, params):
    if solver_id == "accaltproj_trim":
        return accaltproj_solve(data, replace(params, trim_enabled=True))
    if solver_id == "accaltproj_notrim":
        return accaltproj_solve(data, replace(params, trim_enabled=False))
    if solver_id == "altproj":
        return altproj_solve(data, params)
    raise ValueError(f"unknown solver id {solver_id!r}")


@dataclass(frozen=True)
class TrialRecord:
    """One (problem, solver) run of an experiment."""

    solver: str
    seed: int
    m: int
    n: int
    rank: int
    alpha: float
    amplitude: float
    iterations: int
    final_err: float
    converged: bool
    success: bool
    wall_seconds: float
    mean_iter_seconds: float | None
    mean_l_update_seconds: float | None
    err_history: list[float]
    zeta_history: list[float]

    def as_dict(self):
        return asdict(self)


@dataclass
class ExperimentReport:
    """Per-trial records plus derived summaries, ready for serialization."""

    kind: str
    config: dict
    records: list[TrialRecord] = field(default_factory=list)

    def success_counts(self):
        """{(alpha, amplitude, solver): (successes, trials)} over the records."""
        counts = {}
        for rec in self.records:
            key = (rec.alpha, rec.amplitude, rec.solver)
            won, total = counts.get(key, (0, 0))
            counts[key] = (won + int(rec.success), total + 1)
        return counts

    def monotone_in_alpha(self):
        """Whether success counts are non-increasing in alpha, per (solver, amplitude).

        An observation about this report's own data, not an asserted law.
        """
        counts = self.success_counts()
        out = {}
        for alpha, amplitude, solver in counts:
            out.setdefault((solver, amplitude), []).append(alpha)
        summary = {}
        for (solver, amplitude), alphas in out.items():
            wins = [counts[(a, amplitude, solver)][0] for a in sorted(alphas)]
            summary[(solver, amplitude)] = all(b <= a for a, b in zip(wins, wins[1:]))
        return summary

    def as_dict(self):
        counts = self.success_counts()
        return {
            "schema_version": 1,
            "kind": self.kind,
            "config": self.config,
            "records": [rec.as_dict() for rec in self.records],
            "success_counts": [
                {
                    "alpha": alpha,
                    "amplitude": amplitude,
                    "solver": solver,
                    "successes": won,
                    "trials": total,
                }
                for (alpha, amplitude, solver), (won, total) in sorted(counts.items())
            ],
            "monotone_in_alpha": [
                {"solver": solver, "amplitude": amplitude, "monotone": flag}
                for (solver, amplitude), flag in sorted(self.monotone_in_alpha().items())
            ],
        }


@dataclass(frozen=True)
class PhaseConfig:
    """Grid specification for a phase-transition experiment.

    ``gamma`` overrides the threshold decay rate for every cell; leave it
    None to follow the declared-alpha policy of :meth:`RpcaParams.defaults`,
    which matches the published full-scale protocol.  Desk-scale grids
    (n of a few hundred) need the slower gamma = 0.7: the error of the
    low-rank update contracts more slowly on small problems, and a faster
    threshold decay undercuts it, letting spurious entries into the sparse
    part.
    """

    alphas: tuple
    amplitudes: tuple
    trials: int
    n: int
    m: int | None = None
    rank: int = 5
    master_seed: int = 0
    tol: float = 1e-6
    max_iter: int = 100
    gamma: float | None = None
    solvers: tuple = SOLVER_IDS

    def __post_init__(self):
        if not self.alphas or not self.amplitudes:
            raise ValueError("phase grid must contain at least one alpha and one amplitude")
        if self.trials < 1:
            raise ValueError(f"trials must be >= 1, got {self.trials}")
        if not self.solvers:
            raise ValueError("at least one solver is required")
        unknown = set(self.solvers) - set(SOLVER_IDS)
        if unknown:
            raise ValueError(f"unknown solver ids: {sorted(unknown)}")

    @property
    def rows(self):
        return self.m if self.m is not None else self.n

    def as_dict(self):
        d = asdict(self)
        d["alphas"] = list(self.alphas)
        d["amplitudes"] = list(self.amplitudes)
        d["solvers"] = list(self.solvers)
        return d


def paper_phase_config(master_seed=0):
    """The published full-scale grid: n = 2500, alpha from 0.3 to 0.75.

    Hours of compute; desk-scale runs should shrink n and the grid instead.
    """
    return PhaseConfig(
        alphas=tuple(round(0.3 + 0.05 * i, 2) for i in range(10)),
        amplitudes=(0.2, 1.0, 5.0),
        trials=10,
        n=2500,
        rank=5,
        master_seed=master_seed,
    )


def _timing_means(trace):
    iters = [rec.iter_seconds for rec in trace.records[_TIMING_SKIP:]]
    l_updates = [rec.l_update_seconds for rec in trace.records[_TIMING_SKIP:]]
    if not iters:
        return None, None
    return float(np.mean(iters)), float(np.mean(l_updates))


def _record_trial(solver_id, problem, solution, wall_seconds):
    mean_iter, mean_l = _timing_means(solution.trace)
    return TrialRecord(
        solver=solver_id,
        seed=problem.spec.seed,
        m=problem.spec.m,
        n=problem.spec.n,
        rank=problem.spec.rank,
        alpha=problem.spec.alpha,
        amplitude=problem.spec.amplitude,
        iterations=solution.iterations,
        final_err=solution.final_err,
        converged=solution.converged,
        success=recovery_success(problem.low_rank, solution.low_rank),
        wall_seconds=float(wall_seconds),
        mean_iter_seconds=mean_iter,
        mean_l_update_seconds=mean_l,
        err_history=[rec.err for rec in solution.trace.records],
        zeta_history=[rec.zeta for rec in solution.trace.records],
    )


def _problem_and_params(spec, gamma=None, **overrides):
    """Seeded problem for ``spec`` and its solver parameters.

    The solvers receive 1.1x the measured ground-truth incoherence (at least
    1); gamma follows the declared alpha unless ``gamma`` overrides it.
    """
    problem = generate(spec)
    if gamma is not None:
        overrides["gamma"] = gamma
    params = RpcaParams.defaults(
        problem.data.shape,
        spec.rank,
        mu=max(1.0, 1.1 * problem.mu_true),
        alpha=spec.alpha,
        **overrides,
    )
    return problem, params


def _run_trials(report, specs, solvers, gamma, tol, max_iter):
    """Solve the problem of each spec with every solver id, one record per run.

    ``specs`` is a list that the caller builds in full, so that a bad cell
    fails before the first solve.
    """
    for spec in specs:
        problem, params = _problem_and_params(spec, gamma, epsilon=tol, max_iter=max_iter)
        for solver_id in solvers:
            t0 = perf_counter()
            solution = _run_solver(solver_id, problem.data, params)
            report.records.append(
                _record_trial(solver_id, problem, solution, perf_counter() - t0)
            )


def run_phase_experiment(config):
    """Run all solver variants over the (alpha, amplitude) grid of ``config``.

    Each trial generates a fresh seeded problem; the solvers receive 1.1x the
    measured ground-truth incoherence, and gamma follows the declared alpha.
    """
    report = ExperimentReport(kind="phase", config=config.as_dict())
    cells = list(itertools.product(config.alphas, config.amplitudes))
    specs = [
        SyntheticSpec(
            config.rows,
            config.n,
            config.rank,
            alpha,
            amplitude,
            trial_seed(config.master_seed, cell_index, trial),
        )
        for cell_index, (alpha, amplitude) in enumerate(cells)
        for trial in range(config.trials)
    ]
    _run_trials(report, specs, config.solvers, config.gamma, config.tol, config.max_iter)
    return report


def run_runtime_experiment(sizes, rank=5, master_seed=0):
    """Wall-time comparison across problem sizes (square, one trial per size).

    The corrupted fraction, the amplitude, the stopping rule, gamma and the
    solvers are fixed (the report's ``config`` block records them);
    per-iteration L-update timings are kept in each record so the
    per-iteration advantage of the accelerated update is measurable
    separately from totals.
    """
    sizes = list(sizes)
    if not sizes:
        raise ValueError("at least one size is required")
    config = {
        "sizes": sizes,
        "rank": rank,
        "alpha": _RUNTIME_ALPHA,
        "amplitude": _RUNTIME_AMPLITUDE,
        "master_seed": master_seed,
        "tol": _RUNTIME_TOL,
        "max_iter": _RUNTIME_MAX_ITER,
        "gamma": _RUNTIME_GAMMA,
        "solvers": list(_RUNTIME_SOLVERS),
    }
    report = ExperimentReport(kind="runtime", config=config)
    specs = [
        SyntheticSpec(n, n, rank, _RUNTIME_ALPHA, _RUNTIME_AMPLITUDE, trial_seed(master_seed, index, 0))
        for index, n in enumerate(sizes)
    ]
    _run_trials(report, specs, _RUNTIME_SOLVERS, _RUNTIME_GAMMA, _RUNTIME_TOL, _RUNTIME_MAX_ITER)
    return report


def benchmark_l_updates(n, rank, iters=20, seed=0):
    """Mean wall seconds of a single L-update, accelerated vs baseline.

    Both of the solvers' L-updates run, as the solvers call them, on the
    same D and S_0 of a seeded synthetic problem (the runtime harness's
    corrupted fraction and amplitude): the accelerated one is trim, one
    row-tiled pass over D - S_0 and the factored tangent-space truncation,
    the baseline forms D - S_0 and takes its certified truncated SVD
    (:func:`rpca.kernel.svd_truncated`).  One untimed warm-up call precedes
    each series.
    """
    spec = SyntheticSpec(n, n, rank, _RUNTIME_ALPHA, _RUNTIME_AMPLITUDE, seed)
    problem, params = _problem_and_params(spec)
    state, _ = initialize(problem.data, params)
    out = {"n": n, "rank": rank, "iters": iters, "seed": seed}
    for name, l_update in (("accelerated", _tangent_l_update), ("baseline", _svd_l_update)):
        l_update(state.low_rank, problem.data, state.sparse, params)  # warm-up
        seconds = []
        for _ in range(iters):
            t0 = perf_counter()
            l_update(state.low_rank, problem.data, state.sparse, params)
            seconds.append(perf_counter() - t0)
        out[f"{name}_mean_seconds"] = float(np.mean(seconds))
        # medians are robust to scheduler/GC spikes on millisecond timings
        out[f"{name}_median_seconds"] = float(np.median(seconds))
    return out
