"""The experiment protocol and its harnesses: phase grids, runtime benchmarks.

Trial seeds are derived deterministically from a master seed, so a report is
reproducible from its configuration alone.  Trials run sequentially in a
fixed (cell, trial, solver) order.
"""

from __future__ import annotations

import itertools
from dataclasses import asdict, dataclass, field
from time import perf_counter

import numpy as np

from .kernel import ensure_fields
from .metrics import recovery_success
from .solver import RpcaParams, _Gather, _solve, _Stored, _Untrimmed
from .synthetic import SyntheticSpec, generate

__all__ = [
    "PAPER_RUNTIME_SIZES",
    "SOLVER_IDS",
    "ExperimentReport",
    "PhaseConfig",
    "TrialRecord",
    "paper_phase_config",
    "run_phase_experiment",
    "run_runtime_experiment",
    "trial_seed",
]

# Solver id -> its L-update class, which is the solver.
_SOLVERS = {"accaltproj": _Gather, "accaltproj_notrim": _Untrimmed, "altproj": _Stored}
SOLVER_IDS = tuple(_SOLVERS)

# Per-iteration timing summaries skip the initialization row and the first
# loop iteration (warm-up), and leave out the skipped idle steps, which did
# no work and log zero seconds; wall clocks are monotonic (perf_counter).
_TIMING_SKIP = 2

# Problems and stopping rule of the runtime harness: run_runtime_experiment
# (its report's ``config`` block records them) times every solver with gamma
# following the declared alpha.
_RUNTIME = {
    "alpha": 0.1,
    "amplitude": 1.0,
    "tol": 1e-4,
    "max_iter": 100,
    "gamma": None,
    "solvers": SOLVER_IDS,
}


def trial_seed(master_seed, cell_index, trial_index):
    """Stable 64-bit seed for one trial, derived from the master seed (>= 0)."""
    if master_seed < 0:
        raise ValueError(f"master_seed must be >= 0, got {master_seed}")
    words = np.random.SeedSequence([master_seed, cell_index, trial_index]).generate_state(2)
    return (int(words[0]) << 32) | int(words[1])


@dataclass(frozen=True)
class TrialRecord:
    """One (problem, solver) run of an experiment."""

    alpha: float
    amplitude: float
    solver: str
    seed: int
    m: int
    n: int
    rank: int
    iterations: int
    final_err: float
    converged: bool
    success: bool
    wall_seconds: float
    init_seconds: float  # the k = 0 trace row's time: initialization's share of wall_seconds
    mean_iter_seconds: float | None
    mean_l_update_seconds: float | None
    err_history: list[float]
    zeta_history: list[float]


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
        wins = {}  # (solver, amplitude) -> successes in ascending alpha
        for (_, amplitude, solver), (won, _) in sorted(self.success_counts().items()):
            wins.setdefault((solver, amplitude), []).append(won)
        return {key: all(b <= a for a, b in zip(w, w[1:])) for key, w in wins.items()}

    def as_dict(self):
        counts = self.success_counts()
        return {
            "schema_version": 2,
            "kind": self.kind,
            "seed": self.config["master_seed"],
            "config": self.config,
            "records": [asdict(rec) for rec in self.records],
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
    None to follow the declared-alpha rule of :func:`_problem_and_params`,
    which matches the published full-scale protocol.  Desk-scale grids
    (n of a few hundred) need the slower gamma = 0.7: the error of the
    low-rank update contracts more slowly on small problems, and a faster
    threshold decay undercuts it, letting spurious entries into the sparse
    part.  ``alphas``, ``amplitudes`` and ``solvers`` (ids from
    :data:`SOLVER_IDS`) hold distinct values: a repeat would run twice.
    """

    alphas: tuple[float, ...]
    amplitudes: tuple[float, ...]
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
        ensure_fields(self)
        if not self.alphas or not self.amplitudes:
            raise ValueError("phase grid must contain at least one alpha and one amplitude")
        if self.trials < 1:
            raise ValueError(f"trials must be >= 1, got {self.trials}")
        if not self.solvers:
            raise ValueError("at least one solver is required")
        unknown = [s for s in self.solvers if not isinstance(s, str) or s not in _SOLVERS]
        if unknown:
            raise ValueError(f"unknown solver ids in solvers: {unknown}")
        for name in ("alphas", "amplitudes", "solvers"):
            values = getattr(self, name)
            if len(set(values)) < len(values):
                raise ValueError(f"{name} must not repeat a value, got {list(values)}")

    @property
    def rows(self):
        return self.m if self.m is not None else self.n


def paper_phase_config():
    """The published full-scale grid: n = 2500, alpha from 0.3 to 0.75.

    Its master seed is 0; ``dataclasses.replace`` sets another, as
    ``rpca phase --paper --seed`` does.  Hours of compute; desk-scale runs
    should shrink n and the grid instead.
    """
    return PhaseConfig(
        alphas=tuple(round(0.3 + 0.05 * i, 2) for i in range(10)),
        amplitudes=(0.2, 1.0, 5.0),
        trials=10,
        n=2500,
        rank=5,
    )


PAPER_RUNTIME_SIZES = (1000, 2500, 5000, 10000, 15000)  # the published runtime sizes


def _timing_means(trace):
    executed = [rec for rec in trace[_TIMING_SKIP:] if not rec.skipped]
    if not executed:
        return None, None
    iters = [rec.iter_seconds for rec in executed]
    l_updates = [rec.l_update_seconds for rec in executed]
    return float(np.mean(iters)), float(np.mean(l_updates))


def _run_trial(solver_id, spec, d, l_true, params):
    """The record of one solve of ``d``, a generated D that is not checked
    again; it reads L, the trace and ``converged`` only, so no S is built."""
    t0 = perf_counter()
    low, trace, converged = _solve(d, params, _SOLVERS[solver_id])
    wall_seconds = perf_counter() - t0
    mean_iter, mean_l = _timing_means(trace)
    return TrialRecord(
        solver=solver_id,
        **asdict(spec),
        iterations=trace[-1].k,
        final_err=trace[-1].err,
        converged=converged,
        success=recovery_success(l_true, low),
        wall_seconds=wall_seconds,
        init_seconds=trace[0].iter_seconds,
        mean_iter_seconds=mean_iter,
        mean_l_update_seconds=mean_l,
        err_history=[rec.err for rec in trace],
        zeta_history=[rec.zeta for rec in trace],
    )


def _problem_and_params(spec, gamma=None, **overrides):
    """Seeded problem for ``spec`` and its solver parameters.

    The solvers receive 1.1x the measured ground-truth incoherence, which
    :func:`~rpca.metrics.factor_incoherence` floors at 1; gamma is 0.65 if the
    declared alpha is at least 0.55, else the field default 0.5, unless
    ``gamma`` overrides it.
    """
    problem = generate(spec)
    if gamma is None:
        gamma = 0.65 if spec.alpha >= 0.55 else RpcaParams.gamma
    params = RpcaParams.defaults(
        problem.data.shape,
        spec.rank,
        mu=1.1 * problem.mu_true,
        gamma=gamma,
        **overrides,
    )
    return problem, params


def _run_trials(report, specs):
    """``report`` with a record of each spec's problem solved by each solver.

    ``report.config`` gives the solvers, gamma, tol and max_iter, so the config
    a report writes is the protocol its trials ran.  The caller builds ``specs``
    in full, so that a bad cell fails before the first solve.  A solve runs
    beside D and the dense L of its problem only: not its S, nor an earlier solution.
    """
    config = report.config
    protocol = dict(gamma=config["gamma"], epsilon=config["tol"], max_iter=config["max_iter"])
    for spec in specs:
        problem, params = _problem_and_params(spec, **protocol)
        d, l_true = problem.data, problem.low_rank
        del problem
        for solver_id in config["solvers"]:
            report.records.append(_run_trial(solver_id, spec, d, l_true, params))
    return report


def run_phase_experiment(config):
    """Run all solver variants over the (alpha, amplitude) grid of ``config``.

    Each trial solves a fresh seeded problem of :func:`_problem_and_params`;
    ``config.gamma``, unless None, overrides that builder's declared-alpha rule.
    """
    report = ExperimentReport(kind="phase", config=asdict(config))
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
    return _run_trials(report, specs)


def run_runtime_experiment(sizes, rank=5, master_seed=0):
    """Wall-time comparison across problem sizes (square, one trial per size).

    The corrupted fraction, the amplitude, the stopping rule, gamma and the
    solvers are fixed (the report's ``config`` block records them).  Each
    record's ``mean_l_update_seconds``, the library's one per-update
    measurement, averages the solve's own ``l_update_seconds``, the whole
    update, over the computed loop rows past the warm-up, so the advantage
    of the accelerated update shows apart from totals.  The trials stop at the
    paper's ``tol`` = 1e-4, which equals ``RECOVERY_TOL``, so ``success``
    depends on where the last iteration lands: at ``[48]``, rank 2, AltProj
    stops at err 9.38e-5 and fails, and both AccAltProj variants at 7.17e-5
    and succeed.
    """
    sizes = list(sizes)
    if not sizes:
        raise ValueError("at least one size is required")
    config = {"sizes": sizes, "rank": rank, "master_seed": master_seed, **_RUNTIME}
    config["solvers"] = list(_RUNTIME["solvers"])  # a list, as timings.json holds it
    report = ExperimentReport(kind="runtime", config=config)
    specs = [
        SyntheticSpec(
            n, n, rank, _RUNTIME["alpha"], _RUNTIME["amplitude"], trial_seed(master_seed, index, 0)
        )
        for index, n in enumerate(sizes)
    ]
    return _run_trials(report, specs)
