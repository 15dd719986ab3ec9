"""Workloads, the correctness gate and the measured loops of the benchmark.

Every run is a closed loop with one client: each solve starts when the
previous one has returned and been checked.  A run draws ``PROBLEMS``
problems from its seed and solves them in turn, then draws one more from a
held-out stream of the same seed, which is solved once and gated like the
others.
"""

from __future__ import annotations

import hashlib
import io
import json
import statistics
import tracemalloc
from contextlib import nullcontext, redirect_stderr
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

# Traced calls go through the module attributes (``solver.accaltproj_solve``),
# which the tracer patches; a name imported here would keep the original.
from rpca import cli, solver, synthetic
from rpca.matio import read_matrix, write_matrix
from rpca.metrics import RECOVERY_TOL, recovery_success

import spans

AMPLITUDE = 1.0
EPSILON = 1e-6
GAMMA = 0.7  # the desk-scale setting of the README and the experiment harness
MU_FACTOR = 1.1  # solvers are given mu = 1.1 * mu_true
PROBLEMS = 2


@dataclass(frozen=True)
class Workload:
    name: str
    solver: str
    n: int
    rank: int
    alpha: float
    via_cli: bool = False


# Each size and rank puts the cost in a different layer; see BENCHMARK.json.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("acc-n1000", "accaltproj", 1000, 5, 0.1),
        Workload("acc-r50-n1200", "accaltproj", 1200, 50, 0.05),
        Workload("cli-acc-n2000", "accaltproj", 2000, 5, 0.3, via_cli=True),
        Workload("altproj-n500", "altproj", 500, 5, 0.1),
    )
}


def problem_seeds(seed, count):
    """``count`` problem seeds drawn from ``seed``, then the held-out problem's seed."""
    measured = np.random.SeedSequence([seed, 0]).generate_state(count)
    held_out = np.random.SeedSequence([seed, 1]).generate_state(1)
    return [int(s) for s in measured] + [int(held_out[0])]


@dataclass
class Case:
    """One generated problem, ready to solve."""

    seed: int
    l_true: np.ndarray
    mu: float
    data: np.ndarray | None = None  # library workloads
    workdir: Path | None = None     # CLI workloads: holds D.bin and the outputs


@dataclass
class Outcome:
    seconds: float
    iterations: int
    converged: bool
    exit_code: int
    l_estimate: np.ndarray | None
    digest: str
    peak_bytes: int | None = None


class Runner:
    """Sets up and solves the problems of one workload."""

    def __init__(self, workload, workdir):
        self.workload = workload
        self.workdir = Path(workdir)

    def solve_fn(self):
        return getattr(solver, f"{self.workload.solver}_solve")

    def params(self, case, **overrides):
        w = self.workload
        return solver.RpcaParams.defaults(
            (w.n, w.n), w.rank, case.mu, gamma=GAMMA, epsilon=EPSILON, **overrides
        )

    def argv(self, case, max_iter=100):
        w = self.workload
        return [
            "solve",
            "--input", str(case.workdir / "D.bin"),
            "--rank", str(w.rank),
            "--mu", repr(case.mu),
            "--gamma", repr(GAMMA),
            "--eps", repr(EPSILON),
            "--max-iter", str(max_iter),
            "--solver", w.solver,
            "--output-dir", str(case.workdir),
        ]

    def setup(self, seed, tracer=None):
        """Generate the problem, write D.bin where needed, warm up.

        The warm-up is a one-iteration solve of the same problem, so that lazy
        library set-up and first-touch costs of every layer on the path are
        paid here and not in the first timed solve.  With a tracer, the
        generation is traced.
        """
        w = self.workload
        spec = synthetic.SyntheticSpec(w.n, w.n, w.rank, w.alpha, AMPLITUDE, seed)
        with spans.traced(tracer) if tracer is not None else nullcontext():
            problem = synthetic.generate(spec)
        case = Case(seed=seed, l_true=problem.low_rank, mu=MU_FACTOR * problem.mu_true)
        if w.via_cli:
            case.workdir = self.workdir / f"problem-{seed}"
            case.workdir.mkdir(parents=True, exist_ok=True)
            write_matrix(problem.data, case.workdir / "D.bin")
            with redirect_stderr(io.StringIO()):  # the expected "did not converge"
                code = cli.main(self.argv(case, max_iter=1))
            if code not in (0, 2):
                raise RuntimeError(f"warm-up solve exited with {code}")
        else:
            case.data = problem.data
            self.solve_fn()(case.data, self.params(case, max_iter=1))
        return case

    def solve(self, case, tracer=None, memory=False):
        """One timed solve, traced if a tracer is given.

        With ``memory``, the tracemalloc peak of the solve above what was live
        at its start is recorded in ``Outcome.peak_bytes``.
        """
        if self.workload.via_cli:
            outputs = [case.workdir / name for name in ("trace.json", "L.bin", "S.bin")]
            for path in outputs:  # so that a failed command cannot leave the last run's files
                path.unlink(missing_ok=True)
            code, seconds, peak = _call(lambda: cli.main(self.argv(case)), tracer, memory)
            if not all(path.is_file() for path in outputs):
                return Outcome(seconds, 0, False, code, None, "", peak)
            trace = json.loads(outputs[0].read_text())
            digest = _digest(outputs[1].read_bytes(), outputs[2].read_bytes())
            l_est = read_matrix(outputs[1]) if code == 0 else None
            return Outcome(seconds, int(trace["iterations"]), bool(trace["converged"]), code, l_est, digest, peak)
        params = self.params(case)
        sol, seconds, peak = _call(lambda: self.solve_fn()(case.data, params), tracer, memory)
        low = sol.low_rank
        digest = _digest(low.U, low.sigma, low.V, sol.sparse)
        return Outcome(seconds, sol.iterations, sol.converged, 0, low.matrix(), digest, peak)


def _call(fn, tracer, memory):
    """(result, seconds, peak bytes or None) of ``fn()``."""
    context = spans.traced(tracer) if tracer is not None else nullcontext()
    if memory:
        tracemalloc.start()
    try:
        with context:
            base = tracemalloc.get_traced_memory()[0]
            t0 = perf_counter()
            result = fn()
            seconds = perf_counter() - t0
            peak = tracemalloc.get_traced_memory()[1] - base if memory else None
    finally:
        if memory:
            tracemalloc.stop()
    return result, seconds, peak


def _digest(*parts):
    h = hashlib.blake2b()
    for part in parts:
        h.update(part if isinstance(part, bytes) else np.ascontiguousarray(part).tobytes())
    return h.hexdigest()


def l_rel_err(case, outcome):
    if outcome.l_estimate is None:
        return float("inf")
    return float(np.linalg.norm(outcome.l_estimate - case.l_true) / np.linalg.norm(case.l_true))


def gate(case, outcome):
    """Whether a solve passed: converged, exit code 0, and L recovered."""
    return (
        outcome.converged
        and outcome.exit_code == 0
        and outcome.l_estimate is not None
        and recovery_success(case.l_true, outcome.l_estimate, RECOVERY_TOL)
    )


class Tally:
    """Gated solves of one run, by problem seed."""

    def __init__(self):
        self.records = []

    def add(self, case, outcome, kind):
        self.records.append(
            {
                "kind": kind,
                "seed": case.seed,
                "seconds": outcome.seconds,
                "iterations": outcome.iterations,
                "converged": outcome.converged,
                "exit_code": outcome.exit_code,
                "l_rel_err": l_rel_err(case, outcome),
                "passed": gate(case, outcome),
            }
        )

    def count(self, kinds=None):
        chosen = [r for r in self.records if kinds is None or r["kind"] in kinds]
        return len(chosen), sum(not r["passed"] for r in chosen)


def _round_robin(cases, seconds, step):
    """Call ``step`` on the cases in turn: every case once, then until ``seconds`` pass."""
    start = perf_counter()
    i = 0
    while i < len(cases) or perf_counter() - start < seconds:
        step(cases[i % len(cases)])
        i += 1


def run(workload, seed, seconds, trace, workdir):
    """Run one workload; return (metrics, attempted, failed, correct, details)."""
    runner = Runner(workload, workdir)
    seeds = problem_seeds(seed, PROBLEMS)
    tracer = spans.Tracer() if trace else None
    tally = Tally()
    setup_seconds, cases, generate_spans = [], [], []

    def timed_setup(s):
        t0 = perf_counter()
        case = runner.setup(s, tracer)
        setup_seconds.append(perf_counter() - t0)
        if tracer is not None:
            generate_spans.append(tracer.take()[0])
        return case

    for s in seeds[:-1]:
        cases.append(timed_setup(s))

    details = {"problem_seeds": seeds[:-1], "held_out_problem_seed": seeds[-1]}
    if trace:
        metrics, correct = _traced_loop(runner, cases, seconds, tracer, tally, details)
        generate_self = [spans.self_times(g)["synthetic.generate"] for g in generate_spans]
        metrics["synthetic.generate.s"] = statistics.fmean(generate_self)
    else:
        metrics, correct = _plain_loop(runner, cases, seconds, tally, details), True

    # The held-out solve is untimed, so it also gives the peak memory.
    held_out = timed_setup(seeds[-1])
    outcome = runner.solve(held_out, memory=not trace)
    tally.add(held_out, outcome, "held_out")
    attempted, failed = tally.count()
    if not trace:
        metrics["peak_mem_buffers"] = outcome.peak_bytes / (8.0 * workload.n * workload.n)
        metrics["recovered_frac"] = (attempted - failed) / attempted
        metrics["setup_s"] = statistics.median(setup_seconds)
    for label, kinds in (("default_seed", ("measured", "traced_pair")), ("held_out_seed", ("held_out",))):
        n, bad = tally.count(kinds)
        details[label] = {"attempted": n, "failed": bad, "failed_frac": bad / n if n else None}
    details["setup_s_samples"] = setup_seconds
    details["solves"] = tally.records
    wrappers_left = spans.installed_wrappers()
    details["wrappers_left_installed"] = wrappers_left
    correct = correct and failed == 0 and not wrappers_left
    return metrics, attempted, failed, correct, details


def _plain_loop(runner, cases, seconds, tally, details):
    times, iterations = [], []

    def step(case):
        outcome = runner.solve(case)
        tally.add(case, outcome, "measured")
        times.append(outcome.seconds)
        iterations.append(outcome.iterations)

    _round_robin(cases, seconds, step)
    details["solve_s_samples"] = times
    return {"solve_s": statistics.median(times), "iterations": statistics.median(iterations)}


LAYER_SECONDS = (
    "solver.initialize",
    "kernel.svd_truncated",
    "solver.structured_truncate",
    "kernel.thin_qr",
    "kernel.svd_small",
    "solver.trim",
    "solver.hard_threshold",
    "solver.lowrank_matrix",
    "solver.other",
    "kernel.ensure_matrix",
    "matio.read_matrix",
    "matio.write_matrix",
    "cli.other",
)
LAYER_CALLS = (
    "kernel.svd_truncated",
    "solver.structured_truncate",
    "kernel.thin_qr",
    "kernel.svd_small",
    "solver.hard_threshold",
    "kernel.ensure_matrix",
)


def _traced_loop(runner, cases, seconds, tracer, tally, details):
    """Alternate untraced and traced solves of each case; compare their outputs.

    Per-layer values are means over the traced solves, so that the self times
    add up to the mean traced solve time.
    """
    per_solve, plain_seconds, traced_seconds = [], [], []
    mismatches, unbalanced = [], []
    details["spans"] = []  # per traced solve: (name, parent index, start offset, seconds)

    def step(case):
        plain = runner.solve(case)
        tally.add(case, plain, "traced_pair")
        traced = runner.solve(case, tracer)
        tally.add(case, traced, "traced_pair")
        recorded, counts = tracer.take()
        t0 = recorded[0].start
        details["spans"].append([(sp.name, sp.parent, sp.start - t0, sp.seconds) for sp in recorded])
        if traced.digest != plain.digest:
            mismatches.append(case.seed)
        root = spans.root_seconds(recorded)
        selfs = spans.self_times(recorded)
        if abs(sum(selfs.values()) - root) > 1e-9 * max(root, 1.0):
            unbalanced.append(case.seed)
        calls = spans.call_counts(recorded)
        row = {f"{name}.s": selfs.get(name, 0.0) for name in LAYER_SECONDS}
        row.update({f"{name}.calls": float(calls.get(name, 0)) for name in LAYER_CALLS})
        row["solver.trim.fired"] = float(counts.get("solver.trim.fired", 0))
        row["matio.bytes"] = float(counts.get("matio.bytes", 0))
        row["trace.solve_s"] = root
        per_solve.append(row)
        plain_seconds.append(plain.seconds)
        traced_seconds.append(root)
        details.setdefault("l_rel_err_traced", []).append(l_rel_err(case, traced))

    _round_robin(cases, seconds, step)
    metrics = {name: statistics.fmean(row[name] for row in per_solve) for name in per_solve[0]}
    metrics["trace.overhead_s"] = statistics.fmean(traced_seconds) - statistics.fmean(plain_seconds)
    metrics["metrics.l_rel_err"] = statistics.median(details["l_rel_err_traced"])
    details["traced_not_bit_identical"] = mismatches
    details["self_times_not_summing_to_solve"] = unbalanced
    details["traced_solves"] = per_solve
    return metrics, not mismatches and not unbalanced
