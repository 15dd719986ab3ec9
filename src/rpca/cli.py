"""Command-line interface: solve, synth, phase, and bench subcommands.

Exit codes: 0 on success (solve: converged), 1 on usage or configuration
errors (message on stderr), 2 when solve stops at the iteration cap without
reaching the tolerance.  JSON outputs carry a ``schema_version`` (4 for
``trace.json``, 2 for ``report.json`` and ``timings.json``, 1 for
``metadata.json``), the solver id, the full parameter set, the seed, and
per-iteration error and threshold arrays, so any number can be re-derived.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import MISSING, asdict, fields, replace
from pathlib import Path
from time import perf_counter

import numpy as np

from .experiments import (
    _SOLVERS,
    PAPER_RUNTIME_SIZES,
    SOLVER_IDS,
    PhaseConfig,
    TrialRecord,
    paper_phase_config,
    run_phase_experiment,
    run_runtime_experiment,
)
from .kernel import SKETCH_SEED
from .matio import FORMATS, _write_rows, read_matrix, write_matrix
from .metrics import incoherence_of
from .solver import IterationRecord, RpcaParams, _checked_norm, _solve, _sparse_tiles
from .synthetic import RNG_ID, SyntheticSpec, generate

__all__ = ["CliError", "build_parser", "main", "run"]


# Grid-file key -> PhaseConfig field, whose annotation is the value's type
# rule: the field's own name but for two.  The keys of the fields without a
# default are required; the others take the PhaseConfig defaults.
_GRID_KEYS = {
    {"amplitudes": "cs", "master_seed": "seed"}.get(f.name, f.name): f.name
    for f in fields(PhaseConfig)
}
_REQUIRED_GRID_KEYS = {key for key, f in zip(_GRID_KEYS, fields(PhaseConfig)) if f.default is MISSING}


class CliError(Exception):
    """Usage or configuration problem; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise CliError(message)


def _write_json(path, payload):
    with open(path, "w", encoding="ascii") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")


def _output_dir(args):
    out = Path(args.output_dir or ".")
    out.mkdir(parents=True, exist_ok=True)
    return out


def _cmd_solve(args):
    """Solve the input file and write L, S and trace.json.

    The solve returns L as factors and its trace, whose last zeta gives
    S = H_zeta(D - L).  S goes to its file tile by tile from D; then D is
    dropped, and only then is the dense L formed for its file.
    """
    d = read_matrix(args.input)
    m, n = d.shape
    # the directory is made once the solve has returned, so that a rejected
    # run leaves nothing behind
    out_dir = Path(args.output_dir or Path(args.input).parent)
    # L and S take the input's format; read_matrix has rejected every other suffix
    outputs = [out_dir / f"{key}{Path(args.input).suffix.lower()}" for key in ("L", "S")]
    for path in outputs:
        if path.exists() and path.samefile(args.input):
            raise CliError(f"{path} is the input file; choose another --output-dir")
    if args.mu is None:
        _checked_norm(d)  # before mu is measured on D; the solve checks it again
        mu = incoherence_of(d, args.rank)
        print(
            f"warning: --mu not given; using {mu:.6g}, measured on the rank-{args.rank} "
            "truncation of the input",
            file=sys.stderr,
        )
    else:
        mu = args.mu
    # every RpcaParams field but rank and mu has a flag of its name; unset ones take the defaults
    flags = {f.name: getattr(args, f.name) for f in fields(RpcaParams) if f.name not in ("rank", "mu")}
    overrides = {name: value for name, value in flags.items() if value is not None}
    params = RpcaParams.defaults((m, n), args.rank, mu, **overrides)

    t0 = perf_counter()
    low, trace, converged = _solve(d, params, _SOLVERS[args.solver])
    total_seconds = perf_counter() - t0
    last = trace[-1]

    out_dir.mkdir(parents=True, exist_ok=True)
    _write_rows(_sparse_tiles(d, low, last.zeta), (m, n), outputs[1])
    del d  # so that D is freed before the dense L is formed for writing
    write_matrix(low.matrix(), outputs[0])
    _write_json(
        out_dir / "trace.json",
        {
            "schema_version": 4,
            "kind": "solve",
            "solver": args.solver,
            "seed": SKETCH_SEED,  # the kernel's only seed; solve is otherwise deterministic
            "params": asdict(params),
            "input": {"path": str(args.input), "rows": m, "cols": n},
            "converged": converged,
            "iterations": last.k,
            "final_err": last.err,
            "trace": {
                f.name: [np.asarray(getattr(rec, f.name)).tolist() for rec in trace]
                for f in fields(IterationRecord)
            },
            "total_seconds": total_seconds,
        },
    )
    if not converged:
        print(
            f"did not converge within {params.max_iter} iterations "
            f"(final err {last.err:.3e})",
            file=sys.stderr,
        )
        return 2
    return 0


def _cmd_synth(args):
    spec = SyntheticSpec(
        m=args.m if args.m is not None else args.n,
        n=args.n,
        rank=args.rank,
        alpha=args.alpha,
        amplitude=args.c,
        seed=args.seed,
    )
    problem = generate(spec)
    out_dir = _output_dir(args)
    names = {key: f"{key}.{args.format}" for key in ("D", "L", "S")}
    write_matrix(problem.data, out_dir / names["D"])
    write_matrix(problem.low_rank, out_dir / names["L"])
    write_matrix(problem.sparse, out_dir / names["S"])
    _write_json(
        out_dir / "metadata.json",
        {
            "schema_version": 1,
            "kind": "synth",
            "seed": spec.seed,
            "rng": RNG_ID,
            "spec": asdict(spec),
            "support_size": int(problem.support.size),
            "mu_true": problem.mu_true,
            "kappa_true": problem.kappa_true,
            "files": {"data": names["D"], "low_rank": names["L"], "sparse": names["S"]},
        },
    )
    return 0


def _load_phase_config(path):
    try:
        raw = json.loads(Path(path).read_text())
    except OSError as exc:
        raise CliError(f"cannot read grid file: {exc}") from None
    except json.JSONDecodeError as exc:
        raise CliError(f"{path}: invalid JSON ({exc})") from None
    if not isinstance(raw, dict):
        raise CliError(f"{path}: grid file must hold a JSON object")
    unknown = sorted(set(raw) - set(_GRID_KEYS))
    if unknown:
        raise CliError(f"{path}: unknown keys {unknown}")
    missing = sorted(_REQUIRED_GRID_KEYS - set(raw))
    if missing:
        raise CliError(f"{path}: missing keys {missing}")
    try:
        return PhaseConfig(**{field: raw[key] for key, field in _GRID_KEYS.items() if key in raw})
    except ValueError as exc:
        raise CliError(f"{path}: {exc}") from None


def _write_report_csv(path, report):
    """One row per record, one column per non-list TrialRecord field, in field order."""
    columns = [f.name for f in fields(TrialRecord) if not f.type.startswith("list")]
    with open(path, "w", encoding="ascii", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        for rec in report.records:
            writer.writerow([getattr(rec, column) for column in columns])


def _cmd_phase(args):
    config = paper_phase_config() if args.paper else _load_phase_config(args.grid)
    if args.seed is not None:
        config = replace(config, master_seed=args.seed)  # validated again by PhaseConfig
    report = run_phase_experiment(config)
    out_dir = _output_dir(args)
    _write_json(out_dir / "report.json", report.as_dict())
    _write_report_csv(out_dir / "report.csv", report)
    return 0


def _parse_sizes(text):
    try:
        return [int(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise CliError(f"--sizes must be comma-separated integers, got {text!r}") from None


def _cmd_bench(args):
    sizes = list(PAPER_RUNTIME_SIZES) if args.paper else _parse_sizes(args.sizes)
    report = run_runtime_experiment(sizes, rank=args.rank, master_seed=args.seed)
    out_dir = _output_dir(args)
    _write_json(out_dir / "timings.json", report.as_dict())
    return 0


def build_parser():
    parser = _Parser(prog="rpca", description="Low-rank + sparse matrix decomposition toolkit")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    solve = sub.add_parser("solve", help="decompose a matrix file into L and S")
    solve.add_argument("--input", required=True, help="matrix file (.bin or .csv)")
    solve.add_argument("--rank", required=True, type=int, help="target rank of L")
    solve.add_argument("--mu", type=float, help="incoherence level (measured on the input if omitted)")
    solve.add_argument("--beta", type=float, help="threshold scale (default 1.1*mu*r/(2*sqrt(mn)))")
    solve.add_argument("--beta-init", type=float, help="initial threshold scale (default 1.1*mu*r/sqrt(mn))")
    solve.add_argument("--gamma", type=float, help=f"threshold decay rate (default {RpcaParams.gamma})")
    eps_help = f"relative-residual stopping tolerance (default {RpcaParams.epsilon:g})"
    solve.add_argument("--eps", dest="epsilon", metavar="EPS", type=float, help=eps_help)
    solve.add_argument("--max-iter", type=int, help=f"iteration cap (default {RpcaParams.max_iter})")
    solve.add_argument("--solver", choices=SOLVER_IDS, default="accaltproj")
    solve.add_argument("--output-dir", help="where to write L, S and trace.json (default: input directory)")
    solve.set_defaults(func=_cmd_solve)

    synth = sub.add_parser("synth", help="generate a seeded synthetic problem")
    synth.add_argument("--n", required=True, type=int, help="columns")
    synth.add_argument("--m", type=int, help="rows (default: n)")
    synth.add_argument("--rank", required=True, type=int)
    synth.add_argument("--alpha", required=True, type=float, help="corrupted fraction in [0, 1)")
    synth.add_argument("--c", required=True, type=float, help="corruption amplitude factor")
    synth.add_argument("--seed", required=True, type=int)
    synth.add_argument("--format", choices=FORMATS, default="bin")
    synth.add_argument("--output-dir", help="default: current directory")
    synth.set_defaults(func=_cmd_synth)

    phase = sub.add_parser("phase", help="success-rate grid over (alpha, c)")
    source = phase.add_mutually_exclusive_group(required=True)
    source.add_argument("--grid", help="JSON grid file")
    source.add_argument("--paper", action="store_true", help="run the full-scale published grid (slow)")
    phase.add_argument("--seed", type=int, help="master seed (default: the grid's, or 0 for --paper)")
    phase.add_argument("--output-dir", help="default: current directory")
    phase.set_defaults(func=_cmd_phase)

    bench = sub.add_parser("bench", help="runtime comparison across sizes")
    sizes = bench.add_mutually_exclusive_group()
    sizes.add_argument("--sizes", default="200,500,1000", help="comma-separated sizes")
    sizes.add_argument("--paper", action="store_true", help="published sizes up to 15000 (slow)")
    bench.add_argument("--rank", type=int, default=5)
    bench.add_argument("--seed", type=int, default=0, help="master seed")
    bench.add_argument("--output-dir", help="default: current directory")
    bench.set_defaults(func=_cmd_bench)

    return parser


def main(argv=None):
    """Entry point; returns the process exit code."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (CliError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def run():
    sys.exit(main())


if __name__ == "__main__":
    run()
