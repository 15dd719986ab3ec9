"""Benchmark of the rpca solvers: time to tolerance on seeded problems.

Run from the root of a checkout:

    python3 perfbench/run.py --workload acc-n1000 --seed 1 --seconds 20 --trace 0

The workloads and metrics are declared in BENCHMARK.json at the root.  With
``--trace 0`` the last line of standard output is a JSON object with the
end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics of a
traced pass.  Environment, per-solve records and spans go to
``.perfbench_out/`` in the checkout.  The package is imported from the
checkout's ``src/``; the benchmark stops with an error if it is not there.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"
BLAS_THREADS = 1


def prepare(root=ROOT):
    """Pin BLAS to one thread and import the package from ``root/src``.

    One thread, not one per CPU: on a shared 2-CPU machine the second BLAS
    thread's speed depends on the neighbours, and the median solve time then
    spreads by 14-19% between runs, against 5-9% with one thread.  Must run
    before numpy is imported: OpenBLAS reads its thread count once.
    """
    sys.dont_write_bytecode = True  # leave no cache files in the checkout
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    src = root / "src"
    if not (src / "rpca" / "__init__.py").is_file():
        raise SystemExit(f"error: no rpca package under {src}; run from the root of a checkout")
    sys.path.insert(0, str(src))
    import rpca

    if Path(rpca.__file__).resolve().parent != (src / "rpca").resolve():
        raise SystemExit(f"error: imported rpca from {rpca.__file__}, not from {src}")


def declared_metrics(root=ROOT):
    """{trace flag: {metric name: unit}} from BENCHMARK.json."""
    spec = json.loads((root / "BENCHMARK.json").read_text())
    return {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    units = declared_metrics()[args.trace]
    prepare()
    import bench
    import machine

    if args.workload not in bench.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(bench.WORKLOADS)}")
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    workload = bench.WORKLOADS[args.workload]

    OUT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="work-", dir=OUT)
    try:
        metrics, attempted, failed, correct, details = bench.run(
            workload, args.seed, args.seconds, bool(args.trace), workdir
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if set(metrics) != set(units):
        raise SystemExit(
            f"error: metrics {sorted(metrics)} do not match BENCHMARK.json {sorted(units)}"
        )

    env = machine.environment(ROOT)
    record = {
        "workload": dataclasses.asdict(workload),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": env,
        "details": details,
    }
    result_path = OUT / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    result_path.write_text(json.dumps(record, indent=1, default=str) + "\n")
    print(json.dumps({"environment": env}))
    print(json.dumps({"held_out": {k: details[k] for k in ("default_seed", "held_out_seed")}}))
    print(
        json.dumps(
            {
                "correct": bool(correct),
                "attempted": attempted,
                "failed": failed,
                "metrics": {name: {"value": float(metrics[name]), "unit": units[name]} for name in units},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
