"""Compare the command-line artifacts of a git revision with the working tree's.

Usage: python3 tools/compare_artifacts.py REV

Exports REV with ``git archive`` into a temporary directory.  Then it runs one
pipeline of ``rpca`` commands on that tree and on the working tree, each in a
subprocess with ``PYTHONPATH=<tree>/src``, one BLAS thread and no bytecode
files.  The pipeline, ``COMMANDS`` run in a directory next to the
``GRIDS`` files, is:

- a ``synth``, a ``solve`` of its ``D``, a ``phase`` grid and a ``bench``;
- a ``solve`` of the same input with ``--solver altproj``;
- a ``phase`` grid with an alpha >= 0.55 cell and no ``gamma``, so that the
  declared-alpha rule for gamma runs;
- a ``phase`` grid with ``m`` set, so that its cells are non-square;
- a non-square ``synth`` written as ``.csv``, and a ``solve`` that reads it
  with each solver and so writes ``L.csv`` and ``S.csv`` (the ``altproj``
  one starts each truncation's sketch from an ``n x r`` factor with
  ``m != n``);
- a ``200 x 300`` ``synth`` written as ``.csv``, and a ``solve`` of it, so
  that ``S.csv`` is written in more than one row tile (8; the ``40 x 48``
  round above fits in one);
- a ``synth`` whose corruption exceeds the first threshold, so that
  ``S_init`` is nonzero, and a ``solve`` of it with each solver;
- a ``synth`` whose corruption stays below the first threshold by a margin
  that the first Lanczos step on D (two products) cannot prove and a later
  step does, and a ``solve`` of it, so that all three ways of starting a
  solve run;
- a ``synth`` at alpha 0.45, and one at alpha 0.3 with a ``solve`` of it, so
  that the support sampler runs rejection rounds at the paper's corruption
  levels (the rounds above are at alpha 0.1, and the 0.6 cell samples a
  permutation);
- three ``solve`` runs of the first input with an explicit ``--mu``: at
  ``--mu 1`` trim fires on every step and the run stops at the iteration
  cap (exit 2); with ``--solver accaltproj_notrim`` as well it converges;
  and ``--eps`` with ``--max-iter`` stops a run early (exit 2);
- a ``solve`` of the first input with ``--solver altproj`` and
  ``--max-iter 4``, which skips steps 2-6, so that it stops at the cap on a
  skipped step (exit 2) and writes ``S.bin`` from the state that step left;
- a ``solve`` of the first input without ``--gamma``, so that the default
  gamma runs;
- a ``synth`` at rank 30 and a ``solve`` of it with each solver, so that the
  ``2r x 2r`` core SVD (60 x 60) is large enough for LAPACK's
  divide-and-conquer SVD to divide (above 25); every other round has
  ``r <= 3``;
- the basic ``phase`` grid again with ``--seed 12``, which replaces the
  grid file's master seed.

Each side must import ``rpca`` from its own tree.  Every ``.bin`` and
``.csv`` matrix file must match byte for byte.  Every JSON file and
``report.csv`` must match once the timing fields (names containing
``seconds``) are removed; commands name their files relative to the output
directory, so input paths match.  The exit codes of the commands are
compared too.  One line is printed per file, and the exit status is 1 if any
file differs.  ``COMMANDS`` come from the working tree and run on both trees,
so a command that uses a flag or value REV does not know exits 1 on REV and
writes nothing there: its files are "only in the working tree", and
``exit_codes.json`` differs.  A differing line says how far the two differ: for a matrix
file, the largest entrywise difference relative to the largest entry of
REV's matrix, and whether the nonzero supports match; for a ``trace.json``,
the fields that differ, whether ``iterations`` and ``converged`` match, the
largest relative moves of ``err`` and ``zeta``, and the relative move of row
0's ``sigma_window[r]``; for a ``report.json``, ``timings.json``,
``metadata.json`` or ``report.csv``, the fields (columns) that differ,
whether any record's ``success``, ``converged`` or ``iterations`` does, and
the largest relative move of the differing float fields; for
``exit_codes.json``, each command whose code differs, named by its
``--output-dir``, as ``solve-no-trim 1 vs 0``.

Trim fires in every accelerated ``solve`` that measures ``mu`` on its input
(no ``--mu``): ``solve``, ``solve-csv``, ``solve-spiked``, ``solve-fallback``,
``solve-alpha30`` and ``solve-r30``, on some of their steps; and at the
explicit ``--mu 1`` and ``--mu 1.5`` of ``solve-trim`` and ``solve-capped``,
on every step.  A change to trim's arithmetic shows in those eight rounds.

The bits depend on the BLAS build, so both sides run on the same machine.  A
change that alters the bits on purpose makes this check fail by design.

Tier-1 acceptance criterion 7 (``tests/test_acceptance.py``) replays the
same list in-process, twice, on the working tree.  It compares the two runs
file by file with :func:`comparable`, checks the exit codes, and audits
every ``trace.json`` against the matrices it describes.  ``tests/test_cli.py``
builds its grid files from ``GRIDS["grid.json"]``.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
from rpca.matio import read_matrix  # noqa: E402  (the working tree's reader)

GRIDS = {
    # the basic grid
    "grid.json": {"n": 40, "rank": 2, "alphas": [0.0, 0.1], "cs": [1.0],
                  "trials": 2, "seed": 11, "gamma": 0.7},
    # no gamma: the 0.6 cell takes gamma = 0.65 from the declared alpha; the
    # integer c is stored as the float its PhaseConfig field declares
    "grid-alpha.json": {"n": 40, "rank": 2, "alphas": [0.1, 0.6], "cs": [1],
                        "trials": 1, "seed": 5},
    # non-square cells: 30 x 40
    "grid-rect.json": {"n": 40, "m": 30, "rank": 2, "alphas": [0.05, 0.1], "cs": [1.0],
                       "trials": 2, "seed": 13, "gamma": 0.7},
}

COMMANDS = [
    ["synth", "--n", "64", "--rank", "2", "--alpha", "0.1", "--c", "1", "--seed", "17",
     "--output-dir", "synth"],
    ["solve", "--input", "synth/D.bin", "--rank", "2", "--gamma", "0.7",
     "--output-dir", "solve"],
    ["solve", "--input", "synth/D.bin", "--rank", "2", "--gamma", "0.7",
     "--solver", "altproj", "--output-dir", "solve-altproj"],
    ["phase", "--grid", "../grid.json", "--output-dir", "phase"],
    ["phase", "--grid", "../grid-alpha.json", "--output-dir", "phase-alpha"],
    ["phase", "--grid", "../grid-rect.json", "--output-dir", "phase-rect"],
    ["bench", "--sizes", "48", "--rank", "2", "--output-dir", "bench"],
    ["synth", "--n", "48", "--m", "40", "--rank", "2", "--alpha", "0.1", "--c", "1", "--seed", "23",
     "--format", "csv", "--output-dir", "synth-csv"],
    ["solve", "--input", "synth-csv/D.csv", "--rank", "2", "--gamma", "0.7",
     "--output-dir", "solve-csv"],
    ["solve", "--input", "synth-csv/D.csv", "--rank", "2", "--gamma", "0.7",
     "--solver", "altproj", "--output-dir", "solve-csv-altproj"],
    ["synth", "--n", "300", "--m", "200", "--rank", "5", "--alpha", "0.1", "--c", "1",
     "--seed", "41", "--format", "csv", "--output-dir", "synth-csv-tiled"],
    ["solve", "--input", "synth-csv-tiled/D.csv", "--rank", "5", "--gamma", "0.7",
     "--output-dir", "solve-csv-tiled"],
    # max|D| is 1.21 times beta_init * sigma_1(D), which Lanczos converges to
    ["synth", "--n", "64", "--rank", "2", "--alpha", "0.1", "--c", "20", "--seed", "17",
     "--output-dir", "synth-spiked"],
    ["solve", "--input", "synth-spiked/D.bin", "--rank", "2", "--gamma", "0.7",
     "--output-dir", "solve-spiked"],
    ["solve", "--input", "synth-spiked/D.bin", "--rank", "2", "--gamma", "0.7",
     "--solver", "altproj", "--output-dir", "solve-spiked-altproj"],
    # max|D| is 1.30 times beta_init times the first Lanczos step's bound on
    # sigma_1(D), and 0.89 times beta_init * sigma_1(D): S_init = 0, which
    # the second step proves
    ["synth", "--n", "64", "--rank", "2", "--alpha", "0.1", "--c", "9", "--seed", "17",
     "--output-dir", "synth-fallback"],
    ["solve", "--input", "synth-fallback/D.bin", "--rank", "2", "--gamma", "0.7",
     "--output-dir", "solve-fallback"],
    ["synth", "--n", "200", "--rank", "5", "--alpha", "0.45", "--c", "1", "--seed", "29",
     "--output-dir", "synth-alpha45"],
    ["synth", "--n", "150", "--rank", "3", "--alpha", "0.3", "--c", "1", "--seed", "31",
     "--output-dir", "synth-alpha30"],
    ["solve", "--input", "synth-alpha30/D.bin", "--rank", "3", "--gamma", "0.7",
     "--output-dir", "solve-alpha30"],
    ["solve", "--input", "synth/D.bin", "--rank", "2", "--gamma", "0.7", "--mu", "1",
     "--output-dir", "solve-trim"],
    ["solve", "--input", "synth/D.bin", "--rank", "2", "--gamma", "0.7", "--mu", "1",
     "--solver", "accaltproj_notrim", "--output-dir", "solve-no-trim"],
    ["solve", "--input", "synth/D.bin", "--rank", "2", "--gamma", "0.7", "--mu", "1.5",
     "--eps", "1e-9", "--max-iter", "8", "--output-dir", "solve-capped"],
    ["solve", "--input", "synth/D.bin", "--rank", "2", "--gamma", "0.7", "--solver", "altproj",
     "--max-iter", "4", "--output-dir", "solve-capped-altproj"],
    ["solve", "--input", "synth/D.bin", "--rank", "2", "--mu", "5.5",
     "--output-dir", "solve-default-gamma"],
    ["synth", "--n", "300", "--rank", "30", "--alpha", "0.05", "--c", "1", "--seed", "37",
     "--output-dir", "synth-r30"],
    ["solve", "--input", "synth-r30/D.bin", "--rank", "30", "--gamma", "0.7",
     "--output-dir", "solve-r30"],
    ["solve", "--input", "synth-r30/D.bin", "--rank", "30", "--gamma", "0.7",
     "--solver", "altproj", "--output-dir", "solve-r30-altproj"],
    ["phase", "--grid", "../grid.json", "--seed", "12", "--output-dir", "phase-seed"],
]

# Runs in the subprocess, in the output directory: prints where rpca came
# from, then runs each command and writes the exit codes.
DRIVER = """
import json, sys
import rpca
from rpca.cli import main
print(rpca.__file__)
codes = [main(argv) for argv in json.loads(sys.argv[1])]
with open("exit_codes.json", "w") as fh:
    json.dump(codes, fh)
"""


def export(rev, dest):
    archive = subprocess.run(
        ["git", "-C", str(ROOT), "archive", "--format=tar", rev], capture_output=True
    )
    if archive.returncode != 0:
        sys.exit(f"git archive {rev} failed: {archive.stderr.decode().strip()}")
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive.stdout, check=True)


def prepare(work):
    """Make ``work`` with the ``GRIDS`` files in it and an empty ``work``/out,
    the directory that ``COMMANDS`` run in; return out."""
    work.mkdir()
    for name, grid in GRIDS.items():
        (work / name).write_text(json.dumps(grid))
    out = work / "out"
    out.mkdir()
    return out


def run_pipeline(tree, work):
    """Run the pipeline on ``tree``'s sources in a new ``work``/out; return that dir."""
    out = prepare(work)
    src = (tree / "src").resolve()
    env = dict(
        os.environ,
        PYTHONPATH=str(src),
        PYTHONDONTWRITEBYTECODE="1",
        OPENBLAS_NUM_THREADS="1",
        OMP_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    done = subprocess.run(
        [sys.executable, "-c", DRIVER, json.dumps(COMMANDS)],
        cwd=out, env=env, capture_output=True, text=True,
    )
    if done.returncode != 0:
        sys.exit(f"pipeline failed on {tree}:\n{done.stderr}")
    imported = Path(done.stdout.splitlines()[0]).resolve()
    if src not in imported.parents:
        sys.exit(f"rpca was imported from {imported}, not from {src}")
    return out


def is_timing(name):
    """Whether a JSON key or ``report.csv`` column is a timing field: its name
    contains ``seconds``.  Timing fields are the only ones a rerun may change."""
    return "seconds" in name


def strip_timing(obj):
    """Parsed JSON ``obj`` without its timing fields, at any depth."""
    if isinstance(obj, dict):
        return {k: strip_timing(v) for k, v in obj.items() if not is_timing(k)}
    if isinstance(obj, list):
        return [strip_timing(item) for item in obj]
    return obj


def comparable(path):
    """What of an artifact must match: a matrix file's bytes, or a JSON file
    or ``report.csv`` without its timing fields."""
    if path.suffix == ".json":
        return strip_timing(json.loads(path.read_text()))
    if path.name == "report.csv":
        rows = list(csv.reader(io.StringIO(path.read_text())))
        keep = [i for i, column in enumerate(rows[0]) if not is_timing(column)]
        return [[row[i] for i in keep] for row in rows]
    return path.read_bytes()


def how_far(first, second):
    """How far two differing artifacts differ, or "" for a kind not described."""
    if first.suffix in (".bin", ".csv") and first.name != "report.csv":
        a, b = read_matrix(first), read_matrix(second)
        if a.shape != b.shape:
            return f"shape {a.shape} vs {b.shape}"
        rel = float(np.abs(a - b).max()) / max(float(np.abs(a).max()), np.finfo(float).tiny)
        support = "same" if np.array_equal(a != 0.0, b != 0.0) else "differs"
        return f"max rel diff {rel:.2g}, support {support}"
    if first.name == "trace.json":
        a, b = (json.loads(path.read_text()) for path in (first, second))
        names = field_names(changed_leaves(*(leaves(strip_timing(t)) for t in (a, b))))
        keys = ("iterations", "converged")
        notes = [", ".join(f"{key} {'equal' if a[key] == b[key] else 'differ'}" for key in keys)]
        rows = [t["trace"] for t in (a, b)]
        for key in ("err", "zeta"):
            moved = relative_move(rows[0][key], rows[1][key])
            if moved is not None:
                notes.append(f"{key} moves by at most {moved:.2g} relative")
        # the (r+1)-th value of row 0's window: the next Ritz value of the
        # initial truncation, which moves with its number of sweeps
        r = a["params"]["rank"]
        moved = relative_move(*(t["sigma_window"][0][r : r + 1] for t in rows))
        if moved is not None:
            notes.append(f"row 0 sigma_window[r] by {moved:.2g}")
        return f"differing fields: {', '.join(names)}; " + ", ".join(notes)
    if first.name in ("report.json", "timings.json", "metadata.json", "report.csv"):
        return field_notes(first, second)
    if first.name == "exit_codes.json":
        codes = (json.loads(path.read_text()) for path in (first, second))
        return ", ".join(
            f"{argv[argv.index('--output-dir') + 1]} {a} vs {b}"
            for argv, a, b in zip(COMMANDS, *codes)
            if a != b
        )
    return ""


# Fields of a trial record whose change alters an outcome, not just a figure.
OUTCOMES = ("success", "converged", "iterations")


def leaves(obj, path=()):
    """``{path: value}`` of every leaf of a parsed artifact; a path holds keys and indices."""
    if isinstance(obj, dict):
        items = obj.items()
    elif isinstance(obj, list):
        items = enumerate(obj)
    else:
        return {path: obj}
    found = {}
    for key, value in items:
        found.update(leaves(value, path + (key,)))
    return found


def changed_leaves(a, b):
    """The paths on which two ``leaves`` maps differ, a path on one side only included."""
    missing = object()
    return [key for key in a.keys() | b.keys() if a.get(key, missing) != b.get(key, missing)]


def field_names(paths):
    """The innermost name on each path, sorted and once each: "final_err", not an index."""
    return sorted(
        {next((part for part in reversed(key) if isinstance(part, str)), "(top level)") for key in paths}
    )


def parsed(path):
    """A report, metadata or timings artifact without its timing fields, parsed.

    ``report.csv`` becomes one dict per row, keyed by column, each cell read
    as JSON where it parses (numbers) and kept as text where not.
    """
    data = comparable(path)
    if path.suffix != ".csv":
        return data
    header, *rows = data
    return [{column: cell(value) for column, value in zip(header, row)} for row in rows]


def cell(text):
    try:
        return json.loads(text)
    except ValueError:
        return text


def field_notes(first, second):
    """Which fields of two report-like artifacts differ, whether any outcome
    (``OUTCOMES``) does, and how far their float fields move."""
    a, b = (leaves(parsed(path)) for path in (first, second))
    changed = changed_leaves(a, b)
    names = field_names(changed)
    outcomes = [name for name in OUTCOMES if name in names]
    notes = [f"differing fields: {', '.join(names)}"]
    if outcomes:
        notes.append(f"outcomes differ: {', '.join(outcomes)}")
    else:
        notes.append("success, converged and iterations equal")
    floats = [key for key in changed if all(type(side.get(key)) is float for side in (a, b))]
    if floats:
        moved = relative_move([a[key] for key in floats], [b[key] for key in floats])
        notes.append(f"floats move by at most {moved:.2g} relative")
    return "; ".join(notes)


def relative_move(first, second):
    """Largest |first - second| / |first| over two equal-length sequences, or None."""
    first, second = (np.asarray(x, dtype=float) for x in (first, second))
    if first.shape != second.shape or first.size == 0:
        return None
    return float((np.abs(first - second) / np.maximum(np.abs(first), np.finfo(float).tiny)).max())


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("rev", help="git revision to compare the working tree with")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as scratch:
        scratch = Path(scratch)
        base_tree = scratch / "rev"
        base_tree.mkdir()
        export(args.rev, base_tree)
        outputs = [
            run_pipeline(base_tree, scratch / "run-rev"),
            run_pipeline(ROOT, scratch / "run-work"),
        ]
        files = [{p.relative_to(out) for p in out.rglob("*") if p.is_file()} for out in outputs]
        names = sorted(files[0] | files[1])
        differ = 0
        for name in names:
            note = ""
            if name not in files[0] or name not in files[1]:
                verdict = f"only in {'the working tree' if name in files[1] else args.rev}"
            elif comparable(outputs[0] / name) == comparable(outputs[1] / name):
                verdict = "identical"
            else:
                verdict = "DIFFERS"
                note = how_far(outputs[0] / name, outputs[1] / name)
            differ += verdict != "identical"
            print(f"{verdict:<24} {name}" + (f"  ({note})" if note else ""))
    print(f"{differ} of {len(names)} files differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
