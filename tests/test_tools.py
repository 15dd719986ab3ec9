"""The tools under ``tools/``: the notes that ``compare_artifacts.py`` prints
for differing report files, and the count of ``code_lines.py``."""

import csv
import importlib.util
import json
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parents[1] / "tools"


def load(name):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def compare():
    return load("compare_artifacts")


def record(**changes):
    rec = {
        "solver": "altproj",
        "iterations": 12,
        "final_err": 3.0e-7,
        "converged": True,
        "success": True,
        "wall_seconds": 0.5,
        "err_history": [0.25, 3.0e-7],
    }
    rec.update(changes)
    return rec


def write_pair(directory, records):
    """``report.json`` and ``report.csv`` of ``records`` under ``directory``."""
    directory.mkdir()
    (directory / "report.json").write_text(json.dumps({"kind": "phase", "records": records}))
    columns = ["solver", "iterations", "final_err", "converged", "success", "wall_seconds"]
    with open(directory / "report.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        writer.writerows([rec[column] for column in columns] for rec in records)
    return directory


def notes(compare, first, second):
    names = ("report.json", "report.csv")
    return {name: compare.how_far(first / name, second / name) for name in names}


def test_a_flipped_success_is_named(tmp_path, compare):
    base = write_pair(tmp_path / "rev", [record(), record(solver="accaltproj_trim")])
    flipped = record(solver="accaltproj_trim", success=False)
    flipped = write_pair(tmp_path / "work", [record(), flipped])
    for note in notes(compare, base, flipped).values():
        assert note == "differing fields: success; outcomes differ: success"


def test_a_float_move_is_measured_and_outcomes_stay_equal(tmp_path, compare):
    base = write_pair(tmp_path / "rev", [record(), record(final_err=2.0e-7)])
    # the timing field moves too, and is left out as the comparison leaves it out
    moved = write_pair(tmp_path / "work", [record(), record(final_err=2.5e-7, wall_seconds=0.9)])
    for note in notes(compare, base, moved).values():
        assert note == (
            "differing fields: final_err; success, converged and iterations equal; "
            "floats move by at most 0.25 relative"
        )


def test_code_lines_count_the_lines_that_statements_span():
    source = "\n".join(
        [
            '"""A module docstring."""',
            "",
            "# a comment-only line",
            "total = sum(",
            "    [1, 2],  # a trailing comment leaves its line a code line",
            ")",
            "",
            "",
            "def f():",
            '    """A function docstring',
            '    over two lines."""',
            "    return total",
        ]
    )
    # the three-line call, the def line and the return
    assert load("code_lines").code_lines(source) == 5
