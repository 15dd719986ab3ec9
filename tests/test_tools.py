"""The tools under ``tools/``: what ``compare_artifacts.py`` compares and the
notes it prints for differing report files and exit codes, the count of
``code_lines.py``, and the statements that ``line_trace.py`` reports."""

import csv
import importlib.util
import json
import struct
import sys

import pytest

from conftest import load

compare = load("compare_artifacts")


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


def notes(first, second):
    names = ("report.json", "report.csv")
    return {name: compare.how_far(first / name, second / name) for name in names}


def test_a_flipped_success_is_named(tmp_path):
    base = write_pair(tmp_path / "rev", [record(), record(solver="accaltproj")])
    flipped = record(solver="accaltproj", success=False)
    flipped = write_pair(tmp_path / "work", [record(), flipped])
    for note in notes(base, flipped).values():
        assert note == "differing fields: success; outcomes differ: success"


def test_a_float_move_is_measured_and_outcomes_stay_equal(tmp_path):
    base = write_pair(tmp_path / "rev", [record(), record(final_err=2.0e-7)])
    # the timing field moves too, and is left out as the comparison leaves it out
    moved = write_pair(tmp_path / "work", [record(), record(final_err=2.5e-7, wall_seconds=0.9)])
    for note in notes(base, moved).values():
        assert note == (
            "differing fields: final_err; success, converged and iterations equal; "
            "floats move by at most 0.25 relative"
        )


def trace(**changes):
    """A two-row ``trace.json`` payload of rank 1, with ``changes`` at the top level."""
    payload = {
        "schema_version": 4,
        "solver": "accaltproj",
        "params": {"rank": 1, "gamma": 0.7},
        "iterations": 1,
        "converged": True,
        "trace": {"err": [0.5, 1e-7], "zeta": [2.0, 1.0], "sigma_window": [[3.0, 1.0], [3.0, 0.5]]},
        "total_seconds": 0.25,
    }
    payload.update(changes)
    return payload


def test_a_differing_trace_names_its_fields(tmp_path):
    # the shapes of a trace.json that named its solver variant by the old
    # pair (schema 2), and by the old id of the paper's algorithm (schema 3)
    schema_2 = trace(schema_version=2, solver="accaltproj", total_seconds=0.5)
    schema_2["params"] = dict(schema_2["params"], trim_enabled=True)
    schema_3 = trace(schema_version=3, solver="accaltproj_trim")
    second = tmp_path / "work" / "trace.json"
    second.parent.mkdir()
    second.write_text(json.dumps(trace()))
    for old, names in ((schema_2, "schema_version, trim_enabled"), (schema_3, "schema_version, solver")):
        first = tmp_path / f"rev-{old['schema_version']}" / "trace.json"
        first.parent.mkdir()
        first.write_text(json.dumps(old))
        assert compare.how_far(first, second) == (
            f"differing fields: {names}; "
            "iterations equal, converged equal, err moves by at most 0 relative, "
            "zeta moves by at most 0 relative, row 0 sigma_window[r] by 0"
        )


def test_differing_exit_codes_name_their_commands(tmp_path):
    # a command that uses a flag or value the revision does not know exits 1 there
    outputs = [argv[argv.index("--output-dir") + 1] for argv in compare.COMMANDS]
    codes = [2 if out == "solve-trim" else 0 for out in outputs]
    old = [1 if out in ("solve-no-trim", "phase-seed") else code for out, code in zip(outputs, codes)]
    paths = []
    for name, payload in (("rev", old), ("work", codes)):
        paths.append(tmp_path / name / "exit_codes.json")
        paths[-1].parent.mkdir()
        paths[-1].write_text(json.dumps(payload))
    assert compare.how_far(*paths) == "solve-no-trim 1 vs 0, phase-seed 1 vs 0"


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


def test_report_csv_pairs_that_differ_in_wall_seconds_compare_equal(tmp_path):
    base = write_pair(tmp_path / "rev", [record(), record(wall_seconds=0.25)])
    slower = write_pair(tmp_path / "work", [record(wall_seconds=2.0), record(wall_seconds=3.0)])
    assert (base / "report.csv").read_text() != (slower / "report.csv").read_text()
    assert compare.comparable(base / "report.csv") == compare.comparable(slower / "report.csv")


@pytest.mark.parametrize(
    "change, equal",
    [({"wall_seconds": 9.0}, True), ({"final_err": 4.0e-7}, False)],
    ids=["seconds-key-in-a-list", "final_err"],
)
def test_json_pairs_compare_equal_only_when_a_timing_field_alone_differs(tmp_path, change, equal):
    # the changed key sits in a record, a dict inside the list "records"
    first, second = tmp_path / "first.json", tmp_path / "second.json"
    first.write_text(json.dumps({"records": [record(), record()]}))
    second.write_text(json.dumps({"records": [record(), record(**change)]}))
    assert (compare.comparable(first) == compare.comparable(second)) is equal


def test_matrix_files_compare_by_bytes(tmp_path):
    # 0.0 and -0.0 are equal as floats, but not as bytes
    first, second = tmp_path / "first.bin", tmp_path / "second.bin"
    header = b"RPCM" + struct.pack("<HQQ", 1, 1, 2)
    first.write_bytes(header + struct.pack("<2d", 1.0, 0.0))
    second.write_bytes(header + struct.pack("<2d", 1.0, -0.0))
    assert compare.comparable(first) != compare.comparable(second)


TRACED = """\
def f(flag):
    \"\"\"A docstring
    over two lines.\"\"\"
    total = 1
    if flag:
        total += 1
    else:
        total -= 1
    return total


class Box:
    size = 3

    def grow(self):
        \"\"\"One line.\"\"\"
        if self.size > 10:
            raise ValueError("too big")
        return self.size + 1
"""


def test_line_trace_reports_the_body_statements_that_never_ran(tmp_path):
    trace = load("line_trace")
    path = (tmp_path / "traced.py").resolve()
    path.write_text(TRACED)
    spec = importlib.util.spec_from_file_location("traced", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    # the docstrings, the def and class lines and the class body are left out
    assert trace.body_lines(TRACED) == {4, 5, 6, 8, 9, 17, 18, 19}
    before = sys.gettrace()
    missed = trace.never_ran([path], lambda: (module.f(True), module.Box().grow()))
    assert sys.gettrace() is before
    # the else branch and the raise
    assert missed == {path: [8, 18]}
