"""List the statements of the package that the command-line pipeline never runs.

Usage: python3 tools/line_trace.py

Runs every command of ``tools/compare_artifacts.py`` in this process, in a
temporary directory that holds the grid files as that tool writes them, and
then the four scripts of ``demos/``, under a line tracer (``sys.settrace``).
It prints, per file of ``src/rpca/``, the first lines of the statements
inside function and method bodies that no line event reached, and then their
total.  Docstrings are left out, and so are module-level statements and class
bodies, which run at import.  What is left is mostly error branches; a
statement that no error branch holds is code that no production caller
reaches.  The tracer slows the run about tenfold.
"""

from __future__ import annotations

import ast
import contextlib
import os
import runpy
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def body_lines(source):
    """The first line of every statement inside a function or method body of
    the Python ``source`` text, docstrings left out."""
    lines, docstrings = set(), set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            if ast.get_docstring(node, clean=False) is not None:
                docstrings.add(node.body[0].lineno)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for statement in node.body:
                lines.update(n.lineno for n in ast.walk(statement) if isinstance(n, ast.stmt))
    return lines - docstrings


def never_ran(paths, run):
    """``{path: sorted lines}`` of the :func:`body_lines` of each file of
    ``paths`` that no line event reached while ``run()`` ran.

    The tracer is installed for the call only; the one that was installed
    before is restored afterwards.
    """
    paths = [Path(p).resolve() for p in paths]
    reached = {str(path): set() for path in paths}

    def local(frame, event, arg):
        if event == "line":
            reached[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def calls(frame, event, arg):
        return local if frame.f_code.co_filename in reached else None

    previous = sys.gettrace()
    sys.settrace(calls)
    try:
        run()
    finally:
        sys.settrace(previous)
    return {
        path: sorted(body_lines(path.read_text()) - reached[str(path)]) for path in paths
    }


def run_pipeline_and_demos():
    """Every command of ``compare_artifacts.COMMANDS`` in its directory, then
    every demo as ``__main__``, with their output discarded."""
    import compare_artifacts  # a sibling of this script; puts this tree's src first on the path

    from rpca.cli import main

    here = os.getcwd()
    with tempfile.TemporaryDirectory() as scratch, open(os.devnull, "w") as sink:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            os.chdir(compare_artifacts.prepare(Path(scratch) / "work"))
            try:
                for argv in compare_artifacts.COMMANDS:
                    main(argv)
            finally:
                os.chdir(here)
            for demo in sorted((ROOT / "demos").glob("*.py")):
                runpy.run_path(str(demo), run_name="__main__")


def main():
    missed = never_ran(sorted((ROOT / "src" / "rpca").glob("*.py")), run_pipeline_and_demos)
    for path, lines in missed.items():
        if lines:
            print(f"{path.relative_to(ROOT)}: {', '.join(map(str, lines))}")
    print(f"{sum(map(len, missed.values()))} statement lines never ran")
    return 0


if __name__ == "__main__":
    sys.exit(main())
