"""Count the code lines of the package: the lines its statements span.

Usage: python3 tools/code_lines.py [FILE ...]

With no arguments it counts ``src/rpca/*.py`` of the tree it sits in.  A
line counts when a statement spans it, unless it belongs to a docstring (the
string that opens a module, class or function body), holds only a comment,
or is blank.  So blank and comment lines inside a multi-line call are left
out, and a decorator counts with its ``def``.  It prints one line per file
and then the total; a figure that ``wc -l`` moves with docstring and comment
edits stays put here.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _docstring_lines(tree):
    """The line numbers of every docstring in ``tree``."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source):
    """The number of code lines of the Python ``source`` text."""
    tree = ast.parse(source)
    spanned = set()
    for node in tree.body:
        start = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
        spanned.update(range(start, node.end_lineno + 1))
    text = source.splitlines()
    return sum(
        1
        for number in spanned - _docstring_lines(tree)
        if text[number - 1].strip() and not text[number - 1].lstrip().startswith("#")
    )


def main(argv):
    paths = [Path(p) for p in argv] or sorted((ROOT / "src" / "rpca").glob("*.py"))
    total = 0
    for path in paths:
        count = code_lines(path.read_text())
        total += count
        print(f"{count:6d} {path}")
    print(f"{total:6d} total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
