"""Line coverage of ``src/periodkit`` by the tier-1 tests, from the stdlib alone.

Run from the repository root:

    PYTHONPATH=src python tests/linecov.py

It installs a ``sys.settrace`` hook, runs ``pytest -q tests`` in this
process, and then prints, for each ``src/periodkit`` module, the
statement lines that never ran.  A statement line is the first line of an
AST statement, docstrings excluded.  Code that the tests run in a
subprocess (``python -m periodkit.cli``, the console script) is not
traced, so a line only such a test reaches is listed.  The exit code is
pytest's.  pytest does not collect this file: its name does not start
with ``test_``.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "periodkit"


def statement_lines(path: Path) -> set[int]:
    """The first line of every statement in ``path``, docstrings excluded."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    docstrings = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant):
                if isinstance(first.value.value, str):
                    docstrings.add(first)
    return {
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.stmt) and node not in docstrings
    }


def main() -> int:
    files = {str(path): path for path in sorted(SRC.glob("*.py"))}
    ran: dict[str, set[int]] = {name: set() for name in files}

    def local(frame, event, arg):
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def hook(frame, event, arg):
        # Trace lines only in frames of src/periodkit; other frames run untraced.
        return local if frame.f_code.co_filename in ran else None

    sys.settrace(hook)
    try:
        code = pytest.main(["-q", str(ROOT / "tests")])
    finally:
        sys.settrace(None)
    for name, path in files.items():
        missed = sorted(statement_lines(path) - ran[name])
        print(f"{path.relative_to(ROOT)}: {', '.join(map(str, missed)) or 'every statement ran'}")
    return int(code)


if __name__ == "__main__":
    sys.exit(main())
