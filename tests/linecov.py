"""Line coverage of ``src/periodkit`` by the tier-1 tests, from the stdlib alone.

Run from the repository root:

    PYTHONPATH=src python -W error tests/linecov.py

It installs a ``sys.settrace`` hook, runs ``pytest -q
--continue-on-collection-errors tests`` in this process, and then prints,
for each ``src/periodkit`` module, the statement lines that never ran.  A
statement line is the first line of an AST statement, docstrings
excluded.  Code that the tests run in a
subprocess (``python -m periodkit.cli``, the console script) is not
traced, so a line only such a test reaches is listed.

A line that never ran must be in ``ALLOWED``, keyed by module, enclosing
function and stripped text, with its reason; and every entry there must
name a line that never ran.  The exit code is pytest's if the tests fail,
else 1 if either rule is broken, else 0.  pytest does not collect this
file: its name does not start with ``test_``.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "periodkit"


# (module, enclosing function, stripped text) of each statement line that
# no tier-1 test runs, on purpose -> why.
ALLOWED = {
    ("cli", "<module>", "sys.exit(main())"):
        "the __main__ body; CI's `python -m periodkit.cli` steps run it in a subprocess",
    ("suites", "_suite_rewrite.tate_closed_forms", "return False"):
        "delta_tate(k) differs from two_pi_i(k): only a defect reaches it",
    ("suites", "_suite_oracle.cleared_matches_raw_q", "return False"):
        "the cleared period monomial has a coefficient other than 1: only a defect reaches it",
}


def statement_lines(path: Path) -> dict[int, str]:
    """{first line of every statement in ``path``, docstrings excluded: its enclosing function}.

    The function is a dotted path of the defs and classes around the
    statement, or ``<module>`` at the top level.
    """
    tree = ast.parse(path.read_text(encoding="utf-8"))
    docstrings = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant):
                if isinstance(first.value.value, str):
                    docstrings.add(first)
    lines: dict[int, str] = {}

    def visit(node: ast.AST, scope: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.stmt) and child not in docstrings:
                lines.setdefault(child.lineno, scope)
            inner = scope
            if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                inner = child.name if scope == "<module>" else f"{scope}.{child.name}"
            visit(child, inner)

    visit(tree, "<module>")
    return lines


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
        code = pytest.main(["-q", "--continue-on-collection-errors", str(ROOT / "tests")])
    finally:
        sys.settrace(None)
    unrun = {}
    for name, path in files.items():
        lines = statement_lines(path)
        missed = sorted(set(lines) - ran[name])
        print(f"{path.relative_to(ROOT)}: {', '.join(map(str, missed)) or 'every statement ran'}")
        text = path.read_text(encoding="utf-8").splitlines()
        for line in missed:
            unrun[(path.stem, lines[line], text[line - 1].strip())] = f"{path.name}:{line}"
    unexpected = sorted(unrun.keys() - ALLOWED.keys())
    stale = sorted(ALLOWED.keys() - unrun.keys())
    for key in unexpected:
        print(f"not allowed to go unrun: {unrun[key]} {key}")
    for key in stale:
        print(f"allowed but ran, or gone: {key}")
    if code:
        return int(code)
    return 1 if unexpected or stale else 0


if __name__ == "__main__":
    sys.exit(main())
