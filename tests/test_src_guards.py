"""``src/periodkit`` states each invariant once, in code that runs.

An ``assert`` statement re-checks what a constructor already guarantees,
and ``python -O`` strips it; a ``pragma: no cover`` marks a line that no
test runs.  So ``src`` has neither, except for the lines listed below,
each with the reason it stays.  The scan reads ``assert`` statements from
the syntax tree and the pragma from comments.  ``src`` also imports no
``dataclasses``: its value classes are written out with ``__slots__``.
"""

import ast
import io
import tokenize
from pathlib import Path

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "periodkit").glob("*.py"))

# (module, stripped source line) -> the reason the line stays.
ALLOWED = {
    ("fileio", "if TYPE_CHECKING:  # pragma: no cover"): (
        "a type-only import: parse_rep loads automorphic when it runs, so the "
        "motive-side commands never load it"
    ),
    ("lfactor", "if TYPE_CHECKING:  # pragma: no cover"): (
        "a type-only import: automorphic imports lfactor, so lfactor cannot "
        "import automorphic when it loads"
    ),
    ("oracle", "return None  # pragma: no cover - would indicate a real defect"): (
        "_expanded_sign's defect branch: reaching it means neither sign of the "
        "determinant identity holds, a counterexample no test can build"
    ),
}


def flagged_lines() -> set[tuple[str, str]]:
    """(module, stripped line) for each assert statement and each no-cover pragma."""
    found = set()
    for path in SOURCES:
        text = path.read_text(encoding="utf-8")
        lines = text.splitlines()
        asserts = {n.lineno for n in ast.walk(ast.parse(text)) if isinstance(n, ast.Assert)}
        pragmas = {
            tok.start[0]
            for tok in tokenize.generate_tokens(io.StringIO(text).readline)
            if tok.type == tokenize.COMMENT and "pragma: no cover" in tok.string
        }
        found |= {(path.stem, lines[i - 1].strip()) for i in asserts | pragmas}
    return found


def test_only_the_allowed_lines_assert_or_skip_coverage():
    # An allowed line that goes leaves this set too, and so fails here
    # until it is taken off the list.
    assert flagged_lines() == set(ALLOWED)


def test_src_does_not_import_dataclasses():
    # dataclasses loads inspect and about ten more modules and generates
    # each class's methods with exec: every pk process would pay for both.
    found = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            found += [(path.stem, name) for name in names if name.split(".")[0] == "dataclasses"]
    assert found == []
