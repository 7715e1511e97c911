"""Every public function and method in ``src/periodkit`` has a caller there.

A public name that only tests call is code the tool does not run, so it
is deleted or given a caller in ``src``.  The scan is by name: a
definition counts as used when its name is read (as a variable or as an
attribute) anywhere in ``src/periodkit`` outside the definition itself.
"""

import ast
from collections import Counter
from pathlib import Path

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "periodkit").glob("*.py"))

# Each public name kept without a caller in src, with the reason it stays.
ALLOWED = {
    # Acceptance criterion 7 round-trips every file format: parse, print,
    # parse again.  These are the printers.
    "fileio.dump_motive",
    "fileio.dump_rep",
    # The determinant functor, one of the closed-form functors the data
    # model offers (rank one, p = the sum of the p-indices).
    "RegularMotiveData.determinant",
    # Builds the det(...) tags that the det_q rewrite rules act on;
    # tests/data/period_rules.json pins those rules.
    "MotiveTag.det",
}


def _reads(node) -> Counter:
    """How often each identifier is read as a name or an attribute under ``node``."""
    out = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            out[sub.attr] += 1
    return out


def _public_definitions(tree, module):
    """(qualified name, bare name, node) for each public function and method."""
    for node in tree.body:
        bodies = [(module, node)]
        if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            bodies = [(node.name, sub) for sub in node.body]
        for owner, sub in bodies:
            if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)) and not sub.name.startswith(
                "_"
            ):
                yield f"{owner}.{sub.name}", sub.name, sub


def uncalled_public_names() -> set[str]:
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in SOURCES}
    reads = sum((_reads(tree) for tree in trees.values()), Counter())
    return {
        qualified
        for module, tree in trees.items()
        for qualified, name, node in _public_definitions(tree, module)
        if reads[name] - _reads(node)[name] == 0
    }


def test_only_the_allowed_public_names_lack_a_caller_in_src():
    # An allowed name that gains a caller leaves this set too, and so
    # fails here until it is taken off the list.
    assert uncalled_public_names() == ALLOWED

