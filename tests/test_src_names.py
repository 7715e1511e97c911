"""Every public function and method in ``src/periodkit`` has a caller there.

A public name that only tests call is code the tool does not run, so it
is deleted or given a caller in ``src``.  The scan is by name: a
definition counts as used when its name is read (as a variable or as an
attribute) anywhere in ``src/periodkit`` outside the definition itself.
So a method or property that shares its name with a ``__slots__`` field
of some class counts as read wherever that field is; each such name is
listed in ``SHADOWED``, with where it is really read.
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

# Each public method or property named like a slot field of some class in
# src, where the scan cannot tell their readers apart -> who reads it.
SHADOWED = {
    # PairVariables has a slot n.
    "InfinityTypeData.n": "the rank of a type: automorphic, fileio and lfactor read pi.n",
    # MotiveTag has a slot rank.
    "RegularMotiveData.rank": "the rank of a motive: read throughout src",
    # PeriodSymbol has a slot sort_key.
    "MotiveTag.sort_key": "PeriodSymbol's constructor calls tag.sort_key()",
    # periods.DerivationResult has a slot rhs.
    "VerificationReport.rhs": "no reader in src: perfbench's oracle-identity workload and "
    "its tracer count its terms",
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


def _trees() -> dict:
    return {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in SOURCES}


def uncalled_public_names() -> set[str]:
    trees = _trees()
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



def shadowed_public_names() -> set[str]:
    """Each public method or property whose name is a ``__slots__`` field of a class in src."""
    trees = _trees()
    fields = {
        elt.value
        for tree in trees.values()
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef)
        for stmt in node.body
        if isinstance(stmt, ast.Assign)
        and [getattr(t, "id", None) for t in stmt.targets] == ["__slots__"]
        for elt in stmt.value.elts
    }
    return {
        qualified
        for module, tree in trees.items()
        for qualified, name, _ in _public_definitions(tree, module)
        if name in fields and not qualified.startswith(f"{module}.")
    }


def test_every_public_name_that_a_slot_field_shadows_is_listed():
    # The by-name scan above counts such a name as read wherever the
    # field is read, so each one is listed here with its real reader.
    assert shadowed_public_names() == set(SHADOWED)
