"""The oracle names that tests patch, each with its reason.

A test that only observes what ``verify_proposition`` did reads its
report (``bound``, ``nonzero_minors``, ``blocks``, ``tests``).  A patch
of an oracle name is kept only where it injects a fault or crafted input.
The scan reads ``tests/*.py`` with ``ast`` for
``setattr(<alias of periodkit.oracle>, "<name>", ...)``.
"""

import ast
from pathlib import Path

TESTS = sorted(Path(__file__).resolve().parent.glob("*.py"))

ALLOWED = {
    # _tamper forges what the factor tests find, one per distinct canonical
    # form, and tells the two kinds apart by the index map each receives.
    "_match": "returns (c, e) for each matrix from the memoized test of its canonical form, "
    "so it forges a factor test: against B's generic matrix, to leave the groups that share "
    "a primitive matrix unfactored, so that the check declines at step 2, or give them a wrong "
    "shift or unit; against A's, to decline a column-class block, so that the check declines "
    "at step 3, or give it a wrong shift or unit",
    "_layout": "swaps in crafted rows: A⊗B whose entries reach exponent 20, with its columns "
    "reordered, or with one group split into other than n' classes or into other classes "
    "than the rest; Mat1 with a group's or a block's entries moved by a monomial; or the "
    "check's own layout with a flipped predicted sign or a bound past the field",
    # tests/test_suites.py: the oracle suite's schedule.
    "verify_proposition": "stubs a check that fails or raises, and records each pair the "
    "oracle suite checks",
}


def _oracle_aliases(tree) -> set[str]:
    """The names a module binds to ``periodkit.oracle``."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            out |= {a.asname for a in node.names if a.name == "periodkit.oracle" and a.asname}
        elif isinstance(node, ast.ImportFrom) and node.module == "periodkit":
            out |= {a.asname or a.name for a in node.names if a.name == "oracle"}
    return out


def _patched(tree) -> set[str]:
    """Every "<name>" in a ``setattr(<oracle alias>, "<name>", ...)`` call under ``tree``."""
    aliases, names = _oracle_aliases(tree), set()
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call) and len(node.args) >= 2):
            continue
        func, (target, name) = node.func, node.args[:2]
        called = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
        if (
            called == "setattr"
            and isinstance(target, ast.Name)
            and target.id in aliases
            and isinstance(name, ast.Constant)
        ):
            names.add(name.value)
    return names


def patched_oracle_names() -> set[str]:
    return set().union(*(_patched(ast.parse(p.read_text(encoding="utf-8"))) for p in TESTS))


def test_the_tests_patch_only_the_allowed_oracle_names():
    # The bound and the nonzero minors per group, 0 for a group that did
    # not factor, are read from the report, so the row groups are not patched.
    assert patched_oracle_names() == set(ALLOWED)
    assert "_group_minors" not in ALLOWED


def test_the_scan_sees_every_way_a_test_names_the_oracle():
    tree = ast.parse(
        "import periodkit.oracle as orc\n"
        "from periodkit import oracle\n"
        "from periodkit import oracle as o2\n"
        "import periodkit.hodge as orc2\n"
        "monkeypatch.setattr(orc, 'a', 1)\n"
        "patch.setattr(oracle, 'b', 1)\n"
        "setattr(o2, 'c', 1)\n"
        "monkeypatch.setattr(orc2, 'd', 1)\n"
    )
    assert _oracle_aliases(tree) == {"orc", "oracle", "o2"}
    assert _patched(tree) == {"a", "b", "c"}
