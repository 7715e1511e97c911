"""The oracle names that tests patch, each with its reason.

A test that only observes what ``verify_proposition`` did reads its
report (``bound``, ``nonzero_minors``, ``factored``, ``unfactored``,
``blocks``).  A patch of an oracle name is kept only where it injects a
fault or crafted input, or observes what no report holds.  The scan
reads ``tests/*.py`` with ``ast`` for ``setattr(<alias of
periodkit.oracle>, "<name>", ...)``.
"""

import ast
from pathlib import Path

TESTS = sorted(Path(__file__).resolve().parent.glob("*.py"))

ALLOWED = {
    # Fault injection: _tamper and _unfactored_first_group forge what the
    # tests against det(B), one per class set of proportional columns, find.
    "_shift": "forges a class set's test against det(B), to leave its group unfactored, "
    "so that the check declines at step 2, or give the group a wrong shift or unit",
    # _tamper_blocks forges what the tests against det(A), one per
    # column-class block, find.
    "_block_shift": "forges a column-class block's test against det(A), to decline it, so "
    "that the check declines at step 3, or give it a wrong shift or unit",
    "_inputs": "swaps in a crafted A⊗B whose rows sum past half the field, with its det(A) "
    "and det(B); or gives the check's own inputs a flipped predicted sign or a bound past "
    "the field",
    "sym_det": "a stand-in that records each call: the check never runs the general determinant",
    # Ring-internal observation: no report covers the ring's own steps.
    "_summed_product": "counts the products that fall back to the accumulating loop",
    "_drop_zeros": "sees the size of every partial determinant before its zeros go",
    # tests/test_suites.py: the oracle suite's schedule.
    "verify_proposition": "records or stubs each pair the oracle suite checks",
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
    # The groups that factored, the bound and the nonzero minors per group
    # are read from the report, so the row groups are not patched.
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
