"""``src/periodkit`` states each invariant once, in code that runs.

An ``assert`` statement re-checks what a constructor already guarantees,
and ``python -O`` strips it; a ``pragma: no cover`` marks a line that no
test runs.  So ``src`` has neither.  ``ALLOWED`` below would list a line
that keeps one, with the reason it stays; no line is allowed any more,
so it is empty.  The scan reads ``assert`` statements from the syntax
tree and the pragma from comments.  ``src`` also imports no
``dataclasses``.

Immutability is written once, in ``periodkit.value``: only that module
defines ``__setattr__`` or ``__delattr__``, ``object.__setattr__`` sets a
field only inside an ``__init__``, and every slotted class of ``src``
derives from ``Frozen`` but those listed below, each with the reason it
stays outside.
"""

import ast
import importlib
import io
import tokenize
from pathlib import Path

from periodkit.value import Frozen

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "periodkit").glob("*.py"))

# (module, stripped source line) -> the reason the line stays.
ALLOWED: dict[tuple[str, str], str] = {}


# (module, class) with __slots__ but not derived from Frozen -> the reason.
NOT_FROZEN = {
    ("oracle", "LaurentPoly"): (
        "built in the oracle's inner loop, every product and sum a new one: "
        "its __init__ sets its three slots by plain assignment, which a "
        "refusing __setattr__ would make dearer"
    ),
    ("oracle", "Terms"): "a read-only Mapping view of one LaurentPoly's terms",
}


def trees() -> dict[str, ast.Module]:
    return {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in SOURCES}


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


def test_only_the_base_defines_setattr_or_delattr():
    found = {
        (stem, node.name)
        for stem, tree in trees().items()
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and node.name in ("__setattr__", "__delattr__")
    }
    assert found == {("value", "__setattr__"), ("value", "__delattr__")}


def test_object_setattr_sets_fields_only_inside_an_init():
    def is_object_setattr(node):
        return (
            isinstance(node, ast.Attribute)
            and node.attr == "__setattr__"
            and isinstance(node.value, ast.Name)
            and node.value.id == "object"
        )

    def outside_init(node, stem, func):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            func = getattr(node, "name", "<lambda>")
        if is_object_setattr(node) and func != "__init__":
            yield stem, func, node.lineno
        for child in ast.iter_child_nodes(node):
            yield from outside_init(child, stem, func)

    found = [hit for stem, tree in trees().items() for hit in outside_init(tree, stem, None)]
    assert found == []


def test_every_slotted_class_derives_from_frozen_but_the_listed_ones():
    found = set()
    for path in SOURCES:
        module = importlib.import_module(f"periodkit.{path.stem}")
        for name, cls in vars(module).items():
            if (
                isinstance(cls, type)
                and cls.__module__ == module.__name__
                and "__slots__" in vars(cls)
                and not issubclass(cls, Frozen)
            ):
                found.add((path.stem, name))
    # A listed class that joins Frozen leaves this set too, and so fails
    # here until it is taken off the list.
    assert found == set(NOT_FROZEN)


def test_the_base_imports_only_operator():
    tree = trees()["value"]
    imports = [node for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert [ast.unparse(node) for node in imports] == ["from operator import attrgetter"]
