"""Every public function and method in ``src/periodkit`` has a caller there.

A public name that only tests call is code the tool does not run, so it
is deleted or given a caller in ``src``.  The scan is by name and kind,
outside the definition itself: a method or property counts as used when
an attribute of its name is read anywhere in ``src/periodkit``, and a
module function when such an attribute is read, or its bare name in its
own module or in one that imports it by name.  So a local variable named
like a method is no read of it, but a method or property that shares
its name with a ``__slots__`` field of some class counts as read
wherever that field is; each such name is listed in ``SHADOWED``, with
where it is really read.
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
    # Mat1 as polynomials, read from the layout the identity check takes
    # as packed keys: tests/data/oracle_layout.json pins its entries, and
    # the one-group reference determinant of the tests expands it.
    "oracle.build_mat1",
}

# Each public method or property named like a slot field of some class in
# src, where the scan cannot tell their readers apart -> who reads it.
SHADOWED = {
    # PairVariables has a slot n.
    "InfinityTypeData.n": "the rank of a type: automorphic, fileio and lfactor read pi.n",
    # MotiveTag has a slot rank.
    "RegularMotiveData.rank": "the rank of a motive: read throughout src",
    # periods.DerivationResult has a slot rhs.
    "VerificationReport.rhs": "no reader in src: perfbench's oracle-identity workload and "
    "its tracer count its terms",
}


def _loads(node) -> tuple[Counter, Counter]:
    """(bare names, attribute names) read under ``node``, each with its count."""
    names, attrs = Counter(), Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            names[sub.id] += 1
        elif isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load):
            attrs[sub.attr] += 1
    return names, attrs


def _imports(tree) -> dict[tuple[str, str], set[str]]:
    """{(module, name): the bare names ``tree`` binds to it by ``from <module> import name``}."""
    out: dict[tuple[str, str], set[str]] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module:
            module = node.module.removeprefix("periodkit.")
            for alias in node.names:
                out.setdefault((module, alias.name), set()).add(alias.asname or alias.name)
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


def uncalled_public_names(trees=None) -> set[str]:
    """Each public definition of ``trees`` ({module: tree}, src by default) read nowhere."""
    trees = _trees() if trees is None else trees
    loads = {module: _loads(tree) for module, tree in trees.items()}
    imports = {module: _imports(tree) for module, tree in trees.items()}
    attrs = sum((a for _, a in loads.values()), Counter())
    uncalled = set()
    for module, tree in trees.items():
        for qualified, name, node in _public_definitions(tree, module):
            own_names, own_attrs = _loads(node)
            reads = attrs[name] - own_attrs[name]
            if qualified.startswith(f"{module}."):
                reads += loads[module][0][name] - own_names[name]
                reads += sum(
                    loads[other][0][local]
                    for other, bound in imports.items()
                    for local in bound.get((module, name), ())
                )
            if not reads:
                uncalled.add(qualified)
    return uncalled


def test_only_the_allowed_public_names_lack_a_caller_in_src():
    # An allowed name that gains a caller leaves this set too, and so
    # fails here until it is taken off the list.
    assert uncalled_public_names() == ALLOWED


def test_a_method_is_read_as_an_attribute_and_a_function_where_it_is_imported():
    # A local named like a method is no read of it, and neither is a bare
    # name in a module that does not import the function of that name.
    sources = {
        "report": "class Report:\n    def rhs(self):\n        return 1\n\n\n"
        "def check():\n    pass\n",
        "verify": "def verify():\n    rhs = check = 1\n    return rhs + check\n",
    }
    trees = {module: ast.parse(text) for module, text in sources.items()}
    assert uncalled_public_names(trees) == {"Report.rhs", "report.check", "verify.verify"}
    trees["reader"] = ast.parse(
        "from .report import check as c\n\n\ndef read(r):\n    return r.rhs(), c()\n"
    )
    assert uncalled_public_names(trees) == {"verify.verify", "reader.read"}


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
