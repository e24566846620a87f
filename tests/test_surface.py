"""Every name the package exports is used by the library itself.

A static check: each name `udeform/__init__.py` imports from a submodule
must be referenced in some other module of the package, outside the name's
own definition.  A name only the tests call belongs with the tests (as
`tests/formulations.py` and `tests/conftest.py` hold the second routes and
reference checks), not in the library.

Its limit: a reference counts wherever it stands, so a name reached only
from library code that no job reaches would still pass.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "udeform"


def _exports():
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    return {
        alias.asname or alias.name
        for node in tree.body if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }


def _references(tree):
    """Names read in `tree`, bare or as an attribute, except a module-level
    definition's references to its own name."""
    found = set()

    def visit(node, own):
        if isinstance(node, ast.Name) and node.id != own:
            found.add(node.id)
        elif isinstance(node, ast.Attribute) and node.attr != own:
            found.add(node.attr)
        for child in ast.iter_child_nodes(node):
            visit(child, own)

    for node in tree.body:
        visit(node, getattr(node, "name", None))
    return found


def test_every_export_is_referenced_by_another_library_module():
    referenced = set()
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name != "__init__.py":
            referenced |= _references(ast.parse(path.read_text()))
    unused = sorted(_exports() - referenced)
    assert not unused, unused
