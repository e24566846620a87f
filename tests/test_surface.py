"""Every name the package defines is used by the library itself.

Static checks.  Each name `udeform/__init__.py` imports from a submodule
must be referenced in some other module of the package, outside the name's
own definition.  Each module-level function and class method, dunders
aside, must be named in some other definition of the package, unless
`bench/tracer.py` wraps it (its `TARGETS`).  A name only the tests call
belongs with the tests (as `tests/formulations.py` and `tests/conftest.py`
hold the second routes and reference checks), not in the library.

Their limit: a reference counts wherever it stands, and a method counts as
named wherever any attribute of its name is read, so a name reached only
from library code that no job reaches, or one that shares its name with a
used method, would still pass.
"""

import ast
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "udeform"


def _exports():
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    return {
        alias.asname or alias.name
        for node in tree.body if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }


def _modules():
    """(module name, syntax tree) for every submodule of the package."""
    return [
        ("udeform." + path.stem, ast.parse(path.read_text()))
        for path in sorted(PACKAGE.glob("*.py")) if path.name != "__init__.py"
    ]


def _names(node):
    """Names read in `node`, bare or as an attribute."""
    return {
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node) if isinstance(n, (ast.Name, ast.Attribute))
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


def _definitions(module, tree):
    """((module, qualname), node) for each module-level function and class
    method, and (None, node) for every other statement of the module or of
    a class body."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            yield (module, node.name), node
        elif isinstance(node, ast.ClassDef):
            for part in node.bases + node.decorator_list:
                yield None, part
            for sub in node.body:
                if isinstance(sub, ast.FunctionDef):
                    yield (module, "%s.%s" % (node.name, sub.name)), sub
                else:
                    yield None, sub
        else:
            yield None, node


def _trace_targets():
    """(module, qualname) of every method `bench/tracer.py` wraps."""
    spec = importlib.util.spec_from_file_location("bench_tracer", ROOT / "bench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return {(module, qualname) for _, module, qualname, _ in tracer.TARGETS}


def test_every_export_is_referenced_by_another_library_module():
    referenced = set()
    for _, tree in _modules():
        referenced |= _references(tree)
    unused = sorted(_exports() - referenced)
    assert not unused, unused


def test_every_function_and_method_is_named_by_another_definition(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "bench"))  # tracer imports its sibling oracles
    exempt = _trace_targets()
    units = [
        (key, node, _names(node))
        for module, tree in _modules() for key, node in _definitions(module, tree)
    ]
    unused = []
    for key, node, _ in units:
        if key is None or key in exempt:
            continue
        name = node.name
        if name.startswith("__") and name.endswith("__"):
            continue
        if not any(name in names for other, _, names in units if other != key):
            unused.append("%s.%s" % key)
    assert not unused, unused
