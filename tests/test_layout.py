"""Module layout, read from the source without importing the package.

No module imports inside a function body (such imports hide cycles), the
package's modules import one another without a cycle, ``cables`` imports
nothing from ``links``, which is built on top of it, the brute-force oracle
does not use the row builder it checks, no module imports another's
underscore name, only KnotAtlas writes its own ``__eq__`` or ``__repr__``,
only the oracle touches its per-atlas table, and the package exports
nothing, nor any public method or property of an exported class, that no
module, test or benchmark uses.
"""

import ast
import re
from graphlib import TopologicalSorter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "legcable"


def parse(path):
    return ast.parse(path.read_text(), filename=str(path))


def imported_names(path):
    """Every module, and every ``module.name``, that ``path`` imports."""
    imported = set()
    for node in ast.walk(parse(path)):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            imported.add(module)
            imported.update(f"{module}.{alias.name}".lstrip(".") for alias in node.names)
        elif isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
    return imported


def used_names(path):
    """Every name and attribute that ``path`` reads, calls or stores."""
    return {
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(parse(path))
        if isinstance(node, (ast.Name, ast.Attribute))
    }


def test_no_import_inside_a_function():
    found = []
    for path in sorted(SRC.glob("*.py")):
        for fn in ast.walk(parse(path)):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found += [
                    f"{path.name}:{node.lineno}"
                    for node in ast.walk(fn)
                    if isinstance(node, (ast.Import, ast.ImportFrom))
                ]
    assert found == []


def test_intra_package_imports_are_acyclic():
    modules = {path.stem for path in SRC.glob("*.py")}
    graph = {
        path.stem: {name.removeprefix("legcable.") for name in imported_names(path)} & modules
        for path in SRC.glob("*.py")
    }
    assert graph["cli"] >= {"atlas", "selfcheck"}  # relative imports are read
    list(TopologicalSorter(graph).static_order())  # raises CycleError on a cycle


def test_cables_imports_nothing_from_links():
    assert not {"links", "legcable.links"} & imported_names(SRC / "cables.py")


def test_oracle_does_not_use_the_row_builder():
    assert "class_rows" not in used_names(SRC / "oracle.py")
    assert not any(name.endswith("class_rows") for name in imported_names(SRC / "oracle.py"))


def test_no_module_imports_an_underscore_name():
    found = [
        f"{path.name}: {node.module}.{alias.name}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(parse(path))
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert found == []


def test_only_the_atlas_writes_its_own_equality():
    """Value records are named tuples and take ``__eq__`` and ``__repr__``
    from them; only KnotAtlas defines either in its body.  An assignment
    such as the link records' ``__eq__, __ne__ = ...`` defines nothing."""
    found = {
        f"{path.name}:{node.name}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(parse(path))
        if isinstance(node, ast.ClassDef)
        for fn in node.body
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
        and fn.name in ("__eq__", "__repr__")
    }
    assert found == {"atlas.py:KnotAtlas"}


def test_only_the_oracle_touches_its_table():
    """Outside ``oracle.py`` the one use of ``._oracle`` is the
    ``self._oracle = None`` of ``KnotAtlas.__init__``, and ``atlas.py`` names
    neither of the oracle's former slots."""
    uses = [
        (path.name, node.lineno)
        for path in sorted(SRC.glob("*.py"))
        if path.name != "oracle.py"
        for node in ast.walk(parse(path))
        if isinstance(node, ast.Attribute) and node.attr == "_oracle"
    ]
    init = next(
        fn
        for cls in ast.walk(parse(SRC / "atlas.py"))
        if isinstance(cls, ast.ClassDef) and cls.name == "KnotAtlas"
        for fn in cls.body
        if isinstance(fn, ast.FunctionDef) and fn.name == "__init__"
    )
    stores = [
        ("atlas.py", node.lineno)
        for node in ast.walk(init)
        if isinstance(node, ast.Assign) and ast.unparse(node) == "self._oracle = None"
    ]
    assert len(stores) == 1 and uses == stores
    assert re.findall(r"\b(?:_moves|_rules_by_dst)\b", (SRC / "atlas.py").read_text()) == []


def public_members(module, cls):
    """Public methods and properties defined in the body of class ``cls``."""
    for node in ast.walk(parse(SRC / f"{module}.py")):
        if isinstance(node, ast.ClassDef) and node.name == cls:
            return {
                f"{cls}.{fn.name}"
                for fn in node.body
                if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
                and not fn.name.startswith("_")
            }
    return set()


def test_every_export_is_used():
    init = SRC / "__init__.py"
    exported = {
        (node.module or "", alias.asname or alias.name)
        for node in ast.walk(parse(init))
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    users = [SRC, ROOT / "tests", ROOT / "perfbench"]
    used = set().union(*(
        used_names(path) for folder in users for path in folder.rglob("*.py") if path != init
    ))
    names = {name for _, name in exported}
    members = set().union(*(public_members(module, name) for module, name in exported))
    assert sorted(names - used) == []
    assert sorted(m for m in members if m.split(".")[1] not in used) == []
