"""Module layout, read from the source without importing the package.

No module imports inside a function body (such imports hide cycles), and
``cables`` imports nothing from ``links``, which is built on top of it.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "legcable"


def parse(path):
    return ast.parse(path.read_text(), filename=str(path))


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


def test_cables_imports_nothing_from_links():
    imported = set()
    for node in ast.walk(parse(SRC / "cables.py")):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            imported.add(module)
            imported.update(f"{module}.{alias.name}".lstrip(".") for alias in node.names)
        elif isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
    assert not {"links", "legcable.links"} & imported
