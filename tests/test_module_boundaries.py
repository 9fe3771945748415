"""Each module keeps its private names to itself, and the import graph stays flat.

``hochschild.elimination`` holds the row cores and the Smith form, and only
``matrix.py`` imports it; every other module computes with ``Matrix``-level
names.  No module imports an underscore name of another (``bar`` alone knows
the letter set and the chain layout, ``io_json`` alone its readers' helpers),
none imports a sibling inside a function, which would hide an import cycle,
and every name a module imports is used there, since no linter runs over
the package.  Read from the source with ``ast``, so no module is imported.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "hochschild"
LAYER = ("matrix", "elimination")


def _imports_from(module: str) -> list[tuple[str, str, str]]:
    """(importing file, module, name) for each `from .module import name` in src/hochschild;
    `from . import module` counts with the module's own name."""
    out = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.ImportFrom):
                continue
            if node.module in (module, f"hochschild.{module}"):
                out += [(path.name, module, alias.name) for alias in node.names]
            elif node.module in (None, "hochschild"):  # from . import module
                out += [(path.name, module, module) for alias in node.names if alias.name == module]
    return out


def test_only_matrix_imports_elimination():
    assert {f for f, _, _ in _imports_from("elimination")} == {"matrix.py"}


def test_no_module_imports_a_private_name_of_the_elimination_layer():
    private = [i for m in LAYER for i in _imports_from(m) if i[2].startswith("_")]
    assert private == []


def _parsed():
    return [(path.name, ast.parse(path.read_text())) for path in sorted(SRC.glob("*.py"))]


def _is_sibling(node: ast.ImportFrom) -> bool:
    return node.level > 0 or (node.module or "").split(".")[0] == "hochschild"


def test_no_module_imports_a_private_name_of_another():
    private = [
        (name, node.module, alias.name)
        for name, tree in _parsed()
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and _is_sibling(node)
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert private == []


def test_no_sibling_import_inside_a_function():
    nested = [
        (name, fn.name, node.module)
        for name, tree in _parsed()
        for fn in ast.walk(tree)
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.walk(fn)
        if isinstance(node, ast.ImportFrom) and _is_sibling(node)
    ]
    assert nested == []


def test_every_imported_name_is_used():
    unused = []
    for name, tree in _parsed():
        if name == "__init__.py":  # it imports to re-export
            continue
        bound = {
            (alias.asname or alias.name).split(".")[0]
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__"
            for alias in node.names
        }
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [(name, n) for n in sorted(bound - used)]
    assert unused == []
