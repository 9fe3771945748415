"""The elimination layer keeps its dict-row format to itself.

``hochschild.elimination`` holds the row cores and the Smith form, and only
``matrix.py`` imports it; every other module computes with ``Matrix``-level
names.  Read from the source with ``ast``, so no module is imported.
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
