"""Every function the bench tracer wraps still exists in the package.

``bench/spans.py`` reports a vanished name as null with a note instead of
failing, so a refactor that deletes or renames a wrapped function would
otherwise go unnoticed in ``--trace`` tables.  ``LAYERS`` is read from the
source with ``ast``: nothing under ``bench/`` is imported or written.
"""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def _layers() -> dict[str, list[str]]:
    for node in ast.parse(SPANS.read_text()).body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "LAYERS" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError("bench/spans.py defines no LAYERS table")


def test_every_bench_layer_name_resolves():
    layers = _layers()
    assert layers
    missing = []
    for layer, names in layers.items():
        module = importlib.import_module(f"hochschild.{layer}")
        for name in names:
            obj = module
            for part in name.split("."):
                obj = getattr(obj, part, None)
            if not callable(obj):
                missing.append(f"{layer}.{name}")
    assert missing == []
