"""JSON file formats for algebras, bimodules, cochains and extensions.

Scalars travel as decimal strings ("3", "-1/2"), never floats, so files are
exact end-to-end.  Serialization is canonical (two-space indent, one
trailing newline): the bundled fixtures re-serialize byte-identically.
"""

from __future__ import annotations

import json
from pathlib import Path

from .algebra import (
    Bimodule,
    FiniteAlgebra,
    validate_algebra,
    validate_bimodule,
)
from .cohomology import Cochain
from .extensions import ExtensionPresentation, crossed_product_presentation, validate_extension
from .koszul import PresentedModule, free_module, presented_module
from .matrix import Matrix
from .rings import GF, QQ, ZZ, ScalarRing


class SchemaError(ValueError):
    """A file failed schema validation; carries the stage and a witness."""

    def __init__(self, stage: str, witness: str):
        self.stage = stage
        self.witness = witness
        super().__init__(f"{stage}: {witness}")


def _is_count(x) -> bool:
    """An int that JSON wrote as a number: true and false are not counts."""
    return isinstance(x, int) and not isinstance(x, bool)


def ring_to_json(ring: ScalarRing):
    return {"Fp": ring.p} if ring.p else ring.kind


def ring_from_json(doc) -> ScalarRing:
    if doc == "Z":
        return ZZ
    if doc == "Q":
        return QQ
    if isinstance(doc, dict) and set(doc) == {"Fp"}:
        if not _is_count(doc["Fp"]):
            raise SchemaError("scalars", f"Fp takes an integer prime, got {doc['Fp']!r}")
        try:
            return GF(doc["Fp"])
        except ValueError as exc:
            raise SchemaError("scalars", str(exc)) from None
    raise SchemaError("scalars", f"unrecognized scalar ring {doc!r}")


def _parse_scalar(ring: ScalarRing, s, where: str):
    if not isinstance(s, str):
        raise SchemaError(where, f"scalar {s!r} must be a decimal string")
    try:
        return ring.parse(s)
    except ValueError as exc:
        raise SchemaError(where, str(exc)) from None


def _matrix_from_json(ring: ScalarRing, doc, rows: int, cols: int, where: str) -> Matrix:
    if not isinstance(doc, list) or len(doc) != rows or any(not isinstance(r, list) or len(r) != cols for r in doc):
        raise SchemaError(where, f"expected a {rows}x{cols} nested list of strings")
    if not rows:  # [] carries no width: take it from the expected shape
        return Matrix.zeros(ring, 0, cols)
    return Matrix.from_rows(ring, [[_parse_scalar(ring, x, where) for x in r] for r in doc])


def _matrix_to_json(M: Matrix):
    return [[M.ring.format(x) for x in row] for row in M.to_rows()]


# -- algebras -----------------------------------------------------------------


def algebra_to_json(A: FiniteAlgebra) -> dict:
    return {
        "scalars": ring_to_json(A.ring),
        "rank": A.rank,
        "basis": list(A.basis_names),
        "unit": [A.ring.format(u) for u in A.unit],
        "mul": [A.ring.format(c) for c in A.mul],
    }


def algebra_from_json(doc) -> FiniteAlgebra:
    if not isinstance(doc, dict):
        raise SchemaError("algebra", "expected an object")
    missing = {"scalars", "rank", "basis", "unit", "mul"} - set(doc)
    if missing:
        raise SchemaError("algebra", f"missing fields {sorted(missing)}")
    ring = ring_from_json(doc["scalars"])
    d = doc["rank"]
    if not _is_count(d) or d < 1:
        raise SchemaError("algebra", "rank must be a positive integer")
    for key, n, what in (
        ("basis", d, "basis names"),
        ("unit", d, "unit coordinates"),
        ("mul", d**3, "structure constants (flat, row-major)"),
    ):
        if not isinstance(doc[key], list) or len(doc[key]) != n:
            raise SchemaError("algebra", f"expected a list of {n} {what}")
    if not all(isinstance(name, str) for name in doc["basis"]):
        raise SchemaError("algebra", "basis names must be strings")
    unit = [_parse_scalar(ring, u, "algebra.unit") for u in doc["unit"]]
    mul = [_parse_scalar(ring, c, "algebra.mul") for c in doc["mul"]]
    try:
        return validate_algebra(ring, d, doc["basis"], unit, mul)
    except ValueError as exc:
        raise SchemaError("algebra.validate", str(exc)) from None


# -- bimodules ----------------------------------------------------------------


def bimodule_to_json(M: Bimodule, algebra_ref: str | None = None) -> dict:
    return {
        "algebra": algebra_ref if algebra_ref is not None else algebra_to_json(M.algebra),
        "rank": M.rank,
        "left": [_matrix_to_json(L) for L in M.left],
        "right": [_matrix_to_json(R) for R in M.right],
    }


def _referenced_path(name: str, base_dir: Path | None) -> Path:
    """The path of a file named by a document: a relative name is read from base_dir, when given."""
    path = Path(name)
    return path if base_dir is None or path.is_absolute() else base_dir / path


def _resolve_algebra(doc, base_dir: Path | None) -> FiniteAlgebra:
    return load_algebra(_referenced_path(doc, base_dir)) if isinstance(doc, str) else algebra_from_json(doc)


def bimodule_from_json(doc, base_dir: Path | None = None) -> Bimodule:
    if not isinstance(doc, dict):
        raise SchemaError("bimodule", "expected an object")
    missing = {"algebra", "rank", "left", "right"} - set(doc)
    if missing:
        raise SchemaError("bimodule", f"missing fields {sorted(missing)}")
    A = _resolve_algebra(doc["algebra"], base_dir)
    m = doc["rank"]
    if not _is_count(m) or m < 0:
        raise SchemaError("bimodule", "rank must be a nonnegative integer")
    if any(not isinstance(doc[key], list) or len(doc[key]) != A.rank for key in ("left", "right")):
        raise SchemaError("bimodule", f"expected lists of {A.rank} left and right action matrices")
    left = [_matrix_from_json(A.ring, L, m, m, "bimodule.left") for L in doc["left"]]
    right = [_matrix_from_json(A.ring, R, m, m, "bimodule.right") for R in doc["right"]]
    try:
        return validate_bimodule(A, m, left, right)
    except ValueError as exc:
        raise SchemaError("bimodule.validate", str(exc)) from None


# -- presented modules (Koszul coefficients) -----------------------------------


def presented_module_from_json(doc, base_dir: Path | None = None) -> PresentedModule:
    if not isinstance(doc, dict):
        raise SchemaError("module", "expected an object")
    A = _resolve_algebra(doc.get("algebra"), base_dir)
    free = doc.get("self", False)
    if not isinstance(free, bool):
        raise SchemaError("module", f'"self" must be true or false, got {free!r}')
    if free or "generators" not in doc:
        return free_module(A)
    g, rel_doc, action_doc = doc["generators"], doc.get("relations", []), doc.get("action", [])
    if not _is_count(g) or g < 0:
        raise SchemaError("module", "generators must be a nonnegative integer")
    if not isinstance(rel_doc, list) or not isinstance(action_doc, list) or len(action_doc) != A.rank:
        raise SchemaError("module", f"expected a list of relations and a list of {A.rank} action matrices")
    ncols = len(rel_doc[0]) if rel_doc and isinstance(rel_doc[0], list) else 0
    relations = _matrix_from_json(A.ring, rel_doc, g, ncols, "module.relations") if rel_doc else Matrix.zeros(A.ring, g, 0)
    action = [_matrix_from_json(A.ring, T, g, g, "module.action") for T in action_doc]
    try:
        return presented_module(A, g, relations, action)
    except ValueError as exc:
        raise SchemaError("module.validate", str(exc)) from None


# -- cochains and extensions ----------------------------------------------------


def cochain_to_json(B: Cochain, algebra_ref=None, bimodule_ref=None) -> dict:
    return {
        "algebra": algebra_ref if algebra_ref is not None else algebra_to_json(B.algebra),
        "bimodule": bimodule_ref if bimodule_ref is not None else bimodule_to_json(B.bimodule),
        "matrix": _matrix_to_json(B.matrix),
    }


def _resolve_bimodule(doc, base_dir: Path | None) -> Bimodule:
    return load_bimodule(_referenced_path(doc, base_dir)) if isinstance(doc, str) else bimodule_from_json(doc, base_dir)


def cochain_from_json(doc, base_dir: Path | None = None) -> Cochain:
    if not isinstance(doc, dict) or "matrix" not in doc:
        raise SchemaError("cochain", "expected an object with a matrix field")
    A = _resolve_algebra(doc.get("algebra"), base_dir)
    M = _resolve_bimodule(doc.get("bimodule"), base_dir)
    mat = _matrix_from_json(A.ring, doc["matrix"], M.rank, A.rank**2, "cochain.matrix")
    return Cochain(A, M, 2, mat)


def extension_from_json(doc, base_dir: Path | None = None) -> ExtensionPresentation:
    if not isinstance(doc, dict):
        raise SchemaError("extension", "expected an object")
    A = _resolve_algebra(doc.get("algebra"), base_dir)
    M = _resolve_bimodule(doc.get("bimodule"), base_dir)
    if "cocycle" in doc:
        mat = _matrix_from_json(A.ring, doc["cocycle"], M.rank, A.rank**2, "extension.cocycle")
        try:
            return crossed_product_presentation(A, M, Cochain(A, M, 2, mat))
        except ValueError as exc:
            raise SchemaError("extension.validate", str(exc)) from None
    missing = {"total", "projection", "inclusion", "section"} - set(doc)
    if missing:
        raise SchemaError("extension", f"missing fields {sorted(missing)}")
    total = algebra_from_json(doc["total"])
    d, m = A.rank, M.rank
    proj = _matrix_from_json(A.ring, doc["projection"], d, d + m, "extension.projection")
    incl = _matrix_from_json(A.ring, doc["inclusion"], d + m, m, "extension.inclusion")
    sect = _matrix_from_json(A.ring, doc["section"], d + m, d, "extension.section")
    try:
        return validate_extension(ExtensionPresentation(A, M, total, proj, incl, sect))
    except ValueError as exc:
        raise SchemaError("extension.validate", str(exc)) from None


# -- file helpers ----------------------------------------------------------------


def dumps(doc) -> str:
    return json.dumps(doc, indent=2) + "\n"


def save(doc, path) -> None:
    Path(path).write_text(dumps(doc))


def _load_doc(path):
    try:
        return json.loads(Path(path).read_text())
    except FileNotFoundError:
        raise SchemaError("file", f"no such file: {path}") from None
    except json.JSONDecodeError as exc:
        raise SchemaError("file", f"invalid JSON in {path}: {exc}") from None


def load_algebra(path) -> FiniteAlgebra:
    return algebra_from_json(_load_doc(path))


def load_bimodule(path) -> Bimodule:
    return bimodule_from_json(_load_doc(path), base_dir=Path(path).parent)


def load_cochain(path) -> Cochain:
    return cochain_from_json(_load_doc(path), base_dir=Path(path).parent)


def load_extension(path) -> ExtensionPresentation:
    return extension_from_json(_load_doc(path), base_dir=Path(path).parent)
