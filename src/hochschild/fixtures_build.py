"""Generator for the bundled fixture corpus (committed under fixtures/).

Regenerating must be byte-identical to the committed files; the round-trip
test asserts this.  Run `python -m hochschild.fixtures_build [dir]`.
"""

from __future__ import annotations

import sys
from pathlib import Path

from .algebra import regular_bimodule
from .catalog import split_product, standard_corpus
from .cohomology import Cochain
from .io_json import algebra_to_json, bimodule_to_json, cochain_to_json, dumps
from .matrix import Matrix
from .rings import GF, QQ, ZZ


def corpus_documents() -> dict[str, dict]:
    """Every bundled fixture file as (name -> JSON document)."""
    algebras = standard_corpus({"Z": ZZ, "Q": QQ, "F2": GF(2)})
    docs = {f"{name}.json": algebra_to_json(A) for name, A in algebras.items()}

    # separable of rank 6 on a non-unital basis: level-1 syzygy decisions
    # there go through the separability idempotent
    docs["split6_q.json"] = algebra_to_json(split_product(QQ, 6))

    dual_f2 = algebras["dual_f2"]
    reg = regular_bimodule(dual_f2)
    docs["dual_f2_regular.json"] = bimodule_to_json(reg, algebra_ref="dual_f2.json")

    # the nontrivial class: B(x, x) = 1, all other basis pairs zero
    ring = dual_f2.ring
    # value coordinate "1" on the pair (x, x)
    nontrivial = Cochain(dual_f2, reg, 2, Matrix.from_triplets(ring, 2, 4, [(0, 3, ring.one)]))
    docs["cocycle_dual_f2_xx.json"] = cochain_to_json(
        nontrivial, algebra_ref="dual_f2.json", bimodule_ref="dual_f2_regular.json"
    )

    docs["ext_dual_f2_trivial.json"] = {
        "algebra": "dual_f2.json",
        "bimodule": "dual_f2_regular.json",
        "cocycle": [["0", "0", "0", "0"], ["0", "0", "0", "0"]],
    }
    docs["ext_dual_f2_nontrivial.json"] = {
        "algebra": "dual_f2.json",
        "bimodule": "dual_f2_regular.json",
        "cocycle": [["0", "0", "0", "1"], ["0", "0", "0", "0"]],
    }

    docs["koszul_z_mod2.json"] = {
        "algebra": "scalar_z.json",
        "sequence": [["2"]],
        "module": {"generators": 1, "relations": [["2"]], "action": [[["1"]]]},
    }
    docs["koszul_z_seq23.json"] = {
        "algebra": "scalar_z.json",
        "sequence": [["2"], ["3"]],
        "module": "self",
    }
    return docs


def write_corpus(directory) -> list[str]:
    out = Path(directory)
    out.mkdir(parents=True, exist_ok=True)
    written = []
    for name, doc in sorted(corpus_documents().items()):
        (out / name).write_text(dumps(doc))
        written.append(name)
    return written


if __name__ == "__main__":
    target = sys.argv[1] if len(sys.argv) > 1 else Path(__file__).parent / "fixtures"
    for name in write_corpus(target):
        print(name)
