"""Answer checks that do not come from the engine.

References are closed forms where the mathematics gives one, and frozen
answers of the seed commit (``expected.json``) for everything else.  On a
non-zero seed the bases differ, so only basis-independent fields are
compared: invariants, dimensions, verdicts, the HCdim bracket and class
counts.
"""

from __future__ import annotations

import json
from math import comb
from pathlib import Path

EXPECTED = Path(__file__).with_name("expected.json")


# -- closed forms -------------------------------------------------------------------


def truncated_poly_hh(scalars, n: int, degree: int, homology: bool = False) -> list:
    """HH^* / HH_* of k[x]/(x^n) from the 2-periodic resolution, f' = n x^(n-1).

    HH^0 = A, HH^(2i) = A/(f'), HH^(2i-1) = Ann(f'); homology swaps the two.
    Over Z, A/(f') = Z^(n-1) + Z/n and Ann(f') = Z^(n-1); over F_p both are
    all of A when p | n and have dimension n-1 otherwise.
    """
    if degree == 0:
        return [n, []]
    quotient = (degree % 2 == 1) if homology else (degree % 2 == 0)
    if isinstance(scalars, dict):
        return [n, []] if n % scalars["Fp"] == 0 else [n - 1, []]
    if scalars == "Z" and quotient and n > 1:
        return [n - 1, [n]]
    return [n - 1, []]


def matrix_algebra_hh(degree: int) -> list:
    """Morita invariance: HH^*(M_n(Q)) = HH^*(Q) = Q in degree 0."""
    return [1, []] if degree == 0 else [0, []]


def koszul_tor(v: int) -> dict:
    """Tor^{k[x_1..x_v]}_i(k, k) = k^C(v,i), sitting in internal degree i."""
    return {
        "tor": [[comb(v, i), []] for i in range(v + 1)] + [[0, []]],
        "by_degree": [[[i, [comb(v, i), []]]] for i in range(v + 1)] + [[]],
        "fd": v,
    }


def closed_form(ref: dict, answers: dict) -> list[str]:
    """Mismatches against the closed form named by ``ref``."""
    fam = ref["family"]
    bad = []
    if fam in ("truncated_poly", "matrix_algebra"):
        for deg, got in zip(ref["degrees"], answers["degrees"]):
            want = (
                truncated_poly_hh(ref["scalars"], ref["n"], deg, ref.get("homology", False))
                if fam == "truncated_poly"
                else matrix_algebra_hh(deg)
            )
            if got != want:
                bad.append(f"degree {deg}: got {got}, closed form {want}")
    elif fam == "koszul":
        want = koszul_tor(ref["vars"])
        for key in want:
            if answers[key] != want[key]:
                bad.append(f"{key}: got {answers[key]}, closed form {want[key]}")
    elif fam == "fields":
        doc = answers["doc"]
        for key, want in ref["fields"].items():
            got = doc.get(key) if key != "hh1" else [doc["hh1"]["free_rank"], [int(t) for t in doc["hh1"]["torsion"]]]
            if got != want:
                bad.append(f"{key}: got {got}, closed form {want}")
    elif fam == "extension_count":
        p, n = ref["scalars"]["Fp"], ref["n"]
        dim = truncated_poly_hh(ref["scalars"], n, 2)[0]
        if answers["doc"]["classes"] != p**dim:
            bad.append(f"classes: got {answers['doc']['classes']}, closed form {p ** dim}")
    else:
        raise ValueError(f"unknown closed form {fam}")
    return bad


# -- frozen answers -------------------------------------------------------------------


def _invariant_view(answers: dict) -> dict:
    """The basis-independent part of a CLI report."""
    doc = answers["doc"]
    if not isinstance(doc, dict) or "error" in doc:
        return answers
    keep = {}
    for key in ("rank", "scalars", "center_dim", "der_dim", "inn_dim", "hh1", "classes",
                "cocycle", "cohomologous_to_zero", "lift", "regular", "failing_index",
                "reason", "tor", "fd_certificate", "degree", "free_rank", "torsion"):
        if key in doc:
            keep[key] = doc[key]
    if "separability" in doc:
        keep["separable"] = doc["separability"]["separable"]
    if "quasi_free" in doc:
        keep["quasi_free"] = doc["quasi_free"]["quasi_free"]
    if "hcdim" in doc:
        keep["hcdim"] = [doc["hcdim"]["proved_upper"], doc["hcdim"]["witnessed_lower"]]
    return {"exit": answers["exit"], "doc": keep}


def load_expected() -> dict:
    return json.loads(EXPECTED.read_text()) if EXPECTED.exists() else {}


def against_frozen(spec: dict, answers: dict, seed: int, expected: dict) -> list[str]:
    want = expected.get(spec["id"])
    if want is None:
        return [f"no frozen answer for {spec['id']}"]
    got = answers
    if spec["kind"] == "cli" and seed != 0:
        got, want = _invariant_view(answers), _invariant_view(want)
    if got == want:
        return []
    if isinstance(got.get("doc"), dict) and isinstance(want.get("doc"), dict):
        got, want = got["doc"], want["doc"]
    keys = sorted(k for k in set(got) | set(want) if got.get(k) != want.get(k))
    return [f"{k}: got {json.dumps(got.get(k))[:120]}, frozen {json.dumps(want.get(k))[:120]}" for k in keys]


def check(spec: dict, answers: dict, seed: int, expected: dict) -> list[str]:
    """All mismatches of one report's answers; empty when it is right."""
    if spec["kind"] == "cli" and answers.get("exit") != 0:
        return [f"exit code {answers.get('exit')}: {json.dumps(answers.get('doc'))[:200]}"]
    bad = against_frozen(spec, answers, seed, expected)
    if "ref" in spec:
        bad += closed_form(spec["ref"], answers)
    return bad
