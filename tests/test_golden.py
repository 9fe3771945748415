"""Frozen CLI reports for every bundled fixture, compared byte for byte.

Each case runs ``hochschild.cli.main`` on bundled fixture files and compares
stdout and the exit code with ``tests/golden/``.  The files were recorded
before the matrix layer went sparse; any change to an answer or to a
representative shows up here.  Regenerate (only when a change of output is
intended) with

    PYTHONPATH=src python tests/test_golden.py --write
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from importlib import resources
from pathlib import Path

import pytest

from hochschild.cli import main

GOLDEN = Path(__file__).parent / "golden"
FIXDIR = Path(str(resources.files("hochschild") / "fixtures"))

ALGEBRAS = [
    "dual_f2", "dual_q", "dual_z", "free2_trunc_q", "m2_q", "scalar_f2",
    "scalar_q", "scalar_z", "ut2_q", "x3_z", "zxz",
]


def _cases() -> dict[str, list[str]]:
    cases: dict[str, list[str]] = {}
    for a in ALGEBRAS:
        f = f"@{a}.json"
        for n in range(3):
            cases[f"hh_{a}_{n}"] = ["hh", f, "--degree", str(n), "--representatives"]
            cases[f"hh_{a}_{n}_unnormalized"] = ["hh", f, "--degree", str(n), "--unnormalized", "--representatives"]
            cases[f"hh_{a}_{n}_homology"] = ["hh", f, "--degree", str(n), "--homology"]
        cases[f"analyze_{a}"] = ["analyze", f]
        cases[f"extensions_{a}_enumerate"] = ["extensions", f, "--enumerate"]
    # unguarded, so the syzygy decisions up to level 1 run; the file was
    # recorded from the direct section system, an independent route
    cases["analyze_free2_trunc_q_cap1_unguarded"] = ["analyze", "@free2_trunc_q.json", "--cap", "1", "--guard", "0"]
    # separable of rank 6 on a non-unital basis (recorded from the averaging
    # section, an independent route)
    cases["analyze_split6_q"] = ["analyze", "@split6_q.json"]
    cases["hh_dual_f2_regular_2"] = ["hh", "@dual_f2.json", "--bimodule", "@dual_f2_regular.json", "--degree", "2", "--representatives"]
    cases["extensions_dual_f2_regular_enumerate"] = ["extensions", "@dual_f2.json", "@dual_f2_regular.json", "--enumerate"]
    cases["extensions_cocycle_dual_f2_xx"] = ["extensions", "@dual_f2.json", "--class", "@cocycle_dual_f2_xx.json"]
    for e in ("trivial", "nontrivial"):
        cases[f"extensions_lift_{e}"] = ["extensions", "@dual_f2.json", "--lift", f"@ext_dual_f2_{e}.json"]
    for k in ("koszul_z_mod2", "koszul_z_seq23"):
        cases[f"koszul_{k}"] = ["koszul", "--finite", f"@{k}.json"]
    for ring, v, cap in (("Z", 2, 3), ("Q", 3, 3), ('{"Fp": 3}', 2, 4)):
        tag = ring if ring in ("Z", "Q") else "F3"
        cases[f"koszul_graded_{tag}_{v}_{cap}"] = ["koszul", "--vars", str(v), "--ring", ring, "--cap", str(cap)]
    return cases


CASES = _cases()


def _run(argv: list[str]) -> tuple[int, str]:
    args = [str(FIXDIR / a[1:]) if a.startswith("@") else a for a in argv]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(args)
    return code, out.getvalue()


def _exit_codes() -> dict:
    return json.loads((GOLDEN / "exit_codes.json").read_text())


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_report_matches_golden(name):
    code, text = _run(CASES[name])
    assert code == _exit_codes()[name]
    assert text == (GOLDEN / f"{name}.json").read_text()


def test_every_golden_file_has_a_case():
    on_disk = {p.stem for p in GOLDEN.glob("*.json")} - {"exit_codes"}
    assert on_disk == set(CASES)
    assert set(_exit_codes()) == set(CASES)


def write_goldens() -> None:
    GOLDEN.mkdir(exist_ok=True)
    codes = {}
    for name in sorted(CASES):
        codes[name], text = _run(CASES[name])
        (GOLDEN / f"{name}.json").write_text(text)
    (GOLDEN / "exit_codes.json").write_text(json.dumps(codes, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        raise SystemExit("usage: python tests/test_golden.py --write")
    write_goldens()
