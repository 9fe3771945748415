import json
from importlib import resources
from pathlib import Path

import pytest

from hochschild import cli
from hochschild.algebra import regular_bimodule
from hochschild.catalog import dual_numbers
from hochschild.cli import main
from hochschild.fixtures_build import corpus_documents
from hochschild.io_json import (
    SchemaError,
    algebra_from_json,
    algebra_to_json,
    bimodule_from_json,
    bimodule_to_json,
    dumps,
    load_algebra,
    ring_from_json,
    ring_to_json,
)
from hochschild.matrix import ContainmentError, ShapeError
from hochschild.rings import GF, QQ, ZZ

FIXDIR = Path(str(resources.files("hochschild") / "fixtures"))


def fx(name: str) -> str:
    return str(FIXDIR / name)


# -- schemas ------------------------------------------------------------------------

def test_ring_json_round_trip():
    for ring in (ZZ, QQ, GF(7)):
        assert ring_from_json(ring_to_json(ring)) == ring


def test_algebra_json_round_trip():
    A = dual_numbers(QQ)
    doc = algebra_to_json(A)
    back = algebra_from_json(doc)
    assert back == A


def test_bimodule_json_round_trip():
    A = dual_numbers(GF(2))
    M = regular_bimodule(A)
    doc = bimodule_to_json(M)
    back = bimodule_from_json(doc)
    assert back.left == M.left and back.right == M.right


def test_algebra_schema_errors():
    with pytest.raises(SchemaError):
        algebra_from_json({"scalars": "Z"})
    with pytest.raises(SchemaError):
        algebra_from_json({"scalars": "Z", "rank": 1, "basis": ["1"], "unit": ["1"], "mul": ["2"]})
    with pytest.raises(SchemaError):
        ring_from_json({"Fp": 6})


def test_scalars_are_strings_never_floats():
    doc = algebra_to_json(dual_numbers(QQ))
    assert all(isinstance(x, str) for x in doc["mul"])
    with pytest.raises(SchemaError):
        algebra_from_json(dict(doc, unit=[1.0, 0.0]))


def test_fixture_corpus_round_trips_byte_identically():
    docs = corpus_documents()
    assert len(docs) >= 15
    for name, doc in docs.items():
        on_disk = (FIXDIR / name).read_text()
        assert on_disk == dumps(doc), name
        # parse -> re-serialize is also the identity on bytes
        assert dumps(json.loads(on_disk)) == on_disk


def test_every_algebra_fixture_validates():
    for name in FIXDIR.glob("*.json"):
        doc = json.loads(name.read_text())
        if {"scalars", "rank"} <= set(doc):
            load_algebra(name)


# -- CLI ----------------------------------------------------------------------------

def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, (json.loads(out) if out.strip().startswith("{") else out)


def test_cli_hh_dual_f2(capsys):
    code, doc = run_cli(capsys, "hh", fx("dual_f2.json"), "--degree", "2")
    assert code == 0
    assert doc["free_rank"] == 2 and doc["torsion"] == []


def test_cli_hh_dual_z_torsion(capsys):
    code, doc = run_cli(capsys, "hh", fx("dual_z.json"), "--degree", "2")
    assert code == 0
    assert doc["free_rank"] == 1 and doc["torsion"] == ["2"]


def test_cli_hh_scalar_high_degree(capsys):
    code, doc = run_cli(capsys, "hh", fx("scalar_q.json"), "--degree", "5")
    assert code == 0
    assert doc["free_rank"] == 0 and doc["torsion"] == []


def test_cli_hh_homology(capsys):
    code, doc = run_cli(capsys, "hh", fx("m2_q.json"), "--degree", "0", "--homology")
    assert code == 0
    assert doc["free_rank"] == 1


def test_cli_hh_representatives(capsys):
    code, doc = run_cli(capsys, "hh", fx("dual_q.json"), "--degree", "1", "--representatives")
    assert code == 0
    assert len(doc["representatives"]) == 1


def test_cli_analyze_m2(capsys):
    code, doc = run_cli(capsys, "analyze", fx("m2_q.json"))
    assert code == 0
    assert doc["separability"]["separable"] is True
    assert doc["hcdim"]["proved_upper"] == "0"
    assert doc["quasi_free"]["quasi_free"] is True


def test_cli_analyze_zxz(capsys):
    code, doc = run_cli(capsys, "analyze", fx("zxz.json"))
    assert code == 0
    assert doc["quasi_free"]["quasi_free"] is True


def test_cli_analyze_dual_q(capsys):
    code, doc = run_cli(capsys, "analyze", fx("dual_q.json"))
    assert code == 0
    assert doc["quasi_free"]["quasi_free"] is False
    assert "witness_cocycle" in doc["quasi_free"]


def test_cli_extensions_enumerate(capsys):
    code, doc = run_cli(
        capsys, "extensions", fx("dual_f2.json"), fx("dual_f2_regular.json"), "--enumerate"
    )
    assert code == 0
    assert doc["classes"] == 4


def test_cli_extensions_lift(capsys):
    code, doc = run_cli(capsys, "extensions", fx("dual_f2.json"), "--lift", fx("ext_dual_f2_trivial.json"))
    assert code == 0 and doc["lift"] is True
    code, doc = run_cli(capsys, "extensions", fx("dual_f2.json"), "--lift", fx("ext_dual_f2_nontrivial.json"))
    assert code == 0 and doc["lift"] is False


def test_cli_extensions_class_of_coboundary(capsys):
    # b^1 of zeta(1) = x over F2: a coboundary, hence cohomologous to zero
    from hochschild.extensions import coboundary_of
    from hochschild.io_json import cochain_to_json, save

    A = dual_numbers(GF(2))
    M = regular_bimodule(A)
    from hochschild.matrix import Matrix

    zeta = Matrix.from_rows(GF(2), [[0, 0], [1, 0]])
    B = coboundary_of(A, M, zeta)
    path = FIXDIR.parent / "tmp_cocycle.json"
    save(cochain_to_json(B), path)
    try:
        code, doc = run_cli(capsys, "extensions", fx("dual_f2.json"), "--class", str(path))
        assert code == 0
        assert doc["cocycle"] is True and doc["cohomologous_to_zero"] is True
        assert "zeta" in doc
    finally:
        path.unlink()


def test_cli_koszul_graded(capsys):
    code, doc = run_cli(capsys, "koszul", "--vars", "2", "--ring", "Z", "--cap", "3")
    assert code == 0
    assert [t["free_rank"] for t in doc["tor"]] == [1, 2, 1, 0]
    assert doc["fd_certificate"] == 2


def test_cli_koszul_finite(capsys):
    code, doc = run_cli(capsys, "koszul", "--finite", fx("koszul_z_mod2.json"))
    assert code == 0
    assert doc["regular"] is True
    assert doc["tor"] == [{"free_rank": 0, "torsion": ["2"]}, {"free_rank": 0, "torsion": ["2"]}]
    assert doc["fd_certificate"] == 1


def test_cli_koszul_irregular_sequence(capsys):
    code, doc = run_cli(capsys, "koszul", "--finite", fx("koszul_z_seq23.json"))
    assert code == 0
    assert doc["regular"] is False and doc["failing_index"] == 2


@pytest.mark.parametrize(
    "algebra, element",
    [("x3_z.json", ["2"]), ("scalar_z.json", ["2", "0", "0", "0", "0"]), ("scalar_z.json", ["2", "1"])],
)
def test_cli_koszul_sequence_of_wrong_length_exit_2(capsys, tmp_path, algebra, element):
    instance = tmp_path / "instance.json"
    instance.write_text(json.dumps({"algebra": fx(algebra), "sequence": [element]}))
    code, doc = run_cli(capsys, "koszul", "--finite", str(instance))
    assert code == 2
    assert doc["error"]["stage"] == "validation"
    assert "coordinates" in doc["error"]["witness"]


@pytest.mark.parametrize("content", [None, "{not json"])
def test_cli_koszul_unreadable_instance_exit_2(capsys, tmp_path, content):
    instance = tmp_path / "instance.json"
    if content is not None:
        instance.write_text(content)
    code, doc = run_cli(capsys, "koszul", "--finite", str(instance))
    assert code == 2
    assert doc["error"]["stage"] == "file"


@pytest.mark.parametrize(
    "instance, stage",
    [
        ([1], "koszul"),
        ({"sequence": 5}, "koszul"),
        ({"algebra": "scalar_z.json", "sequence": [5]}, "koszul"),
        ({"algebra": "scalar_z.json", "module": 5}, "koszul"),
        ({"algebra": "scalar_z.json", "sequence": [[2]]}, "koszul.sequence"),
    ],
)
def test_cli_koszul_malformed_instance_exit_2(capsys, tmp_path, instance, stage):
    if isinstance(instance, dict) and "algebra" in instance:
        instance["algebra"] = fx(instance["algebra"])
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(instance))
    code, doc = run_cli(capsys, "koszul", "--finite", str(path))
    assert code == 2
    assert doc["error"]["stage"] == stage


@pytest.mark.parametrize("extra", [["--ring", "Q"], ["--cap", "9"], ["--ring", "Z", "--cap", "4"]])
def test_cli_koszul_finite_rejects_graded_options(capsys, extra):
    code, doc = run_cli(capsys, "koszul", "--finite", fx("koszul_z_mod2.json"), *extra)
    assert code == 2
    assert doc["error"]["stage"] == "validation"
    assert "--ring" in doc["error"]["witness"]


@pytest.mark.parametrize("extra", [["--unnormalized"], ["--representatives"], ["--unnormalized", "--representatives"]])
def test_cli_hh_homology_rejects_cohomology_options(capsys, extra):
    code, doc = run_cli(capsys, "hh", fx("dual_q.json"), "--degree", "2", "--homology", *extra)
    assert code == 2
    assert doc["error"]["stage"] == "validation"
    assert "--homology" in doc["error"]["witness"]


def test_cli_koszul_graded_defaults_are_z_and_cap_4(capsys):
    assert run_cli(capsys, "koszul", "--vars", "2") == run_cli(capsys, "koszul", "--vars", "2", "--ring", "Z", "--cap", "4")


def test_cli_koszul_needs_vars_or_finite(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["koszul", "--ring", "Z"])
    assert exc.value.code == 2
    assert "--vars" in capsys.readouterr().err


def test_cli_koszul_size_guard_exit_3(capsys):
    code, doc = run_cli(capsys, "koszul", "--vars", "3", "--cap", "5", "--guard", "10")
    assert code == 3
    assert doc["error"]["stage"] == "size-guard"


def test_cli_bound(capsys):
    code, doc = run_cli(capsys, "bound", "--fd", "2", "--Dk", "1", "--fdk", "0")
    assert code == 0
    assert doc["hcdim_lower_bound"] == 1 and doc["not_quasi_free"] is False
    code, doc = run_cli(capsys, "bound", "--fd", "3", "--Dk", "1")
    assert doc["hcdim_lower_bound"] == 2 and doc["not_quasi_free"] is True
    code, doc = run_cli(capsys, "bound", "--fd", "0", "--Dk", "0")
    assert doc["hcdim_lower_bound"] == 0 and doc["verdict"] == "HCdim >= 0"


def test_cli_validation_error_exit_2(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"scalars": "Z", "rank": 1}')
    code, doc = run_cli(capsys, "hh", str(bad), "--degree", "0")
    assert code == 2
    assert doc["error"]["stage"] == "algebra"


def test_cli_nonassociative_rejected_exit_2(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(
        json.dumps(
            {
                "scalars": "Q",
                "rank": 2,
                "basis": ["a", "b"],
                "unit": ["1", "0"],
                "mul": ["0", "1", "0", "0", "1", "0", "0", "0"],
            }
        )
    )
    code, doc = run_cli(capsys, "hh", str(bad), "--degree", "0")
    assert code == 2
    assert "associativity" in doc["error"]["witness"]


def test_cli_size_guard_exit_3(capsys):
    code, doc = run_cli(capsys, "hh", fx("m2_q.json"), "--degree", "3", "--unnormalized", "--guard", "100")
    assert code == 3
    assert doc["error"]["stage"] == "size-guard"


@pytest.mark.parametrize("exc", [ShapeError("shape mismatch in addition"), ContainmentError(0)])
def test_cli_engine_shape_and_containment_errors_exit_4(capsys, monkeypatch, exc):
    def broken(args):
        raise exc

    monkeypatch.setattr(cli, "cmd_hh", broken)
    code, doc = run_cli(capsys, "hh", fx("dual_f2.json"), "--degree", "0")
    assert code == 4
    assert doc["error"]["stage"] == "internal"
    assert doc["error"]["witness"].startswith(type(exc).__name__)


def test_cli_homology_degree_10_fits_the_default_guard(capsys):
    code, doc = run_cli(capsys, "hh", fx("dual_q.json"), "--degree", "10", "--homology")
    assert code == 0
    assert (doc["free_rank"], doc["torsion"]) == (1, [])


def test_cli_guard_zero_means_unlimited(capsys):
    code, doc = run_cli(capsys, "hh", fx("dual_q.json"), "--degree", "1", "--guard", "0")
    assert code == 0


@pytest.mark.parametrize(
    "argv",
    [
        ("hh", fx("dual_q.json"), "--degree", "1"),
        ("hh", fx("dual_q.json"), "--degree", "1", "--homology"),
        ("analyze", fx("dual_q.json")),
        ("extensions", fx("dual_f2.json"), "--enumerate"),
        ("extensions", fx("dual_f2.json"), "--class", fx("cocycle_dual_f2_xx.json")),
        ("extensions", fx("dual_f2.json"), "--lift", fx("ext_dual_f2_trivial.json")),
    ],
)
def test_cli_negative_guard_is_a_validation_error(capsys, argv):
    code, doc = run_cli(capsys, *argv, "--guard", "-1")
    assert code == 2
    assert doc["error"]["stage"] == "validation"
    assert "--guard" in doc["error"]["witness"]


def test_cli_extensions_enumerate_obeys_the_guard(capsys):
    code, doc = run_cli(capsys, "extensions", fx("dual_f2.json"), "--enumerate", "--guard", "1")
    assert code == 3
    assert doc["error"]["stage"] == "size-guard"


def test_cli_missing_file_exit_2(capsys):
    code, doc = run_cli(capsys, "hh", "no_such_file.json", "--degree", "0")
    assert code == 2
    assert doc["error"]["stage"] == "file"


def test_cli_output_file(capsys, tmp_path):
    out = tmp_path / "report.json"
    code = main(["hh", fx("dual_f2.json"), "--degree", "2", "--output", str(out)])
    assert code == 0
    assert json.loads(out.read_text())["free_rank"] == 2


def test_cli_fixtures_listing(capsys):
    code, out = run_cli(capsys, "fixtures")
    assert code == 0
    assert "dual_f2.json" in out
    code, out = run_cli(capsys, "fixtures", "dual_f2.json")
    assert code == 0
    assert out.strip().endswith("dual_f2.json")
