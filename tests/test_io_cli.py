import argparse
import json
import sys
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
    _matrix_to_json,
    algebra_from_json,
    algebra_to_json,
    bimodule_from_json,
    bimodule_to_json,
    dumps,
    load_algebra,
    load_extension,
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


@pytest.mark.parametrize("degree, free_rank", [("0", 2), ("1", 0), ("2", 0)])
def test_cli_hh_keeps_a_basis_that_cannot_be_canonicalized(capsys, tmp_path, degree, free_rank):
    # Z x Z on the basis (2, -1), (-1, 1): the unit is 2 e_0 + 3 e_1, with no coordinate +-1
    doc = {"scalars": "Z", "rank": 2, "basis": ["a", "b"], "unit": ["2", "3"]}
    path = tmp_path / "zxz_skew.json"
    path.write_text(json.dumps(dict(doc, mul=["5", "6", "-3", "-4", "-3", "-4", "2", "3"])))
    code, out = run_cli(capsys, "hh", str(path), "--degree", degree)
    assert code == 0
    assert out == {"degree": int(degree), "free_rank": free_rank, "torsion": []}


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


@pytest.mark.parametrize("kind", ["trivial", "nontrivial"])
def test_cli_extensions_lift_explicit_presentation(capsys, tmp_path, kind):
    # the same extension as total algebra, projection, inclusion and section
    E = load_extension(fx(f"ext_dual_f2_{kind}.json"))
    doc = {
        "algebra": fx("dual_f2.json"),
        "bimodule": fx("dual_f2_regular.json"),
        "total": algebra_to_json(E.total),
        **{k: _matrix_to_json(getattr(E, k)) for k in ("projection", "inclusion", "section")},
    }
    explicit = tmp_path / "explicit.json"
    explicit.write_text(json.dumps(doc))
    reports = []
    for ext in (fx(f"ext_dual_f2_{kind}.json"), str(explicit)):
        assert main(["extensions", fx("dual_f2.json"), fx("dual_f2_regular.json"), "--lift", ext]) == 0
        reports.append(capsys.readouterr().out)
    assert reports[0] == reports[1]
    if kind == "nontrivial":
        assert json.loads(reports[1]) == {"class": [["0", "0", "0", "1"], ["0", "0", "0", "0"]], "lift": False}
    del doc["section"]
    explicit.write_text(json.dumps(doc))
    code, out = run_cli(capsys, "extensions", fx("dual_f2.json"), "--lift", str(explicit))
    assert code == 2 and out["error"]["stage"] == "extension"


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


@pytest.mark.parametrize(
    "argv, stage, what",
    [
        (("hh", fx("dual_q.json"), "--bimodule", fx("dual_f2_regular.json"), "--degree", "1"), "bimodule", "algebra"),
        (("extensions", fx("dual_q.json"), fx("dual_f2_regular.json"), "--enumerate"), "bimodule", "algebra"),
        (("extensions", fx("scalar_q.json"), "--class", fx("cocycle_dual_f2_xx.json")), "cochain", "algebra"),
        (("extensions", fx("m2_q.json"), "--lift", fx("ext_dual_f2_nontrivial.json")), "extension", "algebra"),
        (("extensions", fx("dual_f2.json"), "@zero", "--class", fx("cocycle_dual_f2_xx.json")), "cochain", "bimodule"),
        (("extensions", fx("dual_f2.json"), "@zero", "--lift", fx("ext_dual_f2_trivial.json")), "extension", "bimodule"),
    ],
    ids=["hh", "enumerate", "class", "lift", "class_bimodule", "lift_bimodule"],
)
def test_cli_inputs_must_live_over_the_positional_algebra_and_bimodule(capsys, tmp_path, argv, stage, what):
    zero = tmp_path / "zero.json"  # a bimodule over dual_f2 other than the regular one
    zero.write_text(json.dumps({"algebra": fx("dual_f2.json"), "rank": 0, "left": [[], []], "right": [[], []]}))
    code, doc = run_cli(capsys, *(str(zero) if a == "@zero" else a for a in argv))
    assert code == 2
    assert doc["error"] == {"stage": stage, "witness": f"{stage} {what} differs from the requested {what}"}


def test_cli_extensions_over_a_rank_zero_bimodule(capsys, tmp_path):
    # every matrix over the zero bimodule has 0 rows, so "[]" must keep the expected width
    algebra = fx("dual_q.json")
    zero = tmp_path / "zero.json"
    zero.write_text(json.dumps({"algebra": algebra, "rank": 0, "left": [[], []], "right": [[], []]}))
    cochain, ext = tmp_path / "cochain.json", tmp_path / "ext.json"
    cochain.write_text(json.dumps({"algebra": algebra, "bimodule": str(zero), "matrix": []}))
    ext.write_text(json.dumps({"algebra": algebra, "bimodule": str(zero), "cocycle": []}))
    code, doc = run_cli(capsys, "extensions", algebra, str(zero), "--class", str(cochain))
    assert code == 0
    assert doc["cocycle"] is True and doc["cohomologous_to_zero"] is True
    code, doc = run_cli(capsys, "extensions", algebra, str(zero), "--lift", str(ext))
    assert code == 0
    assert doc["lift"] is True and doc["section"] == [["1", "0"], ["0", "1"]]


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
        ({"algebra": "scalar_z.json", "module": {"generators": True}}, "module"),
        ({"algebra": "scalar_z.json", "module": {"generators": 1, "relations": 5, "action": [[["1"]]]}}, "module"),
        ({"algebra": "scalar_z.json", "module": {"generators": 1, "relations": [5], "action": [[["1"]]]}}, "module.relations"),
        ({"algebra": "scalar_z.json", "module": {"generators": 1, "action": 5}}, "module"),
        ({"algebra": "scalar_z.json", "module": {"self": "yes", "generators": 1, "relations": [["2"]], "action": [[["1"]]]}}, "module"),
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


def test_cli_koszul_module_self_flag(capsys, tmp_path):
    # "self": false keeps the given presentation, "self": true is the free module
    instance = json.loads((FIXDIR / "koszul_z_mod2.json").read_text())
    instance["algebra"] = fx(instance["algebra"])
    reports = []
    for flag in (False, True):
        path = tmp_path / f"instance_{flag}.json"
        path.write_text(json.dumps(dict(instance, module=dict(instance["module"], self=flag))))
        reports.append(run_cli(capsys, "koszul", "--finite", str(path)))
    path = tmp_path / "instance_free.json"
    path.write_text(json.dumps(dict(instance, module="self")))
    assert reports == [run_cli(capsys, "koszul", "--finite", fx("koszul_z_mod2.json")), run_cli(capsys, "koszul", "--finite", str(path))]
    assert reports[0] != reports[1]


_ONE = {"scalars": "Q", "rank": 1, "basis": ["1"], "unit": ["1"], "mul": ["1"]}


@pytest.mark.parametrize(
    "algebra, stage",
    [
        (dict(_ONE, basis=5), "algebra"),
        (dict(_ONE, unit="1"), "algebra"),
        (dict(_ONE, mul=5), "algebra"),
        (dict(_ONE, rank=True), "algebra"),
        (dict(_ONE, scalars={"Fp": []}), "scalars"),
        (dict(_ONE, scalars={"Fp": 2.5}), "scalars"),
        (dict(_ONE, scalars={"Fp": True}), "scalars"),
        (dict(_ONE, basis=[[1]]), "algebra"),
        (dict(_ONE, scalars="Z", mul=["0_1"]), "algebra.mul"),  # int() reads "0_1" as 1
    ],
)
def test_cli_malformed_algebra_exit_2(capsys, tmp_path, algebra, stage):
    path = tmp_path / "algebra.json"
    path.write_text(json.dumps(algebra))
    code, doc = run_cli(capsys, "hh", str(path), "--degree", "0")
    assert code == 2
    assert doc["error"]["stage"] == stage


@pytest.mark.parametrize(
    "fields, stage",
    [
        ({"left": [[5, 5], [5, 5]]}, "bimodule.left"),
        ({"left": 5}, "bimodule"),
        ({"right": 5}, "bimodule"),
        ({"rank": True}, "bimodule"),
    ],
)
def test_cli_malformed_bimodule_exit_2(capsys, tmp_path, fields, stage):
    bimodule = dict(json.loads((FIXDIR / "dual_f2_regular.json").read_text()), algebra=fx("dual_f2.json"), **fields)
    path = tmp_path / "bimodule.json"
    path.write_text(json.dumps(bimodule))
    code, doc = run_cli(capsys, "hh", fx("dual_f2.json"), "--bimodule", str(path), "--degree", "0")
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


def test_cli_negative_cap_is_refused_before_any_work(capsys):
    # free2_trunc_q exits 3 under the default guard (golden), so a late check would read size-guard
    code, doc = run_cli(capsys, "analyze", fx("free2_trunc_q.json"), "--cap", "-1")
    assert code == 2
    assert doc["error"]["stage"] == "validation"
    assert "cap must be >= 0" in doc["error"]["witness"]


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


@pytest.mark.parametrize("option", ["--output", "--guard"])
def test_cli_fixtures_refuses_report_options(capsys, tmp_path, option):
    target = tmp_path / "listing"
    value = str(target) if option == "--output" else "7"
    with pytest.raises(SystemExit) as exc:
        main(["fixtures", option, value])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {option}" in capsys.readouterr().err
    assert not target.exists()


# -- parser build -------------------------------------------------------------------

_NAMES = ("hh", "analyze", "extensions", "koszul", "bound", "fixtures")


def _exit_outcome(capsys, parse, argv):
    with pytest.raises(SystemExit) as exc:
        parse(list(argv))
    out = capsys.readouterr()
    return out.out, out.err, exc.value.code


@pytest.mark.parametrize("columns", ["60", "200"])
@pytest.mark.parametrize(
    "argv",
    [
        ("-h",),
        *((name, "-h") for name in _NAMES),
        (),
        ("bogus",),
        ("an",),  # no prefix matching of subcommand names
        ("hh", "x", "--degree", "1", "--bogus"),  # the top-level usage line
        ("hh", "x"),
        ("bound", "--fd", "1"),
        ("extensions", "x", "--enumerate", "--lift", "y"),
        ("koszul", "--vars", "2", "--finite", "f"),
        ("--guard", "1", "hh", "x", "--degree", "1"),
    ],
)
def test_cli_help_and_errors_match_the_full_parser(capsys, monkeypatch, columns, argv):
    monkeypatch.setenv("COLUMNS", columns)
    full = _exit_outcome(capsys, lambda a: cli.build_parser().parse_args(a), argv)
    assert _exit_outcome(capsys, main, argv) == full
    if argv in (("bogus",), ("an",)):
        assert "error: argument command: invalid choice" in full[1]


def test_cli_named_subcommand_builds_only_its_own_parser(capsys, monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    assert main(["bound", "--fd", "3", "--Dk", "1"]) == 0
    assert built == ["hochschild", "hochschild bound"]
    built.clear()
    with pytest.raises(SystemExit):
        main(["-h"])
    assert len(built) == 7


@pytest.mark.parametrize(
    "argv",
    [
        ("hh", "a.json", "--degree", "0"),
        ("analyze", "a.json"),
        ("extensions", "a.json", "--enumerate"),
        ("koszul", "--vars", "1"),
        ("bound", "--fd", "1", "--Dk", "0"),
        ("fixtures",),
    ],
)
def test_cli_runs_the_handler_bound_when_the_parser_is_built(monkeypatch, argv):
    seen = []
    monkeypatch.setattr(cli, f"cmd_{argv[0]}", lambda args: seen.append(args.command) or 17)
    assert main(list(argv)) == 17
    monkeypatch.setattr(sys, "argv", ["hochschild", *argv])
    assert main() == 17
    assert seen == [argv[0], argv[0]]
