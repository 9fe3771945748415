"""Command-line front end, six subcommands: hh, analyze, extensions, koszul, bound, fixtures.

All reports are JSON on stdout (or --output).  Exit codes: 0 success,
2 validation error (the report is the error object {stage, witness}),
3 size-guard refusal, 4 internal error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .algebra import AlgebraError, regular_bimodule, transport_bimodule, with_unital_basis
from .cohomology import coboundary_matrix, hh, hochschild_homology
from .extensions import (
    cocycles_cohomologous,
    enumerate_extension_classes,
    extension_class_from_section,
    is_two_cocycle,
    lift_exists,
    zero_two_cochain,
)
from .io_json import (
    SchemaError,
    _load_doc,
    _matrix_to_json,
    _parse_scalar,
    _resolve_algebra,
    dumps,
    load_algebra,
    load_bimodule,
    load_cochain,
    load_extension,
    presented_module_from_json,
    ring_from_json,
    ring_to_json,
)
from .koszul import (
    finite_koszul_tor,
    free_module,
    graded_koszul_tor,
    hcdim_lower_bound,
    regular_sequence_check,
)
from .matrix import DEFAULT_GUARD, ContainmentError, ShapeError, SizeGuardError, rank
from .projectivity import hcdim_scan, is_quasi_free, separability_idempotent
from .rings import RingError


def _invariants_doc(invs) -> dict:
    return {"free_rank": invs.free_rank, "torsion": [str(t) for t in invs.torsion]}


def _emit(doc, out_path) -> None:
    text = dumps(doc)
    if out_path:
        Path(out_path).write_text(text)
    else:
        sys.stdout.write(text)


def _guard_value(args) -> int | None:
    if args.guard is None:
        return DEFAULT_GUARD
    if args.guard < 0:
        raise ValueError(f"--guard must be >= 0 (0 = unlimited), got {args.guard}")
    return None if args.guard == 0 else args.guard


def _check_over(stage: str, A, algebra, M=None, bimodule=None) -> None:
    """Refuse input data over another algebra than the positional A or, when M is given, another bimodule."""
    for what, mine, wanted in (("algebra", algebra, A), ("bimodule", bimodule, M)):
        if wanted is not None and mine != wanted:
            raise SchemaError(stage, f"{stage} {what} differs from the requested {what}")


# -- subcommands ------------------------------------------------------------------


def cmd_hh(args) -> int:
    A = load_algebra(args.algebra)
    M = load_bimodule(args.bimodule) if args.bimodule else regular_bimodule(A)
    _check_over("bimodule", A, M.algebra)
    guard = _guard_value(args)
    if args.homology:
        if args.unnormalized or args.representatives:
            raise ValueError("--unnormalized and --representatives belong to HH^n; --homology takes neither")
        invs = hochschild_homology(A, M, args.degree, guard=guard)
        doc = {"degree": args.degree, "homology": True, **_invariants_doc(invs)}
        _emit(doc, args.output)
        return 0
    canonicalized = False
    if not (args.unnormalized or A.has_unital_basis):  # canonicalize so that hh can normalize
        try:
            A2, P = with_unital_basis(A)
            A, M, canonicalized = A2, transport_bimodule(M, A2, P), True
        except AlgebraError:
            pass
    normalized = False if args.unnormalized else None  # None: hh normalizes on a unital basis
    report = hh(A, M, args.degree, normalized=normalized, guard=guard, representatives=args.representatives)
    doc = {"degree": args.degree, **_invariants_doc(report.invariants)}
    if canonicalized:
        doc["basis_canonicalized"] = True
        doc["canonical_basis"] = list(A.basis_names)
    if args.representatives and report.representatives is not None:
        doc["representatives"] = [_matrix_to_json(c.matrix) for c in report.representatives]
    _emit(doc, args.output)
    return 0


def cmd_analyze(args) -> int:
    if args.cap < 0:  # before any work: the scan checks its cap only after the other stages
        raise ValueError(f"--cap must be >= 0, got {args.cap}")
    A = load_algebra(args.algebra)
    M = regular_bimodule(A)
    guard = _guard_value(args)
    b0, b1 = (coboundary_matrix(A, M, n, False, guard=None) for n in (0, 1))
    inn = rank(b0)  # the center is ker b^0, Der is ker b^1 and Inn is im b^0 of the raw complex
    doc: dict = {"rank": A.rank, "scalars": ring_to_json(A.ring), "center_dim": b0.cols - inn,
                 "der_dim": b1.cols - rank(b1), "inn_dim": inn}
    doc["hh1"] = _invariants_doc(hh(A, M, 1, normalized=False, guard=None, representatives=False).invariants)
    e = separability_idempotent(A)
    doc["separability"] = {"separable": e is not None}
    if e is not None:
        doc["separability"]["idempotent"] = [A.ring.format(v) for v in e.col_list(0)]
    qf = is_quasi_free(A, guard=guard)
    doc["quasi_free"] = {"quasi_free": qf.quasi_free}
    if qf.quasi_free:
        doc["quasi_free"]["lifts_checked"] = qf.lifts_checked
    elif qf.witness is not None and hasattr(qf.witness, "matrix"):
        doc["quasi_free"]["witness_cocycle"] = _matrix_to_json(qf.witness.matrix)
    scan = hcdim_scan(A, args.cap, guard=guard)
    doc["hcdim"] = {
        "proved_upper": scan.upper_text,
        "witnessed_lower": scan.witnessed_lower,
        "witnesses": [{"degree": n, "module": name} for n, name in scan.witnesses],
        "notes": list(scan.notes),
    }
    _emit(doc, args.output)
    return 0


def cmd_extensions(args) -> int:
    A = load_algebra(args.algebra)
    M = load_bimodule(args.bimodule) if args.bimodule else regular_bimodule(A)
    _check_over("bimodule", A, M.algebra)
    guard = _guard_value(args)
    if args.enumerate:
        reps = enumerate_extension_classes(A, M, guard=guard)
        doc = {
            "classes": len(reps),
            "representatives": [_matrix_to_json(r.matrix) for r in reps],
        }
    elif args.cocycle_class:
        B = load_cochain(args.cocycle_class)
        _check_over("cochain", A, B.algebra, M if args.bimodule else None, B.bimodule)
        ok, witness = is_two_cocycle(B)
        doc = {"cocycle": ok}
        if not ok:
            doc["witness"] = list(witness)
        else:
            zeta = cocycles_cohomologous(B, zero_two_cochain(B.algebra, B.bimodule))
            doc["cohomologous_to_zero"] = zeta is not None
            if zeta is not None:
                doc["zeta"] = _matrix_to_json(zeta)
    else:
        E = load_extension(args.lift)
        _check_over("extension", A, E.algebra, M if args.bimodule else None, E.bimodule)
        Bs = extension_class_from_section(E)
        section = lift_exists(E)
        doc = {"class": _matrix_to_json(Bs.matrix), "lift": section is not None}
        if section is not None:
            doc["section"] = _matrix_to_json(section)
    _emit(doc, args.output)
    return 0


def cmd_koszul(args) -> int:
    guard = _guard_value(args)
    if args.finite:
        if args.ring is not None or args.cap is not None:
            raise ValueError("--ring and --cap belong to the graded route; a --finite instance names its algebra")
        instance = _load_doc(args.finite)
        seq, module = (instance.get("sequence", []), instance.get("module", "self")) if isinstance(instance, dict) else (None, None)
        if not (isinstance(seq, list) and all(isinstance(x, list) for x in seq) and (module == "self" or isinstance(module, dict))):
            raise SchemaError("koszul", 'expected {"algebra", "sequence": [[scalar, ...], ...], "module": "self" or an object}')
        base = Path(args.finite).parent
        A = _resolve_algebra(instance.get("algebra"), base)
        Mod = free_module(A) if module == "self" else presented_module_from_json(dict(module, algebra=instance.get("algebra")), base)
        seq = [[_parse_scalar(A.ring, s, "koszul.sequence") for s in x] for x in seq]
        reg = regular_sequence_check(free_module(A), seq)
        doc = {"regular": reg.ok}
        if not reg.ok:
            doc["failing_index"] = reg.failing_index
            doc["reason"] = reg.reason
        else:
            report = finite_koszul_tor(A, seq, Mod, guard=guard)
            doc["tor"] = [_invariants_doc(t) for t in report.tor]
            doc["fd_certificate"] = report.fd_certificate
    else:
        ring = ring_from_json(json.loads(args.ring) if (args.ring or "").startswith("{") else args.ring or "Z")
        report = graded_koszul_tor(args.vars, ring, 4 if args.cap is None else args.cap, guard=guard)
        doc = {
            "variables": report.variables,
            "cap": report.cap,
            "tor": [
                dict(_invariants_doc(t), degree=i, by_internal_degree={str(e): _invariants_doc(h) for e, h in report.by_degree[i]})
                for i, t in enumerate(report.tor)
            ],
            "fd_certificate": report.fd_certificate,
        }
    _emit(doc, args.output)
    return 0


def cmd_bound(args) -> int:
    report = hcdim_lower_bound(args.fd, args.Dk, args.fdk)
    doc = {
        "fd": report.fd,
        "Dk": report.base_dim,
        "fdk": report.fd_base,
        "hcdim_lower_bound": report.bound,
        "not_quasi_free": report.not_quasi_free,
        "inequality": report.inequality,
        "verdict": f"HCdim >= {report.bound}"
        + ("; not quasi-free" if report.not_quasi_free else ""),
    }
    _emit(doc, args.output)
    return 0


def cmd_fixtures(args) -> int:
    from importlib import resources

    root = resources.files("hochschild") / "fixtures"
    names = sorted(p.name for p in root.iterdir() if p.name.endswith(".json"))
    if args.name:
        if args.name not in names:
            raise SchemaError("fixtures", f"unknown fixture {args.name}; try --list")
        sys.stdout.write(str(root / args.name) + "\n")
    else:
        for n in names:
            sys.stdout.write(n + "\n")
    return 0


# -- parser -------------------------------------------------------------------------


def _common(sp) -> None:
    sp.add_argument("--output", help="write the JSON report here instead of stdout")
    sp.add_argument("--guard", type=int, help="matrix-entry guard (0 = unlimited)")


def _hh_arguments(sp) -> None:
    sp.add_argument("algebra")
    sp.add_argument("--bimodule", help="coefficient bimodule file (default: A itself)")
    sp.add_argument("--degree", type=int, required=True)
    sp.add_argument("--unnormalized", action="store_true", help="force the raw bar cocomplex")
    sp.add_argument("--homology", action="store_true", help="compute HH_n instead of HH^n")
    sp.add_argument("--representatives", action="store_true", help="include representative cocycles")
    _common(sp)


def _analyze_arguments(sp) -> None:
    sp.add_argument("algebra")
    sp.add_argument("--cap", type=int, default=2, help="syzygy/probe depth for the HCdim scan")
    _common(sp)


def _extensions_arguments(sp) -> None:
    sp.add_argument("algebra")
    sp.add_argument("bimodule", nargs="?", help="coefficient bimodule file (default: A itself)")
    g = sp.add_mutually_exclusive_group(required=True)
    g.add_argument("--enumerate", action="store_true", help="enumerate all classes (finite fields)")
    g.add_argument("--class", dest="cocycle_class", help="check a cocycle file and test triviality (file-sized, unguarded)")
    g.add_argument("--lift", help="decide lifting of an extension file (file-sized, unguarded)")
    _common(sp)


def _koszul_arguments(sp) -> None:
    route = sp.add_mutually_exclusive_group(required=True)
    route.add_argument("--vars", type=int, help="number of polynomial variables (graded route)")
    route.add_argument("--finite", help="finite-rank instance file: {algebra, sequence, module}")
    sp.add_argument("--ring", help='base ring: Z (default), Q or {"Fp": p} (graded route)')
    sp.add_argument("--cap", type=int, help="internal degree cap, default 4 (graded route)")
    _common(sp)


def _bound_arguments(sp) -> None:
    sp.add_argument("--fd", type=int, required=True, help="certified flat dimension (or Krull input)")
    sp.add_argument("--Dk", type=int, required=True, help="global dimension of the base ring")
    sp.add_argument("--fdk", type=int, default=0, help="flat dimension of the algebra over the base")
    _common(sp)


def _fixtures_arguments(sp) -> None:
    sp.add_argument("name", nargs="?", help="fixture file name to locate")


# name -> (help line, function adding its arguments); its handler is cmd_<name>
_SUBCOMMANDS = {
    "hh": ("Hochschild cohomology/homology groups", _hh_arguments),
    "analyze": ("center, derivations, separability, quasi-freeness, HCdim scan", _analyze_arguments),
    "extensions": ("square-zero extension classes and lifting", _extensions_arguments),
    "koszul": ("Koszul Tor tables and flat-dimension certificates", _koszul_arguments),
    "bound": ("assemble the HCdim lower bound fd - D(k) - fd_k", _bound_arguments),
    "fixtures": ("list bundled fixture files or print a path", _fixtures_arguments),
}


def build_parser(only: str | None = None) -> argparse.ArgumentParser:
    """The parser with all six subcommands, or with the one named `only` and the same usage line."""
    p = argparse.ArgumentParser(prog="hochschild", description="Exact Hochschild cohomology, extensions and Koszul certificates")
    # the full build leaves the metavar unset, so its errors keep naming "argument command"
    metavar = None if only is None else "{" + ",".join(_SUBCOMMANDS) + "}"
    sub = p.add_subparsers(dest="command", required=True, metavar=metavar)
    for name, (help_text, add_arguments) in _SUBCOMMANDS.items():
        if only in (None, name):
            sp = sub.add_parser(name, help=help_text)
            add_arguments(sp)
            sp.set_defaults(func=globals()["cmd_" + name])  # looked up per build, so a patched handler runs
    return p


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # a named subcommand builds only its own parser; -h, typos and leading options build all six
    args = build_parser(argv[0] if argv and argv[0] in _SUBCOMMANDS else None).parse_args(argv)
    try:
        return args.func(args)
    except SchemaError as exc:
        code, stage, witness = 2, exc.stage, exc.witness
    except SizeGuardError as exc:
        code, stage, witness = 3, "size-guard", str(exc)
    except (ShapeError, ContainmentError) as exc:  # raised by the engine, not by user input
        code, stage, witness = 4, "internal", f"{type(exc).__name__}: {exc}"
    except (AlgebraError, RingError, ValueError) as exc:
        code, stage, witness = 2, "validation", str(exc)
    except Exception as exc:  # internal failure: report and exit 4
        code, stage, witness = 4, "internal", f"{type(exc).__name__}: {exc}"
    _emit({"error": {"stage": stage, "witness": witness}}, getattr(args, "output", None))
    return code


if __name__ == "__main__":
    raise SystemExit(main())
