"""Acceptance suite: the exit criteria, one test per criterion.

Each test prints a single [criterion N] PASS/FAIL line (visible with
pytest -s; captured otherwise).  All tolerances are exact equality; every
expected value is either trivially forced, recomputed by an independent
route inside the test, or a frozen hand computation noted inline.
"""

import functools
import random
from math import comb

import pytest

from hochschild.algebra import (
    hom_bimodule,
    multiplication_matrix,
    regular_bimodule,
    validate_algebra,
    validate_left_module,
    with_unital_basis,
)
from hochschild.bar import (
    _differential,
    bar_differential,
    bar_rank,
    chain_actions,
    chain_bimodule,
    contracting_homotopy,
    syzygy,
)
from hochschild.catalog import standard_corpus
from hochschild.cohomology import (
    center,
    coboundary_matrix,
    cocycle_witness,
    hh,
    hh1_report,
    relative_ext,
)
from hochschild.extensions import (
    _crossed_product_unchecked,
    cocycles_cohomologous,
    crossed_product,
    crossed_product_presentation,
    enumerate_extension_classes,
    extension_class_from_section,
    is_two_cocycle,
    lift_exists,
    trivial_extension,
    two_cochain_from_vector,
    zero_two_cochain,
)
from hochschild.koszul import (
    finite_koszul_tor,
    free_module,
    graded_koszul_tor,
    hcdim_lower_bound,
    presented_module,
    regular_sequence_check,
)
from hochschild.matrix import (
    KModuleInvariants,
    Matrix,
    SizeGuardError,
    kernel_basis,
    rank,
    subquotient_invariants,
)
from hochschild.projectivity import is_quasi_free, omega_is_projective, separability_idempotent
from hochschild.algebra import AlgebraError, enveloping
from hochschild.rings import GF, QQ, ZZ
from oracles import intertwiners, relative_ext_resolution

F2 = GF(2)
CORPUS = standard_corpus({"Z": ZZ, "Q": QQ, "F2": F2})
SMALL = {k: v for k, v in CORPUS.items() if v.rank <= 4}


def criterion(number, summary):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"[criterion {number}] FAIL: {summary}")
                raise
            print(f"[criterion {number}] PASS: {summary}")

        return wrapper

    return deco


def _unitalized(A):
    return A if A.has_unital_basis else with_unital_basis(A)[0]


@criterion(1, "complex axioms: b'b' = 0, bb = 0, homotopy identity (exact, n <= 3)")
def test_c01_complex_axioms():
    for name, A in SMALL.items():
        M = regular_bimodule(A)
        for n in range(4):
            assert (bar_differential(A, n, guard=None) * bar_differential(A, n + 1, guard=None)).is_zero, (name, n)
            lo = coboundary_matrix(A, M, n, guard=None)
            hi = coboundary_matrix(A, M, n + 1, guard=None)
            assert (hi * lo).is_zero, (name, n)
        for n in range(-1, 4):
            lhs = bar_differential(A, n + 1, guard=None) * contracting_homotopy(A, n, guard=None)
            if n >= 0:
                lhs = lhs + contracting_homotopy(A, n - 1, guard=None) * bar_differential(A, n, guard=None)
            assert lhs == Matrix.identity(A.ring, bar_rank(A, n)), (name, n)
        # normalized complex on the unital-basis form of the same algebra
        B = _unitalized(A)
        MB = regular_bimodule(B)
        for n in range(4):
            assert (
                bar_differential(B, n, normalized=True, guard=None)
                * bar_differential(B, n + 1, normalized=True, guard=None)
            ).is_zero, (name, n)
            lo = coboundary_matrix(B, MB, n, normalized=True, guard=None)
            hi = coboundary_matrix(B, MB, n + 1, normalized=True, guard=None)
            assert (hi * lo).is_zero, (name, n)
        for n in range(-1, 4):
            lhs = bar_differential(B, n + 1, normalized=True, guard=None) * contracting_homotopy(
                B, n, normalized=True, guard=None
            )
            if n >= 0:
                lhs = lhs + contracting_homotopy(B, n - 1, normalized=True, guard=None) * bar_differential(
                    B, n, normalized=True, guard=None
                )
            assert lhs == Matrix.identity(B.ring, bar_rank(B, n, True)), (name, n)


@criterion(2, "HH^0 = center and HH^1 = Der/Inn on all fixture pairs (exact)")
def test_c02_low_degree_interpretations():
    for name, A in SMALL.items():
        pairs = [regular_bimodule(A), chain_bimodule(A, 0)]
        reg_left = regular_bimodule(A).left_module()
        pairs.append(hom_bimodule(reg_left, reg_left))
        for M in pairs:
            z = center(A, M)
            h0 = hh(A, M, 0, normalized=False, representatives=False).invariants
            assert h0 == KModuleInvariants(z.cols), (name, M.rank)
            h1_quot = hh1_report(A, M).invariants
            h1_cplx = hh(A, M, 1, normalized=False, representatives=False).invariants
            assert h1_quot == h1_cplx, (name, M.rank)


@criterion(3, "separability idempotents for M2(Q), ZxZ, Z; HH^{1..3}(A, A) = 0 on each")
def test_c03_separability():
    for name in ("m2_q", "zxz", "scalar_z"):
        A = CORPUS[name]
        e = separability_idempotent(A)
        assert e is not None, name
        assert (multiplication_matrix(A) * e).col_list(0) == list(A.unit)
        L, R = chain_actions(A, 0, False)
        for i in range(A.rank):
            assert L[i] * e == R[i] * e
        assert enveloping(A).multiply(e.col_list(0), e.col_list(0)) == e.col_list(0)
        B = _unitalized(A)
        MB = regular_bimodule(B)
        for n in (1, 2, 3):
            assert hh(B, MB, n, representatives=False).invariants.is_zero, (name, n)


@criterion(4, "dual-number HH dims: F2 (2,2,2,2,2), Q (2,1,1,1), Z HH^2 = Z + Z/2; both routes")
def test_c04_dual_number_values():
    expected = {
        "dual_f2": [(2, ()), (2, ()), (2, ()), (2, ()), (2, ())],
        "dual_q": [(2, ()), (1, ()), (1, ()), (1, ())],
    }
    for name, pattern in expected.items():
        A = CORPUS[name]
        M = regular_bimodule(A)
        for n, (free, tors) in enumerate(pattern):
            want = KModuleInvariants(free, tors)
            got_norm = hh(A, M, n, normalized=True, representatives=False).invariants
            got_raw = hh(A, M, n, normalized=False, representatives=False).invariants
            assert got_norm == want and got_raw == want, (name, n)
    A = CORPUS["dual_z"]
    M = regular_bimodule(A)
    want = KModuleInvariants(1, (2,))
    assert hh(A, M, 2, normalized=True, representatives=False).invariants == want
    assert hh(A, M, 2, normalized=False, representatives=False).invariants == want


@criterion(5, "extension classes: exactly 4 over F2 duals; associativity iff cocycle on 200 random cochains")
def test_c05_extension_correspondence():
    A = CORPUS["dual_f2"]
    M = regular_bimodule(A)
    reps = enumerate_extension_classes(A, M)
    dim = hh(A, M, 2, representatives=False).invariants.free_rank
    assert len(reps) == 4 and len(reps) == 2**dim
    for i in range(len(reps)):
        for j in range(i + 1, len(reps)):
            assert cocycles_cohomologous(reps[i], reps[j]) is None
    rng = random.Random(20250810)
    checked = 0
    for _ in range(200):
        vec = [F2.of_int(rng.randint(0, 1)) for _ in range(M.rank * A.rank**2)]
        B = two_cochain_from_vector(A, M, vec)
        ok, witness = is_two_cocycle(B)
        if ok:
            total = crossed_product(A, M, B)
            assert validate_algebra(total.ring, total.rank, total.basis_names, total.unit, total.mul) == total
        else:
            total = _crossed_product_unchecked(A, M, B)
            with pytest.raises(AlgebraError) as exc:
                validate_algebra(total.ring, total.rank, total.basis_names, total.unit, total.mul)
            assert f"associativity fails at basis triple {witness}" in str(exc.value)
        checked += 1
    assert checked == 200


@criterion(6, "lifting: trivial extensions lift everywhere; the nontrivial F2 one does not")
def test_c06_lifting():
    for name, A in CORPUS.items():
        M = regular_bimodule(A)
        E = trivial_extension(A, M)
        s = lift_exists(E)
        assert s is not None, name
        for i in range(A.rank):  # multiplicativity on all basis pairs, re-checked here
            for j in range(A.rank):
                lhs = E.total.multiply(s.col_list(i), s.col_list(j))
                rhs = (s * Matrix.column(A.ring, A.product_column(i, j))).col_list(0)
                assert lhs == rhs, name
    A = CORPUS["dual_f2"]
    M = regular_bimodule(A)
    vec = [F2.zero] * 8
    vec[3] = F2.one  # B(x, x) = 1
    Bx = two_cochain_from_vector(A, M, vec)
    E = crossed_product_presentation(A, M, Bx)
    assert lift_exists(E) is None


@criterion(7, "quasi-freeness by syzygy splitting: yes on k/ZxZ/M2, no on duals and Z[x]/(x^3)")
def test_c07_quasi_freeness():
    yes = ["scalar_q", "scalar_f2", "scalar_z", "zxz", "m2_q"]
    no = ["dual_q", "dual_f2", "dual_z", "x3_z"]
    for name in yes:
        A = CORPUS[name]
        report = is_quasi_free(A)
        assert report.quasi_free, name
        cert = report.certificate
        om = syzygy(A, 1, cert.normalized)
        b = _differential(A, 1, cert.normalized)
        assert b * cert.section == om.basis, name
        Ln, Rn = chain_actions(A, 1, cert.normalized)
        for i in range(A.rank):
            assert cert.section * om.left[i] == Ln[i] * cert.section, name
            assert cert.section * om.right[i] == Rn[i] * cert.section, name
    for name in no:
        A = CORPUS[name]
        report = is_quasi_free(A)
        assert not report.quasi_free, name
        w = report.witness  # corroborating nonzero HH^2 class
        assert w is not None, name
        assert cocycle_witness(w) is None, name
        assert not hh(A, w.bimodule, 2, representatives=False).invariants.is_zero, name
        assert not hh(A, regular_bimodule(A), 2, representatives=False).invariants.is_zero, name


@criterion(8, "normalized and unnormalized complexes agree: HH^n (n <= 3) and projectivity verdicts")
def test_c08_normalized_agreement():
    skipped = []
    for name, A in CORPUS.items():
        B = _unitalized(A)
        M = regular_bimodule(B)
        for n in range(4):
            try:
                a = hh(B, M, n, normalized=True, representatives=False).invariants
                b = hh(B, M, n, normalized=False, representatives=False).invariants
            except SizeGuardError:
                skipped.append((name, n))
                continue
            assert a == b, (name, n)
        try:
            v_norm = omega_is_projective(B, 1, normalized=True).verdict
            v_raw = omega_is_projective(B, 1, normalized=False).verdict
            assert v_norm == v_raw, name
        except SizeGuardError:
            skipped.append((name, "projectivity"))
    # only the rank-7 fixture may hit the guard, and only at depth >= 2
    assert all(name == "free2_trunc_q" for name, _ in skipped), skipped
    for name, n in skipped:
        assert n == "projectivity" or n >= 2
    if skipped:
        print(f"      (size-guard skips, rank-7 fixture only: {skipped})")


@criterion(9, "Koszul certificates: fd = v for Z[x_1..x_v] (v = 1,2,3); fd_Z(Z/2) = 1; (2,3) fails at 2")
def test_c09_koszul():
    for v in (1, 2, 3):
        report = graded_koszul_tor(v, ZZ, v + 1)
        assert report.tor[v] == KModuleInvariants(1), v  # Tor_v = Z
        assert report.tor[v + 1].is_zero, v  # Tor_(v+1) = 0
        assert report.fd_certificate == v
        for i in range(v + 1):
            assert report.tor[i] == KModuleInvariants(comb(v, i)), (v, i)
    Zalg = CORPUS["scalar_z"]
    Zmod2 = presented_module(Zalg, 1, Matrix.from_rows(ZZ, [[2]]), [Matrix.identity(ZZ, 1)])
    fin = finite_koszul_tor(Zalg, [[2]], Zmod2)
    assert fin.tor == (KModuleInvariants(0, (2,)), KModuleInvariants(0, (2,)))
    assert fin.fd_certificate == 1
    seq = regular_sequence_check(free_module(Zalg), [[2], [3]])
    assert not seq.ok and seq.failing_index == 2


@criterion(10, "relative Ext adjunction: Hom-bimodule route = resolution route (n <= 2, 5 pairs)")
def test_c10_relative_ext():
    def trivial_module(A):
        one = Matrix.identity(A.ring, 1)
        zero = Matrix.zeros(A.ring, 1, 1)
        action = [one] + [zero] * (A.rank - 1)
        return validate_left_module(A, 1, action)

    dual_f2 = CORPUS["dual_f2"]
    pairs = [
        (CORPUS["zxz"], regular_bimodule(CORPUS["zxz"]).left_module(), regular_bimodule(CORPUS["zxz"]).left_module()),
        (CORPUS["x3_z"], regular_bimodule(CORPUS["x3_z"]).left_module(), regular_bimodule(CORPUS["x3_z"]).left_module()),
        (CORPUS["dual_q"], regular_bimodule(CORPUS["dual_q"]).left_module(), regular_bimodule(CORPUS["dual_q"]).left_module()),
        (dual_f2, trivial_module(dual_f2), trivial_module(dual_f2)),
        (dual_f2, regular_bimodule(dual_f2).left_module(), trivial_module(dual_f2)),
    ]
    assert len(pairs) == 5
    for A, Mmod, Nmod in pairs:
        for n in range(3):
            via_hom = relative_ext(A, Mmod, Nmod, n)
            via_res = relative_ext_resolution(A, Mmod, Nmod, n)
            assert via_hom == via_res, (A.basis_names, n)
        inter = intertwiners(Mmod, Nmod)
        assert relative_ext(A, Mmod, Nmod, 0) == KModuleInvariants(inter.cols)


@criterion(11, "lower-bound assembly: Krull input n+1, D(Z) = 1 gives HCdim >= n; flags n >= 2")
def test_c11_lower_bound_assembly():
    for n in range(1, 6):
        report = hcdim_lower_bound(n + 1, 1, 0)
        assert report.bound == n
        assert report.not_quasi_free == (n >= 2)
    vac = hcdim_lower_bound(0, 0, 0)
    assert vac.bound == 0 and not vac.not_quasi_free
