import pytest

from hochschild.algebra import (
    enveloping,
    multiplication_matrix,
    regular_bimodule,
    validate_algebra,
    with_unital_basis,
)
from hochschild.bar import _differential, bar_differential, chain_actions, syzygy
from hochschild.catalog import (
    base_ring_algebra,
    dual_numbers,
    free2_truncated,
    matrix_algebra,
    split_pair,
    split_product,
    truncated_poly,
    upper_triangular2,
)
from hochschild.cohomology import coboundary_matrix, hh
from hochschild.matrix import Matrix, SizeGuardError, solve
from hochschild.projectivity import (
    _extension_class,
    _separable_primitive,
    hcdim_scan,
    is_quasi_free,
    omega_is_projective,
    separability_idempotent,
)
from hochschild.rings import GF, QQ, ZZ

F2 = GF(2)


def _check_idempotent(A, e):
    d = A.rank
    # mu(e) = 1
    assert (multiplication_matrix(A) * e).col_list(0) == list(A.unit)
    # centrality: a e = e a in the outer bimodule
    L, R = chain_actions(A, 0, False)
    for i in range(d):
        assert L[i] * e == R[i] * e
    # idempotency in the enveloping algebra (e regarded as an element of A (x) A^op)
    env = enveloping(A)
    assert env.multiply(e.col_list(0), e.col_list(0)) == e.col_list(0)


# -- separability -----------------------------------------------------------------

def test_base_ring_idempotent_is_unit_tensor_unit():
    for ring in (QQ, ZZ, F2):
        A = base_ring_algebra(ring)
        e = separability_idempotent(A)
        assert e is not None and e.col_list(0) == [ring.one]
        _check_idempotent(A, e)


def test_matrix_algebra_idempotent():
    A = matrix_algebra(QQ, 2)
    e = separability_idempotent(A)
    assert e is not None
    _check_idempotent(A, e)


def test_split_pair_idempotent_over_z():
    A = split_pair(ZZ)
    e = separability_idempotent(A)
    assert e is not None
    _check_idempotent(A, e)


def test_dual_numbers_not_separable():
    for ring in (QQ, F2, ZZ):
        assert separability_idempotent(dual_numbers(ring)) is None


def test_upper_triangular_not_separable():
    assert separability_idempotent(upper_triangular2(QQ)) is None


def test_separability_implies_low_degree_vanishing():
    # consistency: every separable fixture has HH^1 = HH^2 = 0 with regular coefficients
    for A in (matrix_algebra(QQ, 2), split_pair(ZZ), base_ring_algebra(ZZ)):
        if not A.has_unital_basis:
            A, _ = with_unital_basis(A)
        M = regular_bimodule(A)
        for n in (1, 2):
            assert hh(A, M, n, representatives=False).invariants.is_zero


# -- syzygy projectivity -----------------------------------------------------------

def test_omega0_projective_for_separable_fixture():
    cert = omega_is_projective(split_pair(ZZ), 0)
    assert cert.is_projective
    # the section is a bimodule map splitting the multiplication
    b0 = bar_differential(split_pair(ZZ), 0)
    assert b0 * cert.section == Matrix.identity(ZZ, 2)


def test_omega1_verdicts():
    yes = [base_ring_algebra(QQ), base_ring_algebra(ZZ), base_ring_algebra(F2), split_pair(ZZ), matrix_algebra(QQ, 2)]
    no = [dual_numbers(QQ), dual_numbers(F2), dual_numbers(ZZ), truncated_poly(ZZ, 3)]
    for A in yes:
        cert = omega_is_projective(A, 1)
        assert cert.is_projective, A.basis_names
        assert cert.section is not None
    for A in no:
        cert = omega_is_projective(A, 1)
        assert not cert.is_projective, A.basis_names
        assert cert.section is None


def test_sections_reverify(small_corpus):
    # every positive certificate re-verifies: b sigma = id and bimodule-linearity
    for A in (split_pair(ZZ), matrix_algebra(QQ, 2), base_ring_algebra(F2)):
        for n in (0, 1):
            cert = omega_is_projective(A, n)
            assert cert.is_projective
            om = syzygy(A, n, cert.normalized)
            b = _differential(A, n, cert.normalized)
            assert b * cert.section == om.basis
            Ln, Rn = chain_actions(A, n, cert.normalized)
            for i in range(A.rank):
                assert cert.section * om.left[i] == Ln[i] * cert.section
                assert cert.section * om.right[i] == Rn[i] * cert.section


def test_normalized_and_unnormalized_verdicts_agree():
    for A in (dual_numbers(QQ), dual_numbers(F2), dual_numbers(ZZ), truncated_poly(ZZ, 3)):
        v1 = omega_is_projective(A, 1, normalized=True).verdict
        v2 = omega_is_projective(A, 1, normalized=False).verdict
        assert v1 == v2


def _section_system(A, om):
    """The direct system for sigma: Omega^n -> CB_n with b sigma = id, sigma bilinear.

    Unknowns are the entries S[alpha][c] at index alpha * r + c.  This is
    the reference the class solve of omega_is_projective is checked against.
    """
    n, normalized = om.level, om.normalized
    ring = A.ring
    z = ring.zero
    b = _differential(A, n, normalized)
    Ln, Rn = chain_actions(A, n, normalized)
    N, r = b.cols, om.rank
    rows, rhs = [], []
    # b * S = K
    for beta, b_row in enumerate(b.transpose().columns):
        for c in range(r):
            rows.append({alpha * r + c: v for alpha, v in b_row})
            rhs.append(om.basis[beta, c])
    # S Lambda_i = L_i S  and  S Rho_i = R_i S
    for i in range(A.rank):
        for big, small in ((Ln[i], om.left[i]), (Rn[i], om.right[i])):
            big_rows = big.transpose().columns
            for alpha in range(N):
                for c in range(r):
                    row = {alpha * r + cp: v for cp, v in small.columns[c]}
                    for ap, w in big_rows[alpha]:
                        key = ap * r + c
                        row[key] = ring.canon(row.get(key, z) - w)
                    if row:
                        rows.append(row)
                        rhs.append(z)
    triplets = ((ri, cj, v) for ri, row in enumerate(rows) for cj, v in row.items())
    return Matrix.from_triplets(ring, len(rows), N * r, triplets), Matrix.column(ring, rhs)


def _to_rational(M):
    return Matrix(QQ, M.rows, M.cols, M.columns)  # an integer is its own canonical Q form


def _oracle_verdict(A, n, normalized):
    system, rhs = _section_system(A, syzygy(A, n, normalized, guard=None))
    if solve(system, rhs) is not None:
        return "projective", None
    if A.ring.kind == "Z" and solve(_to_rational(system), _to_rational(rhs)) is not None:
        return "not_projective", TORSION
    return "not_projective", NO_SECTION


def _group_ring_c2(ring):
    """Z[C_2] = k[g]/(g^2 - 1), basis (1, g)."""
    z, one = ring.zero, ring.one
    mul = [one, z, z, one, z, one, one, z]  # c[i][j][k] at (i * 2 + j) * 2 + k
    return validate_algebra(ring, 2, ("1", "g"), (one, z), mul)


TORSION = "torsion obstruction: a section exists over Q but not integrally"
NO_SECTION = "no bimodule-linear section exists"
ORACLE_ALGEBRAS = [
    split_pair(ZZ),
    upper_triangular2(QQ),
    dual_numbers(ZZ),
    dual_numbers(QQ),
    dual_numbers(F2),
    truncated_poly(F2, 3),
    truncated_poly(ZZ, 3),
    _group_ring_c2(ZZ),
    _group_ring_c2(QQ),
    _group_ring_c2(GF(3)),
]


@pytest.mark.parametrize("A", ORACLE_ALGEBRAS, ids=lambda A: f"{A.ring.kind}{A.ring.p or ''}:{','.join(A.basis_names)}")
def test_class_solve_agrees_with_section_system(A):
    unital = A if A.has_unital_basis else with_unital_basis(A)[0]
    for B, normalized in ((A, False), (unital, True)):
        for n in (0, 1, 2):
            cert = omega_is_projective(B, n, normalized, guard=None)
            assert (cert.verdict, cert.obstruction) == _oracle_verdict(B, n, normalized), (n, normalized)


def test_separable_primitive_solves_the_class():
    # b^n x = f for x(a_1..a_n) = sum_i p_i f(q_i, a_1, ..., a_n), raw and normalized
    cases = [(base_ring_algebra(ZZ), 2), (split_pair(ZZ), 2), (_group_ring_c2(GF(3)), 2), (matrix_algebra(QQ, 2), 1)]
    for A, top in cases:
        unital = A if A.has_unital_basis else with_unital_basis(A)[0]
        for B, normalized in ((A, False), (unital, True)):
            e = separability_idempotent(B)
            assert e is not None
            for n in range(top + 1):
                om_next = syzygy(B, n + 1, normalized, guard=None)
                f = _extension_class(B, om_next)
                bn = coboundary_matrix(B, om_next.as_bimodule(), n, normalized, guard=None)
                assert bn * _separable_primitive(B, om_next, e, f) == f, (A.basis_names, n, normalized)


def test_separable_rank6_decided_under_default_guard():
    # b^1 on C^1(A, Omega^2) for k^6 is 6696 x 1116, above the default guard;
    # the separability idempotent decides level 1 without it
    for ring in (QQ, ZZ):
        A = split_product(ring, 6)
        with pytest.raises(SizeGuardError):
            coboundary_matrix(A, syzygy(A, 2).as_bimodule(), 1, False)
        assert omega_is_projective(A, 1).is_projective
        assert is_quasi_free(A).quasi_free


def test_torsion_obstruction_note_only_over_z():
    # over Z the separability idempotent (1 (x) 1 + g (x) g) / 2 needs 1/2
    A = _group_ring_c2(ZZ)
    for n in (0, 1, 2):
        cert = omega_is_projective(A, n)
        assert cert.verdict == "not_projective"
        assert cert.obstruction == TORSION
    for ring in (QQ, GF(3)):
        for n in (0, 1, 2):
            assert omega_is_projective(_group_ring_c2(ring), n).is_projective
    for n in (0, 1, 2):
        cert = omega_is_projective(_group_ring_c2(F2), n)
        assert cert.verdict == "not_projective"
        assert cert.obstruction == NO_SECTION
    cert = omega_is_projective(dual_numbers(ZZ), 1)
    assert not cert.is_projective
    assert cert.obstruction == NO_SECTION


def test_non_projective_corroborated_by_hh2():
    for A in (dual_numbers(QQ), dual_numbers(F2), dual_numbers(ZZ), truncated_poly(ZZ, 3)):
        assert not omega_is_projective(A, 1).is_projective
        assert not hh(A, regular_bimodule(A), 2, representatives=False).invariants.is_zero


# -- quasi-freeness ----------------------------------------------------------------

def test_quasi_free_fixtures():
    for A in (base_ring_algebra(QQ), split_pair(ZZ), matrix_algebra(QQ, 2)):
        report = is_quasi_free(A)
        assert report.quasi_free
        assert report.lifts_checked >= 1


def test_upper_triangular_is_quasi_free_but_not_separable():
    report = is_quasi_free(upper_triangular2(QQ))
    assert report.quasi_free
    assert separability_idempotent(upper_triangular2(QQ)) is None


def test_not_quasi_free_with_witness():
    for A in (dual_numbers(QQ), dual_numbers(F2), truncated_poly(ZZ, 3)):
        report = is_quasi_free(A)
        assert not report.quasi_free
        assert report.witness is not None


# -- dimension scan -----------------------------------------------------------------

def test_hcdim_scan_separable():
    report = hcdim_scan(matrix_algebra(QQ, 2), 2)
    assert report.proved_upper == 0
    assert report.witnessed_lower == 0


def test_hcdim_scan_base_ring_cap_zero():
    report = hcdim_scan(base_ring_algebra(QQ), 0)
    assert report.proved_upper == 0


def test_hcdim_scan_dual_f2():
    report = hcdim_scan(dual_numbers(F2), 3)
    assert report.proved_upper is None
    assert report.upper_text == ">3"
    assert report.witnessed_lower == 4  # HH^4 (A, A) is still nonzero
    assert (3, "A") in report.witnesses


def test_hcdim_scan_quasi_free_non_separable():
    report = hcdim_scan(upper_triangular2(QQ), 2)
    assert report.proved_upper == 1
    assert report.witnessed_lower <= 1


def test_scan_respects_guard():
    report = hcdim_scan(dual_numbers(QQ), 2, guard=10)
    assert any("guard" in note for note in report.notes)


def test_scan_notes_a_refused_probe_and_keeps_the_others():
    report = hcdim_scan(upper_triangular2(QQ), 0, guard=2000)
    assert "probe Aenv at degree 1 exceeded the size guard" in report.notes
    assert report.proved_upper is None and report.witnessed_lower == 1
    assert (1, "Omega1") in report.witnesses


def test_scan_notes_a_missing_top_degree_witness():
    report = hcdim_scan(free2_truncated(QQ), 0, guard=300)
    assert report.proved_upper is None and report.witnessed_lower == 0
    assert report.notes[-1] == "no witness found at the top degree; the probe set is not exhaustive"


def test_analyze_decides_level_one_once(monkeypatch):
    # is_quasi_free and hcdim_scan share one memoized level-1 certificate
    import contextlib
    import io
    from importlib import resources

    from hochschild import cli, projectivity

    decided = []
    extension_class = projectivity._extension_class

    def counting(A, om_next):
        decided.append(om_next.level - 1)
        return extension_class(A, om_next)

    monkeypatch.setattr(projectivity, "_extension_class", counting)
    projectivity._omega_is_projective.cache_clear()
    dual_q = str(resources.files("hochschild") / "fixtures" / "dual_q.json")
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["analyze", dual_q, "--cap", "2"]) == 0
    assert decided.count(1) == 1
    assert sorted(decided) == [0, 1, 2]


def test_analyze_solves_the_separability_idempotent_once():
    # cmd_analyze and every syzygy level read one memoized idempotent
    import contextlib
    import io
    from importlib import resources

    from hochschild import cli, projectivity

    projectivity._omega_is_projective.cache_clear()
    separability_idempotent.cache_clear()
    dual_q = str(resources.files("hochschild") / "fixtures" / "dual_q.json")
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["analyze", dual_q, "--cap", "2"]) == 0
    info = separability_idempotent.cache_info()
    assert info.misses == 1
    assert info.hits >= 1
