import pytest

from hochschild import matrix
from hochschild.algebra import (
    Bimodule,
    hom_bimodule,
    regular_bimodule,
    tensor_product,
    validate_left_module,
    with_unital_basis,
)
from hochschild.bar import chain_bimodule
from hochschild.catalog import (
    base_ring_algebra,
    dual_numbers,
    free2_truncated,
    matrix_algebra,
    path_algebra,
    split_pair,
    standard_corpus,
    truncated_poly,
    upper_triangular2,
)
from hochschild.cohomology import (
    center,
    coboundary_matrix,
    cocycle_witness,
    derivations,
    hh,
    hh1_report,
    hochschild_homology,
    homology,
    inner_derivations,
    relative_ext,
)
from hochschild.matrix import (
    DEFAULT_GUARD,
    KModuleInvariants,
    Matrix,
    SizeGuardError,
    column_span_basis,
    homology_invariants,
    kernel_basis,
    rank,
    subquotient_invariants,
)
from hochschild.rings import GF, QQ, ZZ
from oracles import (
    _homology_boundary,
    _relative_ext_coboundary,
    intertwiners,
    relative_ext_resolution,
    unseeded_homology,
)

F2 = GF(2)
F3 = GF(3)


# -- coboundary examples -----------------------------------------------------------

def test_b0_vanishes_for_commutative_regular_coefficients():
    for A in (dual_numbers(QQ), truncated_poly(ZZ, 3)):
        assert coboundary_matrix(A, regular_bimodule(A), 0).is_zero


def test_b0_kernel_of_matrix_algebra_is_scalars():
    # oracle: solve am = ma on the matrix-unit basis directly
    A = matrix_algebra(QQ, 2)
    M = regular_bimodule(A)
    b0 = coboundary_matrix(A, M, 0)
    from hochschild.matrix import kernel_basis

    K = kernel_basis(b0)
    assert K.cols == 1
    assert K.col_list(0) == [1, 0, 0, 1]  # the identity matrix


def test_normalized_coboundaries_vanish_for_dual_f2():
    # the (1 + (-1)^(n+1)) coefficient dies mod 2 and middle terms die on x*x = 0
    A = dual_numbers(F2)
    M = regular_bimodule(A)
    for n in range(4):
        assert coboundary_matrix(A, M, n, normalized=True).is_zero


def test_coboundaries_compose_to_zero(small_corpus):
    # homology_invariants presumes this of every free complex it reads and does not check it
    for A in small_corpus.values():
        M = regular_bimodule(A)
        N = M.left_module()
        top = 2 if A.rank >= 4 else 3
        for n in range(top):
            b_lo = coboundary_matrix(A, M, n)
            b_hi = coboundary_matrix(A, M, n + 1)
            assert (b_hi * b_lo).is_zero
        if A.has_unital_basis:
            for n in range(3):
                b_lo = coboundary_matrix(A, M, n, normalized=True)
                b_hi = coboundary_matrix(A, M, n + 1, normalized=True)
                assert (b_hi * b_lo).is_zero
        for k in range(1, 4):
            for normalized in (False, True) if A.has_unital_basis else (False,):
                b_lo = _homology_boundary(A, M, k, normalized)
                b_hi = _homology_boundary(A, M, k + 1, normalized)
                assert (b_lo * b_hi).is_zero, (A.basis_names, k, normalized)
        for n in range(4):
            d_lo = _relative_ext_coboundary(A, N, N, n)
            d_hi = _relative_ext_coboundary(A, N, N, n + 1)
            assert (d_hi * d_lo).is_zero, (A.basis_names, n)


# -- hh values ---------------------------------------------------------------------

def test_hh_dual_numbers_patterns():
    expected = {
        QQ: [(2, ()), (1, ()), (1, ()), (1, ())],
        F2: [(2, ()), (2, ()), (2, ()), (2, ()), (2, ())],
    }
    for ring, pattern in expected.items():
        A = dual_numbers(ring)
        M = regular_bimodule(A)
        for n, (free, tors) in enumerate(pattern):
            rep = hh(A, M, n)
            assert rep.invariants == KModuleInvariants(free, tors), (ring, n)


def test_hh2_dual_numbers_over_z_has_torsion():
    A = dual_numbers(ZZ)
    M = regular_bimodule(A)
    assert hh(A, M, 2).invariants == KModuleInvariants(1, (2,))


def test_hh_of_matrix_algebra_degree_zero():
    A, _ = with_unital_basis(matrix_algebra(QQ, 2))
    M = regular_bimodule(A)
    assert hh(A, M, 0).invariants == KModuleInvariants(1)


def test_hh_base_ring_vanishes_positively():
    for ring in (QQ, ZZ, F2):
        A = base_ring_algebra(ring)
        M = regular_bimodule(A)
        for n in range(1, 6):
            assert hh(A, M, n).invariants.is_zero


def test_normalized_equals_unnormalized(small_corpus):
    for A in small_corpus.values():
        if not A.has_unital_basis:
            A, _ = with_unital_basis(A)
        M = regular_bimodule(A)
        top = 3 if A.rank <= 3 else 2
        for n in range(top + 1):
            a = hh(A, M, n, normalized=True, representatives=False).invariants
            b = hh(A, M, n, normalized=False, representatives=False).invariants
            assert a == b, (A.basis_names, n)


def test_representatives_are_cocycles():
    A = dual_numbers(ZZ)
    M = regular_bimodule(A)
    rep = hh(A, M, 2)
    assert rep.representatives is not None
    assert len(rep.representatives) == 2  # one free generator, one of order 2
    for c in rep.representatives:
        assert cocycle_witness(c) is None


def test_representative_counts_match_invariants():
    A = dual_numbers(QQ)
    M = regular_bimodule(A)
    for n in range(3):
        rep = hh(A, M, n)
        expect = rep.invariants.free_rank + len(rep.invariants.torsion)
        assert len(rep.representatives) == expect


# The zero extension of a normalized cochain to the full tensor basis,
# decoded digit by digit: an oracle for the Kronecker-product embedding.
def _digit_loop_embedding(A, M, n, vec):
    d = A.rank
    T = (d - 1) ** n

    def full_index(s):  # s has base-(d-1) digits t_i - 1; the full index is sum_i t_i d^(n-1-i)
        return sum((s // (d - 1) ** i % (d - 1) + 1) * d**i for i in range(n))

    triplets = ((k // T, full_index(k % T), v) for k, v in vec.columns[0])
    return Matrix.from_triplets(A.ring, M.rank, d**n, triplets)


def test_representatives_match_digit_loop_embedding(corpus):
    for name, A in corpus.items():
        if not A.has_unital_basis:
            A, _ = with_unital_basis(A)
        M = regular_bimodule(A)
        for normalized in (True, False):
            for n in range(3):
                bn = coboundary_matrix(A, M, n, normalized, guard=None)
                B = coboundary_matrix(A, M, n - 1, normalized, guard=None) if n else Matrix.zeros(A.ring, bn.cols, 0)
                gens = homology(bn, B)[1]
                if normalized:
                    expected = [_digit_loop_embedding(A, M, n, g) for g in gens]
                else:
                    expected = [g.reshape(M.rank, A.rank**n) for g in gens]
                reps = hh(A, M, n, normalized, guard=None).representatives
                assert [c.matrix for c in reps] == expected, (name, n, normalized)
                assert all(cocycle_witness(c) is None for c in reps), (name, n, normalized)


# -- HH^0 = center, HH^1 = Der/Inn ----------------------------------------------------

def test_center_examples():
    A = dual_numbers(QQ)
    assert center(A, regular_bimodule(A)).cols == 2  # commutative: everything
    B = matrix_algebra(QQ, 2)
    assert center(B, regular_bimodule(B)).cols == 1


def test_center_matches_hh0(small_corpus):
    for A in small_corpus.values():
        for M in (regular_bimodule(A), chain_bimodule(A, 0)):
            c = center(A, M)
            h = hh(A, M, 0, representatives=False).invariants
            assert h == KModuleInvariants(c.cols), A.basis_names


def test_der_inn_matrix_algebra():
    A = matrix_algebra(QQ, 2)
    M = regular_bimodule(A)
    assert derivations(A, M).cols == 3
    assert inner_derivations(A, M).cols == 3
    assert hh1_report(A, M).invariants.is_zero


def test_der_inn_dual_numbers_over_z():
    # Leibniz forces 2 * (coefficient of 1) = 0, so Der = Z on D(x) = beta x
    A = dual_numbers(ZZ)
    M = regular_bimodule(A)
    Der = derivations(A, M)
    assert Der.cols == 1
    assert inner_derivations(A, M).cols == 0
    assert hh1_report(A, M).invariants == KModuleInvariants(1)


def test_der_of_base_ring_vanishes():
    for ring in (QQ, ZZ, F2):
        A = base_ring_algebra(ring)
        M = regular_bimodule(A)
        assert derivations(A, M).cols == 0


def test_hh1_two_routes_agree(small_corpus):
    for A in small_corpus.values():
        for M in (regular_bimodule(A), chain_bimodule(A, 0)):
            via_quotient = hh1_report(A, M).invariants
            via_complex = hh(A, M, 1, representatives=False).invariants
            assert via_quotient == via_complex, A.basis_names


def test_rank_route_matches_the_kernel_route(corpus):
    # the invariant-only paths read rank(b^n) and the elementary divisors of
    # b^(n-1); the kernel route of the representatives path is the oracle.
    # The corpus is rebuilt over F_3 so that sign errors cannot cancel as over F_2
    algebras = list(corpus.values()) + list(standard_corpus({"Z": F3, "Q": F3, "F2": F3}).values())
    for A in algebras:
        M = regular_bimodule(A)
        N = M.left_module()
        for n in range(5):
            try:
                fast = hh(A, M, n, representatives=False).invariants
            except SizeGuardError:
                break
            assert fast == hh(A, M, n).invariants, (A.basis_names, A.ring, n)
        for n in range(5):
            try:
                fast = relative_ext_resolution(A, N, N, n)
            except SizeGuardError:
                break
            dn = _relative_ext_coboundary(A, N, N, n)
            B = _relative_ext_coboundary(A, N, N, n - 1) if n else Matrix.zeros(A.ring, dn.cols, 0)
            K = kernel_basis(dn)
            assert column_span_basis(K) == K, (A.basis_names, A.ring, n)  # homology() skips this pass
            assert fast == subquotient_invariants(K, B), (A.basis_names, A.ring, n)
        assert n >= 2, A.basis_names  # the guard let degrees 0 and 1 through at least


def test_seeded_homology_matches_the_unseeded_route_on_coboundaries(corpus):
    f3_corpus = standard_corpus({"Z": F3, "Q": F3, "F2": F3})
    for name, A in [*corpus.items(), *f3_corpus.items()]:
        unital = A if A.has_unital_basis else with_unital_basis(A)[0]
        for alg, normalized in ((A, False), (unital, True)):
            M = regular_bimodule(alg)
            for n in range(4):
                bn = coboundary_matrix(alg, M, n, normalized, guard=None)
                B = coboundary_matrix(alg, M, n - 1, normalized, guard=None) if n else Matrix.zeros(A.ring, bn.cols, 0)
                assert homology(bn, B) == unseeded_homology(bn, B), (name, A.ring, n, normalized)
    # hh-sweep's field algebras at their sweep degrees, on the complex hh picks, plus F_5 and free2 over F_3
    sweeps = [
        (truncated_poly(F2, 4), 4),
        (truncated_poly(F2, 8), 2),
        (truncated_poly(F3, 6), 3),
        (truncated_poly(GF(5), 5), 3),
        (free2_truncated(QQ), 2),
        (free2_truncated(F3), 2),
        (with_unital_basis(matrix_algebra(QQ, 3))[0], 1),
    ]
    for A, top in sweeps:
        M = regular_bimodule(A)
        for n in range(top + 1):
            bn = coboundary_matrix(A, M, n, True, guard=None)
            B = coboundary_matrix(A, M, n - 1, True, guard=None) if n else Matrix.zeros(A.ring, bn.cols, 0)
            assert homology(bn, B) == unseeded_homology(bn, B), (A.basis_names, A.ring, n)


def test_field_homology_skips_the_quotient_step(monkeypatch):
    # over a field the generators are the RREF of the cocycles that vanish at the image's leads;
    # over Z the torsion generators still come from the Smith transform of the coordinates
    calls = []

    def spy(module, name):
        real = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *args: calls.append(name) or real(*args))

    spy(matrix, "_quotient_of_basis")
    spy(matrix, "coords_in_span")
    for ring, expected in ((QQ, []), (F2, []), (F3, []), (GF(5), []), (ZZ, ["_quotient_of_basis", "coords_in_span"])):
        A = truncated_poly(ring, 4)
        calls.clear()
        report = hh(A, regular_bimodule(A), 2)
        assert calls == expected, ring
        assert len(report.representatives) == report.invariants.free_rank + len(report.invariants.torsion)


def test_hh_eliminates_only_the_columns_the_image_does_not_seed(monkeypatch):
    # Z[x]/(x^6) at degree 3 has 6 * 5^3 = 750 normalized cochain columns; im b^2 seeds 120
    real, calls = matrix._kernel_generator_rows, []

    def spy(M, tagged):
        rows = real(M, tagged)
        calls.append((M.cols, len(rows)))
        return rows

    monkeypatch.setattr(matrix, "_kernel_generator_rows", spy)
    for ring, found in ((ZZ, 5), (F3, 6)):
        calls.clear()
        A = truncated_poly(ring, 6)
        hh(A, regular_bimodule(A), 3)
        assert calls == [(630, found)], ring


# -- homology ---------------------------------------------------------------------------

def test_dual_bimodule_is_built_once_and_is_its_own_inverse():
    A = truncated_poly(QQ, 3)
    M = regular_bimodule(A)
    D = M._dual
    assert M._dual is D and D._dual is M
    assert D.left == tuple(R.transpose() for R in M.right) and D.right == tuple(L.transpose() for L in M.left)
    fresh = Bimodule(A, M.rank, M.left, M.right)  # the kept dual is no field: equality and hash ignore it
    assert fresh == M and hash(fresh) == hash(M) and "_dual" not in fresh.__dict__


def test_hh0_homology_commutative_is_whole_algebra():
    for A in (dual_numbers(QQ), truncated_poly(ZZ, 3)):
        got = hochschild_homology(A, regular_bimodule(A), 0)
        assert got == KModuleInvariants(A.rank)


def test_hh0_homology_matrix_algebra_is_trace_line():
    # oracle: commutators of matrix units span the traceless 3-space
    A = matrix_algebra(QQ, 2)
    got = hochschild_homology(A, regular_bimodule(A), 0)
    assert got == KModuleInvariants(1)


def test_hh1_homology_of_base_ring_vanishes():
    A = base_ring_algebra(QQ)
    assert hochschild_homology(A, regular_bimodule(A), 1).is_zero


def test_homology_of_dual_numbers_f2():
    A = dual_numbers(F2)
    M = regular_bimodule(A)
    assert hochschild_homology(A, M, 0) == KModuleInvariants(2)
    assert not hochschild_homology(A, M, 1).is_zero


def _raw_cyclic_homology(A, M, n):
    outgoing = _homology_boundary(A, M, n, False) if n else Matrix.zeros(A.ring, 0, M.rank)
    return homology(outgoing, _homology_boundary(A, M, n + 1, False))[0]


def test_normalized_homology_equals_unnormalized(corpus):
    # hochschild_homology takes the normalized complex on a unital basis;
    # F_3 joins the corpus rings so that sign errors cannot cancel as over F_2
    algebras = [A for A in corpus.values() if A.has_unital_basis] + [truncated_poly(GF(3), 3)]
    for A in algebras:
        M = regular_bimodule(A)
        for n in range(4):
            got = hochschild_homology(A, M, n, guard=None)
            assert got == _raw_cyclic_homology(A, M, n), (A.basis_names, A.ring, n)


def _direct_homology(A, M, n):
    # HH_n straight off the cyclic boundaries of M, on the complex hochschild_homology picks
    normalized = A.has_unital_basis
    outgoing = _homology_boundary(A, M, n, normalized) if n else Matrix.zeros(A.ring, 0, M.rank)
    return homology_invariants(outgoing, _homology_boundary(A, M, n + 1, normalized))


def test_homology_matches_the_direct_cyclic_boundaries():
    # the package reads HH_n off the rows of b^n(A, M^*) less rank b^(n-1)(A, M^*);
    # Z[x]/(x^4) HH_1 = k^3 + k/4 takes its torsion from b^1, not b^0
    A3 = [f"e{i}" for i in (1, 2, 3)], [("a1", 0, 1), ("a2", 1, 2)]
    cases = 0
    for ring in (ZZ, QQ, F2, F3):
        algebras = set(standard_corpus({"Z": ring, "Q": ring, "F2": ring}).values())
        algebras |= {truncated_poly(ring, k) for k in range(2, 8)}
        algebras |= {path_algebra(ring, *A3, []), path_algebra(ring, *A3, [[0, 1]])}
        algebras.add(tensor_product(upper_triangular2(ring), dual_numbers(ring)))
        for A in sorted(algebras, key=lambda A: (A.rank, A.basis_names)):
            R = regular_bimodule(A)
            bimodules = [R, hom_bimodule(R.left_module(), R.left_module())] if A.rank <= 3 else [R]
            for M in bimodules:
                for n in range(4 if A.rank < 5 else 3):
                    got = hochschild_homology(A, M, n, guard=None)
                    assert got == _direct_homology(A, M, n), (A.basis_names, str(ring), M.rank, n)
                    cases += 1
    assert cases == 276
    A = truncated_poly(ZZ, 4)
    assert hochschild_homology(A, regular_bimodule(A), 1) == KModuleInvariants(3, (4,))


def test_homology_guard_refuses_free2_degree_3():
    A = free2_truncated(QQ)
    with pytest.raises(SizeGuardError):
        hochschild_homology(A, regular_bimodule(A), 3, guard=DEFAULT_GUARD)


def test_homology_guard_sizes_the_normalized_complex():
    # the raw boundary at degree 10 would be 2048x4096; the normalized one is 2x2
    A = dual_numbers(QQ)
    assert hochschild_homology(A, regular_bimodule(A), 10, guard=DEFAULT_GUARD) == KModuleInvariants(1)


# -- relative Ext -----------------------------------------------------------------------

def _trivial_module(A):
    # rank-1 module where every non-unit basis element acts by zero
    one = Matrix.identity(A.ring, 1)
    zero = Matrix.zeros(A.ring, 1, 1)
    action = [one if A.ring.is_unit(A.unit[i]) and A.has_unital_basis and i == 0 else zero for i in range(A.rank)]
    return validate_left_module(A, 1, action)


def test_ext0_of_regular_module_is_whole_algebra():
    for A in (dual_numbers(QQ), split_pair(ZZ)):
        N = regular_bimodule(A).left_module()
        got = relative_ext(A, N, N, 0)
        assert got == KModuleInvariants(A.rank)


def test_ext1_vanishes_on_free_module():
    for A in (dual_numbers(QQ), upper_triangular2(QQ), split_pair(ZZ)):
        N = regular_bimodule(A).left_module()
        assert relative_ext(A, N, N, 1).is_zero


def test_ext_dual_paths_agree_for_trivial_modules():
    A = dual_numbers(F2)
    T = _trivial_module(A)
    for n in range(3):
        via_hom = relative_ext(A, T, T, n)
        via_res = relative_ext_resolution(A, T, T, n)
        assert via_hom == via_res
    assert not relative_ext(A, T, T, 1).is_zero


def test_ext0_matches_intertwiners():
    A = dual_numbers(QQ)
    N = regular_bimodule(A).left_module()
    T = _trivial_module(A)
    inter = intertwiners(N, T)
    assert relative_ext(A, N, T, 0) == KModuleInvariants(inter.cols)


def test_hom_bimodule_degree_zero_consistency():
    A = upper_triangular2(QQ)
    N = regular_bimodule(A).left_module()
    H = hom_bimodule(N, N)
    assert hh(A, H, 0, representatives=False).invariants == KModuleInvariants(intertwiners(N, N).cols)
