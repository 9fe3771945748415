import random
from itertools import product

import pytest

from hochschild.algebra import AlgebraError, hom_bimodule, regular_bimodule, validate_algebra, zero_bimodule
from hochschild.catalog import (
    base_ring_algebra,
    dual_numbers,
    path_algebra,
    split_pair,
    split_product,
    truncated_poly,
    upper_triangular2,
)
from hochschild.cohomology import coboundary_matrix, hh
from hochschild.extensions import (
    ExtensionPresentation,
    _crossed_product_unchecked,
    coboundary_of,
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
from hochschild.matrix import Matrix, SizeGuardError, kernel_basis
from hochschild.rings import GF, QQ, ZZ

F2 = GF(2)


def _xx_cocycle(ring=F2):
    """B(x, x) = 1 on the dual numbers, zero elsewhere."""
    A = dual_numbers(ring)
    M = regular_bimodule(A)
    vec = [ring.zero] * 8
    vec[0 * 4 + 3] = ring.one
    return A, M, two_cochain_from_vector(A, M, vec)


# -- cocycle checking ----------------------------------------------------------------

def test_zero_is_a_cocycle():
    A = dual_numbers(QQ)
    M = regular_bimodule(A)
    ok, witness = is_two_cocycle(zero_two_cochain(A, M))
    assert ok and witness is None


def test_coboundaries_are_cocycles():
    rng = random.Random(42)
    A = dual_numbers(QQ)
    M = regular_bimodule(A)
    for _ in range(10):
        zeta = Matrix.from_rows(QQ, [[rng.randint(-3, 3) for _ in range(2)] for _ in range(2)])
        ok, _ = is_two_cocycle(coboundary_of(A, M, zeta))
        assert ok


def test_xx_cochain_is_cocycle_but_not_coboundary():
    # oracle: exhaustive enumeration of all 2^4 one-cochains over F2
    A, M, B = _xx_cocycle()
    ok, _ = is_two_cocycle(B)
    assert ok
    found = False
    for bits in range(16):
        zeta = Matrix.from_rows(F2, [[(bits >> (2 * i + j)) & 1 for j in range(2)] for i in range(2)])
        if coboundary_of(A, M, zeta).matrix == B.matrix:
            found = True
    assert not found
    assert cocycles_cohomologous(B, zero_two_cochain(A, M)) is None


# -- crossed products ------------------------------------------------------------------

def test_trivial_crossed_product_of_base_is_dual_numbers():
    k = base_ring_algebra(QQ)
    M = regular_bimodule(k)  # k as a bimodule over itself
    B = crossed_product(k, M, zero_two_cochain(k, M))
    assert B.rank == 2
    t = [0, 1]
    assert B.multiply(t, t) == [0, 0]  # t^2 = 0: this is k[t]/(t^2)


def test_crossed_product_with_unnormalized_cocycle_has_adjusted_unit():
    # B(1,1) = 1 over F2 on the base ring: the unit of the product is (1, -B(1,1))
    k = base_ring_algebra(F2)
    M = regular_bimodule(k)
    B = two_cochain_from_vector(k, M, [1])
    ok, _ = is_two_cocycle(B)
    assert ok
    prod = crossed_product(k, M, B)
    assert prod.rank == 2
    assert prod.unit == (1, 1)  # -B(1,1) = 1 mod 2
    validate_algebra(prod.ring, prod.rank, prod.basis_names, prod.unit, prod.mul)


def test_nontrivial_crossed_product_validates():
    A, M, B = _xx_cocycle()
    total = crossed_product(A, M, B)
    assert total.rank == 4
    assert validate_algebra(total.ring, total.rank, total.basis_names, total.unit, total.mul) == total


def test_crossed_product_rejects_non_cocycle_with_witness():
    A = dual_numbers(QQ)
    M = regular_bimodule(A)
    vec = [0] * 8
    vec[0 * 4 + 1] = 1  # B(1, x) = 1 alone is not a cocycle
    B = two_cochain_from_vector(A, M, vec)
    ok, witness = is_two_cocycle(B)
    assert not ok
    with pytest.raises(AlgebraError) as exc:
        crossed_product(A, M, B)
    assert str(witness) in str(exc.value)


def test_associativity_iff_cocycle_on_random_cochains():
    # both directions, with matching witnesses, over several rings
    rng = random.Random(7)
    cases = [(dual_numbers(F2), F2), (dual_numbers(QQ), QQ), (split_pair(ZZ), ZZ)]
    for A, ring in cases:
        M = regular_bimodule(A)
        for _ in range(30):
            vec = [ring.of_int(rng.randint(-2, 2)) for _ in range(M.rank * A.rank**2)]
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


# -- classes from sections ----------------------------------------------------------------

def test_trivial_extension_class_is_zero():
    A = dual_numbers(F2)
    M = regular_bimodule(A)
    E = trivial_extension(A, M)
    assert extension_class_from_section(E).matrix.is_zero


def test_canonical_section_recovers_cocycle():
    A, M, B = _xx_cocycle()
    E = crossed_product_presentation(A, M, B)
    assert extension_class_from_section(E).matrix == B.matrix


def test_perturbed_section_shifts_class_by_coboundary():
    A, M, B = _xx_cocycle(QQ)
    # over Q this cochain is a coboundary, but the shift identity holds regardless
    E = crossed_product_presentation(A, M, B)
    zeta = Matrix.from_rows(QQ, [[1, 2], [0, 1]])
    perturbed = E.section + E.inclusion * zeta
    got = extension_class_from_section(E, section=perturbed)
    expected = Matrix.from_rows(
        QQ,
        [
            [B.matrix[0, j] + coboundary_of(A, M, zeta).matrix[0, j] for j in range(4)],
            [B.matrix[1, j] + coboundary_of(A, M, zeta).matrix[1, j] for j in range(4)],
        ],
    )
    assert got.matrix == expected


def test_cohomologous_reflexive_and_constructed():
    A = dual_numbers(QQ)
    M = regular_bimodule(A)
    B = zero_two_cochain(A, M)
    assert cocycles_cohomologous(B, B).is_zero
    zeta0 = Matrix.from_rows(QQ, [[2, -1], [3, 0]])
    shifted = coboundary_of(A, M, zeta0)
    z = cocycles_cohomologous(shifted, B)
    assert z is not None
    assert coboundary_of(A, M, z).matrix == shifted.matrix


# -- lifting ----------------------------------------------------------------------------

def test_trivial_extensions_lift(small_corpus):
    for A in small_corpus.values():
        M = regular_bimodule(A)
        E = trivial_extension(A, M)
        s = lift_exists(E)
        assert s is not None


def test_nontrivial_f2_extension_does_not_lift():
    A, M, B = _xx_cocycle()
    E = crossed_product_presentation(A, M, B)
    assert lift_exists(E) is None


def test_lift_of_coboundary_extension_is_multiplicative():
    A = dual_numbers(QQ)
    M = regular_bimodule(A)
    zeta = Matrix.from_rows(QQ, [[1, 1], [2, -1]])
    B = coboundary_of(A, M, zeta)
    E = crossed_product_presentation(A, M, B)
    s = lift_exists(E)
    assert s is not None
    for i in range(A.rank):
        for j in range(A.rank):
            lhs = E.total.multiply(s.col_list(i), s.col_list(j))
            rhs = (s * Matrix.column(QQ, A.product_column(i, j))).col_list(0)
            assert lhs == rhs


# -- enumeration --------------------------------------------------------------------------

def test_enumerate_base_field_single_class():
    k = base_ring_algebra(F2)
    M = regular_bimodule(k)
    reps = enumerate_extension_classes(k, M)
    assert len(reps) == 1  # HH^2 of the base field vanishes


def test_enumerate_dual_f2_four_classes():
    A = dual_numbers(F2)
    M = regular_bimodule(A)
    reps = enumerate_extension_classes(A, M)
    assert len(reps) == 4
    dim = hh(A, M, 2, representatives=False).invariants.free_rank
    assert len(reps) == 2**dim
    # pairwise non-cohomologous
    for i in range(len(reps)):
        for j in range(i + 1, len(reps)):
            assert cocycles_cohomologous(reps[i], reps[j]) is None
    for r in reps:
        ok, _ = is_two_cocycle(r)
        assert ok


def _brute_force_classes(A, M):
    """Every cochain, kept when it is a cocycle that no earlier class contains.

    Cochains come in lexicographic order, so each class is represented by
    its lexicographically least member.
    """
    reps = []
    for vec in product(range(A.ring.p), repeat=M.rank * A.rank**2):
        B = two_cochain_from_vector(A, M, list(vec))
        if is_two_cocycle(B)[0] and all(cocycles_cohomologous(B, R) is None for R in reps):
            reps.append(B)
    return reps


@pytest.mark.parametrize(
    "A",
    [base_ring_algebra(GF(3)), dual_numbers(F2), dual_numbers(GF(3)), split_pair(F2)],
    ids=["base_f3", "dual_f2", "dual_f3", "split_pair_f2"],
)
def test_enumeration_matches_brute_force(A):
    M = regular_bimodule(A)
    got = [B.matrix for B in enumerate_extension_classes(A, M)]
    assert got == [B.matrix for B in _brute_force_classes(A, M)]


@pytest.mark.parametrize("A", [truncated_poly(F2, 3), dual_numbers(GF(3))], ids=["x3_f2", "dual_f3"])
def test_enumerated_representatives_are_least_in_their_classes(A):
    # oracle: every coboundary b^1 z, brute-forced over all 1-cochains z with coboundary_of
    M, p, d = regular_bimodule(A), A.ring.p, A.rank
    boundaries = [
        coboundary_of(A, M, Matrix.from_rows(A.ring, [z[i * d:(i + 1) * d] for i in range(M.rank)])).matrix
        for z in product(range(p), repeat=M.rank * d)
    ]

    def dense(X):
        return [x for row in X.to_rows() for x in row]

    reps = enumerate_extension_classes(A, M)
    assert len(reps) == p ** hh(A, M, 2, representatives=False).invariants.free_rank
    assert all(dense(R.matrix) < dense(S.matrix) for R, S in zip(reps, reps[1:]))
    for R in reps:
        assert is_two_cocycle(R)[0]
        # least in its class, so distinct representatives lie in distinct classes
        assert all(dense(R.matrix + b) >= dense(R.matrix) for b in boundaries)


def test_enumerate_dual_f5_five_classes():
    A = dual_numbers(GF(5))
    reps = enumerate_extension_classes(A, regular_bimodule(A))
    assert len(reps) == 5
    assert all(is_two_cocycle(B)[0] for B in reps)


def test_enumerate_zero_module_single_class():
    A = dual_numbers(F2)
    reps = enumerate_extension_classes(A, zero_bimodule(A))
    assert len(reps) == 1


def test_enumeration_guard():
    # k<x,y,z>/(x,y,z)^2 over F_2: HH^2 = k^24, so the representatives fill a 64 x 2^24 matrix
    A = path_algebra(F2, ["1"], [(a, 0, 0) for a in "xyz"], product(range(3), repeat=2))
    M = regular_bimodule(A)
    assert kernel_basis(coboundary_matrix(A, M, 2)).cols == 31
    assert hh(A, M, 2, representatives=False).invariants.free_rank == 24
    with pytest.raises(SizeGuardError, match="64x16777216"):
        enumerate_extension_classes(A, M)


def test_enumeration_guard_counts_classes_not_cocycles():
    # HH^2(A, Hom_k(A, A)) = Ext^2_A(A, A) = 0 with dim Z^2 = 21: 2^21 cocycles, one class
    for A in (truncated_poly(F2, 3), upper_triangular2(F2), split_product(F2, 3)):
        N = regular_bimodule(A).left_module()
        M = hom_bimodule(N, N)
        assert kernel_basis(coboundary_matrix(A, M, 2)).cols == 21
        reps = enumerate_extension_classes(A, M)
        assert len(reps) == 1 and reps[0].matrix.is_zero


def test_enumeration_guard_counts_cocycles_not_cochains():
    # 2^27 cochains each, but only 2^7 and 2^9 cocycles: both fit the default guard
    for A, dim_z2, classes in ((upper_triangular2(F2), 7, 1), (truncated_poly(F2, 3), 9, 4)):
        M = regular_bimodule(A)
        assert kernel_basis(coboundary_matrix(A, M, 2)).cols == dim_z2
        reps = enumerate_extension_classes(A, M)
        assert len(reps) == classes
        assert len(reps) == 2 ** hh(A, M, 2, representatives=False).invariants.free_rank


def test_enumeration_requires_finite_field():
    A = dual_numbers(QQ)
    with pytest.raises(AlgebraError):
        enumerate_extension_classes(A, regular_bimodule(A))


def test_extension_presentation_validation_catches_bad_section():
    from hochschild.extensions import validate_extension

    A, M, B = _xx_cocycle()
    E = crossed_product_presentation(A, M, B)
    wrong = Matrix.zeros(F2, 4, 2)
    with pytest.raises(AlgebraError):
        validate_extension(ExtensionPresentation(A, M, E.total, E.projection, E.inclusion, wrong))
