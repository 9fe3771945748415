from itertools import product

import pytest

from hochschild.algebra import AlgebraError, regular_bimodule, validate_bimodule, with_unital_basis
from hochschild.bar import (
    bar_differential,
    bar_rank,
    chain_bimodule,
    contracting_homotopy,
    syzygy,
    universal_derivation,
)
from hochschild.catalog import (
    base_ring_algebra,
    dual_numbers,
    matrix_algebra,
    split_pair,
    split_product,
    standard_corpus,
)
from hochschild.cohomology import Cochain, coboundary_matrix, cocycle_witness, derivation_factorization
from hochschild.matrix import Matrix, SizeGuardError, coords_in_span, column_span_basis, rank, solve
from hochschild.rings import GF, QQ, ZZ

F2 = GF(2)


# -- differentials -----------------------------------------------------------------

def test_rank_one_algebra_differentials_alternate():
    # oracle: evaluate the alternating sum on the single basis tensor:
    # n+1 terms of alternating sign, so the 1x1 matrix is [1] for even n, [0] for odd
    A = base_ring_algebra(QQ)
    for n in range(5):
        expected = [[1]] if n % 2 == 0 else [[0]]
        assert bar_differential(A, n).to_rows() == expected


def test_level_zero_is_multiplication_table():
    from hochschild.algebra import multiplication_matrix

    for A in (dual_numbers(ZZ), split_pair(QQ), matrix_algebra(QQ, 2)):
        assert bar_differential(A, 0) == multiplication_matrix(A)


def test_b1_on_dual_numbers_matches_hand_value():
    # b'_1(1 (x) x (x) 1) = x (x) 1 - 1 (x) x (zero last term since x*1 merges give x)
    A = dual_numbers(QQ)
    b1 = bar_differential(A, 1)
    col = (0 * 2 + 1) * 2 + 0  # tensor (1, x, 1), row-major
    image = b1.col_list(col)
    expected = [0] * 4
    expected[1 * 2 + 0] = 1  # + x (x) 1
    expected[0 * 2 + 1] = -1  # - 1 (x) x
    assert image == expected


# b' as the alternating sum of adjacent merges, written out on the bar basis:
# an oracle that shares no code with the cyclic-boundary assembler.
def _level_tuples(A, n, normalized):
    d = A.rank
    if n == -1:
        return [(i,) for i in range(d)]
    if normalized:
        ranges = [range(d)] + [range(1, d)] * n + [range(d)]
        return list(product(*ranges))
    return list(product(range(d), repeat=n + 2))


def _index_map(tuples) -> dict:
    return {t: i for i, t in enumerate(tuples)}


def _merge_loop_differential(A, n, normalized):
    d = A.rank
    z = A.ring.zero
    src = _level_tuples(A, n, normalized)
    dst = _level_tuples(A, n - 1, normalized) if n >= 1 else [(i,) for i in range(d)]
    dst_index = _index_map(dst)

    def triplets():
        for col, t in enumerate(src):
            for i in range(n + 1):
                sign = 1 if i % 2 == 0 else -1
                a, b = t[i], t[i + 1]
                base = (a * d + b) * d
                # in the normalized complex a merge inside the middle block lands
                # in Abar: the unit component of the product is dropped
                middle_merge = normalized and n >= 1 and 1 <= i <= n - 1
                for k in range(d):
                    c = A.mul[base + k]
                    if c == z or (middle_merge and k == 0):
                        continue
                    row = k if n == 0 else dst_index[t[:i] + (k,) + t[i + 2 :]]
                    yield row, col, c if sign > 0 else -c

    return Matrix.from_triplets(A.ring, len(dst), len(src), triplets())


def test_differential_matches_merge_loop_oracle():
    algebras = dict(standard_corpus({"Z": ZZ, "Q": QQ, "F2": F2}), split6_q=split_product(QQ, 6))
    for name, A in algebras.items():
        top = 2 if A.rank >= 7 else 3
        forms = (A,) if A.has_unital_basis else (A, with_unital_basis(A)[0])
        for B in forms:
            for normalized in (False, True) if B.has_unital_basis else (False,):
                for n in range(top + 1):
                    expected = _merge_loop_differential(B, n, normalized)
                    assert bar_differential(B, n, normalized, guard=None) == expected, (name, n, normalized)


def test_differentials_compose_to_zero(small_corpus):
    for A in small_corpus.values():
        top = 3 if A.rank <= 3 else 2
        for n in range(top):
            assert (bar_differential(A, n) * bar_differential(A, n + 1)).is_zero


def test_normalized_rank_formula():
    A = dual_numbers(QQ)
    for n in range(4):
        assert bar_rank(A, n, normalized=True) == 4  # 2 * 1^n * 2
    B = matrix_algebra(QQ, 2)
    Bu, _ = with_unital_basis(B)
    assert bar_rank(Bu, 2, normalized=True) == 4 * 3 * 3 * 4  # d (d-1)^2 d


def test_normalized_collapses_for_base_ring():
    A = base_ring_algebra(F2)
    assert bar_rank(A, 0, normalized=True) == 1
    for n in range(1, 4):
        assert bar_rank(A, n, normalized=True) == 0


def test_normalized_b1_hand_evaluation():
    # b'_1 on 1 (x) xbar (x) xbar (x) 1 for k[x]/(x^2):
    # = x (x) xbar (x) 1 - 0 + 1 (x) xbar (x) x (middle product dies)
    A = dual_numbers(QQ)
    b2 = bar_differential(A, 2, normalized=True)
    # level-2 tuples: (a0, 1, 1, a3) with a0, a3 in {0 = "1", 1 = "x"}; col of (0,1,1,0)
    cols = [(a0, 1, 1, a3) for a0 in range(2) for a3 in range(2)]
    col = cols.index((0, 1, 1, 0))
    rows = [(a0, 1, a2) for a0 in range(2) for a2 in range(2)]
    image = b2.col_list(col)
    expected = [0] * 4
    expected[rows.index((1, 1, 0))] = 1  # x (x) xbar (x) 1
    expected[rows.index((0, 1, 1))] = 1  # + 1 (x) xbar (x) x  (sign (+1)^2)
    assert image == expected


def test_normalized_differentials_compose_to_zero(small_corpus):
    for A in small_corpus.values():
        if not A.has_unital_basis:
            A, _ = with_unital_basis(A)
        for n in range(3):
            b_up = bar_differential(A, n + 1, normalized=True)
            b_dn = bar_differential(A, n, normalized=True)
            assert (b_dn * b_up).is_zero


def test_normalized_requires_unital_basis():
    A = matrix_algebra(QQ, 2)
    with pytest.raises(AlgebraError):
        bar_differential(A, 1, normalized=True)


def test_every_normalized_entry_point_refuses_a_non_unital_basis():
    # bar._letters is the one refusal, and every builder and bar_rank reach it
    A = matrix_algebra(QQ, 2)
    M = regular_bimodule(A)
    calls = [lambda n=n: bar_differential(A, n, normalized=True) for n in range(3)]
    calls += [lambda n=n: contracting_homotopy(A, n, normalized=True) for n in range(-1, 2)]
    calls += [lambda n=n: syzygy(A, n, normalized=True) for n in (1, 2)]
    calls += [lambda n=n: coboundary_matrix(A, M, n, normalized=True) for n in range(3)]
    calls += [lambda n=n: bar_rank(A, n, True) for n in range(3)]
    for call in calls:
        with pytest.raises(AlgebraError, match="with_unital_basis"):
            call()
    # level 0 is A itself and has no letters
    assert syzygy(A, 0, normalized=True).rank == A.rank


# -- contracting homotopy ------------------------------------------------------------

def test_homotopy_is_injective_prepending_unit():
    A = dual_numbers(QQ)
    for n in range(-1, 3):
        s = contracting_homotopy(A, n)
        assert rank(s) == bar_rank(A, n)


def test_homotopy_identity_exact(small_corpus):
    for A in small_corpus.values():
        top = 2 if A.rank >= 4 else 3
        for n in range(-1, top):
            lhs = bar_differential(A, n + 1) * contracting_homotopy(A, n)
            if n >= 0:
                lhs = lhs + contracting_homotopy(A, n - 1) * bar_differential(A, n)
            assert lhs == Matrix.identity(A.ring, bar_rank(A, n)), (A, n)


def test_normalized_homotopy_identity_exact(small_corpus):
    for A in small_corpus.values():
        if not A.has_unital_basis:
            A, _ = with_unital_basis(A)
        for n in range(-1, 3):
            lhs = bar_differential(A, n + 1, normalized=True) * contracting_homotopy(A, n, normalized=True)
            if n >= 0:
                lhs = lhs + contracting_homotopy(A, n - 1, normalized=True) * bar_differential(A, n, normalized=True)
            assert lhs == Matrix.identity(A.ring, bar_rank(A, n, True)), (A, n)


# s_n written out tuple by tuple on the bar basis: an oracle for the
# Kronecker-product homotopy.  s is not unique (b's + sb' = id does not pin
# it), so the library's choice is held to this one entry by entry.
def _tuple_loop_homotopy(A, n, normalized):
    z = A.ring.zero
    src = _level_tuples(A, n, normalized)
    dst_index = _index_map(_level_tuples(A, n + 1, normalized))

    def triplets():
        for col, t in enumerate(src):
            if normalized:
                # prepend the unit and push the old left factor into Abar,
                # where the class of 1 is zero
                if n == -1 or t[0] != 0:
                    yield dst_index[(0,) + t], col, A.ring.one
            else:
                for j, u in enumerate(A.unit):
                    if u != z:
                        yield dst_index[(j,) + t], col, u

    return Matrix.from_triplets(A.ring, len(dst_index), len(src), triplets())


def test_homotopy_matches_tuple_loop_oracle():
    algebras = dict(standard_corpus({"Z": ZZ, "Q": QQ, "F2": F2}), split6_q=split_product(QQ, 6))
    for name, A in algebras.items():
        forms = (A,) if A.has_unital_basis else (A, with_unital_basis(A)[0])
        for B in forms:
            for normalized in (False, True) if B.has_unital_basis else (False,):
                for n in range(-1, 4):
                    expected = _tuple_loop_homotopy(B, n, normalized)
                    assert contracting_homotopy(B, n, normalized, guard=None) == expected, (name, n, normalized)


def test_rank_one_homotopy_identity():
    # 1-dimensional oracle: s_n = [1], identities read 1*1 + 1*0 and 0*0 + 1*1
    A = base_ring_algebra(ZZ)
    for n in range(-1, 4):
        assert contracting_homotopy(A, n).to_rows() == [[1]]


# -- syzygies ---------------------------------------------------------------------------

def test_syzygy_zero_is_regular_bimodule():
    A = dual_numbers(ZZ)
    om = syzygy(A, 0)
    M = regular_bimodule(A)
    assert om.basis == Matrix.identity(ZZ, 2)
    assert om.left == M.left and om.right == M.right


def test_omega1_of_base_ring_vanishes():
    A = base_ring_algebra(QQ)
    assert syzygy(A, 1).rank == 0


def test_omega1_dual_numbers_explicit():
    # kernel of the 2x4 multiplication matrix: spanned by 1(x)x - x(x)1 and x(x)x
    A = dual_numbers(QQ)
    om = syzygy(A, 1)
    assert om.rank == 2
    v1 = Matrix.column(QQ, [0, 1, -1, 0])
    v2 = Matrix.column(QQ, [0, 0, 0, 1])
    coords_in_span(om.basis, v1)
    coords_in_span(om.basis, v2)


def test_syzygy_basis_spans_kernel_exactly(small_corpus):
    for A in small_corpus.values():
        for n in (1, 2):
            om = syzygy(A, n)
            b = bar_differential(A, n - 1)
            K = om.basis
            assert (b * K).is_zero
            from hochschild.matrix import kernel_basis

            assert K == kernel_basis(b)


def test_syzygy_actions_satisfy_bimodule_axioms(small_corpus):
    for A in small_corpus.values():
        om = syzygy(A, 1)
        validate_bimodule(A, om.rank, om.left, om.right)


def test_omega1_generated_by_universal_derivation_image():
    # Omega^1 is spanned over the enveloping action by {1(x)a - a(x)1}; over Z
    # the span is already the full kernel lattice using left actions alone
    for ring in (ZZ, QQ, F2):
        A = dual_numbers(ring)
        om = syzygy(A, 1)
        dmat = universal_derivation(A)
        gens = om.basis * dmat  # ambient coordinates of d(e_i)
        spanning = []
        for i in range(A.rank):
            col = gens.col_list(i)
            spanning.append(col)
            for j in range(A.rank):
                ambient_left, _ = __import__("hochschild.bar", fromlist=["chain_actions"]).chain_actions(A, 0, False)
                spanning.append((ambient_left[j] * Matrix.column(ring, col)).col_list(0))
        S = Matrix.from_cols(ring, spanning, nrows=4)
        assert column_span_basis(S) == column_span_basis(om.basis)


def test_syzygy_guard():
    A = matrix_algebra(QQ, 2)
    with pytest.raises(SizeGuardError):
        syzygy(A, 3, guard=1000)


# -- universal derivation ---------------------------------------------------------------

def test_universal_derivation_is_a_derivation(small_corpus):
    for A in small_corpus.values():
        om = syzygy(A, 1)
        dmat = universal_derivation(A)
        M = om.as_bimodule()
        witness = cocycle_witness(Cochain(A, M, 1, dmat))
        assert witness is None, (A, witness)
        # d(unit) = 0
        unit_img = dmat * A.unit_column()
        assert unit_img.is_zero


def test_universal_derivation_is_one_tensor_e_minus_e_tensor_one(small_corpus):
    # column i of d is 1 (x) e_i - e_i (x) 1: with 1 = sum_p u_p e_p, the entry at the
    # row-major pair (p, q) is u_p [q = i] - [p = i] u_q, written out without kron
    assert not small_corpus["m2_q"].has_unital_basis
    for A in small_corpus.values():
        d, u = A.rank, A.unit
        columns = [[(u[p] if q == i else 0) - (u[q] if p == i else 0) for p in range(d) for q in range(d)] for i in range(d)]
        assert syzygy(A, 1).basis * universal_derivation(A) == Matrix.from_cols(A.ring, columns, nrows=d * d), A


def test_factorization_of_zero_derivation():
    A = dual_numbers(QQ)
    M = regular_bimodule(A)
    D = Matrix.zeros(QQ, 2, 2)
    F = derivation_factorization(M, D)
    assert F.is_zero


def test_factorization_of_x_scaling_derivation():
    # D(x) = x on k[x]/(x^2): f(1(x)x - x(x)1) = 1*D(x) = x and f(x(x)x) = x*D(x) = 0
    A = dual_numbers(QQ)
    M = regular_bimodule(A)
    D = Matrix.from_cols(QQ, [[0, 0], [0, 1]])  # D(1) = 0, D(x) = x
    F = derivation_factorization(M, D)
    om = syzygy(A, 1)
    c1 = coords_in_span(om.basis, Matrix.column(QQ, [0, 1, -1, 0]))
    c2 = coords_in_span(om.basis, Matrix.column(QQ, [0, 0, 0, 1]))
    assert (F * c1).col_list(0) == [0, 1]  # the element x
    assert (F * c2).col_list(0) == [0, 0]  # x * x = 0


def test_universal_derivation_factors_through_identity():
    A = dual_numbers(QQ)
    om = syzygy(A, 1)
    dmat = universal_derivation(A)
    F = derivation_factorization(om.as_bimodule(), dmat)
    assert F == Matrix.identity(QQ, om.rank)


def test_non_derivation_rejected():
    A = dual_numbers(QQ)
    M = regular_bimodule(A)
    D = Matrix.from_cols(QQ, [[1, 0], [0, 0]])  # D(1) = 1 violates Leibniz
    with pytest.raises(AlgebraError):
        derivation_factorization(M, D)


def test_chain_bimodule_axioms():
    A = dual_numbers(F2)
    M = chain_bimodule(A, 1)
    validate_bimodule(A, M.rank, M.left, M.right)

