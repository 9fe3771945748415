from itertools import product

import pytest

from hochschild.algebra import (
    AlgebraError,
    LeftModule,
    act,
    ae_from_bimodule,
    bimodule_from_ae,
    enveloping,
    hom_bimodule,
    multiplication_matrix,
    opposite,
    regular_bimodule,
    tensor_product,
    transport_bimodule,
    validate_algebra,
    validate_bimodule,
    validate_left_module,
    with_unital_basis,
    zero_bimodule,
)
from hochschild.bar import chain_bimodule
from hochschild.catalog import (
    base_ring_algebra,
    dual_numbers,
    matrix_algebra,
    path_algebra,
    split_pair,
    truncated_poly,
    upper_triangular2,
)
from hochschild.matrix import Matrix, rank
from hochschild.rings import GF, QQ, ZZ
from oracles import ae_right_action, intertwiners

F2 = GF(2)


# -- validate_algebra ---------------------------------------------------------

def test_base_field_is_valid():
    A = validate_algebra(QQ, 1, ["1"], [1], [1])
    assert A.rank == 1 and A.has_unital_basis


def test_dual_numbers_valid():
    A = dual_numbers(QQ)
    assert A.multiply([0, 1], [0, 1]) == [0, 0]  # x * x = 0


def test_non_associative_table_rejected_with_witness():
    # oracle: one hand-built non-associative table, confirmed rejected.
    # e0*e0 = e1, e1*e0 = e0, everything else zero:
    # (e0 e0) e0 = e1 e0 = e0, but e0 (e0 e0) = e0 e1 = 0.
    z, o = 0, 1
    mul = [z] * 8
    mul[(0 * 2 + 0) * 2 + 1] = o
    mul[(1 * 2 + 0) * 2 + 0] = o
    with pytest.raises(AlgebraError) as exc:
        validate_algebra(QQ, 2, ["e0", "e1"], [1, 0], mul)
    assert "(0, 0, 0)" in str(exc.value)


def test_unit_law_failure_reported():
    with pytest.raises(AlgebraError) as exc:
        validate_algebra(QQ, 1, ["e"], [1], [2])  # e*e = 2e, unit claims to be e
    assert "unit law" in str(exc.value)


# -- opposite -------------------------------------------------------------------

def test_opposite_of_commutative_is_identity():
    A = dual_numbers(ZZ)
    assert opposite(A).mul == A.mul


def test_opposite_is_involution(corpus):
    for A in corpus.values():
        assert opposite(opposite(A)).mul == A.mul


def test_opposite_upper_triangular_transposes_table():
    # oracle: transpose the multiplication table by hand on the basis
    # (E11, E12, E22): in the opposite algebra E12 *op E11 = E11 E12 = E12
    A = upper_triangular2(QQ)
    op = opposite(A)
    for i in range(3):
        for j in range(3):
            assert op.product_column(i, j) == A.product_column(j, i)
    assert op.product_column(1, 0) == [0, 1, 0]  # E12 *op E11 = E12
    assert op.product_column(0, 1) == [0, 0, 0]  # E11 *op E12 = E12 E11 = 0


# -- enveloping ----------------------------------------------------------------

def test_enveloping_of_base_ring_is_rank_one():
    env = enveloping(base_ring_algebra(QQ))
    assert env.rank == 1
    assert env.mul == (QQ.one,)


def test_enveloping_dual_numbers_nilpotency():
    A = dual_numbers(QQ)
    env = enveloping(A)
    assert env.rank == 4
    # (x (x) 1) squared: index of x(x)1 is (1,0) -> 1*2+0 = 2
    xo = [0, 0, 1, 0]
    assert env.multiply(xo, xo) == [0, 0, 0, 0]


def test_enveloping_split_pair_has_four_orthogonal_idempotents():
    # oracle: multiply idempotent pairs by hand, (ei (x) ej)(ek (x) el) =
    # delta_ik delta_jl (ei (x) ej) since opposite multiplication is still the same
    env = enveloping(split_pair(ZZ))
    for a in range(4):
        for b in range(4):
            expected = [0] * 4
            if a == b:
                expected[a] = 1
            ea = [1 if t == a else 0 for t in range(4)]
            eb = [1 if t == b else 0 for t in range(4)]
            assert env.multiply(ea, eb) == expected


def test_enveloping_is_associative_small(corpus):
    for name in ("scalar_q", "dual_f2", "zxz"):
        A = corpus[name]
        env = enveloping(A)
        validate_algebra(env.ring, env.rank, env.basis_names, env.unit, env.mul)


# -- bimodules -------------------------------------------------------------------

def test_regular_bimodule_satisfies_axioms(corpus):
    for A in corpus.values():
        M = regular_bimodule(A)
        validate_bimodule(A, M.rank, M.left, M.right)


def test_bimodule_axiom_violation_reported():
    A = dual_numbers(QQ)
    M = regular_bimodule(A)
    bad_left = (M.left[0], M.left[0])  # x acting as the unit breaks multiplicativity
    with pytest.raises(AlgebraError):
        validate_bimodule(A, 2, bad_left, M.right)


def test_ae_round_trip(corpus):
    for name in ("dual_q", "zxz", "ut2_q"):
        A = corpus[name]
        M = regular_bimodule(A)
        env_mod = ae_from_bimodule(M)
        back = bimodule_from_ae(A, env_mod)
        assert back.left == M.left and back.right == M.right


def test_ae_action_is_associative_on_basis_triples():
    A = dual_numbers(QQ)
    M = regular_bimodule(A)
    env = enveloping(A)
    env_mod = ae_from_bimodule(M)
    for x in range(env.rank):
        for y in range(env.rank):
            prod = env.product_column(x, y)
            lhs = act(env_mod.action, prod)
            rhs = env_mod.action[x] * env_mod.action[y]
            assert lhs == rhs


def test_ae_regular_action_matches_two_sided_multiplication():
    A = dual_numbers(QQ)
    M = regular_bimodule(A)
    env_mod = ae_from_bimodule(M)
    # (a (x) b) . m = a m b on the regular bimodule
    for i in range(2):
        for j in range(2):
            T = env_mod.action[i * 2 + j]
            for w in range(2):
                m = [1 if t == w else 0 for t in range(2)]
                ei = [1 if t == i else 0 for t in range(2)]
                ej = [1 if t == j else 0 for t in range(2)]
                assert T.col_list(w) == A.multiply(A.multiply(ei, m), ej)


def test_ae_right_action_is_a_right_action():
    A = upper_triangular2(QQ)
    M = regular_bimodule(A)
    env = enveloping(A)
    right = ae_right_action(M)
    # m . (u v) = (m . u) . v translates to act(u v) = act(v) act(u) ... as matrices
    for x in range(env.rank):
        for y in range(env.rank):
            prod = env.product_column(x, y)
            acc = Matrix.zeros(QQ, M.rank, M.rank)
            for k, c in enumerate(prod):
                if c != QQ.zero:
                    acc = acc + right[k].scale(c)
            assert acc == right[y] * right[x]


def test_zero_bimodule_round_trip():
    A = dual_numbers(ZZ)
    Z = zero_bimodule(A)
    assert Z.rank == 0
    back = bimodule_from_ae(A, ae_from_bimodule(Z))
    assert back.rank == 0


def test_outer_bimodule_is_valid():
    A = dual_numbers(QQ)
    M = chain_bimodule(A, 1)
    validate_bimodule(A, 8, M.left, M.right)


# -- hom bimodule -----------------------------------------------------------------

def test_hom_bimodule_trivial_case():
    A = base_ring_algebra(QQ)
    N = regular_bimodule(A).left_module()
    H = hom_bimodule(N, N)
    assert H.rank == 1


def test_hom_bimodule_shape_and_axioms():
    A = dual_numbers(QQ)
    N = regular_bimodule(A).left_module()
    H = hom_bimodule(N, N)
    assert H.rank == 4


def test_hom_bimodule_x_action_squares_to_zero():
    # oracle: explicit 4x4 action matrices for A = k[x]/(x^2) on Hom(A, A):
    # left action of x is (L_x (x) I), and L_x^2 = 0 forces the square to vanish
    A = dual_numbers(QQ)
    N = regular_bimodule(A).left_module()
    H = hom_bimodule(N, N)
    x_left = H.left[1]
    assert (x_left * x_left).is_zero
    expected = Matrix.from_rows(
        QQ,
        [[0, 0, 0, 0], [0, 0, 0, 0], [1, 0, 0, 0], [0, 1, 0, 0]],
    )
    assert x_left == expected


def test_hom_center_equals_intertwiners(corpus):
    # every pair of the regular module and, where the basis is unital, the
    # trivial module (e_0 = 1 acts by 1, every other basis vector by 0)
    from hochschild.cohomology import center

    pairs = 0
    for name, A in corpus.items():
        modules = [regular_bimodule(A).left_module()]
        if A.has_unital_basis:
            one, zero = Matrix.identity(A.ring, 1), Matrix.zeros(A.ring, 1, 1)
            modules.append(validate_left_module(A, 1, [one] + [zero] * (A.rank - 1)))
        for N in modules:
            for M in modules:
                # same canonical echelon basis of the same space
                assert center(A, hom_bimodule(N, M)) == intertwiners(N, M), (name, N.rank, M.rank)
                pairs += 1
    assert pairs == 35


def test_left_module_validation():
    A = dual_numbers(QQ)
    validate_left_module(A, 2, [Matrix.identity(QQ, 2), Matrix.zeros(QQ, 2, 2)])
    with pytest.raises(AlgebraError):
        validate_left_module(A, 2, [Matrix.identity(QQ, 2), Matrix.identity(QQ, 2)])


# -- basis canonicalization ---------------------------------------------------------

def test_with_unital_basis_on_matrix_algebra():
    A = matrix_algebra(QQ, 2)
    B, P = with_unital_basis(A)
    assert B.has_unital_basis
    assert B.unit == (QQ.one, QQ.zero, QQ.zero, QQ.zero)
    validate_algebra(B.ring, B.rank, B.basis_names, B.unit, B.mul)


def test_with_unital_basis_over_z_requires_unimodular_coordinate():
    A = split_pair(ZZ)
    B, P = with_unital_basis(A)
    validate_algebra(B.ring, B.rank, B.basis_names, B.unit, B.mul)
    # an algebra whose unit is (2, ...) over Z cannot be canonicalized: build
    # k x k x k and merge basis so that the unit gets coordinate 2: simplest
    # concrete case is Z x Z with doubled basis vector e1' = e1 with weight...
    # direct check: unit coordinates must contain a +-1
    mul = [0] * 8
    mul[(0 * 2 + 0) * 2 + 0] = 1
    mul[(1 * 2 + 1) * 2 + 1] = 1
    twisted = validate_algebra(ZZ, 2, ["a", "b"], [1, 1], mul)
    B2, _ = with_unital_basis(twisted)
    assert B2.has_unital_basis


def test_transport_bimodule_keeps_axioms():
    A = matrix_algebra(QQ, 2)
    M = regular_bimodule(A)
    B, P = with_unital_basis(A)
    M2 = transport_bimodule(M, B, P)
    validate_bimodule(B, M2.rank, M2.left, M2.right)


# -- truncated tensor algebra: the free algebra on m letters cut at length N ---------

def _letters_cut(ring, m, N):
    """k<t0, ..., t(m-1)> modulo every word of length N + 1, as a one-vertex path algebra."""
    loops = [(f"t{q}", 0, 0) for q in range(m)]
    return path_algebra(ring, ["1"], loops, product(range(m), repeat=N + 1))


def test_truncated_tensor_algebra_one_variable():
    T = _letters_cut(QQ, 1, 3)
    poly = truncated_poly(QQ, 4)
    assert T.rank == 4
    assert T.mul == poly.mul  # k[t]/(t^4) on the same basis


def test_truncated_tensor_algebra_two_letters():
    T = _letters_cut(QQ, 2, 2)
    assert T.rank == 7  # 1 + 2 + 4


def test_truncated_tensor_algebra_three_letters_cap_two():
    # oracle: read each basis name as a word; a product is the concatenated
    # word while it has length <= 2, and zero beyond
    T = _letters_cut(ZZ, 3, 2)
    assert T.rank == 13  # 1 + 3 + 9
    assert T.basis_names[:5] == ("1", "t0", "t1", "t2", "t0*t0") and T.basis_names[-1] == "t2*t2"
    assert T.unit == (1,) + (0,) * 12
    words = [() if name == "1" else tuple(name.split("*")) for name in T.basis_names]
    for i, s in enumerate(words):
        for j, t in enumerate(words):
            want = [0] * 13
            if len(s + t) <= 2:
                want[words.index(s + t)] = 1
            assert T.product_column(i, j) == want, (s, t)


def test_path_algebra_refuses_an_infinite_rank():
    with pytest.raises(AlgebraError, match="infinite rank"):
        path_algebra(QQ, ["1"], [("x", 0, 0)], [])  # k[x]
    with pytest.raises(AlgebraError, match="infinite rank"):
        path_algebra(QQ, ["1", "2"], [("a", 0, 1), ("b", 1, 0)], [])  # a 2-cycle
    with pytest.raises(AlgebraError, match="infinite rank"):
        path_algebra(QQ, ["1"], [("x", 0, 0), ("y", 0, 0)], [[0, 0]])  # y^n survives
    # with ab = 0 the 2-cycle leaves e1, a, e2, b, b*a
    A = path_algebra(QQ, ["1", "2"], [("a", 0, 1), ("b", 1, 0)], [[0, 1]])
    assert A.basis_names == ("1", "a", "2", "b", "b*a") and A.unit == (1, 0, 1, 0, 0)


def test_tensor_product_multiplies_factorwise():
    # k[x]/(x^2) (x) k[y]/(y^3) is k[x, y]/(x^2, y^3) on the monomials x^i y^j
    A, B = dual_numbers(ZZ), truncated_poly(ZZ, 3)
    T = tensor_product(A, B)
    assert T.basis_names == ("1(x)1", "1(x)x", "1(x)x^2", "x(x)1", "x(x)x", "x(x)x^2")
    exps = [(i, j) for i in range(2) for j in range(3)]
    for s, (i, j) in enumerate(exps):
        for t, (p, q) in enumerate(exps):
            want = [0] * 6
            if i + p < 2 and j + q < 3:
                want[exps.index((i + p, j + q))] = 1
            assert T.product_column(s, t) == want
    assert T.unit == (1, 0, 0, 0, 0, 0)
    with pytest.raises(AlgebraError):
        tensor_product(A, dual_numbers(QQ))


def test_multiplication_matrix_shape(corpus):
    A = corpus["dual_z"]
    mu = multiplication_matrix(A)
    assert (mu.rows, mu.cols) == (2, 4)
    assert mu.col_list(0 * 2 + 0) == [1, 0]
    assert mu.col_list(1 * 2 + 1) == [0, 0]
