import random
import time
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from hochschild import elimination
from hochschild.algebra import regular_bimodule
from hochschild.catalog import dual_numbers, truncated_poly, upper_triangular2
from hochschild.cohomology import coboundary_matrix
from hochschild.elimination import _reduce_rows_int, echelon, reduce_pivots, row_sub, smith
from hochschild.matrix import (
    ContainmentError,
    KModuleInvariants,
    Matrix,
    SizeGuardError,
    check_guard,
    cokernel_invariants,
    column_span_basis,
    coords_in_span,
    homology,
    homology_invariants,
    induced_kernel_generators,
    invariants_from_diagonal,
    kernel_basis,
    prune,
    quotient_generators,
    rank,
    smith_normal_form,
    solve,
    subquotient_invariants,
)
from hochschild.rings import GF, QQ, ZZ, RingError
from oracles import unseeded_homology

F2 = GF(2)


def brute_force_integer_kernel(rows, bound=4):
    """Oracle: all integer vectors with small entries killed by the matrix."""
    ncols = len(rows[0])
    sols = []
    def rec(prefix):
        if len(prefix) == ncols:
            if any(prefix) and all(sum(r[j] * prefix[j] for j in range(ncols)) == 0 for r in rows):
                sols.append(tuple(prefix))
            return
        for v in range(-bound, bound + 1):
            rec(prefix + [v])
    rec([])
    return sols


# -- kernels -----------------------------------------------------------------

def test_kernel_of_zero_map_over_q():
    M = Matrix.from_rows(QQ, [[0]])
    K = kernel_basis(M)
    assert (K.rows, K.cols) == (1, 1)
    assert K[0, 0] == 1


def test_kernel_of_1x2_integer_matrix_matches_brute_force():
    # oracle first: smallest nonzero integer solutions of 2a + 4b = 0
    sols = brute_force_integer_kernel([[2, 4]])
    assert (2, -1) in sols and (-2, 1) in sols
    M = Matrix.from_rows(ZZ, [[2, 4]])
    K = kernel_basis(M)
    assert K.cols == 1
    assert (M * K).is_zero
    # the kernel lattice equals span{(2, -1)}: mutual containment
    assert solve(K, Matrix.column(ZZ, [2, -1])) is not None
    a, b = K[0, 0], K[1, 0]
    assert (a, b) in ((2, -1), (-2, 1))


def test_kernel_of_identity_over_f2_is_empty():
    M = Matrix.identity(F2, 3)
    K = kernel_basis(M)
    assert (K.rows, K.cols) == (3, 0)


def test_integer_kernels_are_saturated():
    # the lattice {x : Mx = 0} for M = [[2, 2, 0], [0, 2, 2]] contains (1, -1, 1)
    M = Matrix.from_rows(ZZ, [[2, 2, 0], [0, 2, 2]])
    K = kernel_basis(M)
    assert (M * K).is_zero
    assert solve(K, Matrix.column(ZZ, [1, -1, 1])) is not None


def test_random_kernels_compose_to_zero():
    rng = random.Random(7)
    for ring in (ZZ, QQ, F2, GF(5)):
        for _ in range(8):
            m, n = rng.randint(1, 5), rng.randint(1, 5)
            M = Matrix.from_rows(ring, [[ring.of_int(rng.randint(-3, 3)) for _ in range(n)] for _ in range(m)])
            K = kernel_basis(M)
            assert (M * K).is_zero
            assert rank(K) == K.cols  # columns independent
            assert K.cols == n - rank(M)


def test_kernel_is_deterministic_normal_form():
    M = Matrix.from_rows(QQ, [[1, 2, 3]])
    K1 = kernel_basis(M)
    K2 = kernel_basis(Matrix.from_rows(QQ, [[2, 4, 6]]))
    assert K1 == K2  # echelon normal form only depends on the subspace


# -- Smith normal form ---------------------------------------------------------

def test_snf_hand_reduction_example():
    # oracle by hand: [[2,0],[0,3]] -> add row2 to row1 -> [[2,3],[0,3]]
    # -> col2 -= col1 -> [[2,1],[0,3]] -> pivot 1 -> diag(1, 6)
    M = Matrix.from_rows(ZZ, [[2, 0], [0, 3]])
    U, D, V = smith_normal_form(M)
    assert D.to_rows() == [[1, 0], [0, 6]]
    assert U * M * V == D


def test_snf_zero_and_identity():
    for m, n in ((2, 3), (0, 3), (3, 0), (0, 0)):  # D keeps the shape of an empty input
        Z = Matrix.zeros(ZZ, m, n)
        U, D, V = smith_normal_form(Z)
        assert D == Z and U == Matrix.identity(ZZ, m) and V == Matrix.identity(ZZ, n)
    One = Matrix.from_rows(ZZ, [[1]])
    _, D1, _ = smith_normal_form(One)
    assert D1 == One


def _det(M):
    n = M.rows
    if n == 0:
        return 1
    total = 0
    import itertools
    for perm in itertools.permutations(range(n)):
        sign = 1
        seen = [False] * n
        for i in range(n):
            if seen[i]:
                continue
            j, ln = i, 0
            while not seen[j]:
                seen[j] = True
                j = perm[j]
                ln += 1
            if ln % 2 == 0:
                sign = -sign
        prod = 1
        for i in range(n):
            prod *= M[i, perm[i]]
        total += sign * prod
    return total


def test_snf_transforms_are_unimodular_and_chain_divides():
    rng = random.Random(3)
    for _ in range(10):
        m, n = rng.randint(1, 4), rng.randint(1, 4)
        M = Matrix.from_rows(ZZ, [[rng.randint(-6, 6) for _ in range(n)] for _ in range(m)])
        U, D, V = smith_normal_form(M)
        assert U * M * V == D
        assert abs(_det(U)) == 1 and abs(_det(V)) == 1
        diag = [D[i, i] for i in range(min(m, n))]
        for a, b in zip(diag, diag[1:]):
            assert a >= 0 and (a == 0 and b == 0 or b % max(a, 1) == 0 or a == 0)
        for i in range(D.rows):
            for j in range(D.cols):
                if i != j:
                    assert D[i, j] == 0


# -- subquotients ----------------------------------------------------------------

def test_z_mod_2z_quotient():
    Z = Matrix.identity(ZZ, 1)
    B = Matrix.from_rows(ZZ, [[2]])
    assert subquotient_invariants(Z, B) == KModuleInvariants(0, (2,))


def test_quotient_by_self_is_zero():
    Z = Matrix.from_rows(ZZ, [[2, 1], [0, 3]])
    assert subquotient_invariants(Z, Z).is_zero


def test_field_quotient_is_rank_arithmetic():
    Z = Matrix.identity(QQ, 3)
    B = Matrix.from_cols(QQ, [[1, 1, 0]])
    assert subquotient_invariants(Z, B) == KModuleInvariants(2)


def test_containment_violation_names_column():
    Z = Matrix.from_cols(ZZ, [[2, 0]])
    B = Matrix.from_cols(ZZ, [[2, 0], [0, 1]])
    with pytest.raises(ContainmentError) as exc:
        subquotient_invariants(Z, B)
    assert exc.value.column == 1
    # integral containment matters over Z: (1,0) is in the Q-span but not the lattice
    with pytest.raises(ContainmentError):
        subquotient_invariants(Z, Matrix.from_cols(ZZ, [[1, 0]]))
    # a contained column, then one whose entry the lead 2 does not divide: the second is named
    with pytest.raises(ContainmentError) as exc:
        coords_in_span(Z, Matrix.from_cols(ZZ, [[4, 0], [1, 0]]))
    assert exc.value.column == 1


def test_subquotient_of_zero_ambient():
    Z = Matrix.zeros(ZZ, 2, 0)
    B = Matrix.zeros(ZZ, 2, 0)
    assert subquotient_invariants(Z, B).is_zero


def test_subquotient_against_snf_of_generators():
    # invariants of Z^2 / <(2,0),(0,4)> = Z/2 + Z/4
    Z = Matrix.identity(ZZ, 2)
    B = Matrix.from_cols(ZZ, [[2, 0], [0, 4]])
    assert subquotient_invariants(Z, B) == KModuleInvariants(0, (2, 4))


def test_quotient_generators_orders():
    Z = Matrix.identity(ZZ, 3)
    B = Matrix.from_cols(ZZ, [[2, 0, 0], [0, 6, 0]])
    invs, gens = quotient_generators(Z, B)
    assert invs == KModuleInvariants(1, (2, 6))
    assert len(gens) == 3  # one free generator, two torsion generators


# -- solving ------------------------------------------------------------------------

def test_solve_examples():
    assert solve(Matrix.from_rows(ZZ, [[2]]), Matrix.column(ZZ, [4])).col_list(0) == [2]
    assert solve(Matrix.from_rows(ZZ, [[2]]), Matrix.column(ZZ, [3])) is None
    x = solve(Matrix.from_rows(QQ, [[2]]), Matrix.column(QQ, [3]))
    assert x.col_list(0) == [Fraction(3, 2)]


def test_solve_cross_checked_against_rank_over_q():
    rng = random.Random(11)
    for _ in range(25):
        m, n = rng.randint(1, 4), rng.randint(1, 4)
        M = Matrix.from_rows(QQ, [[rng.randint(-3, 3) for _ in range(n)] for _ in range(m)])
        b = Matrix.column(QQ, [rng.randint(-3, 3) for _ in range(m)])
        x = solve(M, b)
        solvable = rank(M.hstack(b)) == rank(M)
        assert (x is not None) == solvable
        if x is not None:
            assert M * x == b


def test_solve_integral_vs_rational():
    # 2x + 4y = 2 has integer solutions; 2x + 4y = 1 has none even over Q*2
    M = Matrix.from_rows(ZZ, [[2, 4]])
    assert solve(M, Matrix.column(ZZ, [2])) is not None
    assert solve(M, Matrix.column(ZZ, [1])) is None


def test_solve_over_f2():
    M = Matrix.from_rows(F2, [[1, 1], [0, 1]])
    x = solve(M, Matrix.column(F2, [0, 1]))
    assert M * x == Matrix.column(F2, [0, 1])


# -- misc -------------------------------------------------------------------------

def test_cokernel_invariants():
    assert cokernel_invariants(Matrix.from_rows(ZZ, [[2, 0], [0, 3]])) == KModuleInvariants(0, (6,))
    assert cokernel_invariants(Matrix.zeros(ZZ, 2, 0)) == KModuleInvariants(2)
    assert cokernel_invariants(Matrix.from_rows(QQ, [[1, 2], [2, 4]])) == KModuleInvariants(1)


def test_column_span_basis_is_canonical():
    A = Matrix.from_cols(ZZ, [[2, 0], [4, 0]])
    B = Matrix.from_cols(ZZ, [[6, 0], [2, 0]])
    assert column_span_basis(A) == column_span_basis(B)


def test_guard():
    check_guard(100, 100)
    with pytest.raises(SizeGuardError):
        check_guard(2001, 2001)
    check_guard(2001, 2001, guard=None)


def test_ring_mismatch_rejected():
    with pytest.raises(RingError):
        Matrix.identity(ZZ, 2) * Matrix.identity(QQ, 2)


def test_matmul_matches_naive():
    rng = random.Random(5)
    for ring in (ZZ, QQ, GF(7)):
        A = Matrix.from_rows(ring, [[ring.of_int(rng.randint(-4, 4)) for _ in range(3)] for _ in range(2)])
        B = Matrix.from_rows(ring, [[ring.of_int(rng.randint(-4, 4)) for _ in range(4)] for _ in range(3)])
        C = A * B
        for i in range(2):
            for j in range(4):
                s = sum((A[i, k] * B[k, j] for k in range(3)), ring.zero)
                assert C[i, j] == ring.canon(s)


def test_kron_row_major_convention():
    A = Matrix.from_rows(ZZ, [[1, 2]])
    B = Matrix.from_rows(ZZ, [[3], [4]])
    K = A.kron(B)
    assert K.to_rows() == [[3, 6], [4, 8]]


def test_invariants_validation():
    with pytest.raises(ValueError):
        KModuleInvariants(0, (2, 3))  # not a divisibility chain
    with pytest.raises(ValueError):
        KModuleInvariants(0, (1,))
    with pytest.raises(ValueError):
        KModuleInvariants(0, (0, 2))  # a factor 0 is refused before the divisibility check divides by it
    assert str(KModuleInvariants(1, (2,))) == "k^1 + k/2"


# -- properties (hypothesis) ------------------------------------------------------

PROPERTY_RINGS = (ZZ, QQ, F2, GF(5))
PROPS = settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])


def _values(ring):
    if ring.kind == "Q":
        return st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))
    return st.integers(-3, 3).map(ring.of_int)


@st.composite
def matrices(draw, rings=PROPERTY_RINGS, max_dim=5, min_dim=0):
    ring = draw(st.sampled_from(rings))
    m = draw(st.integers(min_dim, max_dim))
    n = draw(st.integers(min_dim, max_dim))
    # mostly zeros, like the complexes the engine builds
    entry = st.one_of(st.just(ring.zero), st.just(ring.zero), _values(ring))
    rows = draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=m, max_size=m))
    return Matrix.from_rows(ring, rows) if m else Matrix.zeros(ring, 0, n)


def _assert_canonical(M):
    """The stored form: increasing rows inside the matrix, nonzero canonical values."""
    assert len(M.columns) == M.cols
    for col in M.columns:
        rows = [i for i, _ in col]
        assert rows == sorted(set(rows)) and all(0 <= i < M.rows for i in rows)
        for _, v in col:
            assert v
            if M.ring.kind == "Q":
                assert type(v) is int or (type(v) is Fraction and v.denominator > 1)
            else:
                assert type(v) is int and (M.ring.kind == "Z" or 0 < v < M.ring.p)
    assert M.nnz == sum(1 for row in M.to_rows() for v in row if v)


@PROPS
@given(matrices())
def test_kernel_is_annihilated_and_saturated(M):
    K = kernel_basis(M)
    _assert_canonical(K)
    assert (K.rows, K.cols) == (M.cols, M.cols - rank(M))
    assert (M * K).is_zero
    if M.ring.kind == "Z":
        # saturated: Z^n / span(K) has no torsion
        assert cokernel_invariants(K).torsion == ()


@PROPS
@given(matrices(rings=(ZZ,), min_dim=0))
def test_smith_form_against_sympy(M):
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import smith_normal_form as sympy_snf

    U, D, V = smith_normal_form(M)
    for T in (U, D, V):
        _assert_canonical(T)
    assert U * M * V == D
    assert abs(sympy.Matrix(U.to_rows()).det()) == 1
    assert abs(sympy.Matrix(V.to_rows()).det()) == 1
    k = min(M.rows, M.cols)
    diag = [D[i, i] for i in range(k)]
    assert D.nnz == sum(1 for d in diag if d)  # diagonal
    for a, b in zip(diag, diag[1:]):
        assert a >= 0 and (b == 0 if a == 0 else b % a == 0)
    oracle = sympy_snf(sympy.Matrix(M.to_rows()), domain=sympy.ZZ)
    assert diag == [abs(int(oracle[i, i])) for i in range(k)]


@st.composite
def torsion_matrices(draw):
    """Integer matrices up to 6x6 whose entries share factors, so that Hermite
    pivots > 1 leave a residue for the Smith form."""
    m, n = draw(st.integers(0, 6)), draw(st.integers(0, 6))
    entry = st.sampled_from([0, 0, 0, 1, -1, 2, -2, 3, -3, 4, -4, 6, -6])
    rows = draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=m, max_size=m))
    return Matrix.from_rows(ZZ, rows) if m else Matrix.zeros(ZZ, 0, n)


@PROPS
@given(torsion_matrices())
def test_cokernel_invariants_match_full_smith_form(M):
    k = min(M.rows, M.cols)
    _, D, _ = smith_normal_form(M)
    expected = invariants_from_diagonal([D[i, i] for i in range(k)], M.rows)
    assert cokernel_invariants(M) == expected
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import smith_normal_form as sympy_snf

    if k:
        oracle = sympy_snf(sympy.Matrix(M.to_rows()), domain=sympy.ZZ)
        assert invariants_from_diagonal([int(oracle[i, i]) for i in range(k)], M.rows) == expected


def _unimodular_pair(rnd, n):
    """A random unimodular integer matrix and its inverse, as dense rows."""
    P = [[int(i == j) for j in range(n)] for i in range(n)]
    Pinv = [row[:] for row in P]
    for _ in range(2 * n if n > 1 else 0):
        i, j = rnd.sample(range(n), 2)
        q = rnd.choice([-2, -1, 1, 2])
        for row in P:  # P <- P (I + q E_ij): column j += q * column i
            row[j] += q * row[i]
        Pinv[i] = [a - q * b for a, b in zip(Pinv[i], Pinv[j])]  # Pinv <- (I - q E_ij) Pinv
    return P, Pinv


def _dense(ring, rows, ncols):
    return Matrix.from_rows(ring, rows) if rows else Matrix.zeros(ring, 0, ncols)


@st.composite
def free_complexes(draw):
    """. --incoming--> R^c --outgoing--> . with a known homology.

    incoming = P [diag(t); 0] Q for a divisibility chain t_1 | ... | t_r and
    outgoing = L S P^-1, where S is e_(r+i) -> e_i for i < s, so it vanishes
    on the first r coordinates.  Returns the pair and the closed form.
    """
    ring = draw(st.sampled_from((ZZ, QQ, F2, GF(3))))
    c = draw(st.integers(0, 6))
    r = draw(st.integers(0, c))
    s = draw(st.integers(0, c - r))
    k, m = r + draw(st.integers(0, 2)), s + draw(st.integers(0, 2))
    ts = []
    for _ in range(r):
        ts.append((ts[-1] if ts else 1) * draw(st.sampled_from((1, 1, 2, 3))))
    rnd = draw(st.randoms(use_true_random=False))
    (P, Pinv), (Q, _), (L, _) = _unimodular_pair(rnd, c), _unimodular_pair(rnd, k), _unimodular_pair(rnd, m)
    D = [[ts[i] if i == j < r else 0 for j in range(k)] for i in range(c)]
    S = [[int(j == r + i < r + s) for j in range(c)] for i in range(m)]
    incoming = _dense(ring, P, c) * _dense(ring, D, k) * _dense(ring, Q, k)
    outgoing = _dense(ring, L, m) * _dense(ring, S, c) * _dense(ring, Pinv, c)
    if ring.kind == "Z":
        expected = KModuleInvariants(c - r - s, tuple(t for t in ts if t > 1))
    else:
        expected = KModuleInvariants(c - s - sum(1 for t in ts if ring.of_int(t)))
    return outgoing, incoming, expected


@PROPS
@given(free_complexes())
def test_homology_invariants_match_the_closed_form_and_the_kernel_route(case):
    outgoing, incoming, expected = case
    assert (outgoing * incoming).is_zero
    assert homology_invariants(outgoing, incoming) == expected
    assert subquotient_invariants(kernel_basis(outgoing), incoming) == expected


@PROPS
@given(free_complexes())
@example((Matrix.zeros(ZZ, 0, 1), Matrix.from_rows(ZZ, [[2]]), KModuleInvariants(0, (2,))))
def test_seeded_homology_matches_the_unseeded_route(case):
    # over Z the torsion factors 2 and 3 give image pivots > 1, which must not seed the kernel
    outgoing, incoming, expected = case
    invs, gens = homology(outgoing, incoming)
    assert invs == expected
    assert (invs, gens) == unseeded_homology(outgoing, incoming)


@PROPS
@given(matrices(), st.data())
def test_solve_round_trips(M, data):
    ring = M.ring
    y = Matrix.column(ring, data.draw(st.lists(_values(ring), min_size=M.cols, max_size=M.cols)))
    b = M * y
    x = solve(M, b)
    assert x is not None and M * x == b
    b2 = Matrix.column(ring, data.draw(st.lists(_values(ring), min_size=M.rows, max_size=M.rows)))
    x2 = solve(M, b2)
    if x2 is not None:
        assert M * x2 == b2
    elif ring.kind != "Z":
        assert rank(M.hstack(b2)) > rank(M)


@PROPS
@given(matrices())
def test_coords_in_span_round_trips(M):
    basis = column_span_basis(M)
    _assert_canonical(basis)
    C = coords_in_span(basis, M)
    _assert_canonical(C)
    assert basis * C == M
    K = kernel_basis(M)
    assert coords_in_span(K, K) == Matrix.identity(M.ring, K.cols)


@PROPS
@given(matrices(), st.data())
def test_one_matrix_one_representation(M, data):
    ring = M.ring
    rows = M.to_rows()
    built = [
        Matrix.from_cols(ring, [M.col_list(j) for j in range(M.cols)], nrows=M.rows),
        Matrix.identity(ring, 1).kron(M),
        M.kron(Matrix.identity(ring, 1)),
        M.transpose().transpose(),
        Matrix.zeros(ring, M.rows, 0).hstack(M).hstack(Matrix.zeros(ring, M.rows, 0)),
        M.reshape(M.rows * M.cols, 1).reshape(M.rows, M.cols),
        M + Matrix.zeros(ring, M.rows, M.cols),
        M - M + M,
        # triplets: every entry, zeros included, split into two summands
        Matrix.from_triplets(
            ring, M.rows, M.cols,
            [t for i, r in enumerate(rows) for j, v in enumerate(r) for t in ((i, j, v + 1), (i, j, -1))],
        ),
    ]
    if M.cols:
        pieces = [M.submatrix_cols([j]) for j in range(M.cols)]
        stacked = pieces[0]
        for p in pieces[1:]:
            stacked = stacked.hstack(p)
        built.append(stacked)
    for B in built:
        _assert_canonical(B)
        assert B == M and hash(B) == hash(M)
    for derived in (M * M.transpose(), M.scale(ring.of_int(2)), -M, M.kron(M), M.vstack(M)):
        _assert_canonical(derived)


@pytest.mark.parametrize("build", [dual_numbers, upper_triangular2])
@pytest.mark.parametrize("ring", [ZZ, QQ, F2])
def test_assembled_coboundary_matches_dense_build(build, ring):
    # b^0(m)(a) = a m - m a: row (q, a), column p holds L_a[q, p] - R_a[q, p]
    A = build(ring)
    Mod = regular_bimodule(A)
    d, m = A.rank, Mod.rank
    dense = [
        [ring.canon(Mod.left[a][q, p] - Mod.right[a][q, p]) for p in range(m)]
        for q in range(m)
        for a in range(d)
    ]
    b0 = coboundary_matrix(A, Mod, 0)
    _assert_canonical(b0)
    assert b0 == Matrix.from_rows(ring, dense)
    assert hash(b0) == hash(Matrix.from_rows(ring, dense))


def test_public_constructor_rejects_non_canonical_columns():
    Matrix(ZZ, 2, 1, [[(0, 3), (1, -1)]])
    for bad in ([[(1, 3), (0, 1)]], [[(0, 0)]], [[(2, 1)]], [[(0, 1), (0, 2)]]):
        with pytest.raises(ValueError):
            Matrix(ZZ, 2, 1, bad)
    with pytest.raises(ValueError):
        Matrix(GF(5), 1, 1, [[(0, 7)]])
    Matrix(QQ, 1, 2, [[(0, 1)], [(0, Fraction(1, 2))]])
    with pytest.raises(ValueError):
        Matrix(QQ, 1, 1, [[(0, Fraction(1))]])  # an integral Q value is an int
    with pytest.raises(AttributeError):
        Matrix.identity(ZZ, 1).rows = 2


def test_getitem_range_checks_rows_and_columns():
    M = Matrix.from_rows(QQ, [[1, 2], [3, 4]])
    assert M[1, 0] == 3 and M[0, 1] == 2
    for i, j in ((0, -1), (0, 2), (-1, 0), (2, 0)):
        with pytest.raises(IndexError):
            M[i, j]


@PROPS
@given(matrices(), st.data())
def test_arithmetic_matches_dense_arithmetic(M, data):
    ring = M.ring
    entry = st.one_of(st.just(ring.zero), _values(ring))
    N = Matrix.from_rows(ring, data.draw(st.lists(
        st.lists(entry, min_size=M.cols, max_size=M.cols), min_size=M.rows, max_size=M.rows)))
    if not M.rows:
        N = Matrix.zeros(ring, 0, M.cols)
    a, b = M.to_rows(), N.to_rows()
    S = M + N
    _assert_canonical(S)
    assert S.to_rows() == [[ring.canon(x + y) for x, y in zip(r, s)] for r, s in zip(a, b)]
    P = M * N.transpose()
    _assert_canonical(P)
    assert P.to_rows() == [[ring.canon(sum((x * y for x, y in zip(r, s)), ring.zero)) for s in b] for r in a]
    # kron, scale, unary minus and cancelling triplets, against dense values reduced here
    c = data.draw(_values(ring))
    shifts = data.draw(st.lists(_values(ring), min_size=M.rows * M.cols, max_size=M.rows * M.cols))
    cells = [(i, j) for i in range(M.rows) for j in range(M.cols)]
    triplets = [t for (i, j), d in zip(cells, shifts) for t in ((i, j, a[i][j] + d), (i, j, -d))]
    value = (lambda x: x % ring.p) if ring.kind == "Fp" else (lambda x: x)
    cases = [
        (M.kron(N), [[a[i][j] * b[k][l] for j in range(M.cols) for l in range(N.cols)]
                     for i in range(M.rows) for k in range(N.rows)]),
        (M.scale(c), [[x * c for x in r] for r in a]),
        (-M, [[-x for x in r] for r in a]),
        (Matrix.from_triplets(ring, M.rows, M.cols, triplets), a),
    ]
    for X, dense in cases:
        _assert_canonical(X)
        assert X.to_rows() == [[value(x) for x in r] for r in dense]


# -- Q values: an int when integral, a Fraction otherwise --------------------------

_QUOTIENTS = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 4))  # 4/2 and 0/3 are integral


@st.composite
def rational_matrices(draw, max_dim=5):
    """Matrices over Q, mostly zero, with non-integral entries."""
    m, n = draw(st.integers(1, max_dim)), draw(st.integers(1, max_dim))
    entry = st.one_of(st.just(0), st.just(0), _QUOTIENTS)
    rows = draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=m, max_size=m))
    rows[draw(st.integers(0, m - 1))][draw(st.integers(0, n - 1))] = draw(
        st.builds(Fraction, st.integers(1, 4).map(lambda k: 2 * k - 1), st.just(2)))  # one half-integer at least
    return Matrix.from_rows(QQ, rows)


def _fractions(M):
    return [[Fraction(v) for v in row] for row in M.to_rows()]


def _reference_rref(vectors, width):
    """The pivot rows of the Fraction reference field core on the given dict vectors."""
    return _oracle_reduce_rows_field([{k: Fraction(v) for k, v in r.items()} for r in vectors if r], width, QQ)


@PROPS
@given(rational_matrices(), rational_matrices(), _QUOTIENTS, st.data())
def test_rational_arithmetic_is_canonical_and_exact(M, N, c, data):
    N = Matrix.from_rows(QQ, [[N[i % N.rows, j % N.cols] for j in range(M.cols)] for i in range(M.rows)])
    a, b = _fractions(M), _fractions(N)
    shifts = data.draw(st.lists(_QUOTIENTS, min_size=M.rows * M.cols, max_size=M.rows * M.cols))
    triplets = [t for (i, j), d in zip(((i, j) for i in range(M.rows) for j in range(M.cols)), shifts)
                for t in ((i, j, a[i][j] + d), (i, j, -d))]
    cases = [
        (M + N, [[x + y for x, y in zip(r, s)] for r, s in zip(a, b)]),
        (M - M, [[0] * M.cols for _ in range(M.rows)]),
        (M * N.transpose(), [[sum(x * y for x, y in zip(r, s)) for s in b] for r in a]),
        (M.kron(N), [[a[i][j] * b[k][l] for j in range(M.cols) for l in range(N.cols)]
                     for i in range(M.rows) for k in range(N.rows)]),
        (M.scale(c), [[x * c for x in r] for r in a]),
        (Matrix.from_triplets(QQ, M.rows, M.cols, triplets), a),
    ]
    for X, dense in cases:
        _assert_canonical(X)
        assert _fractions(X) == dense
    assert M.scale(Fraction(2)) == M.scale(2) and hash(M.scale(Fraction(2))) == hash(M.scale(2))


@PROPS
@given(rational_matrices(), st.data())
def test_rational_elimination_matches_the_fraction_reference(M, data):
    m, n = M.rows, M.cols
    basis = column_span_basis(M)
    # pivot for pivot: basis column k is the k-th RREF row of the columns of M
    assert [dict(col) for col in basis.columns] == [r for _, r in _reference_rref([dict(c) for c in M.columns], m)]
    rows = [{**{i: Fraction(v) for i, v in col}, m + j: Fraction(1)} for j, col in enumerate(M.columns)]
    _oracle_reduce_rows_field(rows, m, QQ)  # leaves the rows whose leading part died: the kernel combinations
    kernel = [{k - m: v for k, v in r.items()} for r in rows]
    K = kernel_basis(M)
    assert [dict(col) for col in K.columns] == [r for _, r in _reference_rref(kernel, n)]
    C = coords_in_span(basis, M)
    # the basis is in RREF, so a column's coordinates are its entries at the pivot rows
    assert C.to_rows() == [M.to_rows()[col[0][0]] for col in basis.columns]
    y = Matrix.column(QQ, data.draw(st.lists(_QUOTIENTS, min_size=n, max_size=n)))
    b_any = Matrix.column(QQ, data.draw(st.lists(_QUOTIENTS, min_size=m, max_size=m)))
    solutions = [solve(M, M * y), solve(M, b_any)]
    assert solutions == [_oracle_solve_field(M, M * y), _oracle_solve_field(M, b_any)]
    for X in [basis, K, C] + [x for x in solutions if x is not None]:
        _assert_canonical(X)


# -- elimination cores against the unbucketed reference ---------------------------


def _oracle_reduce_rows_int(rows: list[dict], pivot_width: int, sparsest: bool = True) -> list[tuple[int, dict]]:
    """Reference: the integer core that rescans every live row at every column
    and Hermite-reduces all earlier pivot rows at every new pivot.

    The pivot is the holder of smallest magnitude, then (if sparsest) of
    fewest entries, then first in input order; without sparsest, ties after
    the first round keep the previous round's order (the first-row rule)."""
    position = {id(r): k for k, r in enumerate(rows)}
    pivots: list[tuple[int, dict]] = []
    live = rows
    for c in range(pivot_width):
        holders = [r for r in live if c in r]
        if not holders:
            continue
        # repeatedly reduce by the entry of smallest magnitude until one remains
        while len(holders) > 1:
            if sparsest:
                holders.sort(key=lambda r: (abs(r[c]), len(r), position[id(r)]))
            else:
                holders.sort(key=lambda r: abs(r[c]))
            piv = holders[0]
            pv = piv[c]
            rest = []
            for r in holders[1:]:
                q = r[c] // pv
                if q:
                    row_sub(r, piv, q, 0)
                if c in r:
                    rest.append(r)
            holders = [piv] + rest
        piv = holders[0]
        if piv[c] < 0:
            for k in list(piv):
                piv[k] = -piv[k]
        live = [r for r in live if r is not piv and r]
        # Hermite reduction of earlier pivot rows against the new pivot
        pv = piv[c]
        for _, pr in pivots:
            if c in pr:
                q = pr[c] // pv
                if q:
                    row_sub(pr, piv, q, 0)
        pivots.append((c, piv))
    rows[:] = live
    return pivots


def _oracle_reduce_rows_field(rows: list[dict], pivot_width: int, ring, sparsest: bool = True) -> list[tuple[int, dict]]:
    """Reference: the field core (RREF) with full rescans, as above.  The pivot
    is the holder with the fewest entries (if sparsest), first in input order."""
    modp = ring.p if ring.kind == "Fp" else 0
    pivots: list[tuple[int, dict]] = []
    live = rows
    for c in range(pivot_width):
        piv = min((r for r in live if c in r), key=len if sparsest else (lambda r: 0), default=None)
        if piv is None:
            continue
        inv = ring.invert(piv[c])
        if inv != ring.one:
            if modp:
                for k in list(piv):
                    piv[k] = piv[k] * inv % modp
            else:
                for k in list(piv):
                    piv[k] = piv[k] * inv
        live = [r for r in live if r is not piv]
        for r in live:
            if c in r:
                row_sub(r, piv, r[c], modp)
        live = [r for r in live if r]
        for _, pr in pivots:
            if c in pr:
                row_sub(pr, piv, pr[c], modp)
        pivots.append((c, piv))
    rows[:] = live
    return pivots


def _oracle_solve_z(M, b):
    """Reference: solve over Z built on the reference integer core, x then reduced
    modulo the kernel lattice so that 0 <= x[c] < p at each Hermite pivot p of
    ker M.  The first reduction takes the first-row tie rule, so x agrees with
    solve only through that last step."""
    rows = []
    for j, col in enumerate(M.columns):
        row = dict(col)
        row[M.rows + j] = 1
        rows.append(row)
    pivots = _oracle_reduce_rows_int(rows, M.rows, sparsest=False)
    residual = b.col_list(0)
    x = [0] * M.cols
    for c, r in pivots:
        val = residual[c]
        if val == 0:
            continue
        if val % r[c] != 0:
            return None
        q = val // r[c]
        for k, v in r.items():
            if k < M.rows:
                residual[k] -= q * v
            else:
                x[k - M.rows] += q * v
    if any(v != 0 for v in residual):
        return None
    kernel = [{k - M.rows: v for k, v in r.items()} for r in rows]  # leading parts died
    for c, r in _oracle_reduce_rows_int(kernel, M.cols):
        q = x[c] // r[c]
        for k, v in r.items():
            x[k] -= q * v
    return Matrix.column(ZZ, x)


def _oracle_solve_field(M, b):
    """Reference: x off the RREF of [M | b] from the reference field core (on
    Fraction rows over Q), every free variable 0."""
    n = M.cols
    rows = [dict(c) for c in M.transpose().columns]
    for i, v in b.columns[0]:
        rows[i][n] = v
    pivots = _oracle_reduce_rows_field(rows, n, M.ring)
    if any(rows):
        return None
    x = [M.ring.zero] * n
    for c, r in pivots:
        x[c] = r.get(n, M.ring.zero)
    return Matrix.column(M.ring, x)


def _reduce_both(ring, rows, width):
    """(reference pivots, reference leftovers, new pivots, new leftovers) on copies of rows.

    The new side is the production route to the Hermite form or the RREF:
    the core echelon picks for the ring (over Q the integer core on rows
    cleared of denominators), then back-substitution.
    """
    old_rows, new_rows = [dict(r) for r in rows], [dict(r) for r in rows]
    if ring.kind == "Z":
        old = _oracle_reduce_rows_int(old_rows, width)
    else:
        old = _oracle_reduce_rows_field(old_rows, width, ring)
    return old, old_rows, reduce_pivots(ring, echelon(ring, new_rows, width)), new_rows


def _full_rref(pivots, leftovers, ncols):
    """The RREF over all ncols columns of the pivot rows and the leftover rows (Q)."""
    rows = [{c: Fraction(v) for c, v in r.items()} for r in [r for _, r in pivots] + leftovers]
    return _oracle_reduce_rows_field(rows, ncols, QQ)


@st.composite
def elimination_inputs(draw):
    """Dict rows with columns past the pivot width, empty rows and repeated rows."""
    ring = draw(st.sampled_from(PROPERTY_RINGS))
    width = draw(st.integers(0, 5))
    ncols = width + draw(st.integers(0, 3))  # the columns past width ride along, like a transform
    values = st.integers(-6, 6) if ring.kind == "Z" else _values(ring)
    entry = st.one_of(st.none(), st.none(), values)
    base = draw(st.lists(st.lists(entry, min_size=ncols, max_size=ncols), max_size=6))
    rows = [{c: v for c, v in enumerate(r) if v} for r in base]
    if rows:
        rows += [dict(rows[k]) for k in draw(st.lists(st.integers(0, len(rows) - 1), max_size=3))]
    rows.append({})
    return ring, draw(st.permutations(rows)), width


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(elimination_inputs())
def test_cores_match_the_unbucketed_reference(case):
    ring, rows, width = case
    old, old_left, new, new_left = _reduce_both(ring, rows, width)
    if ring.kind == "Q" and any(old_left):
        # The integer core picks the pivot of smallest magnitude, the reference
        # the sparsest row, so the rows left over differ, and with them the
        # augmented columns (past width) of the pivot rows, which are unique
        # only up to the span of the leftovers.  Adding the leftovers to the
        # reduction makes the form unique again: it must agree pivot for
        # pivot, augmented columns included.
        ncols = 1 + max((c for r in rows for c in r), default=-1)
        assert _full_rref(new, new_left, ncols) == _full_rref(old, old_left, ncols)
        assert [(c, {k: v for k, v in r.items() if k < width}) for c, r in new] == [
            (c, {k: v for k, v in r.items() if k < width}) for c, r in old
        ]
        return
    assert new == old  # same pivot columns, equal rows, augmented columns included
    # the reference keeps empty input rows when no column has a pivot; no caller reads them
    assert new_left == [r for r in old_left if r]


@st.composite
def wide_integer_matrices(draw):
    """Z matrices with more columns than rows: ker M is nonzero, so the x of solve
    is unique only modulo it."""
    m = draw(st.integers(1, 4))
    n = draw(st.integers(m + 1, 7))
    entry = st.one_of(st.just(0), st.integers(-3, 3))
    return Matrix.from_rows(ZZ, draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=m, max_size=m)))


@PROPS
@given(st.one_of(matrices(), wide_integer_matrices()), st.data())
def test_integer_solve_matches_the_reference(M, data):
    # x itself must agree, not merely solve: the golden reports freeze it
    ring = M.ring
    oracle = _oracle_solve_z if ring.kind == "Z" else _oracle_solve_field
    y = Matrix.column(ring, data.draw(st.lists(_values(ring), min_size=M.cols, max_size=M.cols)))
    b_any = Matrix.column(ring, data.draw(st.lists(_values(ring), min_size=M.rows, max_size=M.rows)))
    for b in (M * y, b_any):
        assert solve(M, b) == oracle(M, b)


def test_integer_solve_returns_the_canonical_solution():
    # ker M is spanned by (1, -1, -1), pivot 1 at column 0, so x[0] must be 0;
    # the first-row rule alone would return (2, -2, 0)
    M = Matrix.from_rows(ZZ, [[1, 0, 1], [1, 1, 0]])
    assert solve(M, Matrix.column(ZZ, [2, 0])) == Matrix.column(ZZ, [0, 0, 2])


def _install_first_row_cores(mp) -> list:
    """Swap both production cores for the unbucketed references under the
    first-row tie rule: the first holder over F_p, the first of smallest
    magnitude over Z and Q.  Returns a list that gains an entry at every call."""
    calls = []

    def int_core(rows, width):
        calls.append(width)
        pivots = _oracle_reduce_rows_int(rows, width, sparsest=False)
        rows[:] = [r for r in rows if r]
        return pivots

    def field_core(rows, width, p):
        calls.append(width)
        pivots = _oracle_reduce_rows_field(rows, width, GF(p), sparsest=False)
        rows[:] = [r for r in rows if r]
        return pivots

    mp.setattr(elimination, "_reduce_rows_int", int_core)
    mp.setattr(elimination, "_reduce_rows_field", field_core)
    return calls


def _assert_tie_rule_free(M, y, b_any):
    def results():
        return [kernel_basis(M), column_span_basis(M), rank(M), cokernel_invariants(M),
                solve(M, M * y), solve(M, b_any)]

    new = results()
    with pytest.MonkeyPatch.context() as mp:
        calls = _install_first_row_cores(mp)
        assert results() == new
    assert calls


@PROPS
@given(matrices(max_dim=7), st.data())
def test_results_do_not_depend_on_the_tie_rule(M, data):
    ring = M.ring
    y = Matrix.column(ring, data.draw(st.lists(_values(ring), min_size=M.cols, max_size=M.cols)))
    b_any = Matrix.column(ring, data.draw(st.lists(_values(ring), min_size=M.rows, max_size=M.rows)))
    _assert_tie_rule_free(M, y, b_any)


@pytest.mark.parametrize("rows, y", [
    # at column 0 the sparsest rule takes the column (1, 0), the first-row rule (-1, 1)
    ([[-1, 1, 0], [1, 0, 1]], [3, 3, 1]),
    ([[1, 1, 0, 1], [0, -2, 2, -2]], [2, 0, -2, 1]),
    ([[0, -2, 3, 0, 0], [-2, 0, -1, 0, -2], [-2, 1, 0, 1, 0]], [3, 1, -2, -1, -1]),
])
def test_results_do_not_depend_on_the_tie_rule_on_fixed_z_systems(rows, y):
    # ker M != 0 and the two rules reach different x before the canonical pass
    M = Matrix.from_rows(ZZ, rows)
    assert kernel_basis(M).cols
    _assert_tie_rule_free(M, Matrix.column(ZZ, y), Matrix.column(ZZ, [1] * M.rows))


@pytest.mark.parametrize("ring", [GF(3), ZZ])
def test_sparsest_pivot_keeps_the_fill_down(ring, monkeypatch):
    # 3750x750; the first-holder rule passes about 157,000 entries through row_sub
    A = truncated_poly(ring, 6)
    b3 = coboundary_matrix(A, regular_bimodule(A), 3, normalized=True)
    touched = []

    def counting_row_sub(r, s, q, modp):
        touched.append(len(s))
        row_sub(r, s, q, modp)

    monkeypatch.setattr(elimination, "row_sub", counting_row_sub)
    kernel_basis(b3)
    assert 0 < sum(touched) <= 40_000


def test_integer_back_substitution_follows_later_pivot_columns():
    # pivots 1, 2, 2: clearing row 0 at column 1 subtracts row 1, which puts a
    # -1 at column 2 of row 0; only then can column 2 be cleared.  Columns 3-5
    # carry the transform.
    rows = [{0: 1, 1: 3, 3: 1}, {1: 2, 2: 1, 4: 1}, {2: 2, 5: 1}]
    old, _, new, _ = _reduce_both(ZZ, rows, 3)
    assert new == old == [
        (0, {0: 1, 1: 1, 2: 1, 3: 1, 4: -1, 5: 1}),
        (1, {1: 2, 2: 1, 4: 1}),
        (2, {2: 2, 5: 1}),
    ]


@pytest.mark.parametrize("ring", [F2, ZZ, QQ])
def test_elimination_is_not_quadratic_in_the_pivot_width(ring):
    # column j holds rows n-1-j and n-2-j: every row of the reduction is led
    # by one column, and each pivot step touches two or three entries
    n = 4000
    M = Matrix.from_triplets(ring, n, n, [(i, j, 1) for j in range(n) for i in (n - 1 - j, n - 2 - j) if i >= 0])
    ones = Matrix.column(ring, [1] * n)
    start = time.perf_counter()
    assert kernel_basis(M).cols == 0
    assert rank(M) == n
    assert solve(M, M * ones) == ones
    assert time.perf_counter() - start < 5.0


# -- the sparse Smith replay against the dense reference ------------------------------


def _oracle_smith_normal_form(M: Matrix) -> tuple[Matrix, Matrix, Matrix]:
    """Reference: the dense Smith form the sparse replay must reproduce move for move.

    Smith normal form over Z: returns (U, D, V) with U*M*V = D.

    U and V are unimodular; D is diagonal with d1 | d2 | ... >= 0.  Pivoting
    always selects the entry of smallest absolute value, the usual heuristic
    against coefficient swell; correctness does not depend on the choice.
    """
    if M.ring.kind != "Z":
        raise RingError("Smith normal form requires the ring Z")
    m, n = M.rows, M.cols
    A = M.to_rows()
    U = [[1 if i == j else 0 for j in range(m)] for i in range(m)]
    V = [[1 if i == j else 0 for j in range(n)] for i in range(n)]

    def row_op(i, j, q):  # row_i -= q * row_j
        Ai, Aj = A[i], A[j]
        for k in range(n):
            Ai[k] -= q * Aj[k]
        Ui, Uj = U[i], U[j]
        for k in range(m):
            Ui[k] -= q * Uj[k]

    def col_op(i, j, q):  # col_i -= q * col_j
        for r in range(m):
            A[r][i] -= q * A[r][j]
        for r in range(n):
            V[r][i] -= q * V[r][j]

    t = 0
    while True:
        best = None
        for i in range(t, m):
            Ai = A[i]
            for j in range(t, n):
                v = Ai[j]
                if v and (best is None or abs(v) < best[0]):
                    best = (abs(v), i, j)
        if best is None:
            break
        _, bi, bj = best
        if bi != t:
            A[t], A[bi] = A[bi], A[t]
            U[t], U[bi] = U[bi], U[t]
        if bj != t:
            for r in range(m):
                A[r][t], A[r][bj] = A[r][bj], A[r][t]
            for r in range(n):
                V[r][t], V[r][bj] = V[r][bj], V[r][t]
        while True:
            # clear column t
            dirty = False
            for i in range(t + 1, m):
                if A[i][t]:
                    q = A[i][t] // A[t][t]
                    row_op(i, t, q)
                    if A[i][t]:  # remainder smaller than pivot: swap up
                        A[t], A[i] = A[i], A[t]
                        U[t], U[i] = U[i], U[t]
                        dirty = True
            if dirty:
                continue
            for j in range(t + 1, n):
                if A[t][j]:
                    q = A[t][j] // A[t][t]
                    col_op(j, t, q)
                    if A[t][j]:
                        for r in range(m):
                            A[r][t], A[r][j] = A[r][j], A[r][t]
                        for r in range(n):
                            V[r][t], V[r][j] = V[r][j], V[r][t]
                        dirty = True
            if dirty:
                continue
            # divisibility fix-up: pivot must divide every remaining entry
            offender = None
            piv = A[t][t]
            for i in range(t + 1, m):
                Ai = A[i]
                for j in range(t + 1, n):
                    if Ai[j] % piv != 0:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            row_op(t, offender, -1)  # row_t += row_offender
        if A[t][t] < 0:
            for k in range(n):
                A[t][k] = -A[t][k]
            for k in range(m):
                U[t][k] = -U[t][k]
        t += 1
        if t == m or t == n:
            break
    Um = Matrix.from_rows(ZZ, U)
    Dm = Matrix.from_rows(ZZ, A)
    Vm = Matrix.from_rows(ZZ, V)
    return Um, Dm, Vm


def _assert_smith_matches_the_reference(M):
    U, D, V = smith_normal_form(M)
    assert (U.rows, U.cols, D.rows, D.cols, V.rows, V.cols) == (M.rows, M.rows, M.rows, M.cols, M.cols, M.cols)
    assert U * M * V == D
    if M.rows:  # the reference loses the column count of a 0 x n input
        assert (U, D, V) == _oracle_smith_normal_form(M)


@PROPS
@given(st.one_of(torsion_matrices(), matrices(rings=(ZZ,))))
def test_smith_replays_the_dense_reference(M):
    _assert_smith_matches_the_reference(M)


def test_smith_column_ops_reach_rows_below_the_pivot():
    # pivot 2 at (0, 0); clearing row 0 turns the 3 into a remainder 1, which
    # swaps its column (holding the 4 of row 1) into the pivot place; clearing
    # the 5 then subtracts 5 times that column, which must reach row 1 too
    M = Matrix.from_rows(ZZ, [[2, 3, 5], [0, 4, 0]])
    _assert_smith_matches_the_reference(M)
    # d1 = gcd of the entries, d1*d2 = gcd of the 2x2 minors 8, 0, -20
    assert [smith_normal_form(M)[1][i, i] for i in range(2)] == [1, 4]


@PROPS
@given(st.one_of(torsion_matrices(), matrices(rings=(ZZ,))))
def test_smith_tracks_the_inverse_of_u(M):
    _, U, Uinv, _ = smith([dict(r) for r in M.transpose().columns], M.cols)
    m = M.rows
    assert Matrix(ZZ, m, m, U).transpose() * Matrix(ZZ, m, m, Uinv) == Matrix.identity(ZZ, m)


@PROPS
@given(torsion_matrices(), st.data())
def test_quotient_generators_are_the_columns_of_u_inverse(Z, data):
    # B = Z*C lies in the span of Z; generator i is basis * (U^-1 e_i), the
    # one solution of U x = e_i for the reference U
    C = Matrix.from_rows(ZZ, data.draw(st.lists(
        st.lists(st.integers(-3, 3), min_size=3, max_size=3), min_size=Z.cols, max_size=Z.cols,
    ))) if Z.cols else Matrix.zeros(ZZ, 0, 3)
    B = Z * C
    basis = column_span_basis(Z)
    r = basis.cols
    U, D, _ = _oracle_smith_normal_form(coords_in_span(basis, B))
    diag = [D[i, i] for i in range(min(D.rows, D.cols))]
    idx = [i for i in range(r) if i >= len(diag) or diag[i] == 0] + [i for i in range(len(diag)) if diag[i] > 1]
    expected = [basis * solve(U, Matrix.column(ZZ, [int(k == i) for k in range(r)])) for i in idx]
    invs, gens = quotient_generators(Z, B)
    assert invs == invariants_from_diagonal(diag, r)
    assert gens == expected


def _scattered_permutation(n):
    # 2 times a shuffled permutation matrix, plus a 3 in every seventh row
    perm = list(range(n))
    random.Random(5).shuffle(perm)
    triplets = [(i, perm[i], 2) for i in range(n)] + [(i, perm[(i + 1) % n], 3) for i in range(0, n, 7)]
    return Matrix.from_triplets(ZZ, n, n, triplets)


def test_smith_is_not_cubic():
    _assert_smith_matches_the_reference(_scattered_permutation(300))
    M = _scattered_permutation(1000)
    start = time.perf_counter()
    U, D, V = smith_normal_form(M)
    assert time.perf_counter() - start < 5.0
    assert U * M * V == D


# -- presented homology: one tagged elimination, invariants off echelon rows ------------

TAG_RINGS = (ZZ, QQ, F2, GF(3))


@st.composite
def induced_kernel_cases(draw):
    """(X, R) with zero and repeated columns; R is often 2I, a lattice that is not saturated."""
    ring = draw(st.sampled_from(TAG_RINGS))
    m = draw(st.integers(1, 4))
    entry = st.one_of(st.just(ring.zero), _values(ring))

    def block(n):
        A = Matrix.from_cols(ring, draw(st.lists(st.lists(entry, min_size=m, max_size=m), min_size=n, max_size=n)), m)
        repeats = draw(st.lists(st.integers(0, n - 1), max_size=2)) if n else []
        return A.hstack(A.submatrix_cols(repeats)).hstack(Matrix.zeros(ring, m, draw(st.integers(0, 1))))

    X = block(draw(st.integers(0, 4)))
    R = draw(st.sampled_from([Matrix.identity(ring, m).scale(2), None]))
    return X, block(draw(st.integers(0, 3))) if R is None else R


@PROPS
@given(induced_kernel_cases())
@example((Matrix.from_rows(ZZ, [[1]]), Matrix.from_rows(ZZ, [[2]])))  # 2Z, not its saturation Z
def test_induced_kernel_generators_span_the_projected_kernel(case):
    # oracle: the full kernel of [X | R] cut down to its first X.cols coordinates
    X, R = case
    K = kernel_basis(X.hstack(R))
    top = ((i, j, v) for j, col in enumerate(K.columns) for i, v in col if i < X.cols)
    expected = column_span_basis(Matrix.from_triplets(X.ring, X.cols, K.cols, top))
    gens = induced_kernel_generators(X, R)
    _assert_canonical(gens)
    assert column_span_basis(gens) == expected


@st.composite
def redundant_subquotients(draw):
    """Z a redundant generating set in no echelon order, B = Z*C with C of mostly even entries."""
    ring = draw(st.sampled_from(TAG_RINGS))
    m, k, t, n = (draw(st.integers(lo, 4)) for lo in (1, 0, 0, 0))
    small = st.sampled_from([0, 0, 1, -1, 2]).map(ring.of_int)
    even = st.sampled_from([0, 0, 2, -2, 4, 6, 3]).map(ring.of_int)

    def block(rows, cols, values):
        if not rows:
            return Matrix.zeros(ring, 0, cols)
        return Matrix.from_rows(ring, draw(st.lists(st.lists(values, min_size=cols, max_size=cols), min_size=rows, max_size=rows)))

    base = block(m, k, st.one_of(st.just(ring.zero), _values(ring)))
    Z = base.hstack(base * block(k, t, small))
    Z = Z.submatrix_cols(draw(st.permutations(range(Z.cols))))
    return Z, Z * block(Z.cols, n, even)


@PROPS
@given(redundant_subquotients())
def test_subquotient_invariants_match_the_canonical_route(case):
    Z, B = case
    assert subquotient_invariants(Z, B) == cokernel_invariants(coords_in_span(column_span_basis(Z), B))


@PROPS
@given(st.one_of(torsion_matrices(), rational_matrices(), matrices(rings=(F2, GF(5)))))
@example(Matrix.from_rows(ZZ, [[1], [1]]))  # e_0 + e_1: e_0 is -e_1 modulo R, not 0
def test_prune_presents_the_same_module(R):
    pi, sigma, Rp = prune(R)
    for X in (pi, sigma, Rp):
        _assert_canonical(X)
    g, kept = R.rows, pi.rows
    assert (pi.cols, sigma.rows, sigma.cols, Rp.rows) == (g, g, kept, kept)
    assert cokernel_invariants(R) == cokernel_invariants(Rp)
    assert pi * sigma == Matrix.identity(R.ring, kept)
    coords_in_span(column_span_basis(Rp), pi * R)  # pi maps relations to relations
    coords_in_span(column_span_basis(R), Matrix.identity(R.ring, g) - sigma * pi)  # sigma * pi is 1 modulo R
    if R.ring.kind != "Z":
        assert Rp.cols == 0  # every pivot of a field is a unit
