"""Hochschild groups checked against closed forms, not against our elimination.

* k[x]/(x^n): the 2-periodic resolution gives HH^0 = A, HH^(2i) = A/(f') and
  HH^(2i-1) = Ann(f') with f' = n x^(n-1); homology swaps the two.
* Morita invariance: HH^*(M_m(A)) = HH^*(A), over Z too (Loday, Cyclic
  Homology, 1992).
* Kuenneth over a field: dim HH^n(A (x) B) = sum_(i+j=n) dim HH^i(A) dim HH^j(B)
  (Cartan-Eilenberg 1956, ch. XI).
* The path algebra of a tree is hereditary: HCdim 1, HH^0 = k and HH^(>=1) = 0
  (Happel 1989; Cuntz-Quillen 1995).  Separable algebras have HCdim 0.
"""

import pytest

from hochschild.algebra import regular_bimodule, tensor_product
from hochschild.catalog import dual_numbers, matrix_algebra, path_algebra, split_product, truncated_poly
from hochschild.cohomology import hh, hochschild_homology
from hochschild.matrix import DEFAULT_GUARD, KModuleInvariants
from hochschild.projectivity import hcdim_scan, is_quasi_free, separability_idempotent
from hochschild.rings import GF, QQ, ZZ


def _hh(A, n, guard=DEFAULT_GUARD):
    return hh(A, regular_bimodule(A), n, guard=guard, representatives=False).invariants


def _closed_form(ring, n, degree, homology=False):
    """HH^degree of A = k[x]/(x^n), or HH_degree with homology=True.

    Multiplication by f' = n x^(n-1) sends 1 to n x^(n-1) and every x^i with
    i >= 1 to 0.  If n = 0 in k, then f' = 0, and A/(f') and Ann(f') are both
    A.  Otherwise the image is the line through n x^(n-1), so Ann(f') has rank
    n - 1 and A/(f') is k^(n-1) plus k/n (that summand is 0 over a field and
    for n = 1).
    """
    if degree == 0 or (ring.kind == "Fp" and n % ring.p == 0):
        return KModuleInvariants(n)
    if (degree % 2 == 0) != homology:
        return KModuleInvariants(n - 1, (n,) if ring.kind == "Z" and n > 1 else ())
    return KModuleInvariants(n - 1)


def test_truncated_poly_matches_the_periodic_resolution():
    cases = [
        (ring, n, degree)
        for ring in (ZZ, GF(2), GF(3))
        for n in range(1, 9)
        for degree in range(4 if n <= 6 else 3)
    ]
    for ring, n, degree in cases:
        A = truncated_poly(ring, n)
        assert _hh(A, degree) == _closed_form(ring, n, degree), (str(ring), n, degree)
        got = hochschild_homology(A, regular_bimodule(A), degree)
        assert got == _closed_form(ring, n, degree, homology=True), (str(ring), n, degree)
    assert sum(1 for ring, n, _ in cases if ring.kind == "Fp" and n % ring.p == 0) >= 10  # p | n


def test_every_group_of_f2_x4_is_the_algebra():
    A = truncated_poly(GF(2), 4)
    for degree in range(4):
        assert _hh(A, degree) == KModuleInvariants(4)
        assert hochschild_homology(A, regular_bimodule(A), degree) == KModuleInvariants(4)


def test_morita_matrices_over_dual_numbers_over_z():
    A = dual_numbers(ZZ)
    B = tensor_product(matrix_algebra(ZZ, 2), A)  # M_2(Z[x]/(x^2))
    assert B.rank == 8 and not B.has_unital_basis
    for degree in range(3):
        assert _hh(B, degree) == _hh(A, degree) == _closed_form(ZZ, 2, degree), degree
    assert str(_hh(B, 2)) == "k^1 + k/2"


@pytest.mark.parametrize("ring", [QQ, GF(3)], ids=str)
def test_kuenneth_on_truncated_polynomials(ring):
    for a, b in ((2, 2), (2, 3), (3, 3)):
        T = tensor_product(truncated_poly(ring, a), truncated_poly(ring, b))
        for n in range(3):
            want = sum(_closed_form(ring, a, i).free_rank * _closed_form(ring, b, n - i).free_rank for i in range(n + 1))
            assert _hh(T, n) == KModuleInvariants(want), (a, b, n)
    if ring is QQ:
        T = tensor_product(truncated_poly(QQ, 2), truncated_poly(QQ, 3))
        assert [_hh(T, n).free_rank for n in range(3)] == [6, 7, 9]


def _linear_quiver(ring, n):
    """The path algebra of A_n: vertices 1..n and one arrow i -> i+1 each."""
    return path_algebra(ring, [f"e{i + 1}" for i in range(n)], [(f"a{i + 1}", i, i + 1) for i in range(n - 1)], [])


@pytest.mark.parametrize("n", [2, 3, 4])
def test_linear_quiver_is_hereditary(n):
    # the default guard refuses the level-1 class solve from n = 3 on
    A = _linear_quiver(QQ, n)
    assert A.rank == n * (n + 1) // 2
    assert [_hh(A, degree, guard=None) for degree in range(3)] == [KModuleInvariants(1), KModuleInvariants(0), KModuleInvariants(0)]
    assert is_quasi_free(A, guard=None).quasi_free
    assert separability_idempotent(A) is None
    assert hcdim_scan(A, cap=2, guard=None).proved_upper == 1


def test_separable_algebras_have_hcdim_zero():
    for A in (matrix_algebra(QQ, 3), split_product(QQ, 4)):
        assert hcdim_scan(A, cap=2).proved_upper == 0
