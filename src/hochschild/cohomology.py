"""Hochschild cocomplex and cohomology, with HH^0 and HH^1 read classically; homology.

Cochains of degree n are k-linear maps A^(x)n -> M stored as m x d^n
matrices over the induced tensor basis; the coboundary is

    (b f)(a0,...,an) = a0 f(a1,...,an)
                       + sum_i (-1)^(i+1) f(..., a_i a_(i+1), ...)
                       + (-1)^(n+1) f(a0,...,a(n-1)) an

so that b^0(m)(a) = a m - m a.  The classical readings come off the raw
complex: the center Z_A(M) = ker b^0 is HH^0, the derivations ker b^1
modulo the inner derivations im b^0 give HH^1, and 2-cocycles are exactly
the associativity data of square-zero extensions (HH^2).  The normalized
variant restricts the arguments to non-unit basis classes and drops unit
components of products; its cohomology agrees with the full complex
(checked in the test suite).

The coboundary matrices come from bar.coboundary_matrix, which builds b^n
as the transposed cyclic boundary C_(n+1)(A, M^*) -> C_n(A, M^*) for the
dual bimodule M^* = Hom_k(M, k) (Bimodule._dual, built once per bimodule,
whose own dual is M); bar also owns the letter set and the zero-extension of
normalized cochains.  So HH_n(A, M) is read off the coboundaries of M^*
(Weibel 1994, Thm 3.6.2): one memo table serves both.  The derivations of A
into M factor through the universal derivation d : A -> Omega^1
(derivation_factorization).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

from .algebra import (
    AlgebraError,
    Bimodule,
    FiniteAlgebra,
    LeftModule,
    hom_bimodule,
)
from .bar import coboundary_matrix, cochain_embedding, syzygy, universal_derivation
from .matrix import (
    DEFAULT_GUARD,
    KModuleInvariants,
    Matrix,
    column_span_basis,
    homology,
    homology_invariants,
    kernel_basis,
    rank,
    row_cokernel_invariants,
)


@dataclass(frozen=True)
class Cochain:
    """A k-linear map A^(x)n -> M; columns follow the row-major tensor basis."""

    algebra: FiniteAlgebra
    bimodule: Bimodule
    degree: int
    matrix: Matrix  # rank(M) x d^degree

    def __post_init__(self):
        d = self.algebra.rank
        if (self.matrix.rows, self.matrix.cols) != (self.bimodule.rank, d**self.degree):
            raise AlgebraError("cochain matrix shape does not match its degree")

    def as_vector(self) -> Matrix:
        return self.matrix.reshape(self.matrix.rows * self.matrix.cols, 1)


@dataclass(frozen=True)
class CohomologyReport:
    degree: int
    invariants: KModuleInvariants
    representatives: tuple[Cochain, ...] | None = None


def hh(
    A: FiniteAlgebra,
    M: Bimodule,
    n: int,
    normalized: bool | None = None,
    guard: int | None = DEFAULT_GUARD,
    representatives: bool = True,
) -> CohomologyReport:
    """HH^n(A, M) = ker b^n / im b^(n-1), with b^(-1) = 0.

    By default the normalized complex is used whenever the basis is unital
    (it is dramatically smaller); pass normalized=False to force the raw
    bar cocomplex.  Representative cocycles are emitted in echelon form,
    free generators first, then torsion generators in increasing
    invariant-factor order; normalized representatives are zero-extended to
    the full tensor basis.  With representatives, homology seeds ker b^n with
    the coboundaries; over a field their leads then fix the generators, with
    no quotient step.  Without, no kernel basis is built (homology_invariants).
    """
    if normalized is None:
        normalized = A.has_unital_basis
    bn = coboundary_matrix(A, M, n, normalized, guard)
    B = coboundary_matrix(A, M, n - 1, normalized, guard) if n else Matrix.zeros(A.ring, bn.cols, 0)
    if not representatives:
        return CohomologyReport(n, homology_invariants(bn, B))
    invs, gens = homology(bn, B)
    if gens:
        E = cochain_embedding(A, M.rank, n, normalized)
        gens = [(E * g).reshape(M.rank, A.rank**n) for g in gens]
    return CohomologyReport(n, invs, tuple(Cochain(A, M, n, g) for g in gens))


def cocycle_witness(c: Cochain) -> tuple[int, ...] | None:
    """None for a cocycle, else the first basis tuple (a_0, ..., a_n), row-major, where b^n c is nonzero.

    Row q * d^(n+1) + t of b^n c is coordinate q of (b^n c)(e_t), for the
    row-major index t of the tuple; the raw complex is always used.
    """
    A, n = c.algebra, c.degree
    d = A.rank
    image = coboundary_matrix(A, c.bimodule, n, False, guard=None) * c.as_vector()
    if image.is_zero:
        return None
    t = min(row % d ** (n + 1) for row, _ in image.columns[0])
    return tuple(t // d ** (n - i) % d for i in range(n + 1))


# ---------------------------------------------------------------------------
# degree 0 and 1 read off b^0 and b^1
# ---------------------------------------------------------------------------


def center(A: FiniteAlgebra, M: Bimodule) -> Matrix:
    """Basis of Z_A(M) = {m : a m = m a for all a} = ker b^0 of the raw complex."""
    return kernel_basis(coboundary_matrix(A, M, 0, False, guard=None))


def derivations(A: FiniteAlgebra, M: Bimodule) -> Matrix:
    """Basis of Der_k(A, M) = ker b^1 of the raw complex, as vectorized maps (columns)."""
    return kernel_basis(coboundary_matrix(A, M, 1, False, guard=None))


def inner_derivations(A: FiniteAlgebra, M: Bimodule) -> Matrix:
    """Basis of Inn_k(A, M) = im b^0, the maps a -> a m - m a (over Z: their lattice)."""
    return column_span_basis(coboundary_matrix(A, M, 0, False, guard=None))


def hh1_report(A: FiniteAlgebra, M: Bimodule) -> CohomologyReport:
    """HH^1 = Der/Inn from the raw b^1 and b^0; hh(A, M, 1) defaults to the normalized complex."""
    return hh(A, M, 1, normalized=False, guard=None)


def derivation_factorization(M: Bimodule, D: Matrix) -> Matrix:
    """The bimodule map f : Omega^1 -> M with f(d(a)) = D(a).

    On a kernel element sum a_p (x) b_q the map takes sum a_p . D(b_q), so
    f = [L_0 D | ... | L_(d-1) D] applied to the syzygy basis; both the
    factorization identity and A-bilinearity are verified exactly.
    """
    A = M.algebra
    witness = cocycle_witness(Cochain(A, M, 1, D))  # b^1 D is the Leibniz defect
    if witness is not None:
        raise AlgebraError(f"not a derivation: Leibniz fails at basis pair {witness}")
    om = syzygy(A, 1)
    F = reduce(Matrix.hstack, (L * D for L in M.left)) * om.basis
    dmat = universal_derivation(A)
    if F * dmat != D:
        raise AlgebraError("factorization identity f(d(a)) = D(a) failed")
    for i in range(A.rank):
        if F * om.left[i] != M.left[i] * F or F * om.right[i] != M.right[i] * F:
            raise AlgebraError(f"factorization is not a bimodule map at basis index {i}")
    return F


# ---------------------------------------------------------------------------
# homology
# ---------------------------------------------------------------------------


def hochschild_homology(
    A: FiniteAlgebra, M: Bimodule, n: int, guard: int | None = DEFAULT_GUARD
) -> KModuleInvariants:
    """HH_n(A, M) of the cyclic bar complex M (x) A^(x)* (normalized on a unital basis, as hh).

    b^n(A, M^*) is the transposed boundary C_(n+1) -> C_n of M, so HH_n is
    its cokernel, torsion included, less rank b^(n-1)(A, M^*) free summands.
    Over a field that is cols - rank b^n - rank b^(n-1), on the short columns;
    over Z the rows of b^n give the cokernel, as its long columns fill the
    Hermite form.  The guard sizes b^n, the largest matrix.
    """
    if n < 0:
        raise ValueError("homology degree must be >= 0")
    dual = M._dual
    normalized = A.has_unital_basis
    bn = coboundary_matrix(A, dual, n, normalized, guard)
    below = rank(coboundary_matrix(A, dual, n - 1, normalized, guard)) if n else 0
    if A.ring.kind != "Z":
        return KModuleInvariants(bn.cols - rank(bn) - below)
    coker = row_cokernel_invariants(bn)
    return KModuleInvariants(coker.free_rank - below, coker.torsion)


# ---------------------------------------------------------------------------
# relative Ext
# ---------------------------------------------------------------------------


def _as_left_module(X) -> LeftModule:
    if isinstance(X, LeftModule):
        return X
    if isinstance(X, Bimodule):
        return X.left_module()
    raise AlgebraError("expected a left module or bimodule")


def relative_ext(
    A: FiniteAlgebra,
    M,
    N,
    n: int,
    guard: int | None = DEFAULT_GUARD,
) -> KModuleInvariants:
    """Relative Ext^n of left modules via HH^n(A, Hom_k(M, N))."""
    Ml, Nl = _as_left_module(M), _as_left_module(N)
    H = hom_bimodule(Ml, Nl)
    return hh(A, H, n, guard=guard, representatives=False).invariants
