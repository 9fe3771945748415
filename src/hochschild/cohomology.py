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

Homology uses the cyclic bar complex C_k(A, M) = M (x) A^(x)k, and one
builder (bar._boundary_triplets, which also assembles b') serves both:
C^n(A, M) is dual to C_n(A, M^*) for the dual bimodule M^* = Hom_k(M, k),
whose left and right actions are the transposed right and left actions of
M, so b^n is the transposed boundary C_(n+1)(A, M^*) -> C_n(A, M^*)
(Loday, Cyclic Homology, 1992).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, reduce

from .algebra import (
    AlgebraError,
    Bimodule,
    FiniteAlgebra,
    LeftModule,
    hom_bimodule,
)
from .bar import _boundary_triplets, _letter_inclusion, _letters, _require_unital, _tensor_tuples
from .matrix import (
    DEFAULT_GUARD,
    KModuleInvariants,
    Matrix,
    check_guard,
    column_span_basis,
    homology,
    kernel_basis,
    quotient_generators,
    subquotient_invariants,
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


@dataclass(frozen=True)
class CohomologyReport:
    degree: int
    invariants: KModuleInvariants
    representatives: tuple[Cochain, ...] | None = None


@lru_cache(maxsize=None)
def _coboundary(A: FiniteAlgebra, M: Bimodule, n: int, normalized: bool) -> Matrix:
    """b^n as the transpose of the boundary of C_(n+1)(A, M^*), swapped triplet by triplet."""
    dual = Bimodule(A, M.rank, tuple(R.transpose() for R in M.right), tuple(L.transpose() for L in M.left))
    width = len(_letters(A, normalized))
    triplets = ((j, i, v) for i, j, v in _boundary_triplets(A, dual, n + 1, normalized))
    return Matrix.from_triplets(A.ring, M.rank * width ** (n + 1), M.rank * width**n, triplets)


def coboundary_matrix(
    A: FiniteAlgebra,
    M: Bimodule,
    n: int,
    normalized: bool = False,
    guard: int | None = DEFAULT_GUARD,
) -> Matrix:
    """Matrix of b^n : C^n(A, M) -> C^(n+1)(A, M) in the vectorized cochain basis."""
    if n < 0:
        raise ValueError("cochain degree must be >= 0")
    if M.algebra != A:
        raise AlgebraError("bimodule lives over a different algebra")
    if normalized:
        _require_unital(A)
    width = len(_letters(A, normalized))
    check_guard(M.rank * width ** (n + 1), M.rank * width**n, guard)
    return _coboundary(A, M, n, normalized)


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
    the full tensor basis.
    """
    if normalized is None:
        normalized = A.has_unital_basis
    bn = coboundary_matrix(A, M, n, normalized, guard)
    B = coboundary_matrix(A, M, n - 1, normalized, guard) if n else Matrix.zeros(A.ring, bn.cols, 0)
    if not representatives:
        return CohomologyReport(n, subquotient_invariants(kernel_basis(bn), B))
    invs, gens = homology(bn, B)
    if gens:  # zero-extend along I_m (x) J^(x)n, the identity for the raw complex
        E = reduce(Matrix.kron, [_letter_inclusion(A, normalized)] * n, Matrix.identity(A.ring, M.rank))
        gens = [(E * g).reshape(M.rank, A.rank**n) for g in gens]
    return CohomologyReport(n, invs, tuple(Cochain(A, M, n, g) for g in gens))


def is_cocycle(c: Cochain, guard: int | None = DEFAULT_GUARD) -> bool:
    bn = coboundary_matrix(c.algebra, c.bimodule, c.degree, False, guard)
    vec = c.matrix.reshape(c.matrix.rows * c.matrix.cols, 1)
    return (bn * vec).is_zero


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
    Der = derivations(A, M)
    Inn = inner_derivations(A, M)
    invs, gens = quotient_generators(Der, Inn)
    reps = tuple(Cochain(A, M, 1, g.reshape(M.rank, A.rank)) for g in gens)
    return CohomologyReport(1, invs, reps)


# ---------------------------------------------------------------------------
# homology
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _homology_boundary(A: FiniteAlgebra, M: Bimodule, k: int, normalized: bool) -> Matrix:
    """The cyclic bar boundary on M (x) A^(x)k, or on M (x) Abar^(x)k when normalized."""
    width = len(_letters(A, normalized))
    triplets = _boundary_triplets(A, M, k, normalized)
    return Matrix.from_triplets(A.ring, M.rank * width ** (k - 1), M.rank * width**k, triplets)


def hochschild_homology(
    A: FiniteAlgebra, M: Bimodule, n: int, guard: int | None = DEFAULT_GUARD
) -> KModuleInvariants:
    """HH_n(A, M): homology of the cyclic bar complex M (x) A^(x)*.

    The normalized complex M (x) Abar^(x)* is used whenever the basis is
    unital, as in hh; the guard is sized by the complex that is built, so by
    its largest matrix, the boundary C_(n+1) -> C_n.
    """
    if n < 0:
        raise ValueError("homology degree must be >= 0")
    if M.algebra != A:
        raise AlgebraError("bimodule lives over a different algebra")
    m = M.rank
    normalized = A.has_unital_basis
    width = len(_letters(A, normalized))
    check_guard(m * width**n, m * width ** (n + 1), guard)
    outgoing = _homology_boundary(A, M, n, normalized) if n else Matrix.zeros(A.ring, 0, m)
    return subquotient_invariants(kernel_basis(outgoing), _homology_boundary(A, M, n + 1, normalized))


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
    normalized: bool | None = None,
    guard: int | None = DEFAULT_GUARD,
) -> KModuleInvariants:
    """Relative Ext^n of left modules via HH^n(A, Hom_k(M, N))."""
    Ml, Nl = _as_left_module(M), _as_left_module(N)
    H = hom_bimodule(Ml, Nl)
    return hh(A, H, n, normalized=normalized, guard=guard, representatives=False).invariants


@lru_cache(maxsize=None)
def _relative_ext_coboundary(A: FiniteAlgebra, M: LeftModule, N: LeftModule, n: int) -> Matrix:
    """Coboundary of the split-resolution route: maps A^(x)n (x) M -> N.

    Column index is p * (d^n * mM) + t * mM + u for value coordinate p,
    tensor index t and module index u.
    """
    d = A.rank
    mM, mN = M.rank, N.rank
    z = A.ring.zero
    src = _tensor_tuples(A, n, False)
    dst = _tensor_tuples(A, n + 1, False)
    src_w = len(src) * mM
    dst_w = len(dst) * mM
    dst_index = {t: i for i, t in enumerate(dst)}
    last = 1 if (n + 1) % 2 == 0 else -1  # (-1)^(n+1)
    # rows of the M-actions: LM[u, w] for fixed u
    m_rows = [LM.transpose().columns for LM in M.action]

    def triplets():
        for ti, t in enumerate(src):
            for u in range(mM):
                for p in range(mN):
                    col = p * src_w + ti * mM + u
                    # a1 . f(a2,...,u)
                    for a in range(d):
                        s = dst_index[(a,) + t]
                        for q, v in N.action[a].columns[p]:
                            yield q * dst_w + s * mM + u, col, v
                    # merges, signs (-1)^i for i = 1..n
                    for i in range(1, n + 1):
                        sign = -1 if i % 2 == 1 else 1
                        for a in range(d):
                            for b in range(d):
                                c = A.c(a, b, t[i - 1])
                                if c == z:
                                    continue
                                s = dst_index[t[: i - 1] + (a, b) + t[i:]]
                                yield p * dst_w + s * mM + u, col, c if sign > 0 else -c
                    # (-1)^(n+1) f(a1,...,an, a(n+1) . u)
                    for a in range(d):
                        s = dst_index[t + (a,)]
                        for w, v in m_rows[a][u]:
                            yield p * dst_w + s * mM + w, col, v if last > 0 else -v

    return Matrix.from_triplets(A.ring, mN * dst_w, mN * src_w, triplets())


def relative_ext_resolution(
    A: FiniteAlgebra, M, N, n: int, guard: int | None = DEFAULT_GUARD
) -> KModuleInvariants:
    """Relative Ext^n computed from the split resolution of M directly.

    Independent of the Hom-bimodule route; the two must agree.
    """
    Ml, Nl = _as_left_module(M), _as_left_module(N)
    d = A.rank
    check_guard(Nl.rank * d ** (n + 1) * Ml.rank, Nl.rank * d**n * Ml.rank, guard)
    dn = _relative_ext_coboundary(A, Ml, Nl, n)
    B = _relative_ext_coboundary(A, Ml, Nl, n - 1) if n else Matrix.zeros(A.ring, dn.cols, 0)
    return subquotient_invariants(kernel_basis(dn), B)
