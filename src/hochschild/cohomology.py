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
C^n(A, M) is dual to C_n(A, M^*) for the dual bimodule M^* = Hom_k(M, k)
(_dual), whose left and right actions are the transposed right and left
actions of M, so b^n is the transposed boundary C_(n+1)(A, M^*) -> C_n(A, M^*)
(Loday, Cyclic Homology, 1992).  As M^** = M, HH_n(A, M) is read off the
coboundaries of M^* (Weibel 1994, Thm 3.6.2): one memo table serves both.
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
from .bar import _boundary_triplets, _letter_inclusion, _letters
from .matrix import (
    DEFAULT_GUARD,
    KModuleInvariants,
    Matrix,
    _cokernel_invariants,
    _dict_rows,
    _echelon,
    _kernel_generator_rows,
    _normal_form_columns,
    _quotient_of_basis,
    check_guard,
    column_span_basis,
    homology_invariants,
    kernel_basis,
    rank,
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


def _dual(M: Bimodule) -> Bimodule:
    """M^* = Hom_k(M, k): the left actions are the transposed right actions of M, and vice versa."""
    return Bimodule(M.algebra, M.rank, tuple(R.transpose() for R in M.right), tuple(L.transpose() for L in M.left))


@lru_cache(maxsize=None)
def _coboundary(A: FiniteAlgebra, M: Bimodule, n: int, normalized: bool) -> Matrix:
    """b^n as the transpose of the boundary of C_(n+1)(A, M^*), swapped triplet by triplet."""
    width = len(_letters(A, normalized))
    triplets = ((j, i, v) for i, j, v in _boundary_triplets(A, _dual(M), n + 1, normalized))
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
    width = len(_letters(A, normalized))
    check_guard(M.rank * width ** (n + 1), M.rank * width**n, guard)
    return _coboundary(A, M, n, normalized)


def homology(outgoing: Matrix, incoming: Matrix) -> tuple[KModuleInvariants, list[Matrix]]:
    """ker(outgoing) / im(incoming) at the middle of  . --incoming--> . --outgoing--> .

    Returns the invariants and generator columns, as quotient_generators does.
    Requires outgoing * incoming == 0, which is not checked.  The kernel is
    seeded by the image: the echelon rows of im(incoming) whose lead is a unit
    (over Z a 1; the core makes leads positive) are cocycles already.  Clearing
    a cocycle at their leads, lowest first, takes integer multiples only, so
    they and the cocycles that vanish at those leads span ker(outgoing), over Z
    as a lattice.  Only the latter go through the tagged elimination, on the
    other columns.  The Hermite form and the RREF are unique, so the normal
    form of the two pieces is kernel_basis(outgoing).
    """
    ring = outgoing.ring
    pivots = _echelon(ring, [dict(c) for c in incoming.columns if c], incoming.rows)
    seeds = {c: r for c, r in pivots if ring.kind != "Z" or r[c] == 1}
    keep = [j for j in range(outgoing.cols) if j not in seeds]
    cocycles = _kernel_generator_rows(outgoing.submatrix_cols(keep), len(keep))
    lifted = [{keep[i]: v for i, v in r.items()} for r in cocycles]
    return _quotient_of_basis(_normal_form_columns(ring, [*seeds.values(), *lifted], outgoing.cols), incoming)


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
    the full tensor basis.  With representatives, ker b^n is seeded by the
    coboundaries, the echelon rows of im b^(n-1) with a unit lead (see
    homology); without, no kernel basis is built (homology_invariants).
    """
    if normalized is None:
        normalized = A.has_unital_basis
    bn = coboundary_matrix(A, M, n, normalized, guard)
    B = coboundary_matrix(A, M, n - 1, normalized, guard) if n else Matrix.zeros(A.ring, bn.cols, 0)
    if not representatives:
        return CohomologyReport(n, homology_invariants(bn, B))
    invs, gens = homology(bn, B)
    if gens:  # zero-extend along I_m (x) J^(x)n, the identity for the raw complex
        E = reduce(Matrix.kron, [_letter_inclusion(A, normalized)] * n, Matrix.identity(A.ring, M.rank))
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


# ---------------------------------------------------------------------------
# homology
# ---------------------------------------------------------------------------


def hochschild_homology(
    A: FiniteAlgebra, M: Bimodule, n: int, guard: int | None = DEFAULT_GUARD
) -> KModuleInvariants:
    """HH_n(A, M) of the cyclic bar complex M (x) A^(x)* (normalized on a unital basis, as hh).

    b^n(A, M^*) is the transposed boundary C_(n+1) -> C_n of M, so HH_n is
    its cokernel, torsion included, less rank b^(n-1)(A, M^*) free summands.
    The cokernel is read off the rows of b^n: eliminating its long columns
    fills the Hermite form over Z.  The guard sizes b^n, the largest matrix.
    """
    if n < 0:
        raise ValueError("homology degree must be >= 0")
    dual = _dual(M)
    normalized = A.has_unital_basis
    bn = coboundary_matrix(A, dual, n, normalized, guard)
    coker = _cokernel_invariants(A.ring, _dict_rows(bn), bn.cols)
    below = rank(coboundary_matrix(A, dual, n - 1, normalized, guard)) if n else 0
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
