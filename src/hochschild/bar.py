"""The bar and normalized bar resolutions with their contracting homotopies.

Chain level n is A^(x)(n+2) (level -1 means A itself); the normalized
variant replaces the middle factors by Abar = A / k*1 and needs the unit to
be the 0-th basis vector; one ``normalized`` flag selects the complex.
_letters is the one description of that choice: the basis vectors that may
sit between the outer factors (all of them, or the non-unit classes).  Every
chain size, index map, homotopy and cochain embedding reads it, as a range
or as the letter inclusion J (the identity restricted to those columns), so
it alone refuses a normalized complex on a non-unital basis, before any work.

One builder, _boundary_triplets, assembles every differential: the cyclic
boundary of C_k(A, M) = M (x) A^(x)k.  For M = A (x) A with the inner
actions a(x (x) y) = x (x) ay and (x (x) y)a = xa (x) y it is b'_k up to the
order of the basis (Loday, Cyclic Homology, 1992), and cohomology builds
the Hochschild coboundaries and boundaries with it too.  Differentials,
chain-level actions and syzygies are cached per (algebra, level): values
are deterministic, so the memo tables are safe under concurrent use
(idempotent last-writer-wins entries).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, reduce
from itertools import product

from .algebra import (
    AlgebraError,
    Bimodule,
    FiniteAlgebra,
    left_mult_matrix,
    multiplication_matrix,
    regular_bimodule,
    right_mult_matrix,
)
from .matrix import DEFAULT_GUARD, Matrix, check_guard, column_span_basis, coords_in_span, kernel_basis


def _letters(A: FiniteAlgebra, normalized: bool) -> range:
    """Basis indices of the middle factors: all of A, or Abar = A / k*1 (unit e_0 dropped)."""
    if normalized and not A.has_unital_basis:
        raise AlgebraError(
            "the normalized complex needs the unit as 0-th basis vector; "
            "canonicalize with with_unital_basis first"
        )
    return range(1, A.rank) if normalized else range(A.rank)


def _letter_inclusion(A: FiniteAlgebra, normalized: bool) -> Matrix:
    """J : k^letters -> A, the identity restricted to the letter columns."""
    return Matrix.identity(A.ring, A.rank).submatrix_cols(_letters(A, normalized))


def bar_rank(A: FiniteAlgebra, n: int, normalized: bool = False) -> int:
    """Rank of chain level n (level -1 is A itself)."""
    return A.rank if n == -1 else A.rank * len(_letters(A, normalized)) ** n * A.rank


def _tensor_tuples(A: FiniteAlgebra, n: int, normalized: bool):
    return list(product(_letters(A, normalized), repeat=n))


def _boundary_triplets(A: FiniteAlgebra, M: Bimodule, k: int, normalized: bool):
    """(row, col, value) triplets of the cyclic boundary C_k(A, M) -> C_(k-1)(A, M).

    Chains M (x) A^(x)k are indexed p * width^k + t for module coordinate p
    and tensor index t; the normalized complex runs over non-unit basis
    classes and drops the unit component of interior products.  The interior
    merges of a tuple t do not touch p, so they are looked up once per t.
    """
    d, m = A.rank, M.rank
    src = _tensor_tuples(A, k, normalized)
    dst_index = {t: i for i, t in enumerate(_tensor_tuples(A, k - 1, normalized))}
    T_src, T_dst = len(src), len(dst_index)
    kept = _letters(A, normalized)
    # merges[s][a][b]: the kept nonzero coordinates (kk, (-1)^s c) of e_a e_b, column a d + b of mu
    mu = multiplication_matrix(A).columns
    plus = [[[(kk, c) for kk, c in mu[a * d + b] if kk in kept] for b in range(d)] for a in range(d)]
    merges = (plus, [[[(kk, -c) for kk, c in ab] for ab in row] for row in plus])
    # the wrap-around term carries (-1)^k: sign the left-action columns once
    wrap = [(L if k % 2 == 0 else -L).columns for L in M.left]

    for ti, t in enumerate(src):
        head, tail = dst_index[t[1:]], dst_index[t[:-1]]
        right, left = M.right[t[0]].columns, wrap[t[-1]]
        # interior merges with signs (-1)^i, i = 1..k-1, as (tensor index, value)
        inner = [
            (dst_index[t[: i - 1] + (kk,) + t[i + 1 :]], c)
            for i in range(1, k)
            for kk, c in merges[i % 2][t[i - 1]][t[i]]
        ]
        for p in range(m):
            col = p * T_src + ti
            # m (x) a1 ... -> (m a1) (x) a2 ...
            for q, v in right[p]:
                yield q * T_dst + head, col, v
            for j, c in inner:
                yield p * T_dst + j, col, c
            # wrap-around: (-1)^k (ak m) (x) a1 ... a(k-1)
            for q, v in left[p]:
                yield q * T_dst + tail, col, v


@lru_cache(maxsize=None)
def _differential(A: FiniteAlgebra, n: int, normalized: bool) -> Matrix:
    """b'_n as the cyclic boundary of C_n(A, A (x) A), re-indexed onto the bar basis.

    The outer factors x (x) y are the coefficient module, so the first and
    last merges of b' are its right and left actions and the interior merges
    (unit dropped when normalized) are those of the cyclic boundary.  Cyclic
    index (x d + y) T + t is bar index (x T + t) d + y.
    """
    if n == 0:
        return multiplication_matrix(A)
    d = A.rank
    I = Matrix.identity(A.ring, d)
    left = tuple(I.kron(left_mult_matrix(A, i)) for i in range(d))
    M = Bimodule(A, d * d, left, tuple(right_mult_matrix(A, i).kron(I) for i in range(d)))
    width = len(_letters(A, normalized))

    def bar_index(T):
        return [(x * T + t) * d + y for x in range(d) for y in range(d) for t in range(T)]

    rows, cols = bar_index(width ** (n - 1)), bar_index(width**n)
    triplets = ((rows[i], cols[j], v) for i, j, v in _boundary_triplets(A, M, n, normalized))
    return Matrix.from_triplets(A.ring, len(rows), len(cols), triplets)


def bar_differential(A: FiniteAlgebra, n: int, normalized: bool = False, guard: int | None = DEFAULT_GUARD) -> Matrix:
    """b'_n : level n -> level n-1, the alternating sum of adjacent merges.

    With normalized=True it runs on A (x) Abar^(x)n (x) A and needs a unital basis.
    """
    if n < 0:
        raise ValueError("bar differential is defined for n >= 0")
    check_guard(bar_rank(A, n - 1, normalized), bar_rank(A, n, normalized), guard)
    return _differential(A, n, normalized)


def _homotopy(A: FiniteAlgebra, n: int, normalized: bool) -> Matrix:
    """s_n = unit (x) P (x) I prepends the unit; P = J^T pushes the old left factor into the
    letters (the class of 1 in Abar is zero), and at level -1, P = I makes it the right factor."""
    P = Matrix.identity(A.ring, A.rank) if n == -1 else _letter_inclusion(A, normalized).transpose()
    return A.unit_column().kron(P).kron(Matrix.identity(A.ring, bar_rank(A, n, normalized) // A.rank))


def contracting_homotopy(A: FiniteAlgebra, n: int, normalized: bool = False, guard: int | None = DEFAULT_GUARD) -> Matrix:
    """s_n : level n -> level n+1, prepending the unit.

    Satisfies b'_(n+1) s_n + s_(n-1) b'_n = id at level n for every n >= -1
    (with s_(-2) and b'_(-1) zero), which certifies exactness of the
    augmented complex wherever it is checked.
    """
    if n < -1:
        raise ValueError("homotopy is defined for n >= -1")
    check_guard(bar_rank(A, n + 1, normalized), bar_rank(A, n, normalized), guard)
    return _homotopy(A, n, normalized)


# ---------------------------------------------------------------------------
# the outer bimodule structure of a chain level
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def chain_actions(A: FiniteAlgebra, n: int, normalized: bool) -> tuple[tuple[Matrix, ...], tuple[Matrix, ...]]:
    """Left/right actions L_i (x) I and I (x) R_i on chain level n: a on factor 0, b on the last."""
    if n == -1:
        M = regular_bimodule(A)
        return M.left, M.right
    I = Matrix.identity(A.ring, bar_rank(A, n, normalized) // A.rank)
    left = tuple(left_mult_matrix(A, i).kron(I) for i in range(A.rank))
    return left, tuple(I.kron(right_mult_matrix(A, i)) for i in range(A.rank))


def chain_bimodule(A: FiniteAlgebra, n: int, guard: int | None = DEFAULT_GUARD) -> Bimodule:
    """Chain level n of the raw bar resolution as an A-bimodule."""
    rank = bar_rank(A, n)
    check_guard(rank, rank, guard)
    left, right = chain_actions(A, n, False)
    return Bimodule(A, rank, left, right)


# ---------------------------------------------------------------------------
# syzygies
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SyzygyModule:
    """Kernel of the level-(n-1) differential with its restricted actions."""

    algebra: FiniteAlgebra
    level: int
    normalized: bool
    basis: Matrix  # columns embed the syzygy into chain level n-1
    left: tuple[Matrix, ...]
    right: tuple[Matrix, ...]

    @property
    def rank(self) -> int:
        return self.basis.cols

    def as_bimodule(self) -> Bimodule:
        return Bimodule(self.algebra, self.rank, self.left, self.right)


@lru_cache(maxsize=None)
def _syzygy(A: FiniteAlgebra, n: int, normalized: bool) -> SyzygyModule:
    if n == 0:
        M = regular_bimodule(A)
        return SyzygyModule(A, 0, normalized, Matrix.identity(A.ring, A.rank), M.left, M.right)
    B = _differential(A, n - 1, normalized)
    K = kernel_basis(B)
    ambient_left, ambient_right = chain_actions(A, n - 1, normalized)
    left = tuple(coords_in_span(K, L * K) for L in ambient_left)
    right = tuple(coords_in_span(K, R * K) for R in ambient_right)
    om = SyzygyModule(A, n, normalized, K, left, right)
    if n == 1:
        _verify_first_syzygy_generators(A, om, ambient_left)
    return om


def _verify_first_syzygy_generators(A: FiniteAlgebra, om: SyzygyModule, ambient_left) -> None:
    """The first syzygy must be spanned by the elements 1 (x) a - a (x) 1.

    Their left-multiplication orbit already spans the whole kernel (over Z:
    the whole kernel lattice), which is checked exactly here.
    """
    gens = _derivation_images(A)
    orbit = gens
    for L in ambient_left:
        orbit = orbit.hstack(L * gens)
    if column_span_basis(orbit) != column_span_basis(om.basis):
        raise AssertionError("first syzygy is not spanned by the universal derivation image")


def syzygy(A: FiniteAlgebra, n: int, normalized: bool = False, guard: int | None = DEFAULT_GUARD) -> SyzygyModule:
    """The n-th syzygy: ker(b'_(n-1)) with its inherited bimodule structure.

    Over Z the basis spans the full kernel lattice (saturated), so the
    module is torsion-correct for everything downstream.
    """
    if n < 0:
        raise ValueError("syzygy level must be >= 0")
    if n >= 1:
        check_guard(bar_rank(A, n - 2, normalized), bar_rank(A, n - 1, normalized), guard)
    return _syzygy(A, n, normalized)


# ---------------------------------------------------------------------------
# the universal derivation d : A -> Omega^1
# ---------------------------------------------------------------------------


def universal_derivation(A: FiniteAlgebra) -> Matrix:
    """Coordinates of d(e_i) = 1 (x) e_i - e_i (x) 1 in the basis of the raw first syzygy."""
    return coords_in_span(syzygy(A, 1).basis, _derivation_images(A))


def _derivation_images(A: FiniteAlgebra) -> Matrix:
    """u (x) I - I (x) u, for u the unit: column i is 1 (x) e_i - e_i (x) 1 in A (x) A."""
    u, I = A.unit_column(), Matrix.identity(A.ring, A.rank)
    return u.kron(I) - I.kron(u)


def derivation_factorization(M: Bimodule, D: Matrix) -> Matrix:
    """The bimodule map f : Omega^1 -> M with f(d(a)) = D(a).

    On a kernel element sum a_p (x) b_q the map takes sum a_p . D(b_q), so
    f = [L_0 D | ... | L_(d-1) D] applied to the syzygy basis; both the
    factorization identity and A-bilinearity are verified exactly.
    """
    from .cohomology import Cochain, cocycle_witness

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
