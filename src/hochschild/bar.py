"""The bar and normalized bar resolutions with their contracting homotopies.

Chain level n is A^(x)(n+2) (level -1 means A itself); the normalized
variant replaces the middle factors by Abar = A / k*1 and needs the unit to
be the 0-th basis vector.  Differentials, homotopies and syzygies are
cached per (algebra, level): values are deterministic, so the memo table
is safe under concurrent use (idempotent last-writer-wins entries).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, reduce
from itertools import product

from .algebra import AlgebraError, Bimodule, FiniteAlgebra, outer_actions, regular_bimodule
from .matrix import DEFAULT_GUARD, Matrix, check_guard, coords_in_span, kernel_basis


def bar_rank(A: FiniteAlgebra, n: int, normalized: bool = False) -> int:
    """Rank of chain level n (level -1 is A itself)."""
    if n == -1:
        return A.rank
    if normalized:
        return A.rank * (A.rank - 1) ** n * A.rank
    return A.rank ** (n + 2)


def _require_unital(A: FiniteAlgebra) -> None:
    if not A.has_unital_basis:
        raise AlgebraError(
            "the normalized complex needs the unit as 0-th basis vector; "
            "canonicalize with with_unital_basis first"
        )


def _level_tuples(A: FiniteAlgebra, n: int, normalized: bool):
    d = A.rank
    if n == -1:
        return [(i,) for i in range(d)]
    if normalized:
        ranges = [range(d)] + [range(1, d)] * n + [range(d)]
        return list(product(*ranges))
    return list(product(range(d), repeat=n + 2))


def _index_map(tuples) -> dict:
    return {t: i for i, t in enumerate(tuples)}


@lru_cache(maxsize=None)
def _differential(A: FiniteAlgebra, n: int, normalized: bool) -> Matrix:
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


def bar_differential(A: FiniteAlgebra, n: int, guard: int | None = DEFAULT_GUARD) -> Matrix:
    """b'_n : A^(x)(n+2) -> A^(x)(n+1), the alternating sum of adjacent merges."""
    if n < 0:
        raise ValueError("bar differential is defined for n >= 0")
    check_guard(bar_rank(A, n - 1), bar_rank(A, n), guard)
    return _differential(A, n, False)


def normalized_bar_differential(A: FiniteAlgebra, n: int, guard: int | None = DEFAULT_GUARD) -> Matrix:
    """The same alternating sum on A (x) Abar^(x)n (x) A."""
    if n < 0:
        raise ValueError("bar differential is defined for n >= 0")
    _require_unital(A)
    check_guard(bar_rank(A, n - 1, True), bar_rank(A, n, True), guard)
    return _differential(A, n, True)


@lru_cache(maxsize=None)
def _homotopy(A: FiniteAlgebra, n: int, normalized: bool) -> Matrix:
    z = A.ring.zero
    src = _level_tuples(A, n, normalized)
    dst = _level_tuples(A, n + 1, normalized)
    dst_index = _index_map(dst)

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

    return Matrix.from_triplets(A.ring, len(dst), len(src), triplets())


def contracting_homotopy(A: FiniteAlgebra, n: int, guard: int | None = DEFAULT_GUARD) -> Matrix:
    """s_n : level n -> level n+1, prepending the unit.

    Satisfies b'_(n+1) s_n + s_(n-1) b'_n = id at level n for every n >= -1
    (with s_(-2) and b'_(-1) zero), which certifies exactness of the
    augmented complex wherever it is checked.
    """
    if n < -1:
        raise ValueError("homotopy is defined for n >= -1")
    check_guard(bar_rank(A, n + 1), bar_rank(A, n), guard)
    return _homotopy(A, n, False)


def normalized_contracting_homotopy(A: FiniteAlgebra, n: int, guard: int | None = DEFAULT_GUARD) -> Matrix:
    if n < -1:
        raise ValueError("homotopy is defined for n >= -1")
    _require_unital(A)
    check_guard(bar_rank(A, n + 1, True), bar_rank(A, n, True), guard)
    return _homotopy(A, n, True)


# ---------------------------------------------------------------------------
# the outer bimodule structure of a chain level
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def chain_actions(A: FiniteAlgebra, n: int, normalized: bool) -> tuple[tuple[Matrix, ...], tuple[Matrix, ...]]:
    """Left/right action matrices on chain level n (a on factor 0, b on the last)."""
    if n == -1:
        M = regular_bimodule(A)
        return M.left, M.right
    return outer_actions(A, bar_rank(A, n, normalized) // A.rank)


def chain_bimodule(A: FiniteAlgebra, n: int, normalized: bool = False, guard: int | None = DEFAULT_GUARD) -> Bimodule:
    rank = bar_rank(A, n, normalized)
    check_guard(rank, rank, guard)
    left, right = chain_actions(A, n, normalized)
    return Bimodule(A, rank, left, right)


@dataclass(frozen=True)
class BarChainModule:
    """One level of the (normalized) bar complex, with its level metadata.

    Level -1 denotes the algebra itself; the rank is d^(n+2), respectively
    d (d-1)^n d in the normalized case, which needs a unital basis.
    """

    algebra: FiniteAlgebra
    level: int
    normalized: bool
    rank: int

    def __post_init__(self):
        if self.level < -1:
            raise ValueError("chain levels start at -1")
        if self.normalized:
            _require_unital(self.algebra)
        if self.rank != bar_rank(self.algebra, self.level, self.normalized):
            raise ValueError("rank does not match the level formula")

    def bimodule(self, guard: int | None = DEFAULT_GUARD) -> Bimodule:
        return chain_bimodule(self.algebra, self.level, self.normalized, guard)


def chain_module(A: FiniteAlgebra, n: int, normalized: bool = False) -> BarChainModule:
    return BarChainModule(A, n, normalized, bar_rank(A, n, normalized))


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
    from .matrix import column_span_basis

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
    if normalized:
        _require_unital(A)
    if n >= 1:
        check_guard(bar_rank(A, n - 2, normalized) if n >= 2 else A.rank, bar_rank(A, n - 1, normalized), guard)
    return _syzygy(A, n, normalized)


# ---------------------------------------------------------------------------
# the universal derivation d : A -> Omega^1
# ---------------------------------------------------------------------------


def universal_derivation(A: FiniteAlgebra, normalized: bool = False) -> Matrix:
    """Coordinates of d(e_i) = 1 (x) e_i - e_i (x) 1 in the syzygy basis."""
    om = syzygy(A, 1, normalized)
    return coords_in_span(om.basis, _derivation_images(A))


def _derivation_images(A: FiniteAlgebra) -> Matrix:
    """The d^2 x d matrix whose column i is 1 (x) e_i - e_i (x) 1 in A (x) A."""
    d = A.rank

    def triplets():
        for i in range(d):
            for j, u in enumerate(A.unit):
                if u:
                    yield j * d + i, i, u
                    yield i * d + j, i, -u

    return Matrix.from_triplets(A.ring, d * d, d, triplets())


def is_derivation(M: Bimodule, D: Matrix) -> tuple[bool, tuple[int, int] | None]:
    """Leibniz check D(e_i e_j) = e_i D(e_j) + D(e_i) e_j; returns a witness pair.

    The defect is b^1 D, whose (i, j) entry block is e_i D(e_j) - D(e_i e_j)
    + D(e_i) e_j; the witness is the first failing pair in row-major order.
    """
    from .cohomology import coboundary_matrix

    A = M.algebra
    if (D.rows, D.cols) != (M.rank, A.rank):
        raise AlgebraError("derivation candidate must be an (module rank) x (algebra rank) matrix")
    d = A.rank
    image = coboundary_matrix(A, M, 1, False, guard=None) * D.reshape(M.rank * d, 1)
    if image.is_zero:
        return True, None
    s = min(row % d**2 for row, _ in image.columns[0])  # row p * d^2 + i d + j
    return False, divmod(s, d)


def derivation_factorization(M: Bimodule, D: Matrix, normalized: bool = False) -> Matrix:
    """The bimodule map f : Omega^1 -> M with f(d(a)) = D(a).

    On a kernel element sum a_p (x) b_q the map takes sum a_p . D(b_q), so
    f = [L_0 D | ... | L_(d-1) D] applied to the syzygy basis; both the
    factorization identity and A-bilinearity are verified exactly.
    """
    A = M.algebra
    ok, witness = is_derivation(M, D)
    if not ok:
        raise AlgebraError(f"not a derivation: Leibniz fails at basis pair {witness}")
    om = syzygy(A, 1, normalized)
    F = reduce(Matrix.hstack, (L * D for L in M.left)) * om.basis
    dmat = universal_derivation(A, normalized)
    if F * dmat != D:
        raise AlgebraError("factorization identity f(d(a)) = D(a) failed")
    for i in range(A.rank):
        if F * om.left[i] != M.left[i] * F or F * om.right[i] != M.right[i] * F:
            raise AlgebraError(f"factorization is not a bimodule map at basis index {i}")
    return F
