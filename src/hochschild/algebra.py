"""Finite-rank algebras by structure constants, bimodules and their calculus.

An algebra of rank d stores d^3 structure constants c[i][j][k] meaning
e_i * e_j = sum_k c[i][j][k] e_k.  Its working form is the d x d^2
multiplication matrix mu, built once per algebra: the left and right
multiplication matrices are column slices of it, the algebra laws are
matrix identities on it, and the opposite, tensor-product and unital-basis
tables are products and column permutations of it.  Tensor bases are
ordered row-major throughout (last index fastest), one global convention
shared by every module downstream.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import product

from .matrix import Matrix
from .rings import ScalarRing


class AlgebraError(ValueError):
    pass


@dataclass(frozen=True)
class FiniteAlgebra:
    """Free k-module of rank d with a unital associative multiplication."""

    ring: ScalarRing
    rank: int
    basis_names: tuple[str, ...]
    unit: tuple
    mul: tuple  # flat, length d**3, index ((i*d)+j)*d + k

    def __post_init__(self):
        d = self.rank
        if d < 1:
            raise AlgebraError("rank must be at least 1")
        if len(self.basis_names) != d or len(self.unit) != d or len(self.mul) != d**3:
            raise AlgebraError("inconsistent algebra data shapes")

    def c(self, i: int, j: int, k: int):
        return self.mul[(i * self.rank + j) * self.rank + k]

    def product_column(self, i: int, j: int) -> list:
        """Coefficients of e_i * e_j."""
        d = self.rank
        base = (i * d + j) * d
        return list(self.mul[base : base + d])

    def multiply(self, a, b) -> list:
        """Product of two coefficient vectors: mu (a (x) b)."""
        ab = Matrix.column(self.ring, a).kron(Matrix.column(self.ring, b))
        return (self._mu * ab).col_list(0)

    @property
    def is_commutative(self) -> bool:
        return self._mu.submatrix_cols(_swapped_pairs(self.rank)) == self._mu

    @property
    def has_unital_basis(self) -> bool:
        """True when the unit is literally the first basis vector."""
        one, zero = self.ring.one, self.ring.zero
        return self.unit[0] == one and all(u == zero for u in self.unit[1:])

    def unit_column(self) -> Matrix:
        return Matrix.column(self.ring, list(self.unit))

    @cached_property  # kept in the instance dict: equality and hash still see only the fields
    def _mu(self) -> Matrix:
        d = self.rank
        # mul[(i d + j) d + k] is entry (k, i d + j)
        return Matrix.from_triplets(self.ring, d, d * d, ((t % d, t // d, c) for t, c in enumerate(self.mul) if c))

    @cached_property  # kept like _mu
    def _regular(self) -> "Bimodule":
        d = self.rank
        left = tuple(left_mult_matrix(self, i) for i in range(d))
        return Bimodule(self, d, left, tuple(right_mult_matrix(self, i) for i in range(d)))

    def __str__(self) -> str:
        return f"<algebra of rank {self.rank} over {self.ring}>"


def multiplication_matrix(A: FiniteAlgebra) -> Matrix:
    """The multiplication map A (x) A -> A as a d x d^2 matrix mu: column i d + j holds e_i e_j.

    It is built on first use and then kept, so every call returns the same object.
    """
    return A._mu


def left_mult_matrix(A: FiniteAlgebra, i: int) -> Matrix:
    """Matrix of x -> e_i * x on the basis: columns i d .. i d + d - 1 of mu."""
    d = A.rank
    return A._mu.submatrix_cols(range(i * d, i * d + d))


def right_mult_matrix(A: FiniteAlgebra, i: int) -> Matrix:
    """Matrix of x -> x * e_i on the basis: columns i, i + d, ... of mu."""
    d = A.rank
    return A._mu.submatrix_cols(range(i, d * d, d))


def _swapped_pairs(d: int) -> list[int]:
    """Column j d + i of mu at position i d + j: the pair-swapped columns."""
    return [j * d + i for i in range(d) for j in range(d)]


def first_mismatch(lhs: Matrix, rhs: Matrix) -> int | None:
    """Index of the first column where two equal-shaped matrices differ, or None."""
    return next((j for j, (x, y) in enumerate(zip(lhs.columns, rhs.columns)) if x != y), None)


def _from_mu(ring: ScalarRing, names, unit, mu: Matrix) -> FiniteAlgebra:
    """The algebra whose multiplication matrix is mu, taken as given (not validated)."""
    d = mu.rows
    mul = [ring.zero] * d**3
    for c, col in enumerate(mu.columns):
        for k, v in col:
            mul[c * d + k] = v
    return FiniteAlgebra(ring, d, tuple(names), tuple(unit), tuple(mul))


def act(actions, coeffs) -> Matrix:
    """The action matrix sum_i coeffs[i] * actions[i] of an element given by its coordinates."""
    if len(coeffs) != len(actions):
        raise AlgebraError(f"element has {len(coeffs)} coordinates, expected {len(actions)}")
    T = actions[0]
    out = Matrix.zeros(T.ring, T.rows, T.cols)
    for X, c in zip(actions, coeffs):
        if c:
            out = out + X.scale(c)
    return out


def validate_algebra(
    ring: ScalarRing,
    rank: int,
    basis_names,
    unit,
    mul,
) -> FiniteAlgebra:
    """Build a FiniteAlgebra, checking associativity and the unit laws.

    Reports the first failing associativity triple (i, j, l) or unit index.
    """
    names = tuple(str(n) for n in basis_names)
    unit_t = tuple(ring.canon(u) for u in unit)
    mul_t = tuple(ring.canon(x) for x in mul)
    A = FiniteAlgebra(ring, rank, names, unit_t, mul_t)
    mu, I = A._mu, Matrix.identity(ring, rank)
    # column (i d + j) d + l of each side is (e_i e_j) e_l and e_i (e_j e_l)
    c = first_mismatch(mu * mu.kron(I), mu * I.kron(mu))
    if c is not None:
        i, jl = divmod(c, rank * rank)
        raise AlgebraError(f"associativity fails at basis triple ({i}, {jl // rank}, {jl % rank})")
    u = A.unit_column()
    left, right = first_mismatch(mu * u.kron(I), I), first_mismatch(mu * I.kron(u), I)
    if left is not None and (right is None or left <= right):
        raise AlgebraError(f"unit law fails on the left at basis index {left}")
    if right is not None:
        raise AlgebraError(f"unit law fails on the right at basis index {right}")
    return A


def opposite(A: FiniteAlgebra) -> FiniteAlgebra:
    """Same module, reversed multiplication: c_op[i][j][k] = c[j][i][k]."""
    return _from_mu(A.ring, A.basis_names, A.unit, A._mu.submatrix_cols(_swapped_pairs(A.rank)))


def tensor_product(A: FiniteAlgebra, B: FiniteAlgebra) -> FiniteAlgebra:
    """A (x) B, of rank d_A d_B; basis pairs (i, j) in row-major order, named "a(x)b".

    (e_i (x) f_j)(e_p (x) f_q) = e_i e_p (x) f_j f_q and the unit is 1 (x) 1.  The
    tables are taken as given, not validated.
    """
    if A.ring != B.ring:
        raise AlgebraError("both factors must live over the same ring")
    d, e = A.rank, B.rank
    # column ((i, p), (j, q)) of mu_A (x) mu_B becomes column ((i, j), (p, q))
    order = [((i * d + p) * e + j) * e + q for i, j, p, q in product(range(d), range(e), range(d), range(e))]
    mu = A._mu.kron(B._mu).submatrix_cols(order)
    names = tuple(f"{a}(x){b}" for a in A.basis_names for b in B.basis_names)
    return _from_mu(A.ring, names, A.unit_column().kron(B.unit_column()).col_list(0), mu)


def enveloping(A: FiniteAlgebra) -> FiniteAlgebra:
    """A (x) A^op: (e_i (x) e_j)(e_p (x) e_q) = e_i e_p (x) e_q e_j."""
    return tensor_product(A, opposite(A))


# ---------------------------------------------------------------------------
# modules
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LeftModule:
    """Left module over a finite algebra: one action matrix per basis element."""

    algebra: FiniteAlgebra
    rank: int
    action: tuple[Matrix, ...]


def validate_left_module(A: FiniteAlgebra, rank: int, action) -> LeftModule:
    action = tuple(action)
    if len(action) != A.rank:
        raise AlgebraError("need one action matrix per algebra basis element")
    for T in action:
        if (T.rows, T.cols) != (rank, rank) or T.ring != A.ring:
            raise AlgebraError("action matrices must be square of the module rank")
    M = LeftModule(A, rank, action)
    if act(action, A.unit) != Matrix.identity(A.ring, rank):
        raise AlgebraError("unit does not act as the identity")
    for i in range(A.rank):
        for j in range(A.rank):
            if action[i] * action[j] != act(action, A.product_column(i, j)):
                raise AlgebraError(f"left action is not multiplicative at pair ({i}, {j})")
    return M


@dataclass(frozen=True)
class Bimodule:
    """Two-sided module: left and right action matrices per basis element."""

    algebra: FiniteAlgebra
    rank: int
    left: tuple[Matrix, ...]
    right: tuple[Matrix, ...]

    def left_module(self) -> LeftModule:
        return LeftModule(self.algebra, self.rank, self.left)

    @cached_property  # kept in the instance dict, as FiniteAlgebra._mu: equality and hash ignore it
    def _dual(self) -> "Bimodule":
        """M^* = Hom_k(M, k), built once: its left actions are the transposed right ones, and vice versa; M^** is M."""
        dual = Bimodule(self.algebra, self.rank, *(tuple(T.transpose() for T in X) for X in (self.right, self.left)))
        dual.__dict__["_dual"] = self
        return dual


def validate_bimodule(A: FiniteAlgebra, rank: int, left, right) -> Bimodule:
    """Check module laws on both sides plus the commuting-actions axiom."""
    left, right = tuple(left), tuple(right)
    if len(left) != A.rank or len(right) != A.rank:
        raise AlgebraError("need one left and one right action matrix per basis element")
    for T in left + right:
        if (T.rows, T.cols) != (rank, rank) or T.ring != A.ring:
            raise AlgebraError("action matrices must be square of the module rank")
    M = Bimodule(A, rank, left, right)
    I = Matrix.identity(A.ring, rank)
    if act(left, A.unit) != I:
        raise AlgebraError("unit does not act as the identity on the left")
    if act(right, A.unit) != I:
        raise AlgebraError("unit does not act as the identity on the right")
    for i in range(A.rank):
        for j in range(A.rank):
            prod = A.product_column(i, j)
            if left[i] * left[j] != act(left, prod):
                raise AlgebraError(f"left action not multiplicative at ({i}, {j})")
            # right actions compose contravariantly: m*(ab) = (m*a)*b
            if right[j] * right[i] != act(right, prod):
                raise AlgebraError(f"right action not multiplicative at ({i}, {j})")
            if left[i] * right[j] != right[j] * left[i]:
                raise AlgebraError(f"left/right actions do not commute at ({i}, {j})")
    return M


def regular_bimodule(A: FiniteAlgebra) -> Bimodule:
    """A acting on itself by multiplication on both sides; built once per algebra, like mu."""
    return A._regular


def zero_bimodule(A: FiniteAlgebra) -> Bimodule:
    empty = Matrix.zeros(A.ring, 0, 0)
    return Bimodule(A, 0, (empty,) * A.rank, (empty,) * A.rank)


def hom_bimodule(N: LeftModule, M: LeftModule) -> Bimodule:
    """Hom_k(N, M) with ((a, a') . f)(n) = a f(a' n), on the matrix-unit basis.

    Basis index (p, q), row-major, is the map sending the q-th generator of N
    to the p-th generator of M.  Rank is rank(N) * rank(M).
    """
    if N.algebra != M.algebra:
        raise AlgebraError("both modules must live over the same algebra")
    A = N.algebra
    IN = Matrix.identity(A.ring, N.rank)
    IM = Matrix.identity(A.ring, M.rank)
    # row-major vec of F (rank M x rank N): vec(L F) = (L (x) I) vec, vec(F R) = (I (x) R^T) vec
    left = tuple(M.action[i].kron(IN) for i in range(A.rank))
    right = tuple(IM.kron(N.action[i].transpose()) for i in range(A.rank))
    return validate_bimodule(A, N.rank * M.rank, left, right)


# ---------------------------------------------------------------------------
# bimodules as modules over the enveloping algebra
# ---------------------------------------------------------------------------


def ae_from_bimodule(M: Bimodule) -> LeftModule:
    """The left module over enveloping(A) with (a (x) b) . m = (a m) b."""
    A = M.algebra
    env = enveloping(A)
    action = []
    for i in range(A.rank):
        for j in range(A.rank):
            action.append(M.left[i] * M.right[j])
    return LeftModule(env, M.rank, tuple(action))


def bimodule_from_ae(A: FiniteAlgebra, env_module: LeftModule) -> Bimodule:
    """Recover the bimodule from an enveloping-algebra module: a.m = (a(x)1)m."""
    env = env_module.algebra
    if env.rank != A.rank**2:
        raise AlgebraError("module is not over the enveloping algebra of A")
    d = A.rank
    # e_i (x) 1 = sum_j u_j e_i (x) e_j and 1 (x) e_j = sum_i u_i e_i (x) e_j, pair (i, j) at i*d + j
    left = [act(env_module.action[i * d : (i + 1) * d], A.unit) for i in range(d)]
    right = [act(env_module.action[j::d], A.unit) for j in range(d)]
    return validate_bimodule(A, env_module.rank, left, right)


# ---------------------------------------------------------------------------
# basis canonicalization (unit as the first basis vector)
# ---------------------------------------------------------------------------


def with_unital_basis(A: FiniteAlgebra) -> tuple[FiniteAlgebra, Matrix]:
    """Change basis so the unit becomes the 0-th basis vector.

    Returns (B, P) with P the transition matrix whose columns express the new
    basis in the old one; over Z this needs a unit coordinate of the unit
    vector to be +-1 (so that A / k*1 stays free), otherwise it raises.
    """
    if A.has_unital_basis:
        return A, Matrix.identity(A.ring, A.rank)
    d, ring, u = A.rank, A.ring, A.unit
    pivot = next((i for i in range(d) if ring.is_unit(u[i])), None)
    if pivot is None:
        raise AlgebraError(
            "the unit has no unimodular coordinate; cannot canonicalize to a unital basis over this ring"
        )
    rest = list(enumerate((i for i in range(d) if i != pivot), 1))  # (k, order[k]) for k >= 1
    P = Matrix.from_triplets(ring, d, d, [(r, 0, x) for r, x in enumerate(u)] + [(i, k, 1) for k, i in rest])
    # P^-1 has row 0 e_pivot / u_pivot and row k e_order[k] - (u_order[k] / u_pivot) e_pivot
    inv = ring.invert(u[pivot])
    Pinv = Matrix.from_triplets(
        ring, d, d, [(0, pivot, inv)] + [t for k, i in rest for t in ((k, i, 1), (k, pivot, -u[i] * inv))]
    )
    names = ("1",) + tuple(A.basis_names[i] for _, i in rest)
    unit = (ring.one,) + (ring.zero,) * (d - 1)
    # column (i, j) of Pinv mu (P (x) P) holds the new coordinates of e'_i e'_j
    return _from_mu(ring, names, unit, Pinv * A._mu * P.kron(P)), P


def transport_bimodule(M: Bimodule, B: FiniteAlgebra, P: Matrix) -> Bimodule:
    """Re-index a bimodule along a basis change P of its algebra."""
    cols = [P.col_list(i) for i in range(B.rank)]
    return Bimodule(B, M.rank, tuple(act(M.left, c) for c in cols), tuple(act(M.right, c) for c in cols))
