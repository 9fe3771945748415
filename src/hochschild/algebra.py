"""Finite-rank algebras by structure constants, bimodules and their calculus.

An algebra of rank d stores d^3 structure constants c[i][j][k] meaning
e_i * e_j = sum_k c[i][j][k] e_k.  Tensor bases are ordered row-major
throughout (last index fastest), one global convention shared by every
module downstream.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, reduce
from itertools import product

from .matrix import Matrix, SizeGuardError, check_guard, kernel_basis, solve
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
        """Product of two coefficient vectors."""
        d = self.rank
        z = self.ring.zero
        out = [z] * d
        for i, ai in enumerate(a):
            if ai == z:
                continue
            for j, bj in enumerate(b):
                if bj == z:
                    continue
                base = (i * d + j) * d
                for k in range(d):
                    ck = self.mul[base + k]
                    if ck != z:
                        out[k] = self.ring.canon(out[k] + ai * bj * ck)
        return out

    @property
    def is_commutative(self) -> bool:
        d = self.rank
        return all(self.c(i, j, k) == self.c(j, i, k) for i in range(d) for j in range(d) for k in range(d))

    @property
    def has_unital_basis(self) -> bool:
        """True when the unit is literally the first basis vector."""
        one, zero = self.ring.one, self.ring.zero
        return self.unit[0] == one and all(u == zero for u in self.unit[1:])

    def unit_column(self) -> Matrix:
        return Matrix.column(self.ring, list(self.unit))

    def __str__(self) -> str:
        return f"<algebra of rank {self.rank} over {self.ring}>"


@lru_cache(maxsize=None)
def left_mult_matrix(A: FiniteAlgebra, i: int) -> Matrix:
    """Matrix of x -> e_i * x on the basis."""
    d = A.rank
    return Matrix.from_cols(A.ring, [A.product_column(i, j) for j in range(d)], nrows=d)


@lru_cache(maxsize=None)
def right_mult_matrix(A: FiniteAlgebra, i: int) -> Matrix:
    """Matrix of x -> x * e_i on the basis."""
    d = A.rank
    return Matrix.from_cols(A.ring, [A.product_column(j, i) for j in range(d)], nrows=d)


def multiplication_matrix(A: FiniteAlgebra) -> Matrix:
    """The multiplication map A (x) A -> A as a d x d^2 matrix (row-major pairs)."""
    d = A.rank
    # mul[(i d + j) d + k] is entry (k, i d + j)
    return Matrix.from_triplets(A.ring, d, d * d, ((t % d, t // d, c) for t, c in enumerate(A.mul) if c))


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
    d = rank
    names = tuple(str(n) for n in basis_names)
    unit_t = tuple(ring.canon(u) for u in unit)
    mul_t = tuple(ring.canon(x) for x in mul)
    A = FiniteAlgebra(ring, d, names, unit_t, mul_t)
    z = ring.zero
    # the nonzero (k, c) pairs of every e_i e_j, listed once
    nz = [[[(k, v) for k, v in enumerate(A.product_column(i, j)) if v] for j in range(d)] for i in range(d)]

    def total(terms) -> dict:  # sum of (t, value) terms, as a dict without zeros
        acc = {}
        for t, v in terms:
            acc[t] = acc.get(t, 0) + v
        return {t: v for t, v in ((t, ring.canon(v)) for t, v in acc.items()) if v}

    for i in range(d):
        for j in range(d):
            for l in range(d):
                # (e_i e_j) e_l vs e_i (e_j e_l)
                left = total((t, a * m) for k, a in nz[i][j] for t, m in nz[k][l])
                if left != total((t, a * m) for k, a in nz[j][l] for t, m in nz[i][k]):
                    raise AlgebraError(f"associativity fails at basis triple ({i}, {j}, {l})")
    for i in range(d):
        ei = [ring.one if t == i else z for t in range(d)]
        if A.multiply(list(unit_t), ei) != ei:
            raise AlgebraError(f"unit law fails on the left at basis index {i}")
        if A.multiply(ei, list(unit_t)) != ei:
            raise AlgebraError(f"unit law fails on the right at basis index {i}")
    return A


def _make_unchecked(ring, rank, basis_names, unit, mul) -> FiniteAlgebra:
    return FiniteAlgebra(ring, rank, tuple(basis_names), tuple(unit), tuple(mul))


def opposite(A: FiniteAlgebra) -> FiniteAlgebra:
    """Same module, reversed multiplication: c_op[i][j][k] = c[j][i][k]."""
    d = A.rank
    mul = [A.ring.zero] * d**3
    for i in range(d):
        for j in range(d):
            base = (i * d + j) * d
            src = (j * d + i) * d
            for k in range(d):
                mul[base + k] = A.mul[src + k]
    return _make_unchecked(A.ring, d, A.basis_names, A.unit, mul)


def enveloping(A: FiniteAlgebra) -> FiniteAlgebra:
    """A (x) A^op, of rank d^2; basis pairs (i, j) in row-major order.

    (e_i (x) e_j)(e_p (x) e_q) = e_i e_p (x) e_q e_j, which is column
    ((i d + p) d + j) d + q of mu (x) mu^op.
    """
    d = A.rank
    D = d * d
    mu = multiplication_matrix(A).kron(multiplication_matrix(opposite(A)))
    mul = [A.ring.zero] * D**3
    for i, j, p, q in product(range(d), repeat=4):
        base = ((i * d + j) * D + p * d + q) * D
        for r, v in mu.columns[((i * d + p) * d + j) * d + q]:
            mul[base + r] = v
    u = A.unit_column()
    names = tuple(f"{a}(x){b}" for a in A.basis_names for b in A.basis_names)
    return _make_unchecked(A.ring, D, names, u.kron(u).col_list(0), mul)


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
    """A acting on itself by multiplication on both sides."""
    d = A.rank
    return Bimodule(
        A,
        d,
        tuple(left_mult_matrix(A, i) for i in range(d)),
        tuple(right_mult_matrix(A, i) for i in range(d)),
    )


def zero_bimodule(A: FiniteAlgebra) -> Bimodule:
    empty = Matrix.zeros(A.ring, 0, 0)
    return Bimodule(A, 0, (empty,) * A.rank, (empty,) * A.rank)


def outer_actions(A: FiniteAlgebra, inner: int) -> tuple[tuple[Matrix, ...], tuple[Matrix, ...]]:
    """Left actions L_i (x) I and right actions I (x) R_i, with I the identity of size inner.

    On A (x) W (x) A with rank(W (x) A) = inner, these are a acting on the
    leftmost factor and b on the rightmost.
    """
    I = Matrix.identity(A.ring, inner)
    left = tuple(left_mult_matrix(A, i).kron(I) for i in range(A.rank))
    right = tuple(I.kron(right_mult_matrix(A, i)) for i in range(A.rank))
    return left, right


def outer_bimodule(A: FiniteAlgebra, n: int, guard: int | None = None) -> Bimodule:
    """A^(x)(n+2) with a acting on the leftmost factor, b on the rightmost."""
    d = A.rank
    size = d ** (n + 2)
    if guard is not None:
        check_guard(size, size, guard)
    return Bimodule(A, size, *outer_actions(A, d ** (n + 1)))


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


def intertwiners(N: LeftModule, M: LeftModule) -> Matrix:
    """Basis of Hom_A(N, M): all F with action_M(a) F = F action_N(a)."""
    if N.algebra != M.algebra:
        raise AlgebraError("both modules must live over the same algebra")
    A = N.algebra
    IN = Matrix.identity(A.ring, N.rank)
    IM = Matrix.identity(A.ring, M.rank)
    blocks = []
    for i in range(A.rank):
        blocks.append(M.action[i].kron(IN) - IM.kron(N.action[i].transpose()))
    stacked = blocks[0]
    for b in blocks[1:]:
        stacked = stacked.vstack(b)
    return kernel_basis(stacked)


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


def ae_right_action(M: Bimodule) -> tuple[Matrix, ...]:
    """The induced right action of enveloping(A): m . (a (x) b) = (b (x) a) . m."""
    A = M.algebra
    out = []
    for i in range(A.rank):
        for j in range(A.rank):
            out.append(M.left[j] * M.right[i])
    return tuple(out)


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
    d = A.rank
    ring = A.ring
    pivot = None
    for i, u in enumerate(A.unit):
        if ring.is_unit(u):
            pivot = i
            break
    if pivot is None:
        raise AlgebraError(
            "the unit has no unimodular coordinate; cannot canonicalize to a unital basis over this ring"
        )
    order = [pivot] + [i for i in range(d) if i != pivot]
    cols = [list(A.unit)] + [
        [ring.one if r == i else ring.zero for r in range(d)] for i in order[1:]
    ]
    P = Matrix.from_cols(ring, cols, nrows=d)
    I = Matrix.identity(ring, d)
    Pinv_cols = [solve(P, I.submatrix_cols((i,))) for i in range(d)]
    if any(x is None for x in Pinv_cols):
        raise AlgebraError("basis change is not invertible over the ring")
    Pinv = reduce(Matrix.hstack, Pinv_cols)
    # column (i, j) of Pinv mu (P (x) P) holds the new coordinates of e'_i e'_j
    table = Pinv * multiplication_matrix(A) * P.kron(P)
    mul = [ring.zero] * d**3
    for c, col in enumerate(table.columns):
        for k, v in col:
            mul[c * d + k] = v
    names = ("1",) + tuple(A.basis_names[i] for i in order[1:])
    unit = (ring.one,) + (ring.zero,) * (d - 1)
    return _make_unchecked(ring, d, names, unit, mul), P


def transport_bimodule(M: Bimodule, B: FiniteAlgebra, P: Matrix) -> Bimodule:
    """Re-index a bimodule along a basis change P of its algebra."""
    cols = [P.col_list(i) for i in range(B.rank)]
    return Bimodule(B, M.rank, tuple(act(M.left, c) for c in cols), tuple(act(M.right, c) for c in cols))


# ---------------------------------------------------------------------------
# truncated tensor algebra (test-fixture generator)
# ---------------------------------------------------------------------------


def truncated_tensor_algebra(
    B: FiniteAlgebra, M: Bimodule, degree_cap: int, guard: int | None = None
) -> FiniteAlgebra:
    """B + M + M^(x)2 + ... + M^(x)N with concatenation product, cut at degree N.

    Products landing beyond the cap are set to zero; the result is validated.
    With M = 0 this returns B unchanged.  For M of positive rank the base B
    must have rank 1 (tensor powers are then plain k-tensor powers); general
    base algebras would need presented quotient modules, out of desk scope.
    """
    if degree_cap < 1:
        raise AlgebraError("degree cap must be at least 1")
    if M.algebra != B:
        raise AlgebraError("the bimodule must live over the base algebra")
    if M.rank == 0:
        return B
    if B.rank != 1 or not B.has_unital_basis:
        raise AlgebraError("positive-rank coefficients require the rank-1 base algebra k")
    ring = B.ring
    m = M.rank
    ranks = [1] + [m**n for n in range(1, degree_cap + 1)]
    total = sum(ranks)
    if guard is not None and total**3 > guard:
        raise SizeGuardError(f"truncated tensor algebra of rank {total} exceeds the guard")
    offsets = [0]
    for r in ranks[:-1]:
        offsets.append(offsets[-1] + r)
    z, one = ring.zero, ring.one
    mul = [z] * total**3

    def put(i, j, k, v):
        mul[(i * total + j) * total + k] = ring.canon(v)

    for deg_a in range(degree_cap + 1):
        for ia in range(ranks[deg_a]):
            i = offsets[deg_a] + ia
            for deg_b in range(degree_cap + 1):
                for ib in range(ranks[deg_b]):
                    j = offsets[deg_b] + ib
                    deg = deg_a + deg_b
                    if deg > degree_cap:
                        continue  # truncated to zero
                    if deg_a == 0:
                        put(i, j, offsets[deg_b] + ib, one)
                    elif deg_b == 0:
                        put(i, j, offsets[deg_a] + ia, one)
                    else:
                        put(i, j, offsets[deg] + ia * ranks[deg_b] + ib, one)
    names = [B.basis_names[0]]
    for n in range(1, degree_cap + 1):
        for t in range(m**n):
            idx = []
            tt = t
            for _ in range(n):
                idx.append(tt % m)
                tt //= m
            idx.reverse()
            names.append("*".join(f"t{q}" for q in idx))
    unit = [z] * total
    unit[0] = one
    return validate_algebra(ring, total, names, unit, mul)
