"""Independent routes that the tests compare the shipped ones against.

The first three share no assembly code with the route they check:

* relative_ext_resolution reads relative Ext^n(M, N) off the split
  resolution A^(x)n (x) M of M, with its own coboundary builder, where
  the package reads it as HH^n(A, Hom_k(M, N));
* intertwiners stacks the equations action_M(a) F = F action_N(a) by
  hand, where the package reads Hom_A(N, M) as center(A, hom_bimodule(N, M));
* ae_right_action is the right action of the enveloping algebra induced
  on a bimodule.

unpruned_koszul_homology is the Koszul homology loop with every term kept
as generators modulo all of its relations.  It shares the differential
assembler and the presented homology with the package, so it checks the
pruning of the terms alone.

unseeded_homology is homology at a spot with the kernel of the outgoing map
computed whole, with no rows seeded from the incoming image.  It shares the
quotient step with the package, so it checks the seeding alone.

Not collected by pytest (the name does not start with test_); test
modules import it by name.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb

from hochschild.algebra import AlgebraError, Bimodule, FiniteAlgebra, LeftModule
from hochschild.bar import _tensor_tuples
from hochschild.cohomology import _as_left_module
from hochschild.koszul import _block_differential, homology_of_presented
from hochschild.matrix import (
    DEFAULT_GUARD,
    KModuleInvariants,
    Matrix,
    _quotient_of_basis,
    check_guard,
    homology_invariants,
    kernel_basis,
)

# ---------------------------------------------------------------------------
# relative Ext from the split resolution of M
# ---------------------------------------------------------------------------


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
    return homology_invariants(dn, B)


# ---------------------------------------------------------------------------
# Hom_A and the enveloping algebra
# ---------------------------------------------------------------------------


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


def ae_right_action(M: Bimodule) -> tuple[Matrix, ...]:
    """The induced right action of enveloping(A): m . (a (x) b) = (b (x) a) . m."""
    A = M.algebra
    out = []
    for i in range(A.rank):
        for j in range(A.rank):
            out.append(M.left[j] * M.right[i])
    return tuple(out)


# ---------------------------------------------------------------------------
# Koszul homology without pruning
# ---------------------------------------------------------------------------


def unpruned_koszul_homology(
    relations: list[Matrix], blocks: list[list[Matrix]], guard: int | None
) -> list[KModuleInvariants]:
    """Homology of the complex wedge^i (x) P_i, i = 0..d, with d = len(blocks).

    P_i is the rows of relations[i] modulo its columns, and blocks[i - 1] are
    the d maps P_i -> P_(i-1) that d_i is assembled from (see
    _block_differential).  Every differential passes the guard before any
    term's relations are built.
    """
    d, ring = len(blocks), relations[0].ring
    diffs = [Matrix.zeros(ring, 0, relations[0].rows)]
    diffs += [_block_differential(n, bs, guard) for n, bs in enumerate(blocks, 1)]
    diffs.append(Matrix.zeros(ring, relations[d].rows, 0))
    rels = [Matrix.zeros(ring, 0, 0)] + [Matrix.identity(ring, comb(d, i)).kron(R) for i, R in enumerate(relations)]
    return [homology_of_presented(diffs[i + 1], diffs[i], rels[i + 1], rels[i]) for i in range(d + 1)]


# ---------------------------------------------------------------------------
# homology at a spot without seeding
# ---------------------------------------------------------------------------


def unseeded_homology(outgoing: Matrix, incoming: Matrix) -> tuple[KModuleInvariants, list[Matrix]]:
    """ker(outgoing) / im(incoming): the whole kernel basis, then the quotient step."""
    return _quotient_of_basis(kernel_basis(outgoing), incoming)
