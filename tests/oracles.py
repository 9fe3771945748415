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

class_space_by_hand is the space of extension classes over F_p as
enumerate_extension_classes read it before it took the generators of
homology(b^2, b^1): the cocycles of a kernel basis, each less its image
part at the leads of the RREF basis of im b^1, brought to RREF.  It shares
kernel_basis and column_span_basis with the package, not the seeded
elimination of homology.

separable_primitive is the primitive x(a_1..a_n) = sum_i p_i f(q_i, a_1..a_n)
of a syzygy class f, assembled from f and the left action of the syzygy,
as omega_is_projective read it before it took x off the boundaries of the
chains e (x) t (x) 1 (bar.syzygy_class with an idempotent).  It shares
syzygy_class without e, which builds f, and nothing else.

_homology_boundary is the cyclic bar boundary C_k(A, M) -> C_(k-1)(A, M)
assembled directly.  It shares _boundary_triplets with the package, but not
the dual bimodule, the rows of b^n or the universal-coefficient step by
which hochschild_homology reads HH_n off the coboundaries of M^*.

Not collected by pytest (the name does not start with test_); test
modules import it by name.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb

from hochschild.algebra import AlgebraError, Bimodule, FiniteAlgebra, LeftModule
from hochschild.bar import SyzygyModule, _boundary_triplets, _letter_inclusion, _letters, _tensor_tuples
from hochschild.cohomology import _as_left_module, coboundary_matrix
from hochschild.koszul import _block_differential, homology_of_presented
from hochschild.matrix import (
    DEFAULT_GUARD,
    KModuleInvariants,
    Matrix,
    _quotient_of_basis,
    check_guard,
    column_span_basis,
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


# ---------------------------------------------------------------------------
# the extension class space, read by hand
# ---------------------------------------------------------------------------


def class_space_by_hand(A: FiniteAlgebra, M: Bimodule, guard: int | None = DEFAULT_GUARD) -> Matrix:
    """The RREF of the 2-cocycles that vanish at the leads of im b^1, over F_p.

    The basis `image` of B^2 is a reduced echelon form, so the least member of
    the class of v is v - image * v[leads], linear in v; on a basis of the
    cocycles ker b^2 this map spans the class space.
    """
    ring = A.ring
    cocycles = kernel_basis(coboundary_matrix(A, M, 2, False, guard))
    image = column_span_basis(coboundary_matrix(A, M, 1, False, guard))
    at_leads = Matrix.identity(ring, image.rows).submatrix_cols([col[0][0] for col in image.columns]).transpose()
    return column_span_basis(cocycles - image * (at_leads * cocycles))


# ---------------------------------------------------------------------------
# the cyclic bar boundary, assembled directly
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _homology_boundary(A: FiniteAlgebra, M: Bimodule, k: int, normalized: bool) -> Matrix:
    """The cyclic bar boundary on M (x) A^(x)k, or on M (x) Abar^(x)k when normalized."""
    width = len(_letters(A, normalized))
    triplets = _boundary_triplets(A, M, k, normalized)
    return Matrix.from_triplets(A.ring, M.rank * width ** (k - 1), M.rank * width**k, triplets)


# ---------------------------------------------------------------------------
# the separable primitive, assembled from the class
# ---------------------------------------------------------------------------


def separable_primitive(A: FiniteAlgebra, om_next: SyzygyModule, e: Matrix, f: Matrix) -> Matrix:
    """The primitive x(a_1..a_n) = sum_i p_i f(q_i, a_1, ..., a_n) of f for e = sum_i p_i (x) q_i.

    With mu(e) = 1 and a e = e a, b^n x = f for every cocycle f (the
    standard proof that HH^(>=1) vanishes for separable A).  The unit
    component of q_i is dropped in the normalized complex, where f vanishes
    on the unit.
    """
    d, m, ring = A.rank, om_next.rank, A.ring
    J = _letter_inclusion(A, om_next.normalized)
    T = J.cols ** (om_next.level - 1)
    C = (e.reshape(d, d) * J).transpose()
    # column (j, t) of G is sum_k c_jk f(e_k, t)
    G = f.reshape(m, J.cols * T) * C.kron(Matrix.identity(ring, T))
    x = Matrix.zeros(ring, m, T)
    for j in range(d):
        x = x + om_next.left[j] * G.submatrix_cols(range(j * T, (j + 1) * T))
    return x.reshape(m * T, 1)
