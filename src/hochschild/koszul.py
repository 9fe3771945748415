"""Koszul complexes, regular sequences, and Tor / flat-dimension certificates.

Two settings share the machinery: finite-rank commutative algebras acting on
finitely presented coefficient modules, and graded polynomial rings handled
degree by degree under a cap (each graded piece is honest finite
linear algebra; infinite-rank modules are never represented).  Both build
the terms wedge^i (x) P_i as presented modules and the differentials with
one block assembler, and read Tor through one homology loop, which first
prunes each term: the generators at unit pivots of its relations split off.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from itertools import combinations, pairwise
from math import comb

from .algebra import AlgebraError, FiniteAlgebra, act, left_mult_matrix
from .matrix import (
    DEFAULT_GUARD,
    ContainmentError,
    KModuleInvariants,
    Matrix,
    check_guard,
    cokernel_invariants,
    column_span_basis,
    coords_in_span,
    induced_kernel_generators,
    prune,
    subquotient_invariants,
)
from .rings import ZZ, ScalarRing


# ---------------------------------------------------------------------------
# exterior structure
# ---------------------------------------------------------------------------


def koszul_sign_pattern(d: int, n: int) -> list[tuple[int, int, int, int]]:
    """(target_index, source_index, sign, variable) entries of the n-th differential.

    Exterior bases are the sorted subsets of {0..d-1} in lexicographic order.
    The source basis element e_{i1} ^ ... ^ e_{in} maps to the alternating sum
    over j of (-1)^(j+1) x_{ij} times the wedge with e_{ij} omitted.
    """
    dst_index = {T: i for i, T in enumerate(combinations(range(d), n - 1))}
    return [
        (dst_index[S[:j] + S[j + 1 :]], ci, 1 if j % 2 == 0 else -1, var)  # (-1)^(j+1) with j one-based
        for ci, S in enumerate(combinations(range(d), n))
        for j, var in enumerate(S)
    ]


# ---------------------------------------------------------------------------
# finitely presented modules over a commutative finite-rank algebra
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PresentedModule:
    """Module given by generators, relations, and basis-element action matrices."""

    algebra: FiniteAlgebra
    generators: int
    relations: Matrix  # generators x (number of relations)
    action: tuple[Matrix, ...]

    def invariants(self) -> KModuleInvariants:
        return cokernel_invariants(self.relations)


def free_module(A: FiniteAlgebra) -> PresentedModule:
    """A itself as a module over A (left multiplication)."""
    return PresentedModule(
        A,
        A.rank,
        Matrix.zeros(A.ring, A.rank, 0),
        tuple(left_mult_matrix(A, i) for i in range(A.rank)),
    )


def presented_module(A: FiniteAlgebra, generators: int, relations: Matrix, action) -> PresentedModule:
    """Validate that the action respects relations, the unit and products."""
    if not A.is_commutative:
        raise AlgebraError("Koszul machinery requires a commutative algebra")
    M = PresentedModule(A, generators, relations, tuple(action))
    rel_basis = column_span_basis(relations)
    I = Matrix.identity(A.ring, generators)
    _require_contained(act(M.action, A.unit) - I, rel_basis, "unit action")
    for i in range(A.rank):
        _require_contained(M.action[i] * relations, rel_basis, f"action {i} on relations")
        for j in range(A.rank):
            prod = act(M.action, A.product_column(i, j))
            _require_contained(M.action[i] * M.action[j] - prod, rel_basis, f"action pair ({i},{j})")
    return M


def _require_contained(cols: Matrix, rel_basis: Matrix, what: str) -> None:
    """Raise AlgebraError unless every column of cols lies in the span of the relations."""
    try:
        coords_in_span(rel_basis, cols)
    except ContainmentError as exc:
        raise AlgebraError(f"{what} is not well defined modulo the relations") from exc


def quotient_by_element(M: PresentedModule, x) -> PresentedModule:
    """M / xM: same generators, relations enlarged by the image of x."""
    X = act(M.action, x)
    return PresentedModule(M.algebra, M.generators, M.relations.hstack(X), M.action)


@dataclass(frozen=True)
class RegularElementReport:
    injective: bool
    surjective: bool
    cokernel: KModuleInvariants

    @property
    def regular(self) -> bool:
        return self.injective and not self.surjective


def regular_element_check(M: PresentedModule, x) -> RegularElementReport:
    """x is regular on M when multiplication by x is injective and not surjective."""
    X, R = act(M.action, x), M.relations
    injective = homology_of_presented(Matrix.zeros(R.ring, R.rows, 0), X, R, R).is_zero  # 0 -> M -> M at M
    coker = cokernel_invariants(R.hstack(X))
    return RegularElementReport(injective, coker.is_zero, coker)


@dataclass(frozen=True)
class RegularSequenceReport:
    ok: bool
    failing_index: int | None  # 1-based, None when the sequence is regular
    reason: str | None
    steps: tuple[RegularElementReport, ...]


def regular_sequence_check(M: PresentedModule, xs) -> RegularSequenceReport:
    """Check x_i regular on M/(x_1..x_(i-1))M successively; empty sequences pass."""
    current = M
    steps = []
    for idx, x in enumerate(xs, start=1):
        rep = regular_element_check(current, x)
        steps.append(rep)
        if not rep.regular:
            reason = "not injective" if not rep.injective else "surjective"
            return RegularSequenceReport(False, idx, reason, tuple(steps))
        current = quotient_by_element(current, x)
    return RegularSequenceReport(True, None, None, tuple(steps))


# ---------------------------------------------------------------------------
# Koszul differentials and homology of presented complexes
# ---------------------------------------------------------------------------


def _actions(M: PresentedModule, xs) -> list[Matrix]:
    """The actions of x_1..x_d on M: the blocks of every Koszul differential on M.

    An empty sequence builds no differential, so it is accepted over any algebra.
    """
    if xs and not M.algebra.is_commutative:
        raise AlgebraError("Koszul complexes need a commutative algebra")
    return [act(M.action, list(x)) for x in xs]


def koszul_differential(M: PresentedModule, xs, n: int, guard: int | None = DEFAULT_GUARD) -> Matrix:
    """The n-th Koszul differential on wedge^n (x) M, as one block matrix.

    Blocks follow koszul_sign_pattern; each block is +-(action of x_j).
    """
    blocks = _actions(M, xs)
    if not 1 <= n <= len(blocks):
        raise ValueError("exterior degree out of range")
    return _block_differential(n, blocks, guard)


def _block_differential(n: int, blocks: list[Matrix], guard: int | None) -> Matrix:
    """The n-th differential with block (ti, ci) = sign * blocks[var], over len(blocks) variables.

    The blocks share one shape: they map the piece under wedge^n to the piece
    under wedge^(n-1).
    """
    d, X = len(blocks), blocks[0]
    rows, cols = comb(d, n - 1) * X.rows, comb(d, n) * X.cols
    check_guard(rows, cols, guard)
    triplets = (
        (ti * X.rows + r, ci * X.cols + c, v if sign > 0 else -v)
        for ti, ci, sign, var in koszul_sign_pattern(d, n)
        for c, col in enumerate(blocks[var].columns)
        for r, v in col
    )
    return Matrix.from_triplets(X.ring, rows, cols, triplets)


def homology_of_presented(
    incoming: Matrix, outgoing: Matrix, relations_mid: Matrix, relations_out: Matrix
) -> KModuleInvariants:
    """Homology at the middle of  F' --incoming--> F --outgoing--> F''  where
    every term is generators-modulo-relations (relations map to relations).
    Only invariants are read, so neither cycles nor boundaries are normalized."""
    cycles = induced_kernel_generators(outgoing, relations_out).hstack(relations_mid)
    return subquotient_invariants(cycles, incoming.hstack(relations_mid))


def _koszul_homology(relations: list[Matrix], blocks: list[list[Matrix]], guard: int | None) -> list[KModuleInvariants]:
    """Homology of the complex wedge^i (x) P_i, i = 0..d, with d = len(blocks).

    P_i is the rows of relations[i] modulo its columns, and blocks[i - 1] are
    the d maps P_i -> P_(i-1) that d_i is assembled from (see
    _block_differential).  Every differential passes the guard on its unpruned
    shape first; then each P_i is pruned once and each block X becomes
    pi_(i-1) X sigma_i, an isomorphic complex on the kept generators (a zero
    block, not a product, when either term keeps no generator).
    """
    d, ring = len(blocks), relations[0].ring
    for n, bs in enumerate(blocks, 1):
        check_guard(comb(d, n - 1) * bs[0].rows, comb(d, n) * bs[0].cols, guard)
    pis, sigmas, relations = zip(*map(prune, relations))
    blocks = [
        [pi * (X * sigma) if pi.rows and sigma.cols else Matrix.zeros(ring, pi.rows, sigma.cols) for X in bs]
        for pi, sigma, bs in zip(pis, sigmas[1:], blocks)
    ]
    diffs = [Matrix.zeros(ring, 0, relations[0].rows)]
    diffs += [_block_differential(n, bs, None) for n, bs in enumerate(blocks, 1)]
    diffs.append(Matrix.zeros(ring, relations[d].rows, 0))
    rels = [Matrix.zeros(ring, 0, 0)] + [Matrix.identity(ring, comb(d, i)).kron(R) for i, R in enumerate(relations)]
    return [homology_of_presented(diffs[i + 1], diffs[i], rels[i + 1], rels[i]) for i in range(d + 1)]


@dataclass(frozen=True)
class FiniteTorReport:
    tor: tuple[KModuleInvariants, ...]  # degrees 0..d
    fd_certificate: int  # largest degree with nonzero Tor


def finite_koszul_tor(A: FiniteAlgebra, xs, M: PresentedModule, guard: int | None = DEFAULT_GUARD) -> FiniteTorReport:
    """Tor_i(A/(x_1..x_d), M) through the Koszul resolution, i = 0..d.

    The sequence must be regular on A itself: otherwise the complex is not a
    resolution of the quotient and the computation would be meaningless, so
    it is refused.
    """
    xs = [list(x) for x in xs]
    reg = regular_sequence_check(free_module(A), xs)
    if not reg.ok:
        raise AlgebraError(
            f"the sequence is not regular on the algebra (fails at index {reg.failing_index}: {reg.reason}); "
            "the Koszul complex is only a resolution for regular sequences"
        )
    tor = _koszul_homology([M.relations] * (len(xs) + 1), [_actions(M, xs)] * len(xs), guard)
    fd = max((i for i, t in enumerate(tor) if not t.is_zero), default=0)
    return FiniteTorReport(tuple(tor), fd)


# ---------------------------------------------------------------------------
# graded polynomial rings, degree by degree
# ---------------------------------------------------------------------------


def _multiplication_maps(v: int, ring: ScalarRing, degree: int) -> list[Matrix]:
    """Multiplication by x_0, ..., x_(v-1) from degree to degree + 1 in k[x_0..x_(v-1)] (0/1 matrices).

    A monomial is its exponent vector, the gaps between the v - 1 bars of a
    stars and bars word; degrees list monomials in descending degrevlex order
    (ascending reversed vectors), and negative degrees are 0.
    """
    src, dst = (
        sorted(
            (tuple(b - a - 1 for a, b in pairwise((-1, *bars, n))) for bars in combinations(range(n), v - 1)),
            key=lambda m: m[::-1],
        )
        if n >= v - 1
        else []
        for n in (degree + v - 1, degree + v)
    )
    row = {m: i for i, m in enumerate(dst)}
    return [
        Matrix.from_triplets(
            ring, len(dst), len(src), ((row[(*m[:j], m[j] + 1, *m[j + 1 :])], c, ring.one) for c, m in enumerate(src))
        )
        for j in range(v)
    ]


@dataclass(frozen=True)
class GradedTorReport:
    variables: int
    cap: int
    by_degree: tuple[tuple[tuple[int, KModuleInvariants], ...], ...]  # [i] -> ((e, invs), ...)
    tor: tuple[KModuleInvariants, ...]  # aggregated over internal degrees
    fd_certificate: int


def _aggregate(invs: list[KModuleInvariants]) -> KModuleInvariants:
    """The direct sum: free ranks add, torsion is the invariant-factor chain of diag(t_1, ..., t_k)."""
    factors = [t for i in invs for t in i.torsion]
    diag = Matrix.from_triplets(ZZ, len(factors), len(factors), ((k, k, t) for k, t in enumerate(factors)))
    return KModuleInvariants(sum(i.free_rank for i in invs), cokernel_invariants(diag).torsion)


def graded_koszul_tor(variables: int, ring: ScalarRing, cap: int, guard: int | None = DEFAULT_GUARD) -> GradedTorReport:
    """Tor of the residue module (all variables act by zero) over k[x_1..x_v].

    The Koszul complex on the full variable sequence is processed one
    internal degree e at a time: its term i is wedge^i (x) S_(e-i) modulo the
    ideal (x_1..x_v) acting on S_(e-i-1), a presented module, so its homology
    is exact linear algebra; pruned, that piece is k for e = i and 0 otherwise.
    Certifies the flat dimension v: Tor_v is free of rank 1 and Tor_(v+1)
    vanishes (the complex has length v).
    """
    v = variables
    if v < 1:
        raise ValueError("need at least one variable")
    if cap < v:
        raise ValueError(f"degree cap {cap} is too small to certify the top Tor; need >= {v}")
    for n in range(1, v + 1):  # refuse before any work, naming the first d_n(e) too large, n then e ascending
        for e in range(n, cap + 1):
            check_guard(comb(v, n - 1) * comb(e - n + v, v - 1), comb(v, n) * comb(e - n + v - 1, v - 1), guard)
    maps = {k: _multiplication_maps(v, ring, k) for k in range(-v - 1, -1)}  # maps[k] leaves degree k
    per_e = []
    for e in range(cap + 1):  # degree e reads maps[e - v - 1] .. maps[e - 1]
        maps[e - 1] = _multiplication_maps(v, ring, e - 1)
        maps.pop(e - v - 2, None)
        relations = [reduce(Matrix.hstack, maps[e - i - 1]) for i in range(v + 1)]
        per_e.append(_koszul_homology(relations, [maps[e - i] for i in range(1, v + 1)], guard))
    by_degree = [tuple((e, h[i]) for e, h in enumerate(per_e) if not h[i].is_zero) for i in range(v + 1)] + [()]
    tor = [_aggregate([h[i] for h in per_e]) for i in range(v + 1)] + [KModuleInvariants(0)]
    fd = max((i for i, t in enumerate(tor) if not t.is_zero), default=0)
    return GradedTorReport(v, cap, tuple(by_degree), tuple(tor), fd)


# ---------------------------------------------------------------------------
# the assembled lower bound
# ---------------------------------------------------------------------------


BASE_GLOBAL_DIMENSION = {"Z": 1, "Q": 0, "Fp": 0}


def base_global_dimension(ring: ScalarRing) -> int:
    """Global dimension of the supported base rings (fields: 0, Z: 1)."""
    return BASE_GLOBAL_DIMENSION[ring.kind]


@dataclass(frozen=True)
class LowerBoundReport:
    fd: int
    base_dim: int
    fd_base: int
    bound: int
    not_quasi_free: bool
    inequality: str


def hcdim_lower_bound(fd: int, base_dim: int, fd_base: int = 0) -> LowerBoundReport:
    """Assemble fd - D(k) - fd_k <= HCdim and flag non-quasi-freeness.

    Quasi-free means cohomological dimension at most 1, so a bound of 2 or
    more rules it out.  The inputs are certified elsewhere (Koszul for fd,
    the built-in table for D(k)); this is the arithmetic of the chain.
    """
    if min(fd, base_dim, fd_base) < 0:
        raise ValueError("dimension inputs must be nonnegative")
    bound = max(fd - base_dim - fd_base, 0)
    return LowerBoundReport(
        fd,
        base_dim,
        fd_base,
        bound,
        bound >= 2,
        f"HCdim >= {fd} - {base_dim} - {fd_base} = {fd - base_dim - fd_base}",
    )
