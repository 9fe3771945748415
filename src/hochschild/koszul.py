"""Koszul complexes, regular sequences, and Tor / flat-dimension certificates.

Two settings share the machinery: finite-rank commutative algebras acting on
finitely presented coefficient modules, and graded polynomial rings handled
degree by degree under a cap (each graded piece is honest finite
linear algebra; infinite-rank modules are never represented).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
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
    kernel_basis,
    subquotient_invariants,
)
from .rings import ZZ, ScalarRing


# ---------------------------------------------------------------------------
# exterior structure
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExteriorBasis:
    """The C(d, n) sorted n-subsets of {0..d-1} in lexicographic order."""

    d: int
    n: int
    subsets: tuple[tuple[int, ...], ...]

    @staticmethod
    def of(d: int, n: int) -> "ExteriorBasis":
        return ExteriorBasis(d, n, tuple(combinations(range(d), n)))

    def index(self, subset: tuple[int, ...]) -> int:
        return self.subsets.index(subset)

    def __len__(self) -> int:
        return len(self.subsets)


def koszul_sign_pattern(d: int, n: int) -> list[tuple[int, int, int, int]]:
    """(target_index, source_index, sign, variable) entries of the n-th differential.

    The source basis element e_{i1} ^ ... ^ e_{in} maps to the alternating sum
    over j of (-1)^(j+1) x_{ij} times the wedge with e_{ij} omitted.
    """
    src = ExteriorBasis.of(d, n)
    dst = ExteriorBasis.of(d, n - 1)
    dst_index = {s: i for i, s in enumerate(dst.subsets)}
    out = []
    for ci, S in enumerate(src.subsets):
        for j, var in enumerate(S):
            sign = 1 if j % 2 == 0 else -1  # (-1)^(j+1) with j one-based
            T = S[:j] + S[j + 1 :]
            out.append((dst_index[T], ci, sign, var))
    return out


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


def _induced_kernel_generators(X: Matrix, relations: Matrix) -> Matrix:
    """Generators of {v : X v lies in the relation span} (the induced kernel)."""
    stacked = X.hstack(relations) if relations.cols else X
    K = kernel_basis(stacked)
    top = X.cols  # the first X.cols coordinates of each kernel vector
    triplets = ((i, j, v) for j, col in enumerate(K.columns) for i, v in col if i < top)
    return Matrix.from_triplets(X.ring, top, K.cols, triplets)


def regular_element_check(M: PresentedModule, x) -> RegularElementReport:
    """x is regular on M when multiplication by x is injective and not surjective."""
    X = act(M.action, x)
    ker_gens = _induced_kernel_generators(X, M.relations)
    amb = M.relations.hstack(ker_gens)
    injective = subquotient_invariants(amb, M.relations).is_zero
    coker = cokernel_invariants(M.relations.hstack(X))
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


def koszul_differential(
    M: PresentedModule, xs, n: int, guard: int | None = DEFAULT_GUARD
) -> Matrix:
    """The n-th Koszul differential on wedge^n (x) M, as one block matrix.

    Blocks follow koszul_sign_pattern; each block is +-(action of x_j).
    """
    A = M.algebra
    if not A.is_commutative:
        raise AlgebraError("Koszul complexes need a commutative algebra")
    xs = [list(x) for x in xs]
    d = len(xs)
    if not 1 <= n <= d:
        raise ValueError("exterior degree out of range")
    g = M.generators
    rows = comb(d, n - 1) * g
    cols = comb(d, n) * g
    check_guard(rows, cols, guard)
    acts = [act(M.action, x) for x in xs]
    return Matrix.from_triplets(A.ring, rows, cols, _block_triplets(koszul_sign_pattern(d, n), acts))


def _block_triplets(pattern, blocks):
    """Triplets of the block matrix with block (ti, ci) = sign * blocks[var]."""
    for ti, ci, sign, var in pattern:
        X = blocks[var]
        for c, col in enumerate(X.columns):
            for r, v in col:
                yield ti * X.rows + r, ci * X.cols + c, v if sign > 0 else -v


def homology_of_presented(
    incoming: Matrix, outgoing: Matrix, relations_mid: Matrix, relations_out: Matrix
) -> KModuleInvariants:
    """Homology at the middle of  F' --incoming--> F --outgoing--> F''  where
    every term is generators-modulo-relations (relations map to relations)."""
    cyc = _induced_kernel_generators(outgoing, relations_out)
    Z = cyc.hstack(relations_mid)
    B = incoming.hstack(relations_mid)
    return subquotient_invariants(Z, B)


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
    d = len(xs)
    reg = regular_sequence_check(free_module(A), xs)
    if not reg.ok:
        raise AlgebraError(
            f"the sequence is not regular on the algebra (fails at index {reg.failing_index}: {reg.reason}); "
            "the Koszul complex is only a resolution for regular sequences"
        )
    diffs = {n: koszul_differential(M, xs, n, guard) for n in range(1, d + 1)}
    g = M.generators
    ring = A.ring

    def rel_at(i: int) -> Matrix:
        blocks = comb(d, i)
        if blocks == 0:
            return Matrix.zeros(ring, 0, 0)
        return Matrix.identity(ring, blocks).kron(M.relations) if M.relations.cols else Matrix.zeros(
            ring, blocks * g, 0
        )

    tor = []
    for i in range(d + 1):
        outgoing = diffs[i] if i >= 1 else Matrix.zeros(ring, 0, g)
        rel_out = rel_at(i - 1) if i >= 1 else Matrix.zeros(ring, 0, 0)
        incoming = diffs[i + 1] if i + 1 <= d else Matrix.zeros(ring, comb(d, i) * g, 0)
        tor.append(homology_of_presented(incoming, outgoing, rel_at(i), rel_out))
    fd = max((i for i, t in enumerate(tor) if not t.is_zero), default=0)
    return FiniteTorReport(tuple(tor), fd)


# ---------------------------------------------------------------------------
# graded polynomial rings, degree by degree
# ---------------------------------------------------------------------------


def _monomials(v: int, degree: int) -> list[tuple[int, ...]]:
    """Exponent vectors of total degree `degree`, in descending degrevlex order."""
    if degree < 0:
        return []
    out = []

    def rec(prefix, remaining, slots):
        if slots == 1:
            out.append(tuple(prefix + [remaining]))
            return
        for e in range(remaining, -1, -1):
            rec(prefix + [e], remaining - e, slots - 1)

    rec([], degree, v)
    # within one degree, descending degrevlex = ascending reversed exponent tuples
    out.sort(key=lambda m: tuple(reversed(m)))
    return out


@dataclass(frozen=True)
class GradedPolyModule:
    """Degreewise model of k[x_1..x_v] up to a degree cap."""

    variables: int
    ring: ScalarRing
    cap: int

    def basis(self, degree: int) -> list[tuple[int, ...]]:
        if degree > self.cap:
            raise ValueError("degree exceeds the cap")
        return _monomials(self.variables, degree)

    def multiplication_map(self, var: int, degree: int) -> Matrix:
        """Multiplication by x_var from degree to degree + 1 (a 0/1 matrix)."""
        src = self.basis(degree)
        dst = self.basis(degree + 1)
        dst_index = {m: i for i, m in enumerate(dst)}
        cols = []
        for mono in src:
            bumped = list(mono)
            bumped[var] += 1
            cols.append(((dst_index[tuple(bumped)], self.ring.one),))
        return Matrix(self.ring, len(dst), len(src), cols)


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


def graded_koszul_tor(
    variables: int, ring: ScalarRing, cap: int, guard: int | None = DEFAULT_GUARD
) -> GradedTorReport:
    """Tor of the residue module (all variables act by zero) over k[x_1..x_v].

    The Koszul complex on the full variable sequence is processed one
    internal degree at a time; each graded piece is a presented module and
    its homology is exact linear algebra.  Certifies the flat dimension v:
    Tor_v is free of rank 1 and Tor_(v+1) vanishes (the complex has length v).
    """
    v = variables
    if v < 1:
        raise ValueError("need at least one variable")
    if cap < v:
        raise ValueError(f"degree cap {cap} is too small to certify the top Tor; need >= {v}")
    P = GradedPolyModule(v, ring, cap + 1)
    pattern = {n: koszul_sign_pattern(v, n) for n in range(1, v + 1)}

    def free_rank_at(i: int, e: int) -> int:
        mono = e - i
        return comb(v, i) * (comb(mono + v - 1, v - 1) if mono >= 0 else 0)

    def mono_count(e: int) -> int:
        return comb(e + v - 1, v - 1) if e >= 0 else 0

    def differential(i: int, e: int) -> Matrix:
        src_m = mono_count(e - i)
        dst_m = mono_count(e - i + 1)
        rows = comb(v, i - 1) * dst_m
        cols = comb(v, i) * src_m
        check_guard(rows, cols, guard)
        if not (src_m and dst_m):
            return Matrix.zeros(ring, rows, cols)
        mult = [P.multiplication_map(j, e - i) for j in range(v)]
        return Matrix.from_triplets(ring, rows, cols, _block_triplets(pattern[i], mult))

    def relations(i: int, e: int) -> Matrix:
        # the ideal (x_1..x_v) acting on the graded piece below
        cols_m = mono_count(e - i - 1)
        rows_m = mono_count(e - i)
        blocks = comb(v, i)
        if blocks == 0 or rows_m == 0 or cols_m == 0:
            return Matrix.zeros(ring, blocks * rows_m, 0)
        I = Matrix.identity(ring, blocks)
        stacked = None
        for j in range(v):
            block = I.kron(P.multiplication_map(j, e - i - 1))
            stacked = block if stacked is None else stacked.hstack(block)
        return stacked

    by_degree = []
    aggregated = []
    for i in range(v + 2):
        per_degree = []
        invs_list = []
        for e in range(cap + 1):
            if i > v:
                continue
            F_rank = free_rank_at(i, e)
            if F_rank == 0:
                continue
            outgoing = differential(i, e) if i >= 1 else Matrix.zeros(ring, 0, F_rank)
            rel_out = relations(i - 1, e) if i >= 1 else Matrix.zeros(ring, 0, 0)
            incoming = (
                differential(i + 1, e)
                if i + 1 <= v and free_rank_at(i + 1, e) > 0
                else Matrix.zeros(ring, F_rank, 0)
            )
            h = homology_of_presented(incoming, outgoing, relations(i, e), rel_out)
            if not h.is_zero:
                per_degree.append((e, h))
            invs_list.append(h)
        by_degree.append(tuple(per_degree))
        aggregated.append(_aggregate(invs_list))
    fd = max((i for i, t in enumerate(aggregated) if not t.is_zero), default=0)
    return GradedTorReport(v, cap, tuple(by_degree), tuple(aggregated), fd)


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
