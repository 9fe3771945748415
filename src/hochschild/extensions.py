"""Square-zero extensions: cocycle data, crossed products, classes, lifting.

An extension of A by a bimodule M is presented by its total algebra B
together with a projection, an inclusion of M as a square-zero ideal and a
chosen k-linear section of the projection; extensions are always k-split
by construction here, so every class is the class of some bilinear datum.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from .algebra import (
    AlgebraError,
    Bimodule,
    FiniteAlgebra,
    validate_algebra,
)
from .cohomology import coboundary_matrix
from .matrix import (
    Matrix,
    SizeGuardError,
    column_span_basis,
    coords_in_span,
    kernel_basis,
    solve,
)


@dataclass(frozen=True)
class TwoCochain:
    """A bilinear map A (x) A -> M as an m x d^2 matrix (row-major pairs)."""

    algebra: FiniteAlgebra
    bimodule: Bimodule
    matrix: Matrix

    def __post_init__(self):
        d = self.algebra.rank
        if (self.matrix.rows, self.matrix.cols) != (self.bimodule.rank, d * d):
            raise AlgebraError("two-cochain matrix must be rank(M) x rank(A)^2")

    def value(self, i: int, j: int) -> Matrix:
        """B(e_i, e_j) as an M-coefficient column."""
        return self.matrix.submatrix_cols((i * self.algebra.rank + j,))

    def value_on(self, a, b) -> Matrix:
        """B(a, b) for coefficient vectors a and b, as an M-coefficient column."""
        return self.matrix * Matrix.column(self.algebra.ring, [ai * bj for ai in a for bj in b])

    def as_vector(self) -> Matrix:
        return self.matrix.reshape(self.matrix.rows * self.matrix.cols, 1)


def zero_two_cochain(A: FiniteAlgebra, M: Bimodule) -> TwoCochain:
    return TwoCochain(A, M, Matrix.zeros(A.ring, M.rank, A.rank**2))


def two_cochain_from_vector(A: FiniteAlgebra, M: Bimodule, vec) -> TwoCochain:
    return TwoCochain(A, M, Matrix.column(A.ring, vec).reshape(M.rank, A.rank**2))


def is_two_cocycle(B: TwoCochain) -> tuple[bool, tuple[int, int, int] | None]:
    """Check a B(a', a'') - B(aa', a'') + B(a, a'a'') - B(a, a')a'' = 0 on basis triples.

    The left side is b^2 B; returns (verdict, witness), the witness being the
    first violating triple in row-major order.
    """
    A = B.algebra
    d = A.rank
    image = coboundary_matrix(A, B.bimodule, 2, False, guard=None) * B.as_vector()
    if image.is_zero:
        return True, None
    s = min(row % d**3 for row, _ in image.columns[0])  # row q * d^3 + (i d + j) d + l
    return False, (s // d**2, s // d % d, s % d)


def _basis_vec(A: FiniteAlgebra, i: int) -> list:
    return [A.ring.one if t == i else A.ring.zero for t in range(A.rank)]


@dataclass(frozen=True)
class ExtensionPresentation:
    """Total algebra with projection, square-zero inclusion, and k-section."""

    algebra: FiniteAlgebra  # the quotient A
    bimodule: Bimodule  # the kernel M with its induced actions
    total: FiniteAlgebra  # B, of rank d + m
    projection: Matrix  # d x (d+m)
    inclusion: Matrix  # (d+m) x m
    section: Matrix  # (d+m) x d


def validate_extension(E: ExtensionPresentation) -> ExtensionPresentation:
    """Verify exactness, the square-zero ideal property and the section laws."""
    A, M, B = E.algebra, E.bimodule, E.total
    ring = A.ring
    d, m = A.rank, M.rank
    if B.rank != d + m:
        raise AlgebraError("total algebra rank must be rank(A) + rank(M)")
    if (E.projection * E.inclusion).is_zero is False:
        raise AlgebraError("projection composed with inclusion must vanish")
    if E.projection * E.section != Matrix.identity(ring, d):
        raise AlgebraError("the section does not split the projection")
    # projection is an algebra map
    for i in range(B.rank):
        for j in range(B.rank):
            lhs = E.projection * Matrix.column(ring, B.product_column(i, j))
            a = E.projection.col_list(i)
            b = E.projection.col_list(j)
            rhs = Matrix.column(ring, A.multiply(a, b))
            if lhs != rhs:
                raise AlgebraError(f"projection is not multiplicative at ({i}, {j})")
    # inclusion embeds M as a square-zero ideal carrying the bimodule actions
    for p in range(m):
        for q in range(m):
            prod = B.multiply(E.inclusion.col_list(p), E.inclusion.col_list(q))
            if any(v != ring.zero for v in prod):
                raise AlgebraError(f"ideal is not square-zero at generators ({p}, {q})")
    for i in range(d):
        s_i = E.section.col_list(i)
        for p in range(m):
            left = Matrix.column(ring, B.multiply(s_i, E.inclusion.col_list(p)))
            if left != E.inclusion * Matrix.column(ring, M.left[i].col_list(p)):
                raise AlgebraError(f"left action mismatch at ({i}, {p})")
            right = Matrix.column(ring, B.multiply(E.inclusion.col_list(p), s_i))
            if right != E.inclusion * Matrix.column(ring, M.right[i].col_list(p)):
                raise AlgebraError(f"right action mismatch at ({i}, {p})")
    # exactness: ker(projection) = im(inclusion), with the inclusion injective
    from .matrix import rank as _rank

    if _rank(E.inclusion) != m:
        raise AlgebraError("inclusion of the ideal is not injective")
    K = kernel_basis(E.projection)
    coords_in_span(column_span_basis(E.inclusion), K)  # raises if not contained
    return E


def crossed_product(A: FiniteAlgebra, M: Bimodule, B: TwoCochain) -> FiniteAlgebra:
    """The twisted algebra on A + M: (a,m)(a',m') = (aa', am' + ma' + B(a,a')).

    Requires B to be a 2-cocycle (that is exactly associativity); the result
    is validated.  The unit is (1, m0) with m0 solved for linearly.
    """
    ok, witness = is_two_cocycle(B)
    if not ok:
        raise AlgebraError(f"not a 2-cocycle: associativity obstruction at basis triple {witness}")
    ring = A.ring
    d, m = A.rank, M.rank
    mul, names = _crossed_product_table(A, M, B)
    # unit (1, m0): m0 a = -B(1, a) and a m0 = -B(a, 1) for all a; solve linearly
    # (the cocycle identities make the system consistent: m0 = -B(1, 1) works)
    unit_rows = []
    rhs_rows = []
    for i in range(d):
        b_right = B.value_on(list(A.unit), _basis_vec(A, i))
        b_left = B.value_on(_basis_vec(A, i), list(A.unit))
        for r in range(m):
            unit_rows.append(M.right[i].row_list(r))
            rhs_rows.append(ring.neg(b_right[r, 0]))
            unit_rows.append(M.left[i].row_list(r))
            rhs_rows.append(ring.neg(b_left[r, 0]))
    if m:
        m0 = solve(Matrix.from_rows(ring, unit_rows), Matrix.column(ring, rhs_rows))
        if m0 is None:
            raise AlgebraError("no unit exists for the crossed product (cocycle data inconsistent)")
        m0 = m0.col_list(0)
    else:
        m0 = []
    unit = list(A.unit) + m0
    return validate_algebra(ring, d + m, names, unit, mul)


def _crossed_product_table(A: FiniteAlgebra, M: Bimodule, B: TwoCochain):
    """The raw multiplication table of A + M twisted by an arbitrary cochain."""
    ring = A.ring
    d, m = A.rank, M.rank
    total = d + m
    z = ring.zero
    mul = [z] * total**3

    def put(i, j, k, v):
        if v != z:
            mul[(i * total + j) * total + k] = ring.canon(mul[(i * total + j) * total + k] + v)

    for i in range(d):
        for j in range(d):
            for k, c in enumerate(A.product_column(i, j)):
                put(i, j, k, c)
            val = B.value(i, j)
            for p in range(m):
                put(i, j, d + p, val[p, 0])
    for i in range(d):
        for p in range(m):
            Lcol = M.left[i].col_list(p)
            for q in range(m):
                put(i, d + p, d + q, Lcol[q])
            Rcol = M.right[i].col_list(p)
            for q in range(m):
                put(d + p, i, d + q, Rcol[q])
    names = tuple(A.basis_names) + tuple(f"m{i}" for i in range(m))
    return mul, names


def _crossed_product_unchecked(A: FiniteAlgebra, M: Bimodule, B: TwoCochain) -> FiniteAlgebra:
    """The twisted table without any validation (diagnostics and tests).

    The unit slot takes the closed form (1, -B(1,1)); for a non-cocycle the
    table is simply not associative and validation will say where.
    """
    mul, names = _crossed_product_table(A, M, B)
    m0 = B.value_on(list(A.unit), list(A.unit))
    unit = list(A.unit) + [A.ring.neg(v) for v in m0.col_list(0)]
    return FiniteAlgebra(A.ring, A.rank + M.rank, names, tuple(unit), tuple(mul))


def crossed_product_presentation(A: FiniteAlgebra, M: Bimodule, B: TwoCochain) -> ExtensionPresentation:
    """The crossed product together with its canonical projection/inclusion/section."""
    total = crossed_product(A, M, B)
    ring = A.ring
    d, m = A.rank, M.rank
    proj = Matrix.identity(ring, d).hstack(Matrix.zeros(ring, d, m))
    incl = Matrix.zeros(ring, d, m).vstack(Matrix.identity(ring, m))
    sect = Matrix.identity(ring, d).vstack(Matrix.zeros(ring, m, d))
    return validate_extension(ExtensionPresentation(A, M, total, proj, incl, sect))


def trivial_extension(A: FiniteAlgebra, M: Bimodule) -> ExtensionPresentation:
    """The crossed product along the zero cochain."""
    return crossed_product_presentation(A, M, zero_two_cochain(A, M))


def extension_class_from_section(E: ExtensionPresentation, section: Matrix | None = None) -> TwoCochain:
    """The cocycle B_s(a, a') = s(a) s(a') - s(aa') of a section s.

    Different sections of the same extension give cohomologous cocycles.
    """
    A, M, B = E.algebra, E.bimodule, E.total
    ring = A.ring
    s = E.section if section is None else section
    if E.projection * s != Matrix.identity(ring, A.rank):
        raise AlgebraError("the supplied map is not a section of the projection")
    d = A.rank
    cols = []
    for i in range(d):
        si = s.col_list(i)
        for j in range(d):
            sj = s.col_list(j)
            prod = B.multiply(si, sj)
            s_of_prod = s * Matrix.column(ring, A.product_column(i, j))
            defect = Matrix.column(ring, prod) - s_of_prod
            x = solve(E.inclusion, defect)
            if x is None:
                raise AlgebraError("section defect escapes the ideal")
            cols.append(x.col_list(0))
    return TwoCochain(A, M, Matrix.from_cols(ring, cols, nrows=M.rank))


def cocycles_cohomologous(B1: TwoCochain, B2: TwoCochain) -> Matrix | None:
    """A 1-cochain z with b^1(z) = B1 - B2, or None when inequivalent.

    The certificate z yields the equivalence Phi(a, m) = (a, m + z(a)) of the
    two crossed products.
    """
    if B1.algebra != B2.algebra or B1.bimodule != B2.bimodule:
        raise AlgebraError("cocycles live over different data")
    A, M = B1.algebra, B1.bimodule
    b1 = coboundary_matrix(A, M, 1, normalized=False, guard=None)
    diff = B1.matrix - B2.matrix
    x = solve(b1, diff.reshape(diff.rows * diff.cols, 1))
    if x is None:
        return None
    return x.reshape(M.rank, A.rank)


def coboundary_of(A: FiniteAlgebra, M: Bimodule, zeta: Matrix) -> TwoCochain:
    """b^1(zeta) as a TwoCochain, for a 1-cochain zeta (m x d matrix)."""
    b1 = coboundary_matrix(A, M, 1, normalized=False, guard=None)
    vec = b1 * zeta.reshape(zeta.rows * zeta.cols, 1)
    return TwoCochain(A, M, vec.reshape(M.rank, A.rank**2))


def lift_exists(E: ExtensionPresentation) -> Matrix | None:
    """A multiplicative section of the projection, or None.

    Solves for a 1-cochain killing the section cocycle; the corrected
    section s'(a) = s(a) - incl(z(a)) is verified multiplicative on all
    basis pairs before being returned.
    """
    A, M, B = E.algebra, E.bimodule, E.total
    Bs = extension_class_from_section(E)
    zeta = cocycles_cohomologous(Bs, zero_two_cochain(A, M))
    if zeta is None:
        return None
    corrected = E.section - E.inclusion * zeta
    ring = A.ring
    for i in range(A.rank):
        for j in range(A.rank):
            lhs = Matrix.column(ring, B.multiply(corrected.col_list(i), corrected.col_list(j)))
            rhs = corrected * Matrix.column(ring, A.product_column(i, j))
            if lhs != rhs:
                raise AlgebraError(f"corrected section is not multiplicative at ({i}, {j})")
    return corrected


def enumerate_extension_classes(
    A: FiniteAlgebra, M: Bimodule, guard_exponent: int = 2**20
) -> list[TwoCochain]:
    """All square-zero extension classes of A by M over a finite prime field.

    Enumerates the 2-cocycles as the F_p-combinations of a basis of ker b^2
    and buckets them by cohomology class; the representative of a class is
    its normal form modulo the echelonized coboundary space (the
    lexicographically least member).  The count is |F_p|^(dim HH^2).  The
    guard bounds the number p^(dim Z^2) of cocycles visited.
    """
    ring = A.ring
    if ring.kind != "Fp":
        raise AlgebraError("exhaustive enumeration needs a finite prime field")
    p = ring.p
    dim = M.rank * A.rank**2
    cocycles = kernel_basis(coboundary_matrix(A, M, 2, False)).columns
    if p ** len(cocycles) > guard_exponent:
        raise SizeGuardError(
            f"enumeration space of size {p}^{len(cocycles)} exceeds the guard {guard_exponent}"
        )
    b1 = coboundary_matrix(A, M, 1, False)
    image = column_span_basis(b1)
    # echelon reduction data: leading row of each image column
    leads = [col[0][0] for col in image.columns]
    reps: dict[tuple, TwoCochain] = {}
    for coeffs in product(range(p), repeat=len(cocycles)):
        vec = [0] * dim
        for c, z in zip(coeffs, cocycles):
            if c:
                for i, w in z:
                    vec[i] = (vec[i] + c * w) % p
        for j, lead in enumerate(leads):
            v = vec[lead]
            if v:
                col = image.columns[j]
                factor = v * pow(col[0][1], -1, p) % p
                for i, w in col:
                    vec[i] = (vec[i] - factor * w) % p
        key = tuple(vec)
        if key not in reps:
            reps[key] = two_cochain_from_vector(A, M, list(key))
    return [reps[k] for k in sorted(reps)]
