"""Square-zero extensions: cocycle data, crossed products, classes, lifting.

An extension of A by a bimodule M is presented by its total algebra B
together with a projection, an inclusion of M as a square-zero ideal and a
chosen k-linear section of the projection; extensions are always k-split
by construction here, so every class is the class of some bilinear datum.

Bilinear laws are checked as matrix identities.  Let mu_B be the n x n^2
multiplication matrix of an algebra B of rank n (`multiplication_matrix`)
and X, Y matrices whose columns are elements of B.  Then column (i, j) of
mu_B (X (x) Y), at index i * cols(Y) + j, is the product (X e_i)(Y e_j) in
B.  So a law on basis pairs holds iff two such products agree, and the
first column where they differ names the first failing pair in row-major
order.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from itertools import product

from .algebra import (
    AlgebraError,
    Bimodule,
    FiniteAlgebra,
    multiplication_matrix,
    opposite,
)
from .cohomology import Cochain, coboundary_matrix, cocycle_witness
from .matrix import (
    DEFAULT_GUARD,
    Matrix,
    SizeGuardError,
    column_span_basis,
    coords_in_span,
    kernel_basis,
    rank,
    solve,
)


def zero_two_cochain(A: FiniteAlgebra, M: Bimodule) -> Cochain:
    return Cochain(A, M, 2, Matrix.zeros(A.ring, M.rank, A.rank**2))


def two_cochain_from_vector(A: FiniteAlgebra, M: Bimodule, vec) -> Cochain:
    return Cochain(A, M, 2, Matrix.column(A.ring, vec).reshape(M.rank, A.rank**2))


def is_two_cocycle(B: Cochain) -> tuple[bool, tuple[int, ...] | None]:
    """Check a B(a', a'') - B(aa', a'') + B(a, a'a'') - B(a, a')a'' = 0 on basis triples.

    The left side is b^2 B; returns (verdict, witness), the witness being
    cocycle_witness(B), the first violating triple in row-major order.
    """
    witness = cocycle_witness(B)
    return witness is None, witness


@dataclass(frozen=True)
class ExtensionPresentation:
    """Total algebra with projection, square-zero inclusion, and k-section."""

    algebra: FiniteAlgebra  # the quotient A
    bimodule: Bimodule  # the kernel M with its induced actions
    total: FiniteAlgebra  # B, of rank d + m
    projection: Matrix  # d x (d+m)
    inclusion: Matrix  # (d+m) x m
    section: Matrix  # (d+m) x d


def _first_mismatch(lhs: Matrix, rhs: Matrix) -> int | None:
    """Index of the first column where two equal-shaped matrices differ, or None."""
    return next((j for j, (x, y) in enumerate(zip(lhs.columns, rhs.columns)) if x != y), None)


def validate_extension(E: ExtensionPresentation) -> ExtensionPresentation:
    """Verify exactness, the square-zero ideal property and the section laws."""
    A, M, B = E.algebra, E.bimodule, E.total
    P, I, S = E.projection, E.inclusion, E.section
    d, m = A.rank, M.rank
    if B.rank != d + m:
        raise AlgebraError("total algebra rank must be rank(A) + rank(M)")
    if (P * I).is_zero is False:
        raise AlgebraError("projection composed with inclusion must vanish")
    if P * S != Matrix.identity(A.ring, d):
        raise AlgebraError("the section does not split the projection")
    mu_B = multiplication_matrix(B)
    c = _first_mismatch(P * mu_B, multiplication_matrix(A) * P.kron(P))
    if c is not None:
        raise AlgebraError(f"projection is not multiplicative at {divmod(c, B.rank)}")
    c = _first_mismatch(mu_B * I.kron(I), Matrix.zeros(A.ring, B.rank, m * m))
    if c is not None:
        raise AlgebraError(f"ideal is not square-zero at generators {divmod(c, m)}")
    # column (i, p) is s(e_i) times the p-th ideal generator, from the left and from the right
    left = _first_mismatch(mu_B * S.kron(I), I * reduce(Matrix.hstack, M.left))
    right = _first_mismatch(multiplication_matrix(opposite(B)) * S.kron(I), I * reduce(Matrix.hstack, M.right))
    if left is not None and (right is None or left <= right):
        raise AlgebraError(f"left action mismatch at {divmod(left, m)}")
    if right is not None:
        raise AlgebraError(f"right action mismatch at {divmod(right, m)}")
    # exactness: ker(projection) = im(inclusion), with the inclusion injective
    if rank(I) != m:
        raise AlgebraError("inclusion of the ideal is not injective")
    coords_in_span(column_span_basis(I), kernel_basis(P))  # raises if not contained
    return E


def crossed_product(A: FiniteAlgebra, M: Bimodule, B: Cochain) -> FiniteAlgebra:
    """The twisted algebra on A + M: (a,m)(a',m') = (aa', am' + ma' + B(a,a')).

    Requires B to be a 2-cocycle, which is exactly associativity, so the
    table needs no further scan.  The unit is (1, -B(1, 1)): the cocycle
    identity at (1, 1, a) and (a, 1, 1) gives -B(1, 1) a = B(1, a) and
    a B(1, 1) = B(a, 1).
    """
    ok, witness = is_two_cocycle(B)
    if not ok:
        raise AlgebraError(f"not a 2-cocycle: associativity obstruction at basis triple {witness}")
    return _crossed_product_unchecked(A, M, B)


def _crossed_product_unchecked(A: FiniteAlgebra, M: Bimodule, B: Cochain) -> FiniteAlgebra:
    """The table of A + M twisted by an arbitrary cochain, with the unit (1, -B(1,1)).

    Nothing is validated: for a non-cocycle the table is simply not
    associative, and validate_algebra will say where.
    """
    d, m = A.rank, M.rank
    total = d + m
    mul = [A.ring.zero] * total**3

    def put(i, j, offset, column):  # the nonzero (k, v) of e_i e_j, at coordinates offset + k
        base = (i * total + j) * total + offset
        for k, v in column:
            mul[base + k] = v

    mu = multiplication_matrix(A)
    for i in range(d):
        for j in range(d):
            put(i, j, 0, mu.columns[i * d + j])
            put(i, j, d, B.matrix.columns[i * d + j])
        for p in range(m):
            put(i, d + p, d, M.left[i].columns[p])
            put(d + p, i, d, M.right[i].columns[p])
    names = tuple(A.basis_names) + tuple(f"m{i}" for i in range(m))
    m0 = B.matrix * Matrix.column(A.ring, [u * v for u in A.unit for v in A.unit])
    unit = list(A.unit) + [A.ring.neg(v) for v in m0.col_list(0)]
    return FiniteAlgebra(A.ring, total, names, tuple(unit), tuple(mul))


def crossed_product_presentation(A: FiniteAlgebra, M: Bimodule, B: Cochain) -> ExtensionPresentation:
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


def extension_class_from_section(E: ExtensionPresentation, section: Matrix | None = None) -> Cochain:
    """The cocycle B_s(a, a') = s(a) s(a') - s(aa') of a section s.

    Different sections of the same extension give cohomologous cocycles.
    """
    A, M = E.algebra, E.bimodule
    s = E.section if section is None else section
    if E.projection * s != Matrix.identity(A.ring, A.rank):
        raise AlgebraError("the supplied map is not a section of the projection")
    defect = multiplication_matrix(E.total) * s.kron(s) - s * multiplication_matrix(A)
    cols = [solve(E.inclusion, defect.submatrix_cols((j,))) for j in range(defect.cols)]
    if any(x is None for x in cols):
        raise AlgebraError("section defect escapes the ideal")
    return Cochain(A, M, 2, reduce(Matrix.hstack, cols))


def cocycles_cohomologous(B1: Cochain, B2: Cochain) -> Matrix | None:
    """A 1-cochain z with b^1(z) = B1 - B2, or None when inequivalent.

    The certificate z yields the equivalence Phi(a, m) = (a, m + z(a)) of the
    two crossed products.
    """
    if B1.algebra != B2.algebra or B1.bimodule != B2.bimodule:
        raise AlgebraError("cocycles live over different data")
    A, M = B1.algebra, B1.bimodule
    b1 = coboundary_matrix(A, M, 1, normalized=False, guard=None)
    x = solve(b1, B1.as_vector() - B2.as_vector())
    if x is None:
        return None
    return x.reshape(M.rank, A.rank)


def coboundary_of(A: FiniteAlgebra, M: Bimodule, zeta: Matrix) -> Cochain:
    """b^1(zeta) as a 2-cochain, for a 1-cochain zeta (m x d matrix)."""
    b1 = coboundary_matrix(A, M, 1, normalized=False, guard=None)
    vec = b1 * zeta.reshape(zeta.rows * zeta.cols, 1)
    return Cochain(A, M, 2, vec.reshape(M.rank, A.rank**2))


def lift_exists(E: ExtensionPresentation) -> Matrix | None:
    """A multiplicative section of the projection, or None.

    Solves for a 1-cochain killing the section cocycle; the corrected
    section s'(a) = s(a) - incl(z(a)) is verified multiplicative on all
    basis pairs before being returned.
    """
    A, M = E.algebra, E.bimodule
    Bs = extension_class_from_section(E)
    zeta = cocycles_cohomologous(Bs, zero_two_cochain(A, M))
    if zeta is None:
        return None
    s = E.section - E.inclusion * zeta
    c = _first_mismatch(multiplication_matrix(E.total) * s.kron(s), s * multiplication_matrix(A))
    if c is not None:
        raise AlgebraError(f"corrected section is not multiplicative at {divmod(c, A.rank)}")
    return s


def enumerate_extension_classes(
    A: FiniteAlgebra, M: Bimodule, guard_exponent: int = 2**20, guard: int | None = DEFAULT_GUARD
) -> list[Cochain]:
    """All square-zero extension classes of A by M over a finite prime field.

    A class is represented by its lexicographically least member.  The basis
    `image` of B^2 is a reduced echelon form, so the least member of the class
    of v is v - image * v[leads], linear in v.  On a basis of the cocycles
    ker b^2 this map spans the class space, of dimension dim HH^2, whose
    p^(dim HH^2) vectors are the representatives, sorted as dense vectors.
    guard_exponent still bounds p^(dim Z^2), guard the sizes of b^2 and b^1.
    """
    ring, p = A.ring, A.ring.p
    if not p:
        raise AlgebraError("exhaustive enumeration needs a finite prime field")
    cocycles = kernel_basis(coboundary_matrix(A, M, 2, False, guard))
    if p**cocycles.cols > guard_exponent:
        raise SizeGuardError(f"enumeration space of size {p}^{cocycles.cols} exceeds the guard {guard_exponent}")
    image = column_span_basis(coboundary_matrix(A, M, 1, False, guard))
    at_leads = Matrix.identity(ring, image.rows).submatrix_cols([col[0][0] for col in image.columns]).transpose()
    classes = column_span_basis(cocycles - image * (at_leads * cocycles))
    reps = classes * Matrix.from_cols(ring, product(range(p), repeat=classes.cols), classes.cols)
    return [two_cochain_from_vector(A, M, v) for v in sorted(reps.col_list(j) for j in range(reps.cols))]
