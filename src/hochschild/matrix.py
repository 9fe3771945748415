"""Exact sparse linear algebra over Z, Q and F_p.

Kernels, solving, Smith/Hermite normal forms, subquotient invariants and
homology at a spot.  A matrix is immutable and stored by sparse columns: each
column keeps its nonzero (row, value) pairs in increasing row order and never
stores a zero, so the bar and Hochschild complexes, which are almost entirely
zero, cost memory and time in proportion to their nonzeros.  The elimination
cores (hochschild.elimination) work on transient dict rows that only this
module builds.  ScalarRing alone decides the canonical form of a value:
arithmetic here works on raw ints and Fractions and finishes each stored value
with ring.finish, so over Q integer data stays on ints and a Fraction marks a
true quotient.  Every caller reads a result that does not depend on the cores'
pivot choice: a normal form, a rank, a span, invariants, or a Z solution
reduced modulo the kernel lattice.  Pivot rows are reduced against each other
only where they are read (normal forms, field solving, the Z cokernel), not
for ranks, kernel generators or invariants.  All arithmetic is exact; over Z
every kernel is the full (saturated) integer kernel.

Over Z, invariant factors come from the Hermite form of the column lattice:
each pivot equal to 1 splits off a trivial summand, and the sparse Smith
normal form runs only on the small residue of rows whose pivot exceeds 1.
The generators of a quotient are columns of its U^-1.  The invariants of a
complex of free modules need neither: ker(outgoing) is a saturated summand,
so they come from rank(outgoing) and the elementary divisors of incoming
(homology_invariants).

Everything here is pure: no operation mutates its inputs, so concurrent
use from multiple threads is safe.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from heapq import heappop, heappush

from .elimination import back_substitute, echelon, reduce_pivots, row_sub, smith
from .rings import RingError, ScalarRing, ZZ

DEFAULT_GUARD = 4_000_000


class SizeGuardError(ValueError):
    """Raised when a requested matrix exceeds the configured entry guard."""


class ShapeError(ValueError):
    pass


class ContainmentError(ValueError):
    """Columns of the submodule matrix escape the span of the ambient one."""

    def __init__(self, column: int):
        self.column = column
        super().__init__(f"column {column} is not contained in the ambient span")


def check_guard(rows: int, cols: int, guard: int | None = DEFAULT_GUARD) -> None:
    if guard is not None and rows * cols > guard:
        raise SizeGuardError(
            f"matrix of size {rows}x{cols} = {rows * cols} entries exceeds the "
            f"guard of {guard}; raise the guard to proceed"
        )


@dataclass(frozen=True)
class KModuleInvariants:
    """Isomorphism type of a finitely generated k-module.

    ``free_rank`` copies of the ring plus cyclic torsion summands whose
    orders form a divisibility chain t1 | t2 | ...  Torsion is empty over
    a field and over Q.
    """

    free_rank: int
    torsion: tuple[int, ...] = ()

    def __post_init__(self):
        if self.free_rank < 0:
            raise ValueError("negative free rank")
        if any(t <= 1 for t in self.torsion):
            raise ValueError("torsion factors must exceed 1")
        for a, b in zip(self.torsion, self.torsion[1:]):
            if b % a != 0:
                raise ValueError(f"torsion {self.torsion} is not a divisibility chain")

    @property
    def is_zero(self) -> bool:
        return self.free_rank == 0 and not self.torsion

    def __str__(self) -> str:
        parts = []
        if self.free_rank:
            parts.append(f"k^{self.free_rank}")
        parts.extend(f"k/{t}" for t in self.torsion)
        return " + ".join(parts) if parts else "0"


class Matrix:
    """Immutable exact matrix stored as sparse columns.

    ``columns[j]`` is a tuple of the (row, value) pairs of column j with a
    nonzero value, rows increasing, values canonical for the ring.  The form
    is unique, so equality and hashing are those of the matrix itself.
    """

    __slots__ = ("ring", "rows", "cols", "columns", "_hash")  # _hash is filled on first use

    def __init__(self, ring: ScalarRing, rows: int, cols: int, columns):
        columns = tuple(tuple((i, v) for i, v in c) for c in columns)
        if rows < 0 or cols < 0:
            raise ShapeError("negative dimensions")
        if len(columns) != cols:
            raise ShapeError(f"{rows}x{cols} matrix needs {cols} columns, got {len(columns)}")
        for c in columns:
            prev = -1
            for i, v in c:
                if not prev < i < rows:
                    raise ShapeError("column rows must increase strictly and lie inside the matrix")
                if not v or not ring.is_canonical(v):
                    raise ValueError(f"{v!r} is not a stored value of a matrix over {ring}")
                prev = i
        _set_ring(self, ring)
        _set_rows(self, rows)
        _set_cols(self, cols)
        _set_columns(self, columns)

    def __setattr__(self, name, value):
        raise AttributeError("Matrix is immutable")

    __delattr__ = __setattr__

    def __eq__(self, other) -> bool:
        if not isinstance(other, Matrix):
            return NotImplemented
        return self is other or (
            self.rows == other.rows
            and self.cols == other.cols
            and self.ring == other.ring
            and self.columns == other.columns
        )

    def __hash__(self) -> int:
        try:
            return self._hash
        except AttributeError:
            h = hash((self.ring, self.rows, self.cols, self.columns))
            _set_hash(self, h)
            return h

    def __repr__(self) -> str:
        return f"<Matrix {self.rows}x{self.cols} over {self.ring}, nnz={self.nnz}>"

    # -- constructors --------------------------------------------------------

    @staticmethod
    def from_rows(ring: ScalarRing, rows) -> "Matrix":
        rows = [list(r) for r in rows]
        nrows = len(rows)
        ncols = len(rows[0]) if rows else 0
        cols = [[] for _ in range(ncols)]
        canon = ring.canon
        for i, r in enumerate(rows):
            if len(r) != ncols:
                raise ShapeError("ragged rows")
            for j, x in enumerate(r):
                v = canon(x)
                if v:
                    cols[j].append((i, v))
        return _make(ring, nrows, ncols, tuple(map(tuple, cols)))

    @staticmethod
    def from_cols(ring: ScalarRing, cols, nrows: int | None = None) -> "Matrix":
        cols = [list(c) for c in cols]
        if nrows is None:
            if not cols:
                raise ShapeError("cannot infer row count of an empty column list")
            nrows = len(cols[0])
        canon = ring.canon
        out = []
        for c in cols:
            if len(c) != nrows:
                raise ShapeError("ragged columns")
            out.append(tuple((i, v) for i, v in enumerate(map(canon, c)) if v))
        return _make(ring, nrows, len(cols), tuple(out))

    @staticmethod
    def from_triplets(ring: ScalarRing, rows: int, cols: int, triplets) -> "Matrix":
        """Assemble from (row, col, value) triplets; repeated positions are summed.

        Values are ring elements or plain integers; zero sums are dropped.
        """
        acc = [{} for _ in range(cols)]
        for i, j, v in triplets:
            c = acc[j]
            if i in c:
                c[i] += v
            else:
                c[i] = v
        out = tuple(_finish_column(c, ring.finish) for c in acc)
        if any(c and not (c[0][0] >= 0 and c[-1][0] < rows) for c in out):
            raise ShapeError(f"triplet row outside a matrix with {rows} rows")
        return _make(ring, rows, cols, out)

    @staticmethod
    def zeros(ring: ScalarRing, rows: int, cols: int) -> "Matrix":
        return _make(ring, rows, cols, ((),) * cols)

    @staticmethod
    def identity(ring: ScalarRing, n: int) -> "Matrix":
        o = ring.one
        return _make(ring, n, n, tuple(((i, o),) for i in range(n)))

    @staticmethod
    def column(ring: ScalarRing, values) -> "Matrix":
        vals = [ring.canon(v) for v in values]
        return _make(ring, len(vals), 1, (tuple((i, v) for i, v in enumerate(vals) if v),))

    # -- access ----------------------------------------------------------------

    def __getitem__(self, ij) -> object:
        i, j = ij
        if not 0 <= i < self.rows:
            raise IndexError(f"row {i} outside a matrix with {self.rows} rows")
        if not 0 <= j < self.cols:
            raise IndexError(f"column {j} outside a matrix with {self.cols} columns")
        col = self.columns[j]
        k = bisect_left(col, (i,))
        return col[k][1] if k < len(col) and col[k][0] == i else self.ring.zero

    def col_list(self, j: int) -> list:
        out = [self.ring.zero] * self.rows
        for i, v in self.columns[j]:
            out[i] = v
        return out

    def to_rows(self) -> list[list]:
        z = self.ring.zero
        out = [[z] * self.cols for _ in range(self.rows)]
        for j, col in enumerate(self.columns):
            for i, v in col:
                out[i][j] = v
        return out

    @property
    def nnz(self) -> int:
        """Number of stored (nonzero) entries."""
        return sum(map(len, self.columns))

    @property
    def is_zero(self) -> bool:
        return not any(self.columns)

    # -- arithmetic --------------------------------------------------------------

    def _same(self, other: "Matrix") -> None:
        if self.ring is not other.ring and self.ring != other.ring:
            raise RingError("ring mismatch")

    def __add__(self, other: "Matrix") -> "Matrix":
        self._same(other)
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ShapeError("shape mismatch in addition")
        finish = self.ring.finish
        out = []
        for a, b in zip(self.columns, other.columns):
            if not b or not a:
                out.append(a or b)
                continue
            acc = dict(a)  # only the rows both columns hold need finishing
            for i, v in b:
                acc[i] = finish(acc[i] + v) if i in acc else v
            out.append(tuple([(i, v) for i in sorted(acc) if (v := acc[i])]))
        return _make(self.ring, self.rows, self.cols, tuple(out))

    def __sub__(self, other: "Matrix") -> "Matrix":
        return self + (-other)

    def __neg__(self) -> "Matrix":
        finish = self.ring.finish  # the negative of a nonzero value is nonzero
        cols = tuple(tuple([(i, finish(-v)) for i, v in col]) for col in self.columns)
        return _make(self.ring, self.rows, self.cols, cols)

    def scale(self, c) -> "Matrix":
        c = self.ring.canon(c)
        if not c:
            return Matrix.zeros(self.ring, self.rows, self.cols)
        finish = self.ring.finish  # a nonzero c times a nonzero value is nonzero
        cols = tuple(tuple([(i, finish(v * c)) for i, v in col]) for col in self.columns)
        return _make(self.ring, self.rows, self.cols, cols)

    def __mul__(self, other: "Matrix") -> "Matrix":
        """Matrix product, one output column at a time from the sparse columns."""
        self._same(other)
        if self.cols != other.rows:
            raise ShapeError(f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}")
        finish = self.ring.finish
        acols = self.columns
        out = []
        for col in other.columns:
            acc: dict[int, object] = {}
            for k, w in col:
                for i, v in acols[k]:
                    if i in acc:
                        acc[i] += v * w
                    else:
                        acc[i] = v * w
            out.append(_finish_column(acc, finish))
        return _make(self.ring, self.rows, other.cols, tuple(out))

    def transpose(self) -> "Matrix":
        out = [[] for _ in range(self.rows)]
        for j, col in enumerate(self.columns):
            for i, v in col:
                out[i].append((j, v))
        return _make(self.ring, self.cols, self.rows, tuple(map(tuple, out)))

    def hstack(self, other: "Matrix") -> "Matrix":
        self._same(other)
        if self.rows != other.rows:
            raise ShapeError("row mismatch in hstack")
        return _make(self.ring, self.rows, self.cols + other.cols, self.columns + other.columns)

    def vstack(self, other: "Matrix") -> "Matrix":
        self._same(other)
        if self.cols != other.cols:
            raise ShapeError("column mismatch in vstack")
        r = self.rows
        cols = tuple(a + tuple((i + r, v) for i, v in b) for a, b in zip(self.columns, other.columns))
        return _make(self.ring, r + other.rows, self.cols, cols)

    def kron(self, other: "Matrix") -> "Matrix":
        """Kronecker product in row-major (last index fastest) convention."""
        self._same(other)
        orows, finish = other.rows, self.ring.finish
        cols = []
        for a in self.columns:
            for b in other.columns:  # products of nonzero values are nonzero
                cols.append(tuple([(i * orows + k, finish(x * y)) for i, x in a for k, y in b]))
        return _make(self.ring, self.rows * orows, self.cols * other.cols, tuple(cols))

    def submatrix_cols(self, col_indices) -> "Matrix":
        cols = tuple(self.columns[j] for j in col_indices)
        return _make(self.ring, self.rows, len(cols), cols)

    def reshape(self, rows: int, cols: int) -> "Matrix":
        """The same entries read in row-major order into a rows x cols matrix."""
        if rows * cols != self.rows * self.cols:
            raise ShapeError(f"cannot reshape {self.rows}x{self.cols} to {rows}x{cols}")
        out = [[] for _ in range(cols)]
        n = self.cols
        for j, col in enumerate(self.columns):
            for i, v in col:
                r, c = divmod(i * n + j, cols)
                out[c].append((r, v))
        return _make(self.ring, rows, cols, tuple(tuple(sorted(c)) for c in out))

    def __str__(self) -> str:
        body = "; ".join(" ".join(str(x) for x in row) for row in self.to_rows())
        return f"[{body}]"


# the slot setters, which bypass the immutability guard of __setattr__
_set_ring, _set_rows, _set_cols, _set_columns, _set_hash = (
    getattr(Matrix, name).__set__ for name in Matrix.__slots__
)
_new = object.__new__


def _finish_column(acc: dict, finish) -> tuple:
    """The stored column of raw values {row: value}: rows increasing, values finished, zeros dropped."""
    return tuple([(i, v) for i in sorted(acc) if (v := finish(acc[i]))])


def _make(ring: ScalarRing, rows: int, cols: int, columns: tuple) -> Matrix:
    """A matrix from columns already in canonical form (no checks)."""
    m = _new(Matrix)
    _set_ring(m, ring)
    _set_rows(m, rows)
    _set_cols(m, cols)
    _set_columns(m, columns)
    return m


# ---------------------------------------------------------------------------
# public operations
# ---------------------------------------------------------------------------


def rank(M: Matrix) -> int:
    # the column rank: the columns of M are the rows of its transpose
    return len(echelon(M.ring, [dict(c) for c in M.columns], M.rows))


def _dict_rows(M: Matrix) -> list[dict]:
    """The rows of M as dicts {column: value}, keys in increasing column order."""
    rows = [{} for _ in range(M.rows)]
    for j, col in enumerate(M.columns):
        for i, v in col:
            rows[i][j] = v
    return rows


def _combination_rows(M: Matrix, tagged: int) -> list[dict]:
    """The columns of M as dict rows, row j < tagged carrying e_j past M.rows (its combination)."""
    m, one = M.rows, M.ring.one
    return [dict(col + ((m + j, one),)) if j < tagged else dict(col) for j, col in enumerate(M.columns)]


def _kernel_generator_rows(M: Matrix, tagged: int) -> list[dict]:
    """The tags (keys < tagged), not normalized, of the rows of _combination_rows(M, tagged)
    whose leading part dies in one elimination.  They span {v : M[:, :tagged] v in span
    M[:, tagged:]}, over Z as a lattice: a combination with no leading part uses no pivot row."""
    rows = _combination_rows(M, tagged)
    echelon(M.ring, rows, M.rows)
    return [{c - M.rows: v for c, v in r.items()} for r in rows]


def _column_matrix(ring: ScalarRing, width: int, vec_rows: list[dict]) -> Matrix:
    """The matrix whose columns are the given dict rows (canonical values) of the given width."""
    return _make(ring, width, len(vec_rows), tuple(tuple(sorted(r.items())) for r in vec_rows))


def kernel_basis(M: Matrix) -> Matrix:
    """Basis of ker(M) as matrix columns, in a canonical echelon form.

    Over Z the columns are a basis of the full integer kernel lattice, so the
    result is saturated.  Computed by reducing the transpose augmented with an
    identity block: rows whose leading part dies give the kernel combinations.
    """
    return _normal_form_columns(M.ring, _kernel_generator_rows(M, M.cols), M.cols)


def _normal_form_columns(ring: ScalarRing, vec_rows: list[dict], width: int) -> Matrix:
    """Canonicalize nonzero vectors (dict rows of the given width, consumed) to echelon columns."""
    return _column_matrix(ring, width, [r for _, r in reduce_pivots(ring, echelon(ring, vec_rows, width))])


def column_span_basis(M: Matrix) -> Matrix:
    """Canonical basis of the column space (fields) or column lattice (Z)."""
    return _normal_form_columns(M.ring, [dict(c) for c in M.columns if c], M.rows)


def coords_in_span(basis: Matrix, M: Matrix) -> Matrix:
    """Express each column of M in an echelon-column basis (exact, per ring).

    Any echelon basis will do: the leading (first) row lead_j of its column j
    increases strictly with j, and over Z the leads are positive.  Each target is
    reduced row by row in increasing order: when its lowest remaining row
    is some lead_j, column j is subtracted (over Z only if the entry divides
    exactly); any other row left nonzero means the target escapes the span.
    Work is proportional to the nonzeros touched.  Raises ContainmentError
    naming the first column that escapes the span (over Z: the lattice).
    """
    basis._same(M)
    if basis.rows != M.rows:
        raise ShapeError("ambient dimensions differ")
    ring = basis.ring
    p, div = ring.p, ring.div
    bcols = basis.columns
    lead_of = {col[0][0]: j for j, col in enumerate(bcols)}
    out = []
    for jt, target in enumerate(M.columns):
        residual = dict(target)
        heap = list(residual)  # increasing rows: already a heap
        coords = {}
        while heap:
            r = heappop(heap)
            val = residual.get(r)
            if not val:
                continue
            j = lead_of.get(r)
            if j is None:
                raise ContainmentError(jt)
            col = bcols[j]
            try:
                q = div(val, col[0][1])
            except RingError:  # over Z: the lead does not divide the entry
                raise ContainmentError(jt) from None
            coords[j] = q
            for i, b in col:
                if i in residual:
                    nv = residual[i] - q * b
                    if p:
                        nv %= p
                    if nv:
                        residual[i] = nv
                    else:
                        del residual[i]
                else:
                    residual[i] = -q * b % p if p else -q * b
                    heappush(heap, i)
        out.append(tuple(sorted(coords.items())))
    return _make(ring, basis.cols, len(out), tuple(out))


def solve(M: Matrix, b: Matrix) -> Matrix | None:
    """One solution x of M x = b over the ring, or None (absence is a normal outcome).

    Over a field the echelon form of [M | b] decides first; only then is x read
    off its RREF, every free variable 0 (over Q on integer rows, see echelon).
    Over Z a rational-only solution yields None, and x is the one with
    0 <= x[c] < p at the lead p (row c) of each kernel_basis(M) column.
    """
    if b.rows != M.rows or b.cols != 1:
        raise ShapeError("right-hand side must be a column of matching height")
    M._same(b)
    ring, m, n = M.ring, M.rows, M.cols
    if ring.kind == "Z":
        # Rows of the transpose carry their combinations of the columns of M past m.
        # Clearing -b off the echelon leading parts leaves an x there; clearing x
        # against an echelon basis of the rows left over (ker M) makes it canonical.
        rows = _combination_rows(M, n)
        t = {i: -v for i, v in b.columns[0]}
        for width in (m, m + n):
            for c, r in echelon(ring, rows, width):
                q, rem = divmod(t.get(c, 0), r[c])
                if rem and c < m:
                    return None
                if q:
                    row_sub(t, r, q, 0)
            if t and min(t) < m:
                return None  # b is outside the column lattice
        return _make(ring, n, 1, (tuple((k - m, v) for k, v in sorted(t.items())),))
    rows = _dict_rows(M)
    for i, v in b.columns[0]:
        rows[i][n] = v
    pivots = echelon(ring, rows, n)
    if rows:
        return None  # a row left over is 0 = b_i with b_i nonzero
    return _make(ring, n, 1, (tuple((c, r[n]) for c, r in reduce_pivots(ring, pivots) if n in r),))


def smith_normal_form(M: Matrix) -> tuple[Matrix, Matrix, Matrix]:
    """Smith normal form over Z: returns (U, D, V) with U*M*V = D.

    U and V are unimodular; D is m x n and diagonal with d1 | d2 | ... >= 0.
    Each step takes as pivot the entry of smallest absolute value in the
    trailing block, ties going to the lowest row and then the lowest column;
    it clears the pivot column and row by division with remainder (a smaller
    remainder becomes the pivot), adds the first row holding an entry the
    pivot does not divide, and makes the pivot positive.  U, D and V are
    therefore determined by M alone.
    """
    if M.ring.kind != "Z":
        raise RingError("Smith normal form requires the ring Z")
    m, n = M.rows, M.cols
    diag, U, _, V = smith(_dict_rows(M), n)
    D = tuple(((j, diag[j]),) if j < len(diag) and diag[j] else () for j in range(n))
    return _make(ZZ, m, m, U).transpose(), _make(ZZ, m, n, D), _make(ZZ, n, n, V)


def invariants_from_diagonal(diag: list[int], total_rank: int) -> KModuleInvariants:
    nonzero = [abs(d) for d in diag if d]
    torsion = tuple(d for d in nonzero if d > 1)
    return KModuleInvariants(total_rank - len(nonzero), torsion)


def cokernel_invariants(M: Matrix) -> KModuleInvariants:
    """Invariants of ring^rows / (column span of M)."""
    return _cokernel_invariants(M.ring, [dict(c) for c in M.columns if c], M.rows)


def row_cokernel_invariants(M: Matrix) -> KModuleInvariants:
    """Invariants of ring^cols / (row span of M), read off the rows without a transpose."""
    return _cokernel_invariants(M.ring, _dict_rows(M), M.cols)


def _cokernel_invariants(ring: ScalarRing, rows: list[dict], width: int) -> KModuleInvariants:
    """Invariants of ring^width / (span of the dict rows), which are consumed.

    Over Z the row lattice is first brought to Hermite form.  A pivot
    equal to 1 is alone in its column there, so its row and column split off
    a trivial summand; only the rows with a pivot > 1 go through the Smith
    normal form.
    """
    pivots = echelon(ring, rows, width)
    if ring.kind != "Z":
        return KModuleInvariants(width - len(pivots))
    back_substitute(pivots, ZZ)
    residue = [r for c, r in pivots if r[c] > 1]
    diag = [1] * (len(pivots) - len(residue))
    if residue:
        diag += smith(residue, width)[0]
    return invariants_from_diagonal(diag, width)


def subquotient_invariants(Z: Matrix, B: Matrix) -> KModuleInvariants:
    """Invariants of (span of Z's columns) / (span of B's columns).

    Columns may be arbitrary spanning sets; B is read in the echelon rows of Z,
    unreduced, as the invariants do not depend on the basis.  Raises
    ContainmentError naming the first column of B that escapes the span of Z.
    """
    Z._same(B)
    if Z.rows != B.rows:
        raise ShapeError("ambient dimensions differ")
    pivots = echelon(Z.ring, [dict(c) for c in Z.columns if c], Z.rows)
    return cokernel_invariants(coords_in_span(_column_matrix(Z.ring, Z.rows, [r for _, r in pivots]), B))


def quotient_generators(Z: Matrix, B: Matrix) -> tuple[KModuleInvariants, list[Matrix]]:
    """Like subquotient_invariants, but also returns generator columns.

    The generators map onto a minimal generating set of the quotient: free
    generators first, then torsion generators in increasing invariant-factor
    order (over a field: a basis of a complement of span(B) in span(Z)).
    """
    return _quotient_of_basis(column_span_basis(Z), B)


def _quotient_of_basis(basis: Matrix, B: Matrix) -> tuple[KModuleInvariants, list[Matrix]]:
    """quotient_generators on the canonical basis of the ambient span."""
    r, ring = basis.cols, basis.ring
    C = coords_in_span(basis, B)
    if ring.kind == "Z":
        diag, _, Uinv, _ = smith(_dict_rows(C), C.cols)
        # generators of Z^r / C are the columns of U^-1 at the free and torsion places
        idx = [i for i in range(r) if i >= len(diag) or not diag[i]] + [i for i, d in enumerate(diag) if d > 1]
        G = basis * _make(ZZ, r, len(idx), tuple(Uinv[i] for i in idx))
        return invariants_from_diagonal(diag, r), [G.submatrix_cols((k,)) for k in range(len(idx))]
    # field: complement of span(coords) inside k^r
    rows = [dict(c) for c in C.columns if c]
    pivot_cols = {c for c, _ in echelon(ring, rows, r)}
    invs = KModuleInvariants(r - len(pivot_cols))
    gens = [basis.submatrix_cols((i,)) for i in range(r) if i not in pivot_cols]
    return invs, gens


def homology_invariants(outgoing: Matrix, incoming: Matrix) -> KModuleInvariants:
    """The invariants of ker(outgoing) / im(incoming), without a kernel basis.

    Requires free terms and outgoing * incoming == 0.  Then ker(outgoing) is a
    saturated summand of rank cols - rank(outgoing) that holds im(incoming), so
    the homology is coker(incoming) less rank(outgoing) free summands.
    """
    coker = cokernel_invariants(incoming)
    return KModuleInvariants(coker.free_rank - rank(outgoing), coker.torsion)


def homology(outgoing: Matrix, incoming: Matrix) -> tuple[KModuleInvariants, list[Matrix]]:
    """ker(outgoing) / im(incoming) at the middle of  . --incoming--> . --outgoing--> .

    Returns the invariants and generator columns, as quotient_generators does.
    Requires outgoing * incoming == 0, which is not checked.  The echelon rows
    of im(incoming) with a unit lead (every lead over a field; over Z a 1, as
    the core makes leads positive) are cocycles already: call their leads P.
    Only the cocycles that vanish at P go through the tagged elimination.  Over
    Z they and the seeds span the kernel lattice (clearing at P takes integer
    multiples only); their Hermite form is kernel_basis(outgoing), and a Smith
    transform picks the generators.  Over a field P = leads(im) lies in leads(K)
    for K = ker(outgoing), and the RREF of {v in K : v[P] = 0} is zero at P and
    at K's other leads: it is K's RREF at leads(K) minus P, the complement of
    the image the quotient step would pick.
    """
    ring = outgoing.ring
    pivots = echelon(ring, [dict(c) for c in incoming.columns if c], incoming.rows)
    seeds = {c: r for c, r in pivots if ring.kind != "Z" or r[c] == 1}
    keep = [j for j in range(outgoing.cols) if j not in seeds]
    cocycles = _kernel_generator_rows(outgoing.submatrix_cols(keep), len(keep))
    lifted = [{keep[i]: v for i, v in r.items()} for r in cocycles]
    if ring.kind != "Z":  # the cocycles that vanish at the image's leads span a complement
        basis = _normal_form_columns(ring, lifted, outgoing.cols)
        return KModuleInvariants(basis.cols), [basis.submatrix_cols((i,)) for i in range(basis.cols)]
    return _quotient_of_basis(_normal_form_columns(ring, [*seeds.values(), *lifted], outgoing.cols), incoming)


def induced_kernel_generators(X: Matrix, relations: Matrix) -> Matrix:
    """Generators of {v : X v lies in the relation span} (the induced kernel; over Z
    that lattice, not its saturation), neither normalized nor independent: one
    elimination of [X | relations] with only X's columns tagged."""
    return _column_matrix(X.ring, X.cols, _kernel_generator_rows(X.hstack(relations), X.cols))


def prune(R: Matrix) -> tuple[Matrix, Matrix, Matrix]:
    """(pi, sigma, R'): a smaller presentation of F / R, F = ring^rows, the columns of R its relations.

    In the Hermite form (Z) or RREF (fields) of the columns of R a pivot 1 is
    alone in its column, so e_c is minus the rest of its row modulo R.  sigma
    includes the other g' coordinates, pi sends e_c to minus its row on them,
    and R' is the rows with a pivot > 1 (over Z only) on them.  pi induces an
    isomorphism F / R -> ring^g' / R', sigma its inverse, and pi * sigma = I.
    """
    ring, g, one = R.ring, R.rows, R.ring.one
    pivots = reduce_pivots(ring, echelon(ring, [dict(c) for c in R.columns if c], g))
    unit = {c: r for c, r in pivots if r[c] == 1}
    new = {k: i for i, k in enumerate(k for k in range(g) if k not in unit)}
    pi = [tuple(sorted((new[j], ring.finish(-v)) for j, v in unit[k].items() if j != k)) if k in unit else ((new[k], one),)
          for k in range(g)]
    rest = [tuple(sorted((new[j], v) for j, v in r.items())) for c, r in pivots if c not in unit]
    sigma = _make(ring, g, len(new), tuple(((k, one),) for k in new))
    return _make(ring, len(new), g, tuple(pi)), sigma, _make(ring, len(new), len(rest), tuple(rest))
