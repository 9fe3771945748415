"""Exact sparse linear algebra over Z, Q and F_p.

Kernels, solving, Smith/Hermite normal forms and subquotient invariants.
A matrix is immutable and stored by sparse columns: each column keeps its
nonzero (row, value) pairs in increasing row order and never stores a zero,
so the bar and Hochschild complexes, which are almost entirely zero, cost
memory and time in proportion to their nonzeros.  The elimination routines
work on transient dict rows built straight from those columns, filed by
leading column, so a reduction takes time proportional to its fill plus
its pivot width.  Pivot rows are reduced against each other only where
they are read (normal forms, field solving, the Z cokernel); kernels and
ranks skip that pass.  All arithmetic is exact; over Z every kernel is
the full (hence saturated) integer kernel.

Over Z, invariant factors come from the Hermite form of the column lattice:
each pivot equal to 1 splits off a trivial summand, and the (dense) Smith
normal form runs only on the small residue of rows whose pivot exceeds 1.
Generators of a quotient still need the full Smith transform U.

Everything here is pure: no operation mutates its inputs, so concurrent
use from multiple threads is safe.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from heapq import heappop, heappush
from math import lcm

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
        for a, b in zip(self.torsion, self.torsion[1:]):
            if b % a != 0:
                raise ValueError(f"torsion {self.torsion} is not a divisibility chain")
        if any(t <= 1 for t in self.torsion):
            raise ValueError("torsion factors must exceed 1")

    @property
    def is_zero(self) -> bool:
        return self.free_rank == 0 and not self.torsion

    def __str__(self) -> str:
        parts = []
        if self.free_rank:
            parts.append(f"k^{self.free_rank}")
        parts.extend(f"k/{t}" for t in self.torsion)
        return " + ".join(parts) if parts else "0"


def _canonizer(ring: ScalarRing):
    """Canonical form of a raw int or Fraction produced by ring arithmetic."""
    if ring.kind == "Fp":
        p = ring.p
        return lambda v: v % p
    if ring.kind == "Q":
        return lambda v: v if type(v) is Fraction else Fraction(v)
    return lambda v: v


def _is_canonical(ring: ScalarRing, v) -> bool:
    if ring.kind == "Q":
        return type(v) is Fraction
    return type(v) is int and (ring.kind == "Z" or 0 <= v < ring.p)


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
                if not v or not _is_canonical(ring, v):
                    raise ValueError(f"{v!r} is not a stored value of a matrix over {ring}")
                prev = i
        _set_fields(self, ring, rows, cols, columns)

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
        canon = _canonizer(ring)
        out = []
        for c in acc:
            col = tuple((i, v) for i, v in ((i, canon(c[i])) for i in sorted(c)) if v)
            if col and not (col[0][0] >= 0 and col[-1][0] < rows):
                raise ShapeError(f"triplet row outside a matrix with {rows} rows")
            out.append(col)
        return _make(ring, rows, cols, tuple(out))

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
        modp = self.ring.p if self.ring.kind == "Fp" else 0
        out = []
        for a, b in zip(self.columns, other.columns):
            if not b or not a:
                out.append(a or b)
                continue
            acc = dict(a)
            for i, v in b:
                if i in acc:
                    v = (acc[i] + v) % modp if modp else acc[i] + v
                acc[i] = v
            out.append(tuple(sorted([p for p in acc.items() if p[1]])))
        return _make(self.ring, self.rows, self.cols, tuple(out))

    def __sub__(self, other: "Matrix") -> "Matrix":
        return self + (-other)

    def __neg__(self) -> "Matrix":
        if self.ring.kind == "Fp":
            p = self.ring.p
            cols = tuple(tuple((i, p - v) for i, v in c) for c in self.columns)
        else:
            cols = tuple(tuple((i, -v) for i, v in c) for c in self.columns)
        return _make(self.ring, self.rows, self.cols, cols)

    def scale(self, c) -> "Matrix":
        c = self.ring.canon(c)
        if not c:
            return Matrix.zeros(self.ring, self.rows, self.cols)
        if self.ring.kind == "Fp":
            p = self.ring.p
            cols = tuple(tuple((i, v * c % p) for i, v in col) for col in self.columns)
        else:
            cols = tuple(tuple((i, v * c) for i, v in col) for col in self.columns)
        return _make(self.ring, self.rows, self.cols, cols)

    def __mul__(self, other: "Matrix") -> "Matrix":
        """Matrix product, one output column at a time from the sparse columns."""
        self._same(other)
        if self.cols != other.rows:
            raise ShapeError(f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}")
        modp = self.ring.p if self.ring.kind == "Fp" else 0
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
            if modp:
                out.append(tuple((i, v) for i, v in ((i, acc[i] % modp) for i in sorted(acc)) if v))
            else:
                out.append(tuple((i, acc[i]) for i in sorted(acc) if acc[i]))
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
        orows = other.rows
        modp = self.ring.p if self.ring.kind == "Fp" else 0
        cols = []
        for a in self.columns:
            for b in other.columns:
                if modp:
                    cols.append(tuple((i * orows + k, x * y % modp) for i, x in a for k, y in b))
                else:
                    cols.append(tuple((i * orows + k, x * y) for i, x in a for k, y in b))
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


def _set_fields(m: Matrix, ring: ScalarRing, rows: int, cols: int, columns: tuple) -> None:
    _set_ring(m, ring)
    _set_rows(m, rows)
    _set_cols(m, cols)
    _set_columns(m, columns)


def _make(ring: ScalarRing, rows: int, cols: int, columns: tuple) -> Matrix:
    """A matrix from columns already in canonical form (no checks)."""
    m = _new(Matrix)
    _set_ring(m, ring)
    _set_rows(m, rows)
    _set_cols(m, cols)
    _set_columns(m, columns)
    return m


# ---------------------------------------------------------------------------
# elimination cores (dict-based sparse rows, exact)
# ---------------------------------------------------------------------------


def _row_sub(r: dict, s: dict, q, modp: int) -> None:
    # r -= q*s, in place
    if modp:
        for c, v in s.items():
            nv = (r.get(c, 0) - q * v) % modp
            if nv:
                r[c] = nv
            else:
                r.pop(c, None)
    else:
        for c, v in s.items():
            nv = r.get(c, 0) - q * v
            if nv:
                r[c] = nv
            else:
                r.pop(c, None)


def _file_by_lead(buckets: dict, k: int, row: dict, pivot_width: int) -> None:
    # file row k under its leading column; rows led past pivot_width are leftovers
    if row:
        lead = min(row)
        if lead < pivot_width:
            buckets.setdefault(lead, []).append(k)


def _reduce_rows_int(rows: list[dict], pivot_width: int) -> list[tuple[int, dict]]:
    """Integer row reduction to echelon form over the first pivot_width columns.

    Only unimodular operations are used (swaps, adding integer multiples of
    one row to another, sign flips), so the row lattice is preserved exactly.
    Returns the pivot rows as (pivot_column, row) in column order, not yet
    reduced against each other (_back_substitute does that); the input list
    is left holding the other nonzero rows, in input order.  Rows are filed
    by leading column, so the work is proportional to the fill plus pivot_width.
    """
    buckets: dict[int, list[int]] = {}
    for k, r in enumerate(rows):
        _file_by_lead(buckets, k, r, pivot_width)
    pivots: list[tuple[int, dict]] = []
    for c in range(pivot_width):
        holders = buckets.pop(c, None)
        if holders is None:
            continue
        holders.sort()  # input order, which the stable sorts below keep among ties
        # repeatedly reduce by the entry of smallest magnitude until one remains
        while len(holders) > 1:
            holders.sort(key=lambda k: abs(rows[k][c]))
            piv = rows[holders[0]]
            pv = piv[c]
            rest = []
            for k in holders[1:]:
                r = rows[k]
                q = r[c] // pv
                if q:
                    _row_sub(r, piv, q, 0)
                if c in r:
                    rest.append(k)
                else:
                    _file_by_lead(buckets, k, r, pivot_width)
            holders = [holders[0]] + rest
        piv = rows[holders[0]]
        if piv[c] < 0:
            for k in list(piv):
                piv[k] = -piv[k]
        pivots.append((c, piv))
    rows[:] = [r for r in rows if r and min(r) >= pivot_width]
    return pivots


def _reduce_rows_field(rows: list[dict], pivot_width: int, ring: ScalarRing) -> list[tuple[int, dict]]:
    """Field row reduction over the first pivot_width columns, as _reduce_rows_int:
    pivot rows are scaled to a leading 1 and the work is proportional to the
    fill plus pivot_width."""
    modp = ring.p if ring.kind == "Fp" else 0
    buckets: dict[int, list[int]] = {}
    for k, r in enumerate(rows):
        _file_by_lead(buckets, k, r, pivot_width)
    pivots: list[tuple[int, dict]] = []
    for c in range(pivot_width):
        holders = buckets.pop(c, None)
        if holders is None:
            continue
        holders.sort()
        piv = rows[holders[0]]
        inv = ring.invert(piv[c])
        if inv != ring.one:
            if modp:
                for k in list(piv):
                    piv[k] = piv[k] * inv % modp
            else:
                for k in list(piv):
                    piv[k] = piv[k] * inv
        for k in holders[1:]:
            r = rows[k]
            _row_sub(r, piv, r[c], modp)
            _file_by_lead(buckets, k, r, pivot_width)
        pivots.append((c, piv))
    rows[:] = [r for r in rows if r and min(r) >= pivot_width]
    return pivots


def _back_substitute(pivots: list[tuple[int, dict]], ring: ScalarRing) -> None:
    """Reduce echelon pivot rows against each other, in place: the Hermite form
    over Z (entries above a pivot p in [0, p)), the RREF over a field.

    Rows are finished from the last pivot to the first, each against final
    rows only.  Over a field these have no entry at another pivot column, so
    the order does not matter; over Z a row with a pivot > 1 can carry entries
    at later pivot columns, so a heap clears them in increasing column order.
    The result does not depend on when the reduction runs: the Hermite form
    and the RREF are unique, and the leading parts have full row rank, so the
    unitriangular transform from the echelon rows is unique too, and with it
    every column past the leading part (kernel combinations, solve
    transforms, a right-hand side).
    """
    integral = ring.kind == "Z"
    modp = ring.p if ring.kind == "Fp" else 0
    at = dict(pivots)
    for c0, row in reversed(pivots):
        heap = sorted(c for c in row if c != c0 and c in at)
        while heap:
            c = heappop(heap)
            pr = at[c]
            q = row.get(c, 0) // pr[c] if integral else row.get(c, 0)
            if q:
                _row_sub(row, pr, q, modp)
                if integral:
                    for k in pr:
                        if k != c and k in at:
                            heappush(heap, k)


def _scale_row_to_int(row: dict) -> dict:
    """Clear Fraction denominators of a dict row (multiplies by a positive unit)."""
    if not row:
        return {}
    denom = lcm(*[v.denominator for v in row.values()]) if row else 1
    return {c: int(v * denom) for c, v in row.items()}


# ---------------------------------------------------------------------------
# public operations
# ---------------------------------------------------------------------------


def rank(M: Matrix) -> int:
    # the column rank: the columns of M are the rows of its transpose
    rows = [dict(c) for c in M.columns]
    if M.ring.kind == "Fp":
        return len(_reduce_rows_field(rows, M.rows, M.ring))
    if M.ring.kind == "Q":
        rows = [_scale_row_to_int(r) for r in rows]
    return len(_reduce_rows_int(rows, M.rows))


def kernel_basis(M: Matrix) -> Matrix:
    """Basis of ker(M) as matrix columns, in a canonical echelon form.

    Over Z the columns are a basis of the full integer kernel lattice, so the
    result is saturated.  Computed by reducing the transpose augmented with an
    identity block: rows whose leading part dies give the kernel combinations.
    """
    n, m = M.cols, M.rows
    rational = M.ring.kind == "Q"
    one = M.ring.one
    rows = []
    for j, col in enumerate(M.columns):
        row = dict(col)
        row[m + j] = one
        if rational:
            row = _scale_row_to_int(row)
        rows.append(row)
    if M.ring.kind == "Fp":
        _reduce_rows_field(rows, m, M.ring)
    else:
        _reduce_rows_int(rows, m)
    kernel_rows = [{c - m: v for c, v in r.items()} for r in rows]  # leading parts are zero
    return _normal_form_columns(M.ring, kernel_rows, n)


def _normal_form_columns(ring: ScalarRing, vec_rows: list[dict], width: int) -> Matrix:
    """Canonicalize a set of vectors (dict rows of the given width) to echelon columns."""
    vecs = [dict(r) for r in vec_rows if r]
    if ring.kind == "Z":
        pivots = _reduce_rows_int(vecs, width)
    else:
        if ring.kind == "Q":
            vecs = [{c: Fraction(v) for c, v in r.items()} for r in vecs]
        pivots = _reduce_rows_field(vecs, width, ring)
    _back_substitute(pivots, ring)
    canon = _canonizer(ring)
    cols = tuple(tuple((k, canon(r[k])) for k in sorted(r)) for _, r in pivots)
    return _make(ring, width, len(cols), cols)


def column_span_basis(M: Matrix) -> Matrix:
    """Canonical basis of the column space (fields) or column lattice (Z)."""
    return _normal_form_columns(M.ring, [dict(c) for c in M.columns if c], M.rows)


def coords_in_span(basis: Matrix, M: Matrix) -> Matrix:
    """Express each column of M in an echelon-column basis (exact, per ring).

    The basis must come from kernel_basis / column_span_basis: the leading
    (first) row lead_j of its column j increases with j.  Each target is
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
    kind, p = ring.kind, ring.p
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
            pv = col[0][1]
            if kind == "Z":
                if val % pv:
                    raise ContainmentError(jt)
                q = val // pv
            elif kind == "Q":
                q = val / pv
            else:
                q = val * pow(pv, -1, p) % p
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

    Over Z the decision is integral: a rational-only solution yields None.
    """
    if b.rows != M.rows or b.cols != 1:
        raise ShapeError("right-hand side must be a column of matching height")
    M._same(b)
    ring = M.ring
    z = ring.zero
    if ring.kind == "Z":
        # Echelon form of the transpose, rows augmented by unit combination
        # vectors.  The Hermite rows would be a unitriangular recombination of
        # these, giving the same x, so no back-substitution is needed.
        rows = []
        for j, col in enumerate(M.columns):
            row = dict(col)
            row[M.rows + j] = 1
            rows.append(row)
        pivots = _reduce_rows_int(rows, M.rows)
        residual = b.col_list(0)
        x = [0] * M.cols
        for c, r in pivots:
            val = residual[c]
            if val == 0:
                continue
            if val % r[c] != 0:
                return None
            q = val // r[c]
            for k, v in r.items():
                if k < M.rows:
                    residual[k] -= q * v
                else:
                    x[k - M.rows] += q * v
        if any(v != 0 for v in residual):
            return None
        return Matrix.column(ring, x)
    # field case: RREF of [M | b]
    rows = [dict(c) for c in M.transpose().columns]
    for i, v in b.columns[0]:
        rows[i][M.cols] = v
    pivots = _reduce_rows_field(rows, M.cols, ring)
    _back_substitute(pivots, ring)
    for r in rows:
        if r and M.cols in r:
            return None  # zero row with nonzero rhs
    x = [z] * M.cols
    for c, r in pivots:
        x[c] = ring.canon(r.get(M.cols, z))
    return Matrix.column(ring, x)


def smith_normal_form(M: Matrix) -> tuple[Matrix, Matrix, Matrix]:
    """Smith normal form over Z: returns (U, D, V) with U*M*V = D.

    U and V are unimodular; D is diagonal with d1 | d2 | ... >= 0.  Pivoting
    always selects the entry of smallest absolute value, the usual heuristic
    against coefficient swell; correctness does not depend on the choice.
    """
    if M.ring.kind != "Z":
        raise RingError("Smith normal form requires the ring Z")
    m, n = M.rows, M.cols
    A = M.to_rows()
    U = [[1 if i == j else 0 for j in range(m)] for i in range(m)]
    V = [[1 if i == j else 0 for j in range(n)] for i in range(n)]

    def row_op(i, j, q):  # row_i -= q * row_j
        Ai, Aj = A[i], A[j]
        for k in range(n):
            Ai[k] -= q * Aj[k]
        Ui, Uj = U[i], U[j]
        for k in range(m):
            Ui[k] -= q * Uj[k]

    def col_op(i, j, q):  # col_i -= q * col_j
        for r in range(m):
            A[r][i] -= q * A[r][j]
        for r in range(n):
            V[r][i] -= q * V[r][j]

    t = 0
    while True:
        best = None
        for i in range(t, m):
            Ai = A[i]
            for j in range(t, n):
                v = Ai[j]
                if v and (best is None or abs(v) < best[0]):
                    best = (abs(v), i, j)
        if best is None:
            break
        _, bi, bj = best
        if bi != t:
            A[t], A[bi] = A[bi], A[t]
            U[t], U[bi] = U[bi], U[t]
        if bj != t:
            for r in range(m):
                A[r][t], A[r][bj] = A[r][bj], A[r][t]
            for r in range(n):
                V[r][t], V[r][bj] = V[r][bj], V[r][t]
        while True:
            # clear column t
            dirty = False
            for i in range(t + 1, m):
                if A[i][t]:
                    q = A[i][t] // A[t][t]
                    row_op(i, t, q)
                    if A[i][t]:  # remainder smaller than pivot: swap up
                        A[t], A[i] = A[i], A[t]
                        U[t], U[i] = U[i], U[t]
                        dirty = True
            if dirty:
                continue
            for j in range(t + 1, n):
                if A[t][j]:
                    q = A[t][j] // A[t][t]
                    col_op(j, t, q)
                    if A[t][j]:
                        for r in range(m):
                            A[r][t], A[r][j] = A[r][j], A[r][t]
                        for r in range(n):
                            V[r][t], V[r][j] = V[r][j], V[r][t]
                        dirty = True
            if dirty:
                continue
            # divisibility fix-up: pivot must divide every remaining entry
            offender = None
            piv = A[t][t]
            for i in range(t + 1, m):
                Ai = A[i]
                for j in range(t + 1, n):
                    if Ai[j] % piv != 0:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            row_op(t, offender, -1)  # row_t += row_offender
        if A[t][t] < 0:
            for k in range(n):
                A[t][k] = -A[t][k]
            for k in range(m):
                U[t][k] = -U[t][k]
        t += 1
        if t == m or t == n:
            break
    Um = Matrix.from_rows(ZZ, U)
    Dm = Matrix.from_rows(ZZ, A)
    Vm = Matrix.from_rows(ZZ, V)
    return Um, Dm, Vm


def invariants_from_diagonal(diag: list[int], total_rank: int) -> KModuleInvariants:
    nonzero = [abs(d) for d in diag if d]
    torsion = tuple(d for d in nonzero if d > 1)
    return KModuleInvariants(total_rank - len(nonzero), torsion)


def cokernel_invariants(M: Matrix) -> KModuleInvariants:
    """Invariants of ring^rows / (column span of M).

    Over Z the column lattice is first brought to Hermite form.  A pivot
    equal to 1 is alone in its column there, so its row and column split off
    a trivial summand; only the rows with a pivot > 1, restricted to the
    columns they touch, go through the Smith normal form.
    """
    if M.ring.kind != "Z":
        return KModuleInvariants(M.rows - rank(M))
    pivots = _reduce_rows_int([dict(c) for c in M.columns if c], M.rows)
    _back_substitute(pivots, ZZ)
    residue = [r for c, r in pivots if r[c] > 1]
    diag = [1] * (len(pivots) - len(residue))
    if residue:
        touched = {c: k for k, c in enumerate(sorted(set().union(*residue)))}
        R = Matrix.from_triplets(
            ZZ, len(residue), len(touched), ((i, touched[c], v) for i, r in enumerate(residue) for c, v in r.items())
        )
        _, D, _ = smith_normal_form(R)
        diag += [D[i, i] for i in range(len(residue))]
    return invariants_from_diagonal(diag, M.rows)


def subquotient_invariants(Z: Matrix, B: Matrix) -> KModuleInvariants:
    """Invariants of (span of Z's columns) / (span of B's columns).

    Columns may be arbitrary spanning sets.  Raises ContainmentError naming
    the first offending column of B that escapes the span of Z.
    """
    Z._same(B)
    if Z.rows != B.rows:
        raise ShapeError("ambient dimensions differ")
    return cokernel_invariants(coords_in_span(column_span_basis(Z), B))


def quotient_generators(Z: Matrix, B: Matrix) -> tuple[KModuleInvariants, list[Matrix]]:
    """Like subquotient_invariants, but also returns generator columns.

    The generators map onto a minimal generating set of the quotient: free
    generators first, then torsion generators in increasing invariant-factor
    order (over a field: a basis of a complement of span(B) in span(Z)).
    """
    Z._same(B)
    basis = column_span_basis(Z)
    r = basis.cols
    ring = Z.ring
    if ring.kind == "Z":
        U, D, _ = smith_normal_form(coords_in_span(basis, B))
        diag = [D[i, i] for i in range(min(D.rows, D.cols))]
        # generators of Z^r / C are the columns of U^{-1}; solve U x = e_i
        invs = invariants_from_diagonal(diag, r)
        free_idx = [i for i in range(r) if i >= len(diag) or diag[i] == 0]
        tors_idx = [i for i in range(len(diag)) if abs(diag[i]) > 1]
        gens = []
        for i in free_idx + tors_idx:
            e = Matrix.column(ring, [1 if k == i else 0 for k in range(r)])
            x = solve(U, e)  # columns of U^{-1}, one linear solve each
            gens.append(basis * x)
        return invs, gens
    # field: complement of span(coords) inside k^r
    rows = [dict(c) for c in coords_in_span(basis, B).columns if c]
    pivot_cols = {c for c, _ in _reduce_rows_field(rows, r, ring)}
    invs = KModuleInvariants(r - len(pivot_cols))
    gens = [basis.submatrix_cols((i,)) for i in range(r) if i not in pivot_cols]
    return invs, gens


def homology(outgoing: Matrix, incoming: Matrix) -> tuple[KModuleInvariants, list[Matrix]]:
    """ker(outgoing) / im(incoming) at the middle of  . --incoming--> . --outgoing--> .

    Returns the invariants and generator columns, as quotient_generators does.
    """
    return quotient_generators(kernel_basis(outgoing), incoming)
