"""Exact elimination cores on sparse dict rows {column: value} over Z, Q and F_p.

Only matrix.py imports this module.  The cores file rows by leading column,
so a reduction takes time proportional to its fill plus its pivot width.
echelon alone picks the core: F_p the field core, Z and Q the integer core (Q
on rows cleared of denominators).  The cores pivot on the holder of a column
with the fewest stored entries (over Z and Q, among those of least |entry|)
to keep the fill down; reduce_pivots brings their pivot rows to the Hermite
form over Z or the RREF over a field.  smith is the sparse Smith normal form
over Z; it tracks U^-1 next to U.
"""

from __future__ import annotations

from fractions import Fraction
from heapq import heappop, heappush
from math import lcm

from .rings import ScalarRing


def row_sub(r: dict, s: dict, q, modp: int) -> None:
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
    reduced against each other (back_substitute does that); the input list
    is left holding the other nonzero rows, in input order.  Rows are filed
    by leading column, so the work is proportional to the fill plus pivot_width.
    The pivot at c has the smallest |entry| there, then the fewest stored
    entries, then the first input place.
    """
    buckets: dict[int, list[int]] = {}
    for k, r in enumerate(rows):
        _file_by_lead(buckets, k, r, pivot_width)
    pivots: list[tuple[int, dict]] = []
    for c in range(pivot_width):
        holders = buckets.pop(c, None)
        if holders is None:
            continue
        # repeatedly reduce by the entry of smallest magnitude until one remains
        while len(holders) > 1:
            top = min(holders, key=lambda k: (abs(rows[k][c]), len(rows[k]), k))
            piv = rows[top]
            holders.remove(top)
            rest = []
            for k in holders:
                r = rows[k]
                q = r[c] // piv[c]
                if q:
                    row_sub(r, piv, q, 0)
                if c in r:
                    rest.append(k)
                else:
                    _file_by_lead(buckets, k, r, pivot_width)
            holders = [top] + rest
        piv = rows[holders[0]]
        if piv[c] < 0:
            for k in list(piv):
                piv[k] = -piv[k]
        pivots.append((c, piv))
    rows[:] = [r for r in rows if r and min(r) >= pivot_width]
    return pivots


def _reduce_rows_field(rows: list[dict], pivot_width: int, p: int) -> list[tuple[int, dict]]:
    """Row reduction over F_p on the first pivot_width columns, as _reduce_rows_int:
    pivot rows are scaled to a leading 1 and the work is proportional to the
    fill plus pivot_width.  The pivot at column c is the holder with the fewest
    stored entries, first in input order among ties."""
    buckets: dict[int, list[int]] = {}
    for k, r in enumerate(rows):
        _file_by_lead(buckets, k, r, pivot_width)
    pivots: list[tuple[int, dict]] = []
    for c in range(pivot_width):
        holders = buckets.pop(c, None)
        if holders is None:
            continue
        holders.sort(key=lambda k: (len(rows[k]), k))
        piv = rows[holders[0]]
        inv = pow(piv[c], -1, p)
        if inv != 1:
            for k in list(piv):
                piv[k] = piv[k] * inv % p
        for k in holders[1:]:
            r = rows[k]
            row_sub(r, piv, r[c], p)
            _file_by_lead(buckets, k, r, pivot_width)
        pivots.append((c, piv))
    rows[:] = [r for r in rows if r and min(r) >= pivot_width]
    return pivots


def back_substitute(pivots: list[tuple[int, dict]], ring: ScalarRing) -> None:
    """Reduce echelon pivot rows against each other, in place: the Hermite form
    over Z (entries above a pivot p in [0, p)), the RREF over a field.

    Rows are finished from the last pivot to the first, each against final
    rows only.  Over a field these have no entry at another pivot column, so
    the order does not matter; over Z a row with a pivot > 1 can carry entries
    at later pivot columns, so a heap clears them in increasing column order.
    The result does not depend on when the reduction runs: the Hermite form
    and the RREF are unique, and the leading parts have full row rank, so the
    unitriangular transform from the echelon rows is unique too, and with it
    every column past the leading part (kernel combinations, a right-hand side).
    """
    integral = ring.kind == "Z"
    modp = ring.p  # 0 unless F_p
    at = dict(pivots)
    for c0, row in reversed(pivots):
        heap = sorted(c for c in row if c != c0 and c in at)
        while heap:
            c = heappop(heap)
            pr = at[c]
            q = row.get(c, 0) // pr[c] if integral else row.get(c, 0)
            if q:
                row_sub(row, pr, q, modp)
                if integral:
                    for k in pr:
                        if k != c and k in at:
                            heappush(heap, k)


def echelon(ring: ScalarRing, rows: list[dict], width: int) -> list[tuple[int, dict]]:
    """Echelon pivot rows over the first width columns, by the core of the ring.

    Over Q each row is first cleared of denominators, a positive unit, so the
    integer core sees the same rational row space, pivot columns and RREF.
    The list keeps the rows led past width.
    """
    if ring.kind == "Fp":
        return _reduce_rows_field(rows, width, ring.p)
    if ring.kind == "Q":
        for k, r in enumerate(rows):
            for v in r.values():
                if type(v) is not int:  # a Fraction row; all-int rows pass as they are
                    d = lcm(*[v.denominator for v in r.values()])
                    rows[k] = {c: v.numerator * (d // v.denominator) for c, v in r.items()}
                    break
    return _reduce_rows_int(rows, width)


def reduce_pivots(ring: ScalarRing, pivots: list[tuple[int, dict]]) -> list[tuple[int, dict]]:
    """Echelon pivot rows reduced against each other: the Hermite form over Z,
    the RREF over a field.  Over Q each integer pivot row is divided by its
    pivot first, and the values are finished at the end."""
    if ring.kind == "Q":
        pivots = [(c, {k: ring.div(v, r[c]) for k, v in r.items()}) for c, r in pivots]
    back_substitute(pivots, ring)
    for _, r in pivots:  # only Q rows hold Fractions, which may have become integral
        r.update([(k, ring.finish(v)) for k, v in r.items() if type(v) is Fraction])
    return pivots


def smith(A: list[dict], n: int) -> tuple[list[int], tuple, tuple, tuple]:
    """The moves of smith_normal_form on the dict rows A (n columns, consumed).

    Rows stay keyed by physical column and ``phys`` maps logical columns to
    physical ones, so a column swap swaps two entries.  U^-1 takes the
    inverse moves: row_i -= q*row_j on U is col_j += q*col_i on U^-1, and a
    row swap or sign flip of U is the same on columns of U^-1.  Returns the
    diagonal (min(m, n) entries), the rows of U and the columns of U^-1 and V.
    """
    m = len(A)
    U = [{i: 1} for i in range(m)]
    Uinv = [{i: 1} for i in range(m)]
    V = [{j: 1} for j in range(n)]  # by physical column, like A
    phys = list(range(n))
    logical = list(range(n))

    def row_op(i, j, q):  # row_i -= q * row_j
        row_sub(A[i], A[j], q, 0)
        row_sub(U[i], U[j], q, 0)
        row_sub(Uinv[j], Uinv[i], -q, 0)

    def row_swap(i, j):
        for T in (A, U, Uinv):
            T[i], T[j] = T[j], T[i]

    def col_swap(i, j):  # logical columns
        pi, pj = phys[i], phys[j]
        phys[i], phys[j] = pj, pi
        logical[pi], logical[pj] = j, i

    t = 0
    while t < m and t < n:
        best = None
        for i, r in enumerate(A[t:], t):  # rows from t on hold only columns from t on
            a = min(map(abs, r.values()), default=0)
            if a and (best is None or a < best[0]):
                best = (a, i, min(logical[p] for p, v in r.items() if abs(v) == a))
                if a == 1:
                    break  # no later row can beat a unit
        if best is None:
            break
        _, bi, bj = best
        if bi != t:
            row_swap(t, bi)
        if bj != t:
            col_swap(t, bj)
        while True:
            # clear column t; no row is touched before its turn, so the
            # rows to visit are known up front (as are the columns below)
            pt = phys[t]
            dirty = False
            for i in [i for i in range(t + 1, m) if pt in A[i]]:
                row_op(i, t, A[i][pt] // A[t][pt])
                if pt in A[i]:  # remainder smaller than pivot: swap up
                    row_swap(t, i)
                    dirty = True
            if dirty:
                continue
            # clear row t; the column ops reach every row holding column t,
            # which after a column swap includes rows below t
            row = A[t]
            holders = [row]
            for j in sorted(logical[p] for p in row if logical[p] > t):
                pt, pj = phys[t], phys[j]
                q = row[pj] // row[pt]
                for r in holders:  # col_j -= q * col_t
                    r[pj] = r.get(pj, 0) - q * r[pt]
                    if not r[pj]:
                        del r[pj]
                row_sub(V[pj], V[pt], q, 0)
                if pj in row:
                    col_swap(t, j)
                    holders = [r for r in A[t:] if pj in r]
                    dirty = True
            if dirty:
                continue
            # divisibility fix-up: pivot must divide every remaining entry
            piv = row[phys[t]]
            offender = next((i for i in range(t + 1, m) if piv != 1 and any(map(piv.__rmod__, A[i].values()))), None)
            if offender is None:
                break
            row_op(t, offender, -1)  # row_t += row_offender
        if A[t][phys[t]] < 0:
            for T in (A[t], U[t], Uinv[t]):
                for k in T:
                    T[k] = -T[k]
        t += 1
    diag = [A[i].get(phys[i], 0) for i in range(min(m, n))]
    U, Uinv, V = (tuple(tuple(sorted(c.items())) for c in T) for T in (U, Uinv, [V[p] for p in phys]))
    return diag, U, Uinv, V
