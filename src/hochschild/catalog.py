"""The bundled algebra catalog: small fixtures used by the CLI corpus and tests."""

from __future__ import annotations

from dataclasses import replace
from itertools import product

from .algebra import AlgebraError, FiniteAlgebra, validate_algebra
from .rings import ScalarRing


def path_algebra(ring: ScalarRing, vertices, arrows, relations) -> FiniteAlgebra:
    """kQ/I for a quiver Q and an ideal I spanned by paths (monomial relations).

    ``vertices`` are names, ``arrows`` are (name, source, target) with vertex
    indices, and each relation is a word of arrow indices.  The basis is the
    vertex idempotents (length-0 paths, named by their vertex) and the paths
    containing no relation, ordered by (source vertex, length, word) and named
    by their arrow names joined with "*".  A product of two paths is their
    concatenation when the first ends where the second starts and the result
    is nonzero, and 0 otherwise; the unit is the sum of the idempotents.
    Raises AlgebraError when the nonzero paths are infinitely many.
    """
    forbidden = {tuple(r) for r in relations}
    # a relation has at most window + 1 arrows, so a path's last window arrows decide how it goes on
    window = max([len(r) - 1 for r in forbidden] + [0])

    def target(s, w):
        return arrows[w[-1]][2] if w else s

    def state(s, w, k):  # where the first k >= window arrows end, and the last window of them
        return target(s, w[:k]), w[k - window : k]

    def name(w):
        return "*".join(arrows[a][0] for a in w)

    paths, level = [], [(v, ()) for v in range(len(vertices))]
    while level:
        paths += level
        level = [
            (s, w + (a,))
            for s, w in level
            for a, (_, source, _) in enumerate(arrows)
            if source == target(s, w) and not any(w[i:] + (a,) in forbidden for i in range(len(w) + 1))
        ]
        for s, w in level:  # a state met twice can be pumped forever
            if state(s, w, len(w)) in {state(s, w, k) for k in range(window, len(w))}:
                raise AlgebraError(f"the path {name(w)} can be repeated forever: the algebra has infinite rank")
    paths.sort(key=lambda p: (p[0], len(p[1]), p[1]))
    index = {p: k for k, p in enumerate(paths)}
    d = len(paths)
    mul = [ring.zero] * d**3
    for (i, (s, u)), (j, (t, w)) in product(enumerate(paths), repeat=2):
        k = index.get((s, u + w)) if target(s, u) == t else None
        if k is not None:
            mul[(i * d + j) * d + k] = ring.one
    names = [name(w) if w else vertices[s] for s, w in paths]
    unit = [ring.zero if w else ring.one for _, w in paths]
    return validate_algebra(ring, d, names, unit, mul)


def base_ring_algebra(ring: ScalarRing) -> FiniteAlgebra:
    """k itself as a rank-1 algebra."""
    return validate_algebra(ring, 1, ["1"], [ring.one], [ring.one])


def dual_numbers(ring: ScalarRing) -> FiniteAlgebra:
    """k[x]/(x^2), basis (1, x)."""
    return truncated_poly(ring, 2)


def truncated_poly(ring: ScalarRing, m: int) -> FiniteAlgebra:
    """k[x]/(x^m), basis (1, x, ..., x^(m-1))."""
    A = path_algebra(ring, ["1"], [("x", 0, 0)], [[0] * m])
    return replace(A, basis_names=("1", "x", *(f"x^{i}" for i in range(2, m)))[:m])


def split_pair(ring: ScalarRing) -> FiniteAlgebra:
    """k x k with the idempotent basis (e1, e2)."""
    return split_product(ring, 2)


def split_product(ring: ScalarRing, n: int) -> FiniteAlgebra:
    """k^n with the idempotent basis (e1, ..., en): n vertices and no arrows."""
    return path_algebra(ring, [f"e{i + 1}" for i in range(n)], [], [])


def matrix_algebra(ring: ScalarRing, n: int) -> FiniteAlgebra:
    """n x n matrices on the matrix-unit basis (E11, E12, ..., Enn), row-major."""
    z, one = ring.zero, ring.one
    d = n * n
    mul = [z] * d**3
    for i, j, l in product(range(n), repeat=3):  # E_ij E_jl = E_il
        mul[((i * n + j) * d + j * n + l) * d + i * n + l] = one
    names = [f"E{i + 1}{j + 1}" for i in range(n) for j in range(n)]
    unit = [one if i == j else z for i in range(n) for j in range(n)]
    return validate_algebra(ring, d, names, unit, mul)


def upper_triangular2(ring: ScalarRing) -> FiniteAlgebra:
    """Upper-triangular 2x2 matrices, basis (E11, E12, E22): the quiver 1 -> 2."""
    return path_algebra(ring, ["E11", "E22"], [("E12", 0, 1)], [])


def free2_truncated(ring: ScalarRing) -> FiniteAlgebra:
    """Free algebra on two letters t0, t1 truncated above degree 2 (rank 1+2+4 = 7)."""
    return path_algebra(ring, ["1"], [("t0", 0, 0), ("t1", 0, 0)], product(range(2), repeat=3))


def standard_corpus(rings: dict[str, ScalarRing]) -> dict[str, FiniteAlgebra]:
    """The shipped fixture corpus, keyed by file stem."""
    Z, Q, F2 = rings["Z"], rings["Q"], rings["F2"]
    return {
        "scalar_q": base_ring_algebra(Q),
        "scalar_f2": base_ring_algebra(F2),
        "scalar_z": base_ring_algebra(Z),
        "dual_q": dual_numbers(Q),
        "dual_f2": dual_numbers(F2),
        "dual_z": dual_numbers(Z),
        "zxz": split_pair(Z),
        "m2_q": matrix_algebra(Q, 2),
        "ut2_q": upper_triangular2(Q),
        "x3_z": truncated_poly(Z, 3),
        "free2_trunc_q": free2_truncated(Q),
    }
