"""The bundled algebra catalog: small fixtures used by the CLI corpus and tests."""

from __future__ import annotations

from .algebra import Bimodule, FiniteAlgebra, truncated_tensor_algebra, validate_algebra
from .matrix import Matrix
from .rings import ScalarRing


def base_ring_algebra(ring: ScalarRing) -> FiniteAlgebra:
    """k itself as a rank-1 algebra."""
    return validate_algebra(ring, 1, ["1"], [ring.one], [ring.one])


def dual_numbers(ring: ScalarRing) -> FiniteAlgebra:
    """k[x]/(x^2), basis (1, x)."""
    return truncated_poly(ring, 2)


def truncated_poly(ring: ScalarRing, m: int) -> FiniteAlgebra:
    """k[x]/(x^m), basis (1, x, ..., x^(m-1))."""
    z, one = ring.zero, ring.one
    mul = [z] * m**3
    for i in range(m):
        for j in range(m):
            if i + j < m:
                mul[(i * m + j) * m + (i + j)] = one
    names = ["1"] + [f"x{'^' + str(i) if i > 1 else ''}" for i in range(1, m)]
    unit = [one] + [z] * (m - 1)
    return validate_algebra(ring, m, names, unit, mul)


def split_pair(ring: ScalarRing) -> FiniteAlgebra:
    """k x k with the idempotent basis (e1, e2)."""
    return split_product(ring, 2)


def split_product(ring: ScalarRing, n: int) -> FiniteAlgebra:
    """k^n with the idempotent basis (e1, ..., en)."""
    z, one = ring.zero, ring.one
    mul = [z] * n**3
    for i in range(n):
        mul[(i * n + i) * n + i] = one
    return validate_algebra(ring, n, [f"e{i + 1}" for i in range(n)], [one] * n, mul)


def matrix_algebra2(ring: ScalarRing) -> FiniteAlgebra:
    """2x2 matrices on the matrix-unit basis (E11, E12, E21, E22)."""
    z, one = ring.zero, ring.one
    units = [(0, 0), (0, 1), (1, 0), (1, 1)]
    mul = [z] * 64
    for a, (i, j) in enumerate(units):
        for b, (k, l) in enumerate(units):
            if j == k:
                c = units.index((i, l))
                mul[(a * 4 + b) * 4 + c] = one
    unit = [one, z, z, one]
    return validate_algebra(ring, 4, ["E11", "E12", "E21", "E22"], unit, mul)


def upper_triangular2(ring: ScalarRing) -> FiniteAlgebra:
    """Upper-triangular 2x2 matrices, basis (E11, E12, E22)."""
    z, one = ring.zero, ring.one
    units = [(0, 0), (0, 1), (1, 1)]
    mul = [z] * 27
    for a, (i, j) in enumerate(units):
        for b, (k, l) in enumerate(units):
            if j == k and (i, l) in units:
                c = units.index((i, l))
                mul[(a * 3 + b) * 3 + c] = one
    return validate_algebra(ring, 3, ["E11", "E12", "E22"], [one, z, one], mul)


def free2_truncated(ring: ScalarRing) -> FiniteAlgebra:
    """Free algebra on two letters truncated above degree 2 (rank 1+2+4 = 7)."""
    k = base_ring_algebra(ring)
    I2 = Matrix.identity(ring, 2)
    M = Bimodule(k, 2, (I2,), (I2,))
    return truncated_tensor_algebra(k, M, 2)


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
        "m2_q": matrix_algebra2(Q),
        "ut2_q": upper_triangular2(Q),
        "x3_z": truncated_poly(Z, 3),
        "free2_trunc_q": free2_truncated(Q),
    }
