"""The matrix-identity law checks against per-basis-pair loop oracles.

Each `_oracle_*` below is the straightforward loop form of a law check or
table builder: one basis pair at a time, through dense coefficient lists
and `FiniteAlgebra.multiply`.  A seeded battery over the fixture corpus up
to rank 4 (over Z, Q and F_2) perturbs one entry of a projection,
inclusion, section, action matrix, structure constant or derivation and
requires the library to give the same result, witness and error text.
"""

import random
from dataclasses import replace
from fractions import Fraction

import pytest

from hochschild.algebra import (
    AlgebraError,
    FiniteAlgebra,
    enveloping,
    regular_bimodule,
    validate_algebra,
    with_unital_basis,
    zero_bimodule,
)
from hochschild.bar import chain_bimodule, is_derivation
from hochschild.cohomology import coboundary_matrix, derivations, inner_derivation_generators
from hochschild.extensions import (
    ExtensionPresentation,
    crossed_product,
    crossed_product_presentation,
    extension_class_from_section,
    two_cochain_from_vector,
    validate_extension,
)
from hochschild.matrix import Matrix, column_span_basis, coords_in_span, kernel_basis, rank, solve

SEED = 20261018


# -- the loop oracles --------------------------------------------------------------------


def _oracle_validate_extension(E):
    A, M, B = E.algebra, E.bimodule, E.total
    ring = A.ring
    d, m = A.rank, M.rank
    if B.rank != d + m:
        raise AlgebraError("total algebra rank must be rank(A) + rank(M)")
    if (E.projection * E.inclusion).is_zero is False:
        raise AlgebraError("projection composed with inclusion must vanish")
    if E.projection * E.section != Matrix.identity(ring, d):
        raise AlgebraError("the section does not split the projection")
    for i in range(B.rank):
        for j in range(B.rank):
            lhs = E.projection * Matrix.column(ring, B.product_column(i, j))
            a = E.projection.col_list(i)
            b = E.projection.col_list(j)
            rhs = Matrix.column(ring, A.multiply(a, b))
            if lhs != rhs:
                raise AlgebraError(f"projection is not multiplicative at ({i}, {j})")
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
    if rank(E.inclusion) != m:
        raise AlgebraError("inclusion of the ideal is not injective")
    coords_in_span(column_span_basis(E.inclusion), kernel_basis(E.projection))
    return E


def _oracle_crossed_product(A, M, B):
    """The crossed product with its table filled entry by entry and the unit solved for."""
    ring = A.ring
    d, m = A.rank, M.rank
    total = d + m
    mul = [ring.zero] * total**3

    def put(i, j, k, v):
        if v != ring.zero:
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
            for q, v in enumerate(M.left[i].col_list(p)):
                put(i, d + p, d + q, v)
            for q, v in enumerate(M.right[i].col_list(p)):
                put(d + p, i, d + q, v)
    names = tuple(A.basis_names) + tuple(f"m{i}" for i in range(m))
    # unit (1, m0): m0 a = -B(1, a) and a m0 = -B(a, 1) for all a, solved linearly
    unit_rows, rhs_rows = [], []
    for i in range(d):
        e_i = [ring.one if t == i else ring.zero for t in range(d)]
        b_right = B.value_on(list(A.unit), e_i)
        b_left = B.value_on(e_i, list(A.unit))
        for r in range(m):
            unit_rows.append(M.right[i].transpose().col_list(r))
            rhs_rows.append(ring.neg(b_right[r, 0]))
            unit_rows.append(M.left[i].transpose().col_list(r))
            rhs_rows.append(ring.neg(b_left[r, 0]))
    m0 = []
    if m:
        x = solve(Matrix.from_rows(ring, unit_rows), Matrix.column(ring, rhs_rows))
        if x is None:
            raise AlgebraError("no unit exists for the crossed product (cocycle data inconsistent)")
        m0 = x.col_list(0)
    return validate_algebra(ring, total, names, list(A.unit) + m0, mul)


def _oracle_is_derivation(M, D):
    A = M.algebra
    for i in range(A.rank):
        for j in range(A.rank):
            lhs = Matrix.zeros(A.ring, M.rank, 1)
            for k, c in enumerate(A.product_column(i, j)):
                if c != A.ring.zero:
                    lhs = lhs + Matrix.column(A.ring, D.col_list(k)).scale(c)
            rhs = M.left[i] * Matrix.column(A.ring, D.col_list(j)) + M.right[j] * Matrix.column(
                A.ring, D.col_list(i)
            )
            if lhs != rhs:
                return False, (i, j)
    return True, None


def _oracle_extension_class_from_section(E, s):
    A, M, B = E.algebra, E.bimodule, E.total
    ring = A.ring
    if E.projection * s != Matrix.identity(ring, A.rank):
        raise AlgebraError("the supplied map is not a section of the projection")
    cols = []
    for i in range(A.rank):
        for j in range(A.rank):
            prod = B.multiply(s.col_list(i), s.col_list(j))
            defect = Matrix.column(ring, prod) - s * Matrix.column(ring, A.product_column(i, j))
            x = solve(E.inclusion, defect)
            if x is None:
                raise AlgebraError("section defect escapes the ideal")
            cols.append(x.col_list(0))
    return Matrix.from_cols(ring, cols, nrows=M.rank)


def _oracle_with_unital_basis(A):
    if A.has_unital_basis:
        return A, Matrix.identity(A.ring, A.rank)
    d, ring = A.rank, A.ring
    pivot = next((i for i, u in enumerate(A.unit) if ring.is_unit(u)), None)
    if pivot is None:
        raise AlgebraError(
            "the unit has no unimodular coordinate; cannot canonicalize to a unital basis over this ring"
        )
    order = [pivot] + [i for i in range(d) if i != pivot]
    cols = [list(A.unit)] + [[ring.one if r == i else ring.zero for r in range(d)] for i in order[1:]]
    P = Matrix.from_cols(ring, cols, nrows=d)
    Pinv = Matrix.from_cols(
        ring,
        [solve(P, Matrix.column(ring, [ring.one if r == i else ring.zero for r in range(d)])).col_list(0) for i in range(d)],
        nrows=d,
    )
    mul = [ring.zero] * d**3
    for i in range(d):
        for j in range(d):
            coords = Pinv * Matrix.column(ring, A.multiply(P.col_list(i), P.col_list(j)))
            for k in range(d):
                mul[(i * d + j) * d + k] = coords[k, 0]
    names = ("1",) + tuple(A.basis_names[i] for i in order[1:])
    unit = (ring.one,) + (ring.zero,) * (d - 1)
    return FiniteAlgebra(ring, d, names, unit, tuple(mul)), P


def _oracle_enveloping(A):
    d, ring = A.rank, A.ring
    D = d * d
    mul = [ring.zero] * D**3
    for i in range(d):
        for j in range(d):
            for p in range(d):
                for q in range(d):
                    # (e_i (x) e_j) * (e_p (x) e_q) = e_i e_p (x) e_q e_j
                    left, right = A.product_column(i, p), A.product_column(q, j)
                    base = ((i * d + j) * D + p * d + q) * D
                    for r in range(d):
                        for s in range(d):
                            if left[r] != ring.zero and right[s] != ring.zero:
                                mul[base + r * d + s] = ring.canon(left[r] * right[s])
    unit = [ring.canon(a * b) for a in A.unit for b in A.unit]
    names = tuple(f"{a}(x){b}" for a in A.basis_names for b in A.basis_names)
    return FiniteAlgebra(ring, D, names, tuple(unit), tuple(mul))


# -- perturbations ----------------------------------------------------------------------


def _outcome(f, *args):
    """("ok", value) or the exception class name and text."""
    try:
        return "ok", f(*args)
    except ValueError as exc:
        return type(exc).__name__, str(exc)


def _typed(values):
    """The values with their types, so that 0 and Fraction(0) count as different."""
    return [(type(v), v) for v in values]


def _same_algebra(X, Y):
    return X == Y and _typed(X.mul) == _typed(Y.mul) and _typed(X.unit) == _typed(Y.unit)


def _delta(rng, ring):
    if ring.kind == "Fp":
        return ring.one
    if ring.kind == "Q":
        return Fraction(rng.choice([-2, -1, 1, 2]), rng.choice([1, 1, 2]))
    return rng.choice([-2, -1, 1, 2])


def _perturb_matrix(rng, X):
    if not X.rows or not X.cols:
        return X
    rows = X.to_rows()
    r, c = rng.randrange(X.rows), rng.randrange(X.cols)
    rows[r][c] = X.ring.canon(rows[r][c] + _delta(rng, X.ring))
    return Matrix.from_rows(X.ring, rows)


def _perturb_table(rng, A):
    mul = list(A.mul)
    k = rng.randrange(len(mul))
    mul[k] = A.ring.canon(mul[k] + _delta(rng, A.ring))
    return replace(A, mul=tuple(mul))


def _perturb_action(rng, M, side):
    actions = list(getattr(M, side))
    i = rng.randrange(len(actions))
    actions[i] = _perturb_matrix(rng, actions[i])
    return replace(M, **{side: tuple(actions)})


def _random_cocycle(rng, A, M):
    """A random combination of a kernel basis of b^2, as a two-cochain."""
    Z = kernel_basis(coboundary_matrix(A, M, 2))
    vec = Z * Matrix.column(A.ring, [rng.choice([0, 1, A.ring.neg(1), 2]) for _ in range(Z.cols)])
    return two_cochain_from_vector(A, M, vec.col_list(0))


def _change_basis(rng, B):
    """B on the basis f_a = e_a + t e_b, with the transition matrix g and its inverse."""
    ring, n = B.ring, B.rank
    a, b = rng.sample(range(n), 2)
    t = ring.canon(rng.choice([-1, 1, 2])) or ring.one
    g = Matrix.from_triplets(ring, n, n, [(i, i, 1) for i in range(n)] + [(b, a, t)])
    g_inv = Matrix.from_triplets(ring, n, n, [(i, i, 1) for i in range(n)] + [(b, a, -t)])
    mu = Matrix.from_cols(ring, [B.product_column(i, j) for i in range(n) for j in range(n)], nrows=n)
    table = g_inv * mu * g.kron(g)
    mul = tuple(v for c in range(n * n) for v in table.col_list(c))
    return replace(B, unit=tuple((g_inv * B.unit_column()).col_list(0)), mul=mul), g, g_inv


def _twist(rng, E):
    """The same extension presented on a changed basis of the total algebra."""
    total, g, g_inv = _change_basis(rng, E.total)
    return ExtensionPresentation(
        E.algebra, E.bimodule, total, E.projection * g, g_inv * E.inclusion, g_inv * E.section
    )


def _extension_battery(small_corpus, trials):
    """(label, presentation) pairs: valid extensions and one-entry perturbations of them."""
    rng = random.Random(SEED)
    kinds = ("none", "projection", "inclusion", "section", "left", "right", "both", "table")
    for name, A in sorted(small_corpus.items()):
        M = regular_bimodule(A)
        for t in range(trials):
            E = crossed_product_presentation(A, M, _random_cocycle(rng, A, M))
            if t % 2:
                E = _twist(rng, E)
            for kind in kinds:
                F = E
                if kind == "projection":
                    F = replace(E, projection=_perturb_matrix(rng, E.projection))
                elif kind == "inclusion":
                    F = replace(E, inclusion=_perturb_matrix(rng, E.inclusion))
                elif kind == "section":
                    F = replace(E, section=_perturb_matrix(rng, E.section))
                elif kind in ("left", "right"):
                    F = replace(E, bimodule=_perturb_action(rng, E.bimodule, kind))
                elif kind == "both":
                    F = replace(E, bimodule=_perturb_action(rng, _perturb_action(rng, M, "left"), "right"))
                elif kind == "table":
                    F = replace(E, total=_perturb_table(rng, E.total))
                yield f"{name}/{t}/{kind}", F


# -- the battery ----------------------------------------------------------------------


def test_validate_extension_matches_loop_oracle(small_corpus):
    seen = {}
    for label, E in _extension_battery(small_corpus, trials=6):
        got, want = _outcome(validate_extension, E), _outcome(_oracle_validate_extension, E)
        assert got == want, label
        seen[want[1].split(" at ")[0] if want[0] != "ok" else "ok"] = True
    # the battery reaches every law, not only the shape checks in front of them
    for text in (
        "ok",
        "projection is not multiplicative",
        "ideal is not square-zero",
        "left action mismatch",
        "right action mismatch",
    ):
        assert text in seen, text


def test_extension_class_from_section_matches_loop_oracle(small_corpus):
    rng = random.Random(SEED + 1)
    outcomes = set()
    for label, E in _extension_battery(small_corpus, trials=3):
        M = E.bimodule
        zeta = Matrix.from_rows(M.algebra.ring, [[rng.randint(-2, 2) for _ in range(E.algebra.rank)] for _ in range(M.rank)])
        for s in (E.section, E.section + E.inclusion * zeta, _perturb_matrix(rng, E.section)):
            want = _outcome(_oracle_extension_class_from_section, E, s)
            got = _outcome(extension_class_from_section, E, s)
            if got[0] == "ok":
                got = ("ok", got[1].matrix)
            assert got == want, label
            outcomes.add(want[0] if want[0] != "AlgebraError" else want[1])
    assert {"ok", "section defect escapes the ideal", "the supplied map is not a section of the projection"} <= outcomes


def test_crossed_product_unit_matches_solved_unit(small_corpus):
    rng = random.Random(SEED + 2)
    checked = 0
    for name, A in sorted(small_corpus.items()):
        modules = [regular_bimodule(A), zero_bimodule(A)]
        if A.rank <= 2:
            modules.append(chain_bimodule(A, 0))
        for M in modules:
            for _ in range(4):
                B = _random_cocycle(rng, A, M)
                got, want = crossed_product(A, M, B), _oracle_crossed_product(A, M, B)
                assert _same_algebra(got, want), name
                checked += 1
    assert checked >= 80


def test_is_derivation_matches_loop_oracle(small_corpus):
    rng = random.Random(SEED + 3)
    verdicts = set()
    for name, A in sorted(small_corpus.items()):
        M = regular_bimodule(A)
        spanning = derivations(A, M).hstack(inner_derivation_generators(A, M))
        for _ in range(12):
            coeffs = Matrix.column(A.ring, [rng.randint(-2, 2) for _ in range(spanning.cols)])
            D = (spanning * coeffs).reshape(M.rank, A.rank)
            for candidate in (D, _perturb_matrix(rng, D), _perturb_matrix(rng, _perturb_matrix(rng, D))):
                want = _oracle_is_derivation(M, candidate)
                assert is_derivation(M, candidate) == want, name
                verdicts.add(want[0])
            # a perturbed action changes which pair fails first
            N = _perturb_action(rng, M, rng.choice(("left", "right")))
            assert is_derivation(N, D) == _oracle_is_derivation(N, D), name
    assert verdicts == {True, False}


def _basis_change_battery(small_corpus, trials):
    rng = random.Random(SEED + 4)
    for name, A in sorted(small_corpus.items()):
        for t in range(trials):
            X = A
            if A.rank >= 2 and t % 3:
                X = _change_basis(rng, A)[0]
            if t % 2:
                X = _perturb_table(rng, X)
            if t % 4 == 3:
                unit = list(X.unit)
                k = rng.randrange(len(unit))
                unit[k] = X.ring.canon(unit[k] + _delta(rng, X.ring))
                X = replace(X, unit=tuple(unit))
            yield f"{name}/{t}", X


def test_with_unital_basis_matches_loop_oracle(small_corpus):
    changed = 0
    for label, X in _basis_change_battery(small_corpus, trials=12):
        got, want = _outcome(with_unital_basis, X), _outcome(_oracle_with_unital_basis, X)
        if got[0] == "ok" and want[0] == "ok":
            assert _same_algebra(got[1][0], want[1][0]) and got[1][1] == want[1][1], label
            changed += got[1][0] != X
        else:
            assert got == want, label
    assert changed >= 30


def test_enveloping_matches_loop_oracle(small_corpus):
    for label, X in _basis_change_battery(small_corpus, trials=4):
        assert _same_algebra(enveloping(X), _oracle_enveloping(X)), label


@pytest.mark.parametrize("side", ["left", "right"])
def test_action_witness_prefers_the_smaller_pair(side):
    # perturb the pair (1, 0) on one side and (0, 1) on the other: (0, 1) comes first
    from hochschild.catalog import dual_numbers
    from hochschild.extensions import trivial_extension
    from hochschild.rings import QQ

    A = dual_numbers(QQ)
    E = trivial_extension(A, regular_bimodule(A))
    other = "right" if side == "left" else "left"

    def bump(actions, i, p):
        T = actions[i].to_rows()
        T[0][p] += 1
        return actions[:i] + (Matrix.from_rows(QQ, T),) + actions[i + 1 :]

    M = replace(E.bimodule, **{side: bump(getattr(E.bimodule, side), 0, 1), other: bump(getattr(E.bimodule, other), 1, 0)})
    F = replace(E, bimodule=M)
    with pytest.raises(AlgebraError, match=rf"^{side} action mismatch at \(0, 1\)$"):
        validate_extension(F)
    assert _outcome(_oracle_validate_extension, F) == _outcome(validate_extension, F)
    # on a tie the left side is reported
    M = replace(E.bimodule, left=bump(E.bimodule.left, 0, 1), right=bump(E.bimodule.right, 0, 1))
    with pytest.raises(AlgebraError, match=r"^left action mismatch at \(0, 1\)$"):
        validate_extension(replace(E, bimodule=M))
