"""The matrix-identity law checks against per-basis-pair loop oracles.

Each `_oracle_*` below is the straightforward loop form of a law check or
table builder: one basis pair at a time, through dense coefficient lists
and `FiniteAlgebra.multiply`.  A seeded battery over the fixture corpus up
to rank 4 (over Z, Q and F_2) perturbs one entry of a projection,
inclusion, section, action matrix, structure constant or derivation and
requires the library to give the same result, witness and error text.
The center, Leibniz and inner-derivation systems are hand-written
equations for what `center`, `derivations` and `inner_derivations` read
off b^0 and b^1; the separability system and the Der / Inn quotient are
the routes that `separability_idempotent` and `hh1_report` replaced with
b^0 and `hh`.  `cocycle_witness` is checked against the coboundary
formula evaluated one basis tuple at a time.
"""

import random
from dataclasses import replace
from fractions import Fraction
from itertools import product

import pytest

from hochschild.algebra import (
    AlgebraError,
    FiniteAlgebra,
    enveloping,
    hom_bimodule,
    left_mult_matrix,
    multiplication_matrix,
    regular_bimodule,
    right_mult_matrix,
    validate_algebra,
    with_unital_basis,
    zero_bimodule,
)
from hochschild.bar import chain_bimodule
from hochschild.catalog import matrix_algebra, split_product, upper_triangular2
from hochschild.cohomology import (
    Cochain,
    center,
    coboundary_matrix,
    cocycle_witness,
    derivations,
    hh1_report,
    inner_derivations,
)
from hochschild.extensions import (
    ExtensionPresentation,
    crossed_product,
    crossed_product_presentation,
    extension_class_from_section,
    two_cochain_from_vector,
    validate_extension,
)
from hochschild.matrix import Matrix, column_span_basis, coords_in_span, kernel_basis, quotient_generators, rank, solve
from hochschild.projectivity import separability_idempotent
from hochschild.rings import GF, QQ, ZZ

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
            val = B.matrix.submatrix_cols((i * d + j,))
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
        b_right = B.matrix * Matrix.column(ring, [u * v for u in A.unit for v in e_i])
        b_left = B.matrix * Matrix.column(ring, [u * v for u in e_i for v in A.unit])
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


def _oracle_cocycle_witness(c):
    """The first basis tuple (a_0, ..., a_n), row-major, where the coboundary formula is nonzero.

    (b c)(a_0..a_n) = a_0 c(a_1..a_n) + sum_i (-1)^(i+1) c(.., a_i a_(i+1), ..)
    + (-1)^(n+1) c(a_0..a_(n-1)) a_n, with c read one column at a time.
    """
    A, M, n = c.algebra, c.bimodule, c.degree
    ring, d = A.ring, A.rank

    def value(t):
        return c.matrix.submatrix_cols((sum(x * d ** (n - 1 - k) for k, x in enumerate(t)),))

    for t in product(range(d), repeat=n + 1):
        total = M.left[t[0]] * value(t[1:])
        for i in range(n):
            for k, coef in enumerate(A.product_column(t[i], t[i + 1])):
                if coef != ring.zero:
                    total = total + value(t[:i] + (k,) + t[i + 2 :]).scale(coef if i % 2 else ring.neg(coef))
        last = M.right[t[n]] * value(t[:n])
        total = total + (last if n % 2 else -last)
        if not total.is_zero:
            return t
    return None


def _oracle_separability_system(A):
    """mu(e) = 1 stacked over the blocks L_i (x) I - I (x) R_i, the equations e_i e - e e_i = 0."""
    d, ring = A.rank, A.ring
    I = Matrix.identity(ring, d)
    system = multiplication_matrix(A)
    for i in range(d):
        system = system.vstack(left_mult_matrix(A, i).kron(I) - I.kron(right_mult_matrix(A, i)))
    return system, Matrix.column(ring, list(A.unit) + [ring.zero] * d**3)


def _oracle_hh1(A, M):
    """HH^1 as Der modulo Inn through quotient_generators, representatives reshaped to m x d."""
    invs, gens = quotient_generators(derivations(A, M), inner_derivations(A, M))
    return invs, [g.reshape(M.rank, A.rank) for g in gens]


def _oracle_center_system(A, M):
    """The blocks L_i - R_i stacked: their common kernel is Z_A(M)."""
    blocks = [M.left[i] - M.right[i] for i in range(A.rank)]
    stacked = blocks[0]
    for b in blocks[1:]:
        stacked = stacked.vstack(b)
    return stacked


def _oracle_leibniz_system(A, M):
    """The linear system whose kernel is Der_k(A, M), one equation block per basis pair (i, j).

    Unknowns are the entries D[p][q] = p-th coordinate of D(e_q), vectorized
    row-major.
    """
    d, m = A.rank, M.rank
    z = A.ring.zero

    def triplets():
        for i in range(d):
            for j in range(d):
                block = (i * d + j) * m
                # sum_k c[i][j][k] D(e_k) - e_i D(e_j) - D(e_i) e_j = 0
                for k in range(d):
                    c = A.c(i, j, k)
                    if c != z:
                        for p in range(m):
                            yield block + p, p * d + k, c
                L, R = M.left[i], M.right[j]
                for q in range(m):
                    for p, v in L.columns[q]:
                        yield block + p, q * d + j, -v
                    for p, w in R.columns[q]:
                        yield block + p, q * d + i, -w

    return Matrix.from_triplets(A.ring, d * d * m, m * d, triplets())


def _oracle_inner_derivation_generators(A, M):
    """The maps a -> a m - m a for each basis vector m of M (a spanning set)."""
    d, m = A.rank, M.rank

    def triplets():
        for w in range(m):
            for i in range(d):
                for p, v in M.left[i].columns[w]:
                    yield p * d + i, w, v
                for p, v in M.right[i].columns[w]:
                    yield p * d + i, w, -v

    return Matrix.from_triplets(A.ring, m * d, m, triplets())


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


def _is_derivation(M, D):
    witness = cocycle_witness(Cochain(M.algebra, M, 1, D))
    return witness is None, witness


def test_is_derivation_matches_loop_oracle(small_corpus):
    rng = random.Random(SEED + 3)
    verdicts = set()
    for name, A in sorted(small_corpus.items()):
        M = regular_bimodule(A)
        spanning = derivations(A, M).hstack(_oracle_inner_derivation_generators(A, M))
        for _ in range(12):
            coeffs = Matrix.column(A.ring, [rng.randint(-2, 2) for _ in range(spanning.cols)])
            D = (spanning * coeffs).reshape(M.rank, A.rank)
            for candidate in (D, _perturb_matrix(rng, D), _perturb_matrix(rng, _perturb_matrix(rng, D))):
                want = _oracle_is_derivation(M, candidate)
                assert _is_derivation(M, candidate) == want, name
                verdicts.add(want[0])
            # a perturbed action changes which pair fails first
            N = _perturb_action(rng, M, rng.choice(("left", "right")))
            assert _is_derivation(N, D) == _oracle_is_derivation(N, D), name
    assert verdicts == {True, False}


def test_low_degree_readings_match_hand_written_systems(corpus, small_corpus):
    # ker b^0, ker b^1 and im b^0 of the raw complex against the three systems they replace
    cases = [(name, M) for name, A in sorted(corpus.items()) for M in (regular_bimodule(A), zero_bimodule(A))]
    cases += [(name, chain_bimodule(A, 0)) for name, A in sorted(small_corpus.items())]
    for name, M in cases:
        A = M.algebra
        assert center(A, M) == kernel_basis(_oracle_center_system(A, M)), (name, M.rank)
        assert derivations(A, M) == kernel_basis(_oracle_leibniz_system(A, M)), (name, M.rank)
        assert inner_derivations(A, M) == column_span_basis(_oracle_inner_derivation_generators(A, M)), (name, M.rank)


def _with_unital_variants(algebras):
    out = dict(algebras)
    for name, A in algebras.items():
        if not A.has_unital_basis:
            out[f"{name}/unital"] = with_unital_basis(A)[0]
    return out


def test_cocycle_witness_matches_loop_oracle(small_corpus):
    # degrees 0-3 over Z, Q and F_2: random cochains, cocycles, and cocycles with one entry moved
    rng = random.Random(SEED + 5)
    witnesses = []
    for name, A in sorted(small_corpus.items()):
        M = regular_bimodule(A)
        for n in range(4 if A.rank <= 3 else 3):
            Z = kernel_basis(coboundary_matrix(A, M, n, guard=None))
            cocycle = Z * Matrix.column(A.ring, [rng.randint(-2, 2) for _ in range(Z.cols)])
            size = M.rank * A.rank**n
            single = Matrix.from_triplets(A.ring, size, 1, [(rng.randrange(size), 0, 1)])
            for vec in (
                Matrix.column(A.ring, [rng.randint(-2, 2) for _ in range(size)]),
                cocycle,
                _perturb_matrix(rng, cocycle),
                cocycle + single,
            ):
                c = Cochain(A, M, n, vec.reshape(M.rank, A.rank**n))
                want = _oracle_cocycle_witness(c)
                assert cocycle_witness(c) == want, (name, n)
                witnesses.append(want)
    assert None in witnesses
    assert {len(w) for w in witnesses if w} == {1, 2, 3, 4}
    assert any(w != w[::-1] for w in witnesses if w)  # a reversed digit order would be caught


def _separability_algebras(corpus):
    algebras = dict(corpus)
    for ring in (ZZ, QQ, GF(2), GF(3)):
        tag = f"{ring.kind}{ring.p or ''}"
        for n in (2, 3, 6):
            algebras[f"k^{n}/{tag}"] = split_product(ring, n)
        algebras[f"m2/{tag}"] = matrix_algebra(ring, 2)
        algebras[f"ut2/{tag}"] = upper_triangular2(ring)
    return _with_unital_variants(algebras)


def test_separability_idempotent_matches_hand_stacked_system(corpus):
    algebras = _separability_algebras(corpus)
    verdicts = []
    for name, A in sorted(algebras.items()):
        e = separability_idempotent(A)
        assert e == solve(*_oracle_separability_system(A)), name
        verdicts.append(e is not None)
    assert len(set(algebras.values())) == 48  # 54 names: zxz, m2_q, ut2_q and their variants recur
    assert True in verdicts and False in verdicts


def test_hh1_report_matches_der_modulo_inn(corpus):
    for name, A in sorted(_with_unital_variants(corpus).items()):
        reg = regular_bimodule(A)
        for M in (reg, hom_bimodule(reg.left_module(), reg.left_module())):
            report = hh1_report(A, M)
            invs, reps = _oracle_hh1(A, M)
            assert report.invariants == invs, (name, M.rank)
            assert [c.matrix for c in report.representatives] == reps, (name, M.rank)


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
