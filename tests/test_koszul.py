import json
import time
from functools import reduce
from importlib import resources
from itertools import combinations
from math import comb
from pathlib import Path

import pytest
from oracles import unpruned_koszul_homology

from hochschild import koszul as koszul_module
from hochschild import matrix as matrix_module
from hochschild.algebra import AlgebraError
from hochschild.catalog import base_ring_algebra, dual_numbers, matrix_algebra, split_pair
from hochschild.io_json import load_algebra, presented_module_from_json
from hochschild.koszul import (
    _actions,
    _aggregate,
    _koszul_homology,
    _multiplication_maps,
    _prune,
    base_global_dimension,
    finite_koszul_tor,
    free_module,
    graded_koszul_tor,
    hcdim_lower_bound,
    homology_of_presented,
    koszul_differential,
    koszul_sign_pattern,
    presented_module,
    quotient_by_element,
    regular_element_check,
    regular_sequence_check,
)
from hochschild.matrix import DEFAULT_GUARD, KModuleInvariants, Matrix, SizeGuardError
from hochschild.rings import GF, QQ, ZZ

F2 = GF(2)


def _z_mod(n):
    A = base_ring_algebra(ZZ)
    return presented_module(A, 1, Matrix.from_rows(ZZ, [[n]]), [Matrix.identity(ZZ, 1)])


# -- exterior structure ------------------------------------------------------------

def test_sign_pattern_two_variables():
    # d2 sends e1^e2 to x1 e2 - x2 e1: the classical [ -y, x ] column
    pattern = koszul_sign_pattern(2, 2)
    assert sorted(pattern) == sorted([(1, 0, 1, 0), (0, 0, -1, 1)])


def test_sign_pattern_three_variables_curl():
    # oracle: expand the formula on all three 2-subsets by hand
    pattern = koszul_sign_pattern(3, 2)
    expected = {
        ((0, 1), 0): [(1, 1, 0), (0, -1, 1)],
        ((0, 2), 1): [(2, 1, 0), (0, -1, 2)],
        ((1, 2), 2): [(2, 1, 1), (1, -1, 2)],
    }
    subsets = list(combinations(range(3), 2))
    got = {}
    for (ti, ci, sign, var) in pattern:
        got.setdefault(ci, []).append((ti, sign, var))
    for (subset, ci), terms in expected.items():
        assert subsets[ci] == subset
        assert got[ci] == terms


def test_differentials_compose_to_zero_symbolically():
    # over A = Z with elements (2, 3): d1 d2 = 0 exactly
    A = base_ring_algebra(ZZ)
    M = free_module(A)
    xs = [[2], [3]]
    d1 = koszul_differential(M, xs, 1)
    d2 = koszul_differential(M, xs, 2)
    assert d1.to_rows() == [[2, 3]]
    assert d2.to_rows() == [[-3], [2]]
    assert (d1 * d2).is_zero


def test_single_element_complex():
    A = base_ring_algebra(ZZ)
    d1 = koszul_differential(free_module(A), [[2]], 1)
    assert d1.to_rows() == [[2]]


def test_koszul_rejects_noncommutative():
    A = matrix_algebra(QQ, 2)
    with pytest.raises(AlgebraError):
        koszul_differential(free_module(A), [[1, 0, 0, 0]], 1)


# -- regularity ---------------------------------------------------------------------

def test_two_is_regular_on_z():
    # oracle: SNF of [2] has cokernel Z/2, nonzero, and the kernel vanishes
    A = base_ring_algebra(ZZ)
    rep = regular_element_check(free_module(A), [2])
    assert rep.regular
    assert rep.cokernel == KModuleInvariants(0, (2,))


def test_unit_is_not_regular():
    A = base_ring_algebra(ZZ)
    rep = regular_element_check(free_module(A), [1])
    assert rep.injective and rep.surjective and not rep.regular


def test_nilpotent_is_not_regular():
    A = dual_numbers(QQ)
    rep = regular_element_check(free_module(A), [0, 1])  # x on k[x]/(x^2)
    assert not rep.injective and not rep.regular


def test_zero_divisor_in_split_pair():
    A = split_pair(ZZ)
    rep = regular_element_check(free_module(A), [1, 0])  # e1 kills e2
    assert not rep.injective


def test_sequence_2_then_3_fails_at_two():
    A = base_ring_algebra(ZZ)
    rep = regular_sequence_check(free_module(A), [[2], [3]])
    assert not rep.ok
    assert rep.failing_index == 2
    assert rep.reason == "surjective"  # multiplication by 3 on Z/2 is onto


def test_empty_sequence_vacuously_regular():
    A = base_ring_algebra(ZZ)
    assert regular_sequence_check(free_module(A), []).ok


def test_quotient_module_invariants():
    A = base_ring_algebra(ZZ)
    M = quotient_by_element(free_module(A), [6])
    assert M.invariants() == KModuleInvariants(0, (6,))


# -- finite Tor ------------------------------------------------------------------------

def test_tor_z_mod2_against_z_mod2():
    # oracle: 0 -> Z/2 --(*2 = 0)--> Z/2, both homologies Z/2
    A = base_ring_algebra(ZZ)
    rep = finite_koszul_tor(A, [[2]], _z_mod(2))
    assert rep.tor == (KModuleInvariants(0, (2,)), KModuleInvariants(0, (2,)))
    assert rep.fd_certificate == 1


def test_tor_of_free_module_concentrated_in_degree_zero():
    A = base_ring_algebra(ZZ)
    rep = finite_koszul_tor(A, [[2]], free_module(A))
    assert rep.tor[0] == KModuleInvariants(0, (2,))
    assert rep.tor[1].is_zero


def test_tor_six_on_z_mod4():
    # oracle: Tor_1 = ker(*6 on Z/4) = {0, 2} = Z/2
    A = base_ring_algebra(ZZ)
    rep = finite_koszul_tor(A, [[6]], _z_mod(4))
    assert rep.tor[1] == KModuleInvariants(0, (2,))
    assert rep.tor[0] == KModuleInvariants(0, (2,))


def test_tor_refuses_irregular_sequence():
    A = base_ring_algebra(ZZ)
    with pytest.raises(AlgebraError):
        finite_koszul_tor(A, [[2], [3]], free_module(A))


def test_tor_remark_values():
    # Tor_1 over Z of (Z/2, Z/2) is Z/2 while Tor_1 of (Z, Z/2) vanishes:
    # the second resolves a free module, so only degree zero survives
    A = base_ring_algebra(ZZ)
    t_z2 = finite_koszul_tor(A, [[2]], _z_mod(2))
    assert t_z2.tor[1] == KModuleInvariants(0, (2,))
    # "Tor(Z, Z/2)": resolve Z by the empty Koszul complex: nothing in degree 1
    rep = finite_koszul_tor(A, [], _z_mod(2))
    assert len(rep.tor) == 1 and rep.tor[0] == KModuleInvariants(0, (2,))


# -- graded Tor -------------------------------------------------------------------------

def test_monomial_counts():
    for e in range(-2, 5):
        maps = _multiplication_maps(3, ZZ, e)
        assert len(maps) == 3
        for X in maps:
            assert (X.rows, X.cols) == (comb(e + 3, 2) if e >= -1 else 0, comb(e + 2, 2) if e >= 0 else 0)


def test_multiplication_maps_commute():
    x0, x1 = _multiplication_maps(2, ZZ, 1)
    x0_up, x1_up = _multiplication_maps(2, ZZ, 2)
    assert x1_up * x0 == x0_up * x1
    # descending degrevlex: (x0, x1) in degree 1, (x0^2, x0 x1, x1^2) in degree 2
    assert x0.to_rows() == [[1, 0], [0, 1], [0, 0]]
    assert x1.to_rows() == [[0, 0], [1, 0], [0, 1]]


@pytest.mark.parametrize("v", [1, 2, 3, 4])
def test_graded_tor_binomial_pattern_over_z(v):
    report = graded_koszul_tor(v, ZZ, v + 1)
    for i in range(v + 1):
        assert report.tor[i] == KModuleInvariants(comb(v, i)), (v, i)
    assert report.tor[v] == KModuleInvariants(1)
    assert report.tor[v + 1].is_zero
    assert report.fd_certificate == v


def test_graded_tor_concentrated_on_diagonal():
    # closed form: Tor_i(k, k) over k[x_1..x_v] is wedge^i k^v, sitting in internal degree i
    for ring in (ZZ, QQ, F2, GF(3)):
        for v in range(1, 5):
            report = graded_koszul_tor(v, ring, v + 1)
            for i in range(v + 1):
                assert report.by_degree[i] == ((i, KModuleInvariants(comb(v, i))),), (ring, v, i)
            assert report.by_degree[v + 1] == ()


def test_graded_tor_over_f2():
    report = graded_koszul_tor(3, F2, 3)
    assert [t.free_rank for t in report.tor] == [1, 3, 3, 1, 0]


def test_graded_tor_cap_too_small():
    with pytest.raises(ValueError):
        graded_koszul_tor(3, ZZ, 2)


def test_graded_tor_obeys_the_guard():
    with pytest.raises(SizeGuardError, match="6x9"):
        graded_koszul_tor(3, ZZ, 5, guard=10)
    # d_1 at every degree is checked before d_2 anywhere: 35x80 is d_1 at e = 4, 40x24 is d_2 at e = 3
    with pytest.raises(SizeGuardError, match="35x80"):
        graded_koszul_tor(4, ZZ, 4, guard=850)


def test_graded_tor_refuses_before_building_high_degrees():
    # degree 10**4 in three variables has about 5e7 monomials; the refusal must come from shapes alone
    start = time.perf_counter()
    with pytest.raises(SizeGuardError):
        graded_koszul_tor(3, ZZ, 10**4, guard=10)
    with pytest.raises(SizeGuardError):
        graded_koszul_tor(3, ZZ, 3000)
    assert time.perf_counter() - start < 2.0


def test_finite_tor_obeys_the_guard():
    A = base_ring_algebra(ZZ)
    with pytest.raises(SizeGuardError, match="1x1"):
        finite_koszul_tor(A, [[2]], _z_mod(2), guard=0)


# -- the assembled bound -------------------------------------------------------------------

def test_base_global_dimension_table():
    assert base_global_dimension(ZZ) == 1
    assert base_global_dimension(QQ) == 0
    assert base_global_dimension(F2) == 0


def test_lower_bound_examples():
    vacuous = hcdim_lower_bound(0, 0)
    assert vacuous.bound == 0 and not vacuous.not_quasi_free
    mild = hcdim_lower_bound(2, 1, 0)
    assert mild.bound == 1 and not mild.not_quasi_free
    for n in (2, 3, 5):
        rep = hcdim_lower_bound(n + 1, 1, 0)
        assert rep.bound == n
        assert rep.not_quasi_free


def test_lower_bound_rejects_negative_inputs():
    with pytest.raises(ValueError):
        hcdim_lower_bound(-1, 0)


def test_aggregate_adds_free_ranks_and_recombines_torsion():
    K = KModuleInvariants
    assert _aggregate([]) == K(0)
    assert _aggregate([K(2), K(0), K(3)]) == K(5)
    # Z/2 + Z/6 + Z/4 + Z/12 = Z/2 + Z/2 + Z/12 + Z/12 as a divisibility chain
    assert _aggregate([K(1, (2,)), K(0, (6,)), K(2, (4, 12))]) == K(3, (2, 2, 12, 12))
    # a large prime: no factoring, so this returns at once
    p = 2**61 - 1
    assert _aggregate([K(0, (p,)), K(0, (2 * p,))]) == K(0, (p, 2 * p))


def test_koszul_tor_reads_no_kernel_basis_or_span_basis(monkeypatch):
    # presented homology takes kernel generators from one tagged elimination and
    # reads invariants off echelon rows: no normal form of either span
    A, M = base_ring_algebra(ZZ), _z_mod(4)
    expected = graded_koszul_tor(3, ZZ, 5), finite_koszul_tor(A, [[6]], M)

    def refuse(*args):
        raise AssertionError("Koszul homology must not normalize a span")

    assert not hasattr(koszul_module, "kernel_basis")
    monkeypatch.setattr(matrix_module, "kernel_basis", refuse)
    monkeypatch.setattr(matrix_module, "column_span_basis", refuse)
    monkeypatch.setattr(koszul_module, "column_span_basis", refuse)
    assert (graded_koszul_tor(3, ZZ, 5), finite_koszul_tor(A, [[6]], M)) == expected


# -- pruned terms -------------------------------------------------------------------------

FIXDIR = Path(str(resources.files("hochschild") / "fixtures"))


def _bundled_instance(name):
    """(algebra, sequence, module) of a bundled --finite instance."""
    doc = json.loads((FIXDIR / name).read_text())
    A = load_algebra(FIXDIR / doc["algebra"])
    M = free_module(A) if doc["module"] == "self" else presented_module_from_json(dict(doc["module"], algebra=doc["algebra"]), FIXDIR)
    return A, [[A.ring.parse(s) for s in x] for x in doc["sequence"]], M


@pytest.mark.parametrize("ring", [ZZ, QQ, F2, GF(3)], ids=str)
def test_graded_tor_matches_the_unpruned_loop(ring, monkeypatch):
    def reports():
        ladders = [graded_koszul_tor(v, ring, cap) for v in range(1, 5) for cap in range(v, v + 3)]
        return [(r.variables, r.cap, r.tor, r.by_degree, r.fd_certificate) for r in ladders]

    pruned = reports()
    monkeypatch.setattr(koszul_module, "_koszul_homology", unpruned_koszul_homology)
    assert pruned == reports()


def _finite_cases():
    A = base_ring_algebra(ZZ)
    z_mod4 = (A, [[2]], _z_mod(4))  # 2 is not a unit on Z/4: the pruned term keeps its generator and relation
    return [_bundled_instance("koszul_z_mod2.json"), _bundled_instance("koszul_z_seq23.json"), z_mod4]


@pytest.mark.parametrize("case", range(3), ids=["koszul_z_mod2", "koszul_z_seq23", "z_mod4_by_2"])
def test_finite_tor_matches_the_unpruned_loop(case, monkeypatch):
    A, xs, M = _finite_cases()[case]
    # the loop itself, also where the sequence is not regular and finite_koszul_tor refuses
    args = [M.relations] * (len(xs) + 1), [_actions(M, xs)] * len(xs), DEFAULT_GUARD
    assert _koszul_homology(*args) == unpruned_koszul_homology(*args)

    def report():
        try:
            return finite_koszul_tor(A, xs, M)
        except AlgebraError as exc:
            return str(exc)

    got = report()
    monkeypatch.setattr(koszul_module, "_koszul_homology", unpruned_koszul_homology)
    assert got == report()


def test_z_mod4_keeps_its_torsion_generator():
    pi, sigma, R = _prune(_z_mod(4).relations)
    assert (pi.rows, R.to_rows()) == (1, [[4]])
    assert finite_koszul_tor(base_ring_algebra(ZZ), [[2]], _z_mod(4)).tor == (KModuleInvariants(0, (2,)),) * 2


@pytest.mark.parametrize("ring", [ZZ, QQ, F2], ids=str)
def test_residue_ladder_prunes_every_positive_piece_to_zero(ring, monkeypatch):
    # S_s / (x) S_(s-1) is k for s = 0 and 0 for s >= 1: the pruned terms keep 1 and 0 generators
    v, cap = 3, 5
    kept, middles = {}, []

    def spy_prune(R):
        out = _prune(R)
        kept[R.rows, R.cols] = out[0].rows
        return out

    def spy_homology(incoming, outgoing, relations_mid, relations_out):
        middles.append(relations_mid.rows)
        return homology_of_presented(incoming, outgoing, relations_mid, relations_out)

    monkeypatch.setattr(koszul_module, "_prune", spy_prune)
    monkeypatch.setattr(koszul_module, "homology_of_presented", spy_homology)
    graded_koszul_tor(v, ring, cap)
    for s in range(cap + 1):
        piece = reduce(Matrix.hstack, _multiplication_maps(v, ring, s - 1))
        assert kept[piece.rows, piece.cols] == (1 if s == 0 else 0), s
    # every term wedge^i (x) S'_(e-i) has at most comb(v, i) generators
    assert middles and max(middles) <= comb(v, v // 2)


def test_finite_tor_guard_reads_the_unpruned_shape():
    M = _z_mod(1)
    assert _prune(M.relations)[0].rows == 0
    with pytest.raises(SizeGuardError, match="1x1"):
        finite_koszul_tor(base_ring_algebra(ZZ), [[2]], M, guard=0)
