"""Cross-module consistency properties tying the subsystems together."""

from hochschild.algebra import hom_bimodule, regular_bimodule
from hochschild.bar import chain_bimodule
from hochschild.catalog import (
    base_ring_algebra,
    dual_numbers,
    matrix_algebra,
    split_pair,
    standard_corpus,
    truncated_poly,
    upper_triangular2,
)
from hochschild.cohomology import hh, hochschild_homology
from hochschild.koszul import finite_koszul_tor, free_module
from hochschild.matrix import KModuleInvariants, Matrix
from hochschild.projectivity import omega_is_projective, separability_idempotent
from hochschild.rings import GF, QQ, ZZ

F2 = GF(2)


def test_hh0_contains_the_unit_over_fields(small_corpus):
    for A in small_corpus.values():
        if A.ring.is_field:
            M = regular_bimodule(A)
            assert hh(A, M, 0, representatives=False).invariants.free_rank >= 1


def test_separable_fixtures_have_vanishing_hh_on_every_probe():
    for A in (matrix_algebra(QQ, 2), split_pair(ZZ), base_ring_algebra(F2)):
        assert separability_idempotent(A) is not None
        reg = regular_bimodule(A)
        probes = [reg, chain_bimodule(A, 0), hom_bimodule(reg.left_module(), reg.left_module())]
        for M in probes:
            for n in (1, 2):
                assert hh(A, M, n, normalized=False, representatives=False).invariants.is_zero


def test_projective_syzygy_kills_next_degree_on_probes():
    # upper-triangular 2x2 has a split first syzygy, so HH^2 vanishes on probes
    A = upper_triangular2(QQ)
    assert omega_is_projective(A, 1).is_projective
    reg = regular_bimodule(A)
    probes = [reg, chain_bimodule(A, 0), hom_bimodule(reg.left_module(), reg.left_module())]
    for M in probes:
        assert hh(A, M, 2, representatives=False).invariants.is_zero


def test_non_projective_syzygy_witnessed_by_regular_coefficients():
    for A in (dual_numbers(QQ), dual_numbers(ZZ)):
        assert not omega_is_projective(A, 1).is_projective
        assert not hh(A, regular_bimodule(A), 2, representatives=False).invariants.is_zero


def test_koszul_resolution_property_on_regular_fixture():
    # tensoring the resolution back with A leaves homology only in degree zero
    A = base_ring_algebra(ZZ)
    rep = finite_koszul_tor(A, [[6]], free_module(A))
    assert rep.tor[0] == KModuleInvariants(0, (6,))  # H_0 = A/(x)
    assert all(t.is_zero for t in rep.tor[1:])


def test_flat_dimension_certificate_equals_sequence_length():
    # fd of the quotient equals the length of the defining regular sequence
    from hochschild.koszul import presented_module

    A = base_ring_algebra(ZZ)
    for x in (2, 3, 5):
        quotient = presented_module(A, 1, Matrix.from_rows(ZZ, [[x]]), [Matrix.identity(ZZ, 1)])
        rep = finite_koszul_tor(A, [[x]], quotient)
        assert rep.fd_certificate == 1


def test_subquotient_by_nothing_is_the_free_span():
    from hochschild.matrix import rank, subquotient_invariants

    Z = Matrix.from_cols(ZZ, [[2, 0, 4], [0, 3, 0], [2, 3, 4]])
    got = subquotient_invariants(Z, Matrix.zeros(ZZ, 3, 0))
    assert got == KModuleInvariants(rank(Z))


def test_concurrent_use_is_deterministic():
    # pure operations and an idempotent memo table: racing threads agree
    from concurrent.futures import ThreadPoolExecutor

    A = dual_numbers(ZZ)
    M = regular_bimodule(A)

    def job(_):
        return hh(A, M, 2, representatives=False).invariants

    with ThreadPoolExecutor(max_workers=8) as pool:
        results = list(pool.map(job, range(16)))
    assert all(r == KModuleInvariants(1, (2,)) for r in results)


def _z_family(ring):
    """Z[x]/(x^4), Z[x]/(x^6) and the Z algebras of the corpus, on the same basis over ring."""
    corpus = standard_corpus({"Z": ring, "Q": QQ, "F2": F2})
    z_names = [k for k, A in standard_corpus({"Z": ZZ, "Q": QQ, "F2": F2}).items() if A.ring == ZZ]
    return {"x^4": truncated_poly(ring, 4), "x^6": truncated_poly(ring, 6), **{k: corpus[k] for k in z_names}}


def test_universal_coefficients_tie_z_torsion_to_the_field_cores():
    # The complexes of hh and hochschild_homology have free terms, and the same
    # structure constants over F_p give C (x) F_p.  With H^n over Z equal to
    # Z^(r_n) plus the factors t_n: dim HH^n over F_p = r_n + #{p | t_n} + #{p | t_(n+1)},
    # dim HH_n over F_p = r_n + #{p | t_n} + #{p | t_(n-1)}, and dim over Q = r_n
    # (Weibel 1994, Thm 3.6.2).  The field cores share no Hermite or Smith code
    # with the Z route, so dropped or misplaced Z torsion shows here.
    top = 3
    fields = (QQ, GF(2), GF(3), GF(5))
    families = {ring: _z_family(ring) for ring in fields}
    torsion_seen = set()
    for name, A in _z_family(ZZ).items():
        M = regular_bimodule(A)
        co = [hh(A, M, n, guard=None, representatives=False).invariants for n in range(top + 2)]
        ho = [KModuleInvariants(0)] + [hochschild_homology(A, M, n, guard=None) for n in range(top + 1)]
        torsion_seen.update(t for inv in co + ho for t in inv.torsion)
        for ring in fields:
            B = families[ring][name]
            N = regular_bimodule(B)

            def divisible(inv):
                return sum(1 for t in inv.torsion if ring.kind == "Fp" and t % ring.p == 0)

            for n in range(top + 1):
                got = hh(B, N, n, guard=None, representatives=False).invariants
                assert got == KModuleInvariants(co[n].free_rank + divisible(co[n]) + divisible(co[n + 1])), (name, ring, n)
                got = hochschild_homology(B, N, n, guard=None)
                h = ho[n + 1]  # ho[0] stands in for degree -1
                assert got == KModuleInvariants(h.free_rank + divisible(h) + divisible(ho[n])), (name, ring, "HH_", n)
    assert {2, 3, 4, 6} <= torsion_seen  # the oracle saw torsion at both primes
