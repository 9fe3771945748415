"""Relative projectivity of bar syzygies, separability, quasi-freeness, HCdim.

Upper bounds on the cohomological dimension are *proved* by exhibiting a
bimodule-linear section of the chain map onto a syzygy; the section is
built from a primitive of one Hochschild cocycle, the class of the syzygy
sequence in HH^(n+1)(A, Omega^(n+1)) (Hochschild 1956; Cuntz and Quillen,
Algebra extensions and nonsingularity, 1995).  Lower bounds are
*witnessed* by coefficient modules with nonzero cohomology.  "For all
bimodules" is not decidable by enumeration, so the scan report keeps the
two directions explicit and never conflates them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

from .algebra import (
    Bimodule,
    FiniteAlgebra,
    hom_bimodule,
    multiplication_matrix,
    regular_bimodule,
)
from .bar import (
    SyzygyModule,
    _differential,
    _homotopy,
    _letter_inclusion,
    _letters,
    bar_rank,
    chain_actions,
    chain_bimodule,
    syzygy,
)
from .cohomology import coboundary_matrix, hh
from .extensions import (
    coboundary_of,
    crossed_product_presentation,
    lift_exists,
    trivial_extension,
)
from .matrix import DEFAULT_GUARD, Matrix, SizeGuardError, check_guard, coords_in_span, rank, solve


@dataclass(frozen=True)
class ProjectivityCertificate:
    verdict: str  # "projective" | "not_projective"
    level: int
    normalized: bool
    section: Matrix | None = None
    obstruction: str | None = None

    @property
    def is_projective(self) -> bool:
        return self.verdict == "projective"


@lru_cache(maxsize=None)
def separability_idempotent(A: FiniteAlgebra) -> Matrix | None:
    """An element e of A (x) A with mu(e) = 1 and a e = e a, so e in ker b^0 of C^*(A, A (x) A).

    Such an element splits the multiplication map bimodule-linearly, so its
    existence is exactly relative projectivity of A itself (cohomological
    dimension zero).  Returns the coefficient column (length d^2) or None.
    Memoized like the syzygy levels, which each read it, so one report
    solves for it once.
    """
    b0 = coboundary_matrix(A, chain_bimodule(A, 0, guard=None), 0, guard=None)  # e -> (a e - e a)_a
    rhs = Matrix.column(A.ring, list(A.unit) + [A.ring.zero] * b0.rows)
    return solve(multiplication_matrix(A).vstack(b0), rhs)


def _section_is_valid(A: FiniteAlgebra, om: SyzygyModule, S: Matrix) -> bool:
    n, normalized = om.level, om.normalized
    b = _differential(A, n, normalized)
    if b * S != om.basis:
        return False
    Ln, Rn = chain_actions(A, n, normalized)
    for i in range(A.rank):
        if S * om.left[i] != Ln[i] * S:
            return False
        if S * om.right[i] != Rn[i] * S:
            return False
    return True


def _extension_class(A: FiniteAlgebra, om_next: SyzygyModule) -> Matrix:
    """The cocycle f(a_1..a_(n+1)) = b'(1 (x) a_1 (x) ... (x) a_(n+1) (x) 1) in Omega^(n+1).

    Returned vectorized row-major (module coordinate, then tensor index),
    the cochain layout of coboundary_matrix.  The chains 1 (x) t (x) 1 are the
    columns of u (x) I_T (x) u, with u the unit and T the tensor indices.
    """
    level, normalized = om_next.level, om_next.normalized
    u, I_T = A.unit_column(), Matrix.identity(A.ring, len(_letters(A, normalized)) ** level)
    f = coords_in_span(om_next.basis, _differential(A, level, normalized) * u.kron(I_T).kron(u))
    return f.reshape(f.rows * f.cols, 1)


def _separable_primitive(A: FiniteAlgebra, om_next: SyzygyModule, e: Matrix, f: Matrix) -> Matrix:
    """The primitive x(a_1..a_n) = sum_i p_i f(q_i, a_1, ..., a_n) of f for e = sum_i p_i (x) q_i.

    With mu(e) = 1 and a e = e a, b^n x = f for every cocycle f (the
    standard proof that HH^(>=1) vanishes for separable A).  The unit
    component of q_i is dropped in the normalized complex, where f vanishes
    on the unit.
    """
    d, m, ring = A.rank, om_next.rank, A.ring
    J = _letter_inclusion(A, om_next.normalized)
    T = J.cols ** (om_next.level - 1)
    C = (e.reshape(d, d) * J).transpose()
    # column (j, t) of G is sum_k c_jk f(e_k, t)
    G = f.reshape(m, J.cols * T) * C.kron(Matrix.identity(ring, T))
    x = Matrix.zeros(ring, m, T)
    for j in range(d):
        x = x + om_next.left[j] * G.submatrix_cols(range(j * T, (j + 1) * T))
    return x.reshape(m * T, 1)


def _retraction(A: FiniteAlgebra, om_next: SyzygyModule, x: Matrix) -> Matrix:
    """The bimodule map r(a (x) t (x) a') = a x(t) a' from chain level n onto Omega^(n+1)."""
    d, m = A.rank, om_next.rank
    T = len(_letters(A, om_next.normalized)) ** (om_next.level - 1)
    X = x.reshape(m, T)
    right = [R * X for R in om_next.right]

    def triplets():
        for a in range(d):
            for j in range(d):
                for t, col in enumerate((om_next.left[a] * right[j]).columns):
                    for p, v in col:
                        yield p, (a * T + t) * d + j, v

    return Matrix.from_triplets(A.ring, m, d * T * d, triplets())


def omega_is_projective(
    A: FiniteAlgebra,
    n: int,
    normalized: bool | None = None,
    guard: int | None = DEFAULT_GUARD,
) -> ProjectivityCertificate:
    """Decide relative projectivity of the n-th syzygy by one Hochschild class.

    The sequence 0 -> Omega^(n+1) -> CB_n -> Omega^n -> 0 is k-split (by the
    contracting homotopy), so Omega^n is relatively projective iff it splits
    as bimodules, iff its class in HH^(n+1)(A, Omega^(n+1)) vanishes
    (dimension shifting, Hochschild 1956; at n = 1 this is the Cuntz-Quillen
    test for quasi-freeness, 1995).  The class is the cocycle
    f(a_1..a_(n+1)) = b'(1 (x) a_1 (x) ... (x) a_(n+1) (x) 1), and a solution
    x of b^n x = f gives the bimodule retraction r(a (x) t (x) a') = a x(t) a'
    of CB_n onto Omega^(n+1); for separable A the primitive is read off a
    separability idempotent instead of solved for.  The section (I - i r) s
    on Omega^n, with s the contracting homotopy and i the inclusion of
    Omega^(n+1), is verified before it is returned.  Over Z the solution
    must be integral: a rational-only one reports a torsion obstruction.
    """
    if normalized is None:
        normalized = A.has_unital_basis
    return _omega_is_projective(A, n, normalized, guard)


@lru_cache(maxsize=None)
def _omega_is_projective(A: FiniteAlgebra, n: int, normalized: bool, guard: int | None) -> ProjectivityCertificate:
    """omega_is_projective with normalized resolved, memoized like _syzygy: is_quasi_free
    and hcdim_scan share each level; a refusal raises before anything is cached."""
    check_guard(bar_rank(A, n, normalized), bar_rank(A, n - 1, normalized), guard)
    om = syzygy(A, n, normalized, guard=guard)
    om_next = syzygy(A, n + 1, normalized, guard=guard)
    f = _extension_class(A, om_next)
    e = separability_idempotent(A)
    if e is not None:
        x = _separable_primitive(A, om_next, e, f)
    else:
        bn = coboundary_matrix(A, om_next.as_bimodule(), n, normalized, guard)
        x = solve(bn, f)
    if x is not None:
        lift = _homotopy(A, n - 1, normalized) * om.basis
        S = lift - om_next.basis * (_retraction(A, om_next, x) * lift)
        if not _section_is_valid(A, om, S):
            raise AssertionError("section from the vanishing class failed verification")
        return ProjectivityCertificate("projective", n, normalized, section=S)
    obstruction = "no bimodule-linear section exists"
    if A.ring.kind == "Z" and rank(bn.hstack(f)) == rank(bn):  # f is in the rational span of bn
        obstruction = "torsion obstruction: a section exists over Q but not integrally"
    return ProjectivityCertificate("not_projective", n, normalized, obstruction=obstruction)


# ---------------------------------------------------------------------------
# quasi-freeness and the dimension scan
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class QuasiFreeReport:
    quasi_free: bool
    certificate: ProjectivityCertificate
    witness: object | None = None  # a nonzero degree-2 class when not quasi-free
    lifts_checked: int = 0


def is_quasi_free(A: FiniteAlgebra, guard: int | None = DEFAULT_GUARD) -> QuasiFreeReport:
    """Quasi-freeness (= HCdim <= 1) via splitting of the first syzygy.

    A positive verdict is spot-checked by lifting a battery of concrete
    square-zero extensions (the trivial one plus crossed products along
    coboundaries, which must all lift); a negative verdict is corroborated
    by a nonzero degree-2 cohomology witness when one shows up in the probe
    set.
    """
    cert = omega_is_projective(A, 1, guard=guard)
    M = regular_bimodule(A)
    if cert.is_projective:
        checks = 0
        ext = trivial_extension(A, M)
        if lift_exists(ext) is None:
            raise AssertionError("trivial extension failed to lift")
        checks += 1
        for seed_col in range(min(A.rank, 2)):
            zeta = _seed_cochain(A, M, seed_col)
            B = coboundary_of(A, M, zeta)
            ext = crossed_product_presentation(A, M, B)
            if lift_exists(ext) is None:
                raise AssertionError("coboundary crossed product failed to lift")
            checks += 1
        return QuasiFreeReport(True, cert, lifts_checked=checks)
    witness = None
    for probe in _probe_modules(A, guard):
        try:
            rep = hh(A, probe[1], 2, guard=guard)
        except SizeGuardError:
            continue
        if not rep.invariants.is_zero:
            witness = rep.representatives[0] if rep.representatives else probe[0]
            break
    return QuasiFreeReport(False, cert, witness=witness)


def _seed_cochain(A: FiniteAlgebra, M: Bimodule, shift: int) -> Matrix:
    ring = A.ring
    return Matrix.from_rows(ring, [[ring.of_int((p + i + shift) % 3 - 1) for i in range(A.rank)] for p in range(M.rank)])


def _probe_modules(A: FiniteAlgebra, guard: int | None):
    """The deterministic probe set for lower bounds, sorted by name."""
    probes: list[tuple[str, Bimodule]] = []
    reg = regular_bimodule(A)
    probes.append(("A", reg))
    try:
        probes.append(("Aenv", chain_bimodule(A, 0, guard)))
    except SizeGuardError:
        pass
    try:
        check_guard(reg.rank**2, reg.rank**2, guard)  # each action matrix of Hom(A,A)
        probes.append(("Hom(A,A)", hom_bimodule(reg.left_module(), reg.left_module())))
    except SizeGuardError:
        pass
    for lvl in (1, 2):
        try:
            probes.append((f"Omega{lvl}", syzygy(A, lvl, A.has_unital_basis, guard=guard).as_bimodule()))
        except SizeGuardError:
            pass
    return sorted(probes, key=lambda x: x[0])


@dataclass(frozen=True)
class HcdimReport:
    proved_upper: int | None  # least n with a split syzygy, None = "> cap"
    witnessed_lower: int
    cap: int
    witnesses: tuple[tuple[int, str], ...]  # (degree, probe name)
    notes: tuple[str, ...] = field(default_factory=tuple)
    upper_certificate: ProjectivityCertificate | None = None

    @property
    def upper_text(self) -> str:
        return str(self.proved_upper) if self.proved_upper is not None else f">{self.cap}"


def hcdim_scan(
    A: FiniteAlgebra,
    cap: int,
    guard: int | None = DEFAULT_GUARD,
) -> HcdimReport:
    """Bracket the cohomological dimension between a witness and a proof.

    The upper bound is the least n <= cap whose syzygy splits (exact); the
    lower bound is the largest n <= cap + 1 with a nonzero group over the
    probe set, which is not exhaustive: the report distinguishes "proved
    <= n" from "witnessed >= n".
    """
    if cap < 0:
        raise ValueError("cap must be >= 0")
    notes: list[str] = []
    upper = None
    upper_cert = None
    for n in range(cap + 1):
        try:
            cert = omega_is_projective(A, n, guard=guard)
        except SizeGuardError:
            notes.append(f"syzygy level {n} exceeded the size guard; upper scan stopped")
            break
        if cert.is_projective:
            upper = n
            upper_cert = cert
            break
    probes = _probe_modules(A, guard)
    lower = 0
    witnesses = []
    top = cap + 1 if upper is None else min(cap + 1, upper)
    if upper is not None and upper < cap + 1:
        notes.append(
            f"upper bound {upper} is proved, so degrees above {upper} vanish and are not probed"
        )
    for n in range(top + 1):
        for name, Mod in probes:
            try:
                rep = hh(A, Mod, n, guard=guard, representatives=False)
            except SizeGuardError:
                notes.append(f"probe {name} at degree {n} exceeded the size guard")
                continue
            if not rep.invariants.is_zero:
                witnesses.append((n, name))
                lower = max(lower, n)
                break
    if upper is None and lower < cap + 1:
        notes.append("no witness found at the top degree; the probe set is not exhaustive")
    return HcdimReport(upper, lower, cap, tuple(witnesses), tuple(notes), upper_cert)
