"""Relative projectivity of bar syzygies, separability, quasi-freeness, HCdim.

Upper bounds on the cohomological dimension are *proved* by exhibiting a
bimodule-linear section of the chain map onto a syzygy; lower bounds are
*witnessed* by coefficient modules with nonzero cohomology.  "For all
bimodules" is not decidable by enumeration, so the scan report keeps the
two directions explicit and never conflates them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

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
    bar_rank,
    chain_actions,
    syzygy,
)
from .cohomology import hh
from .extensions import (
    coboundary_of,
    crossed_product_presentation,
    lift_exists,
    trivial_extension,
)
from .matrix import DEFAULT_GUARD, Matrix, SizeGuardError, check_guard, solve
from .rings import QQ


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


def separability_idempotent(A: FiniteAlgebra) -> Matrix | None:
    """An element e of A (x) A with mu(e) = 1 and (a (x) 1) e = (1 (x) a) e.

    Such an element splits the multiplication map bimodule-linearly, so its
    existence is exactly relative projectivity of A itself (cohomological
    dimension zero).  Returns the coefficient column (length d^2) or None.
    """
    from .algebra import left_mult_matrix, right_mult_matrix

    d = A.rank
    ring = A.ring
    I = Matrix.identity(ring, d)
    system = multiplication_matrix(A)
    rhs_entries = list(A.unit)
    for i in range(d):
        block = left_mult_matrix(A, i).kron(I) - I.kron(right_mult_matrix(A, i))
        system = system.vstack(block)
        rhs_entries.extend([ring.zero] * (d * d))
    rhs = Matrix.column(ring, rhs_entries)
    return solve(system, rhs)


def _averaged_section(A: FiniteAlgebra, e: Matrix, om: SyzygyModule) -> Matrix:
    """Section of the chain map onto a syzygy, built from a separability element.

    sigma(w) = sum x_i s(y_i w x_j) y_j over the tensor components of e, with
    s the contracting homotopy: standard double averaging, verified by the
    caller.  Only valid input: e a separability element.
    """
    n, normalized = om.level, om.normalized
    d = A.rank
    ring = A.ring
    z = ring.zero
    Ln, Rn = chain_actions(A, n, normalized)
    Lm, Rm = chain_actions(A, n - 1, normalized)
    S = _homotopy(A, n - 1, normalized)
    K = om.basis
    inner = Matrix.zeros(ring, S.rows, K.cols)
    # T = sum c_rs R^n_s S R^(n-1)_r, applied progressively against K
    for r in range(d):
        RK = Rm[r] * K
        for s in range(d):
            c = e[r * d + s, 0]
            if c != z:
                inner = inner + (Rn[s] * (S * RK)).scale(c)
    out = Matrix.zeros(ring, S.rows, K.cols)
    for q in range(d):
        # reuse: sigma K = sum c_pq L^n_p inner L^(n-1)_q; right-multiply first
        LK = om.left[q]  # action of e_q in syzygy coordinates
        base = inner * LK
        for p in range(d):
            c = e[p * d + q, 0]
            if c != z:
                out = out + (Ln[p] * base).scale(c)
    return out


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


def _section_system(A: FiniteAlgebra, om: SyzygyModule, guard: int | None) -> tuple[Matrix, Matrix]:
    """Linear system for sigma: Omega^n -> CB_n with b sigma = id, sigma bilinear."""
    n, normalized = om.level, om.normalized
    ring = A.ring
    z = ring.zero
    b = _differential(A, n, normalized)
    Ln, Rn = chain_actions(A, n, normalized)
    N = b.cols  # chain rank at level n
    r = om.rank
    unknowns = N * r  # S[alpha][c] at index alpha * r + c
    check_guard(b.rows * r + 2 * A.rank * N * r, unknowns, guard)
    rows = []
    rhs = []

    # b * S = K
    for beta, b_row in enumerate(b.transpose().columns):
        for c in range(r):
            rows.append({alpha * r + c: v for alpha, v in b_row})
            rhs.append(om.basis[beta, c])
    # S Lambda_i = L_i S  and  S Rho_i = R_i S
    for i in range(A.rank):
        for big, small in ((Ln[i], om.left[i]), (Rn[i], om.right[i])):
            big_rows = big.transpose().columns
            for alpha in range(N):
                for c in range(r):
                    row = {alpha * r + cp: v for cp, v in small.columns[c]}
                    for ap, w in big_rows[alpha]:
                        key = ap * r + c
                        row[key] = ring.canon(row.get(key, z) - w)
                    if row:
                        rows.append(row)
                        rhs.append(z)
    triplets = ((ri, cj, v) for ri, row in enumerate(rows) for cj, v in row.items())
    return Matrix.from_triplets(ring, len(rows), unknowns, triplets), Matrix.column(ring, rhs)


def omega_is_projective(
    A: FiniteAlgebra,
    n: int,
    normalized: bool | None = None,
    guard: int | None = DEFAULT_GUARD,
) -> ProjectivityCertificate:
    """Decide relative projectivity of the n-th syzygy by section solving.

    The level-n chain module surjects onto the syzygy along the boundary;
    the syzygy is relatively projective iff that surjection splits
    bimodule-linearly.  A separability element, when one exists, yields the
    splitting directly by double averaging; otherwise the section is found
    (or refuted) as an exact linear system.  Over Z the section must be
    integral: a rational-only solution reports a torsion obstruction.
    """
    if normalized is None:
        normalized = A.has_unital_basis
    check_guard(bar_rank(A, n, normalized), bar_rank(A, n - 1, normalized), guard)
    om = syzygy(A, n, normalized, guard=guard)
    e = separability_idempotent(A)
    if e is not None:
        S = _averaged_section(A, e, om) if n >= 1 else _idempotent_as_section(A, e, om)
        if _section_is_valid(A, om, S):
            return ProjectivityCertificate("projective", n, normalized, section=S)
    system, rhs = _section_system(A, om, guard)
    S = solve(system, rhs)
    if S is not None:
        mat = S.reshape(bar_rank(A, n, normalized), om.rank)
        if not _section_is_valid(A, om, mat):
            raise AssertionError("solved section failed verification")
        return ProjectivityCertificate("projective", n, normalized, section=mat)
    obstruction = "no bimodule-linear section exists"
    if A.ring.kind == "Z":
        q_system = _to_rational(system)
        q_rhs = _to_rational(rhs)
        if solve(q_system, q_rhs) is not None:
            obstruction = "torsion obstruction: a section exists over Q but not integrally"
    return ProjectivityCertificate("not_projective", n, normalized, obstruction=obstruction)


def _idempotent_as_section(A: FiniteAlgebra, e: Matrix, om: SyzygyModule) -> Matrix:
    """At level 0 the section sends a basis vector to its left action on e."""
    Ln, _ = chain_actions(A, 0, om.normalized)
    cols = []
    for i in range(A.rank):
        cols.append((Ln[i] * e).col_list(0))
    return Matrix.from_cols(A.ring, cols, nrows=A.rank**2)


def _to_rational(M: Matrix) -> Matrix:
    return Matrix(QQ, M.rows, M.cols, (tuple((i, Fraction(v)) for i, v in c) for c in M.columns))


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
        from .bar import chain_bimodule

        probes.append(("Aenv", chain_bimodule(A, 0, False, guard)))
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
    extra_modules: tuple[tuple[str, Bimodule], ...] = (),
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
    probes = list(_probe_modules(A, guard)) + sorted(extra_modules, key=lambda x: x[0])
    probes.sort(key=lambda x: x[0])
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
