"""Exact computational Hochschild theory for finite-rank algebras.

A library plus CLI that, given a unital associative algebra of finite rank
over Z, Q or F_p presented by structure constants, computes Hochschild
cohomology and homology, centers/derivations/extension classes, relative
projectivity and quasi-freeness verdicts, and Koszul Tor / flat-dimension
certificates.  All arithmetic is exact.
"""

from .rings import GF, QQ, ZZ, ScalarRing
from .matrix import (
    KModuleInvariants,
    Matrix,
    SizeGuardError,
    homology_invariants,
    kernel_basis,
    smith_normal_form,
    solve,
    subquotient_invariants,
)
from .algebra import (
    Bimodule,
    FiniteAlgebra,
    LeftModule,
    ae_from_bimodule,
    bimodule_from_ae,
    enveloping,
    hom_bimodule,
    opposite,
    tensor_product,
    validate_algebra,
)
from .bar import (
    SyzygyModule,
    bar_differential,
    coboundary_matrix,
    contracting_homotopy,
    syzygy,
    universal_derivation,
)
from .cohomology import (
    Cochain,
    CohomologyReport,
    center,
    cocycle_witness,
    derivation_factorization,
    derivations,
    hh,
    hh1_report,
    hochschild_homology,
    inner_derivations,
    relative_ext,
)
from .extensions import (
    ExtensionPresentation,
    cocycles_cohomologous,
    crossed_product,
    enumerate_extension_classes,
    extension_class_from_section,
    is_two_cocycle,
    lift_exists,
)
from .projectivity import (
    ProjectivityCertificate,
    hcdim_scan,
    is_quasi_free,
    omega_is_projective,
    separability_idempotent,
)
from .koszul import (
    finite_koszul_tor,
    graded_koszul_tor,
    hcdim_lower_bound,
    koszul_differential,
    regular_element_check,
    regular_sequence_check,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
