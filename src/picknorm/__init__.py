"""Certified Nevanlinna-Pick interpolation norms for concrete commutative
Banach algebra backends, plus Gleason-part and kernel-smoothing diagnostics.

The quotient norm being computed, for functionals phi_1..phi_n on an
algebra A and targets a_1..a_n, is

    inf { ||x||_A : x^(phi_i) = a_i for all i },

always reported as a certified interval [lower, upper].
"""

from .core import (
    BACKENDS,
    DEFAULT_TOLERANCE,
    BracketFailure,
    CertificateRejected,
    DomainViolation,
    DuplicateSite,
    EigensolveFailure,
    EmptyTargets,
    GridTooCoarse,
    InfeasibleCoset,
    InterpolationProblem,
    LengthMismatch,
    NonpositiveLevel,
    NormResult,
    PicknormError,
    Site,
    SolverError,
    SolverStall,
    TailBoundFailure,
    UnknownBackend,
    ValidationError,
    compute_np_norm,
    sup_lower_bound,
    validate_problem,
)
from .hardy import (
    FeasibilityVerdict,
    PickMatrix,
    build_pick_matrix,
    is_feasible,
    np_norm_hardy,
)
from .seqalg import (
    DualCertificate,
    analytic_wiener_certificate,
    dual_certificate_check,
    l1_torus_certificate,
    np_norm_analytic_wiener,
    np_norm_l1_torus,
    np_norm_wiener,
    wiener_certificate,
)
from .finitemodel import (
    FiniteAlgebra,
    NPInftyVerdict,
    annihilating_functional,
    np_infty_test,
    np_norm_closed_form,
    np_norm_generic,
    scattered_contradiction_check,
)
from .kernels import (
    KernelSpec,
    TorusMeasure,
    convolve,
    kernel_coeffs,
    kernel_l1_norm,
    smoothing_chain,
    unit_point_mass,
)
from .gleason import (
    GleasonReport,
    certify_trivial_parts,
    gleason_distance_finite,
    gleason_distance_hardy,
    part_partition,
)

__all__ = [name for name in dir() if not name.startswith("_")]

__version__ = "0.1.0"
