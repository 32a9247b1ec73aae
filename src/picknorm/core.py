"""Problem model, certified result types, and the backend dispatch.

Every backend computes the same quantity: the quotient norm on C^n induced
by evaluating n pairwise distinct multiplicative functionals on a concrete
commutative Banach algebra,

    ||(a_1, ..., a_n)|| = inf { ||x||_A : x^(phi_i) = a_i for all i }.

Results are always certified intervals [lower, upper], never bare point
estimates: several backends only bracket an infimum that is not attained.
The universal floor lower >= max_i |a_i| holds on every backend because the
algebra norm dominates the spectral norm; it is enforced at assembly time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence


SITE_KINDS = ("disc_point", "circle_angle", "integer_character", "coordinate_index")

BACKENDS = (
    "hardy",
    "analytic_wiener",
    "wiener",
    "l1_torus",
    "finite_sup",
    "finite_l1",
    "finite_lp",
)

BACKEND_SITE_KIND = {
    "hardy": "disc_point",
    "analytic_wiener": "disc_point",
    "wiener": "circle_angle",
    "l1_torus": "integer_character",
    "finite_sup": "coordinate_index",
    "finite_l1": "coordinate_index",
    "finite_lp": "coordinate_index",
}

FINITE_NORM_KINDS = {
    "finite_sup": "weighted_sup",
    "finite_l1": "weighted_l1",
    "finite_lp": "lp",
}

DEFAULT_TOLERANCE = 1e-9


# --------------------------------------------------------------------------
# Errors
# --------------------------------------------------------------------------

class PicknormError(Exception):
    """Base class for all library errors."""


class ValidationError(PicknormError):
    """Input rejected before any computation (CLI exit code 2)."""


class DuplicateSite(ValidationError):
    pass


class LengthMismatch(ValidationError):
    pass


class DomainViolation(ValidationError):
    pass


class EmptyTargets(ValidationError):
    pass


class UnknownBackend(ValidationError):
    pass


class NonpositiveLevel(ValidationError):
    pass


class GridTooCoarse(ValidationError):
    pass


class SolverError(PicknormError):
    """Computation started but could not certify a result (CLI exit code 3)."""


class EigensolveFailure(SolverError):
    pass


class BracketFailure(SolverError):
    pass


class TailBoundFailure(SolverError):
    pass


class SolverStall(SolverError):
    """Bracket gap not closing under the refinement schedule.

    Carries the best certified bracket found so far in ``partial`` when one
    exists, so callers can still report honest (wide) bounds.
    """

    def __init__(self, message: str, partial: "NormResult | None" = None):
        super().__init__(message)
        self.partial = partial


class CertificateRejected(SolverError):
    pass


class InfeasibleCoset(SolverError):
    """The subalgebra cannot interpolate the requested targets."""


class SearchStall(SolverError):
    pass


# --------------------------------------------------------------------------
# Domain types
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class Site:
    """Concrete representation of one multiplicative functional.

    kind
        One of ``disc_point`` (evaluation at a point of the disc),
        ``circle_angle`` (evaluation of a Fourier series at an angle),
        ``integer_character`` (Fourier coefficient of index k), or
        ``coordinate_index`` (coordinate functional on C^n, 1-based).
    value
        complex for disc points, real angle in [0, 2*pi) for circle angles,
        int otherwise.
    """

    kind: str
    value: complex

    def __post_init__(self):
        if self.kind not in SITE_KINDS:
            raise DomainViolation(f"unknown site kind {self.kind!r}")


@dataclass(frozen=True)
class InterpolationProblem:
    """A Nevanlinna-Pick norm computation request.

    ``params`` carries backend-specific data (weights, exponent p, optional
    subalgebra basis for the finite backends).
    """

    backend: str
    sites: tuple[Site, ...]
    targets: tuple[complex, ...]
    tolerance: float = DEFAULT_TOLERANCE
    params: dict | None = None


@dataclass(frozen=True)
class NormResult:
    """Certified interval [lower, upper] for the norm plus a certificate.

    Invariants: 0 <= lower <= upper; on success upper - lower <= tolerance;
    lower >= max_i |a_i| - tolerance (the universal floor).
    """

    lower: float
    upper: float
    certificate: dict
    iterations: int = 0

    def width(self) -> float:
        return self.upper - self.lower


def make_result(lower: float, upper: float, floor: float, certificate: dict,
                iterations: int = 0) -> NormResult:
    """Assemble a NormResult, clamping with the universal sup floor.

    ``floor`` is max_i |a_i|; it is a theorem-level lower bound on every
    backend, so lower is raised to it when the computed certificate is
    weaker.  A tiny clamp absorbs roundoff when upper lands just under the
    floor; a genuine crossing indicates an internal bug and is rejected.
    """
    lo = max(float(lower), float(floor), 0.0)
    up = float(upper)
    if up < lo:
        if up < lo - 1e-9 * max(1.0, lo):
            raise SolverError(
                f"certified bounds crossed: lower={lo!r} upper={up!r}")
        up = lo
    if lo > lower:
        certificate = dict(certificate)
        certificate.setdefault("floor_active", True)
    return NormResult(lower=lo, upper=up, certificate=certificate,
                      iterations=iterations)


# --------------------------------------------------------------------------
# Operations
# --------------------------------------------------------------------------

def sup_lower_bound(targets: Sequence[complex]) -> float:
    """max_i |a_i| — every backend's certified lower bound is at least this."""
    if len(targets) == 0:
        raise EmptyTargets("need at least one target")
    return max(abs(complex(a)) for a in targets)


def validate_problem(p: InterpolationProblem) -> None:
    """Check site invariants, lengths and tolerance; raise on violation."""
    if p.backend not in BACKENDS:
        raise UnknownBackend(f"unknown backend {p.backend!r}")
    if len(p.sites) == 0:
        raise EmptyTargets("problem has no sites")
    if len(p.sites) != len(p.targets):
        raise LengthMismatch(
            f"{len(p.sites)} sites but {len(p.targets)} targets")
    if not (p.tolerance > 0):
        raise DomainViolation(f"tolerance must be positive, got {p.tolerance!r}")

    expected = BACKEND_SITE_KIND[p.backend]
    for i, s in enumerate(p.sites):
        if s.kind != expected:
            raise DomainViolation(
                f"site {i}: backend {p.backend!r} needs kind {expected!r}, "
                f"got {s.kind!r}")

    seen: dict[complex, int] = {}
    for i, s in enumerate(p.sites):
        key = complex(s.value)
        if key in seen:
            raise DuplicateSite(
                f"sites {seen[key]} and {i} are equal ({s.value!r})")
        seen[key] = i

    if p.backend == "hardy":
        for i, s in enumerate(p.sites):
            if abs(complex(s.value)) >= 1.0:
                raise DomainViolation(
                    f"site {i}: |lambda| must be < 1 for the bounded-analytic "
                    f"backend, got {s.value!r}")
    elif p.backend == "analytic_wiener":
        for i, s in enumerate(p.sites):
            if abs(complex(s.value)) > 1.0:
                raise DomainViolation(
                    f"site {i}: |lambda| must be <= 1 for the analytic "
                    f"coefficient-series backend, got {s.value!r}")
    elif p.backend == "wiener":
        for i, s in enumerate(p.sites):
            th = complex(s.value)
            if th.imag != 0.0 or not (0.0 <= th.real < 2 * math.pi):
                raise DomainViolation(
                    f"site {i}: angle must be a real in [0, 2*pi), got {s.value!r}")
    elif p.backend == "l1_torus":
        for i, s in enumerate(p.sites):
            v = complex(s.value)
            if v.imag != 0.0 or v.real != int(v.real):
                raise DomainViolation(f"site {i}: character must be an integer")
    else:  # finite backends
        dim = _finite_dimension(p.params or {})
        for i, s in enumerate(p.sites):
            v = complex(s.value)
            if v.imag != 0.0 or v.real != int(v.real):
                raise DomainViolation(f"site {i}: coordinate index must be an integer")
            idx = int(v.real)
            if idx < 1 or (dim is not None and idx > dim):
                raise DomainViolation(
                    f"site {i}: coordinate index {idx} outside 1..{dim}")


def _finite_dimension(params: dict) -> int | None:
    if "dimension" in params:
        return int(params["dimension"])
    if "weights" in params and params["weights"] is not None:
        return len(params["weights"])
    return None


def finite_algebra(backend: str, params: dict | None, sites: Sequence[int]):
    """The FiniteAlgebra a finite backend's ``backend_params`` describe.

    ``params`` may carry ``dimension``, ``weights``, ``p`` and ``basis``;
    without a dimension it is the weights' length, else the largest site.
    """
    from .finitemodel import FiniteAlgebra
    params = params or {}
    dim = _finite_dimension(params)
    return FiniteAlgebra(max(sites) if dim is None else dim, FINITE_NORM_KINDS[backend],
                         weights=params.get("weights"), p=params.get("p"),
                         basis=params.get("basis"))


def compute_np_norm(p: InterpolationProblem) -> NormResult:
    """Dispatch to the backend-specific norm computation.

    The result satisfies the NormResult invariants; in particular
    result.lower >= sup_lower_bound(targets) within the tolerance.
    """
    validate_problem(p)

    if p.backend == "hardy":
        from . import hardy
        lambdas = [s.value for s in p.sites]
        return hardy.np_norm_hardy(lambdas, p.targets, p.tolerance)

    if p.backend == "analytic_wiener":
        from . import seqalg
        lambdas = [s.value for s in p.sites]
        return seqalg.np_norm_analytic_wiener(lambdas, p.targets, p.tolerance)

    if p.backend == "wiener":
        from . import seqalg
        thetas = [float(complex(s.value).real) for s in p.sites]
        return seqalg.np_norm_wiener(thetas, p.targets, p.tolerance)

    if p.backend == "l1_torus":
        from . import seqalg
        ks = [int(complex(s.value).real) for s in p.sites]
        return seqalg.np_norm_l1_torus(ks, p.targets, p.tolerance)

    # finite backends
    from . import finitemodel
    subset = [int(complex(s.value).real) for s in p.sites]
    alg = finite_algebra(p.backend, p.params, subset)
    return finitemodel.np_norm_closed_form(alg, subset, p.targets)
