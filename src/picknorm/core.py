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

import cmath
import math
import numbers
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np


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

_MAX_DEGREE = 4096
_MAX_PERIOD = 4096


# --------------------------------------------------------------------------
# Errors
# --------------------------------------------------------------------------

class PicknormError(Exception):
    """Base class for all library errors."""


class ValidationError(PicknormError):
    """Input rejected before any computation (CLI exit code 2)."""


class DomainViolation(ValidationError):
    pass


class DuplicateSite(DomainViolation):
    pass


class LengthMismatch(DomainViolation):
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


class SolverStall(SolverError):
    """Bracket gap not closing under the refinement schedule.

    Carries the best certified bracket found so far in ``partial`` when one
    exists, so callers can still report honest (wide) bounds.
    """

    def __init__(self, message: str, partial: "NormResult | None" = None):
        super().__init__(message)
        self.partial = partial


class TailBoundFailure(SolverStall):
    """A boundary site keeps the dual tail from certifying above the floor."""


class CertificateRejected(SolverError):
    pass


class InfeasibleCoset(SolverError):
    """The subalgebra cannot interpolate the requested targets."""


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
                iterations: int, tolerance: float, note: str | None = None) -> NormResult:
    """Assemble a NormResult and decide whether its bracket closed.

    ``floor`` is max_i |a_i|; it is a theorem-level lower bound on every
    backend, so lower is raised to it when the computed certificate is
    weaker.  A tiny clamp absorbs roundoff when upper lands just under the
    floor; a genuine crossing indicates an internal bug and raises
    SolverError.  A bracket wider than ``tolerance`` raises SolverStall
    carrying the result in ``partial``, with ``note`` (why the bracket did
    not close) added to its certificate; the message names the method, the
    bracket, the tolerance and the note.  A bracket that closed keeps its
    certificate as given.
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
    if up - lo <= tolerance:
        return NormResult(lo, up, certificate, iterations)
    why = ""
    if note is not None:
        certificate = {**certificate, "note": note}
        why = f": {note}"
    raise SolverStall(
        f"{certificate.get('method')}: bracket [{lo!r}, {up!r}] is wider than "
        f"the tolerance {tolerance:.3e}{why}", NormResult(lo, up, certificate, iterations))


class Ends:
    """A bracket loop's best ends, each with its proof: the highest dual
    ``bound`` with its ``dual`` certificate and the lowest evaluated ``upper``
    with its ``primal`` object.  An offer replaces an end and its proof only
    when strictly better (a NaN never is); ``lower`` is max(floor, bound)."""

    def __init__(self, floor: float = -math.inf):
        self.floor = floor
        self.bound, self.dual = -math.inf, None
        self.upper, self.primal = math.inf, None

    @property
    def lower(self) -> float:
        return max(self.floor, self.bound)

    def offer_lower(self, bound: float, dual) -> None:
        if bound > self.bound:
            self.bound, self.dual = bound, dual

    def offer_upper(self, value: float, primal) -> None:
        if value < self.upper:
            self.upper, self.primal = value, primal


# --------------------------------------------------------------------------
# Operations
# --------------------------------------------------------------------------

def sup_lower_bound(targets: Sequence[complex]) -> float:
    """max_i |a_i| — every backend's certified lower bound is at least this."""
    if len(targets) == 0:
        raise EmptyTargets("need at least one target")
    return max(abs(complex(a)) for a in targets)


# The input rules, stated once.  Every public entry point calls these three
# instead of checking its own arguments, so a value the paper's definitions
# do not cover (a non-finite number, a truncated integer, two equal
# functionals, a target count that does not match) is rejected the same way
# on every path.

def _integer(z):
    """Whether ``z`` is a real integer (elementwise, for a complex array).

    Within 2**53 every integer is exact in a double and in an int64.
    """
    return (z.imag == 0.0) & (abs(z.real) <= 2.0 ** 53) & (np.floor(z.real) == z.real)


def check_dimension(d, name: str = "dimension") -> int:
    """A count, such as a finite model's dimension, a kernel order or a grid
    size: a real integer >= 1 by ``_integer`` (2.7, NaN and True are
    rejected, never truncated).  ``name`` is the parameter the message names."""
    if not (isinstance(d, numbers.Real) and not isinstance(d, bool)
            and _integer(complex(d)) and d >= 1):
        raise DomainViolation(f"{name} must be an integer >= 1, got {d!r}")
    return int(d)


# backend -> (the rule in words, predicate on (site, dimension)); a NaN or
# infinite site fails every predicate
_SITE_RULES = {
    "hardy": ("|lambda| < 1", lambda z, dim: abs(z) < 1.0),
    "analytic_wiener": ("|lambda| <= 1", lambda z, dim: abs(z) <= 1.0),
    "wiener": ("a real angle in [0, 2*pi)",
               lambda z, dim: z.imag == 0.0 and 0.0 <= z.real < 2 * math.pi),
    "l1_torus": ("a real integer", lambda z, dim: _integer(z)),
    **dict.fromkeys(FINITE_NORM_KINDS, (
        "a real integer in 1..dimension",
        lambda z, dim: _integer(z) and 1.0 <= z.real <= dim)),
}


def check_sites(backend: str, values, dimension: int | None = None) -> np.ndarray:
    """The sites of ``backend`` as an array, or a ValidationError naming one.

    Every value must be finite, and: inside the open disc for ``hardy``, in
    the closed disc for ``analytic_wiener`` (both returned complex), a real
    angle in [0, 2*pi) for ``wiener`` (returned float), a real integer for
    ``l1_torus`` and, for the finite backends, a real integer in
    1..``dimension`` (returned int; ``dimension=None`` checks only >= 1).
    Integers are never truncated: 1.5 is rejected.  The sites must be
    pairwise distinct; DuplicateSite names the first two equal ones.
    """
    if backend not in _SITE_RULES:
        raise UnknownBackend(f"unknown backend {backend!r}")
    rule, ok = _SITE_RULES[backend]
    try:
        v = np.asarray(values, dtype=complex).ravel()
    except (TypeError, ValueError):
        raise DomainViolation(f"sites must be numbers, got {values!r}") from None
    zs = v.tolist()
    dim = math.inf if dimension is None else dimension
    for i, z in enumerate(zs):
        if not ok(z, dim):
            why = "is not finite" if not cmath.isfinite(z) else \
                f"breaks the {backend!r} rule: {rule}"
            raise DomainViolation(f"site {i} = {z.real if z.imag == 0 else z!r} {why}")
    if len(set(zs)) < len(zs):
        first: dict[complex, int] = {}
        for j, z in enumerate(zs):
            if first.setdefault(z, j) != j:
                raise DuplicateSite(f"sites {first[z]} and {j} are equal ({z!r})")
    kind = BACKEND_SITE_KIND[backend]
    if kind == "disc_point":
        return v
    return v.real if kind == "circle_angle" else v.real.astype(int)


def check_targets(targets, count: int) -> np.ndarray:
    """The targets as a complex array: at least one (EmptyTargets), exactly
    ``count`` (LengthMismatch) and every one finite (DomainViolation)."""
    try:
        a = np.asarray(targets, dtype=complex).ravel()
    except (TypeError, ValueError):
        raise DomainViolation(f"targets must be numbers, got {targets!r}") from None
    if len(a) == 0:
        raise EmptyTargets("need at least one target")
    if len(a) != count:
        raise LengthMismatch(f"{count} sites but {len(a)} targets")
    for i, z in enumerate(a.tolist()):
        if not cmath.isfinite(z):
            raise DomainViolation(f"target {i} = {z!r} is not finite")
    return a


def check_tolerance(tolerance: float) -> None:
    """A tolerance must be positive (NaN is not)."""
    if not (tolerance > 0):
        raise DomainViolation(f"tolerance must be positive, got {tolerance!r}")


def validate_problem(p: InterpolationProblem) -> None:
    """Check the backend, site kinds, sites, targets and tolerance; raise a
    ValidationError on the first violation."""
    check_sites(p.backend, [s.value for s in p.sites],
                _finite_dimension(p.params or {}))
    expected = BACKEND_SITE_KIND[p.backend]
    for i, s in enumerate(p.sites):
        if s.kind != expected:
            raise DomainViolation(
                f"site {i}: backend {p.backend!r} needs kind {expected!r}, "
                f"got {s.kind!r}")
    check_targets(p.targets, len(p.sites))
    check_tolerance(p.tolerance)


def _finite_dimension(params: dict) -> int | None:
    if "dimension" in params:
        return check_dimension(params["dimension"])
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


# The exact answers, stated once.  Each public entry point of the four
# function-algebra backends calls this right after its input checks and
# solves only when it returns None.

def _exact_answer(backend: str, sites: np.ndarray, a: np.ndarray,
                  tolerance: float) -> NormResult | None:
    """The bracket of a problem whose norm has a closed form, or None.

    ``sites`` and ``a`` have passed ``check_sites`` and ``check_targets``.

    - All targets zero: ``[0, 0]``, method ``zero_targets``.
    - One site on ``hardy``, ``analytic_wiener``, ``wiener`` or
      ``l1_torus``: the norm is ``|a|``, attained by ``a`` times the unit
      element (``a e^{ik theta}`` on the torus); method ``one_site``, with
      the interpolant's ``support`` and ``coefficients`` as ``analytic_l1``
      gives them.
    - Two sites on ``l1_torus``: the norm is ``max(|a_1|, |a_2|)``, attained
      by the two-atom measure of ``_two_site_torus``; method
      ``two_site_torus``.
    - Two sites on ``wiener`` whose target ratio lies inside the convex
      hull of the angle orbit: the norm is ``max(|a_1|, |a_2|)``, attained
      by the three-atom sequence of ``_two_site_wiener``; method
      ``two_site_wiener``.  That covers incommensurate angles with
      ``|a_1| != |a_2|`` as far as frequencies up to ``_MAX_DEGREE`` reach,
      and commensurate ones whose ratio lies inside the regular polygon of
      their residues.  A pair it does not decide returns None, and
      ``_solve_wiener`` brackets it.

    In the last three cases the norm is ``max_i |a_i|`` exactly, and the
    bracket is ``max_i`` of ``_modulus_bracket(a_i)``: its lower end is
    ``sup_lower_bound(a)`` itself unless that float lies above the norm,
    and then the double below it.  Every answer has zero iterations and no
    ``dual`` key; one that rounding leaves wider than ``tolerance`` raises
    SolverStall from ``make_result``.
    """
    if not np.any(a):
        return make_result(0.0, 0.0, 0.0, {"method": "zero_targets"}, 0, tolerance)
    if len(a) == 1:
        k = int(sites[0]) if backend == "l1_torus" else 0
        certificate = {"method": "one_site", "support": [k],
                       "coefficients": [[float(a[0].real), float(a[0].imag)]]}
    elif len(a) == 2 and backend == "l1_torus":
        certificate = _two_site_torus(sites, a)
    elif len(a) == 2 and backend == "wiener":
        certificate = _two_site_wiener(sites, a)
        if certificate is None:
            return None
    else:
        return None
    ends = [_modulus_bracket(complex(z)) for z in a]
    lower = max(lo for lo, _ in ends)
    return make_result(lower, max(up for _, up in ends), lower, certificate, 0,
                       tolerance, note="one ulp of the norm exceeds the tolerance")


def _modulus_bracket(z: complex) -> tuple[float, float]:
    """The doubles next to ``|z|`` on either side, both ``abs(z)`` when that
    is exact.  ``abs`` is within an ulp of ``|z|``; exact rational
    arithmetic on the squares decides on which side."""
    square = Fraction(z.real) ** 2 + Fraction(z.imag) ** 2
    lo = up = abs(z)
    while Fraction(lo) ** 2 > square:
        lo = math.nextafter(lo, 0.0)
    while Fraction(up) ** 2 < square:
        up = math.nextafter(up, math.inf)
    return lo, up


def _two_site_torus(ks: np.ndarray, a: np.ndarray) -> dict:
    """The certificate of a two-site ``l1_torus`` problem.

    For ``k_1 != k_2`` the pairs ``(e^{-ik_1 theta}, e^{-ik_2 theta})``
    cover the torus, so the norm is ``max(|a_1|, |a_2|)``.  Order the sites
    so that ``|a_1| >= |a_2|`` and write ``a_2 / a_1 = c e^{i psi}``.  Two
    atoms at ``theta = -(psi +- arccos c) / (k_2 - k_1)`` with weights
    ``a_1 e^{ik_1 theta} / 2`` have mass ``|a_1|``, coefficient ``a_1`` at
    ``k_1`` and ``a_1 c e^{i psi} = a_2`` at ``k_2``.  ``c`` is clamped to
    1, so ``|a_1| ~ |a_2|`` gives no NaN.  The ``atoms`` payload, shaped
    like ``torus_l1``'s, gives the angles reduced modulo ``2 pi`` and the
    weights, both rounded to doubles.
    """
    i, j = (0, 1) if abs(a[0]) >= abs(a[1]) else (1, 0)
    a1, k1, k2 = complex(a[i]), int(ks[i]), int(ks[j])
    rho = complex(a[j]) / a1
    alpha = math.acos(min(abs(rho), 1.0))
    psi = cmath.phase(rho)
    angles = [(-(psi + s * alpha) / (k2 - k1)) % (2 * math.pi) for s in (1.0, -1.0)]
    weights = [a1 / 2 * cmath.exp(1j * k1 * t) for t in angles]
    return {"method": "two_site_torus",
            "atoms": {"angles": angles,
                      "weights": [[w.real, w.imag] for w in weights]}}


def _on_period_grid(x: np.ndarray) -> np.ndarray:
    """Whether each ``x = theta * q / (2 pi)`` lies within 1e-9 of an
    integer: the rule by which an angle is a multiple of ``2 pi / q``."""
    return np.abs(x - np.round(x)) <= 1e-9


def common_period(thetas) -> int | None:
    """Smallest q <= 4096 with every angle an integer multiple of 2*pi/q,
    by the rule of ``_on_period_grid``."""
    th = np.asarray(thetas, dtype=float).ravel()
    x = th * np.arange(1, _MAX_PERIOD + 1)[:, None] / (2 * np.pi)  # row q-1: th * q
    hit = np.all(_on_period_grid(x), axis=1)
    return int(np.argmax(hit)) + 1 if hit.any() else None


def _two_site_wiener(th: np.ndarray, a: np.ndarray) -> dict | None:
    """The certificate of a two-site ``wiener`` problem whose norm is
    ``max(|a_1|, |a_2|)``, or None where this is not decided.

    Order the sites so that ``|a_i| >= |a_j|`` and set ``w = a_j / a_i``
    and ``zeta_k = e^{ik(theta_j - theta_i)}``.  Weights ``t_k >= 0`` with
    ``sum t_k = 1`` and ``sum t_k zeta_k = w`` give the sequence
    ``c_k = a_i t_k e^{-ik theta_i}``, which takes the value ``a_i`` at
    ``theta_i`` and ``a_j`` at ``theta_j`` and has mass ``|a_i|``, the
    floor.  So three orbit points whose triangle holds ``w``
    (``_orbit_triangle``) prove the norm.  The orbit is:

    - for commensurate angles (``common_period`` finds q, and the sites are
      snapped to ``2 pi p_i / q`` as in ``_solve_wiener``): k = 0..q-1,
      the vertices of a regular ``q / gcd(p_j - p_i, q)``-gon;
    - otherwise ``|k| <= K`` for K = 32, 64, ..., ``_MAX_DEGREE``.  The
      difference of two doubles over 2 pi is irrational, so the orbit is
      dense and its hull holds every ``|w| < 1``, but not always within
      ``|k| <= _MAX_DEGREE``.

    None where no triangle holds ``w``: ``|w|`` on or too near the unit
    circle, angles too close for the orbit to wind round within
    ``_MAX_DEGREE``, ``w`` outside the polygon or on one of its diagonals,
    or both sites at one residue.  The payload is the interpolant's
    ``support`` (the three k) and ``coefficients`` (the c_k), as
    ``wiener_l1_truncated`` gives them, plus ``period`` and ``residues``
    when the angles were snapped.
    """
    i, j = (0, 1) if abs(a[0]) >= abs(a[1]) else (1, 0)
    w = complex(a[j]) / complex(a[i])
    q = common_period(th)
    if q is not None:
        p = np.round(th * q / (2 * np.pi)).astype(int) % q
        ks = np.arange(q)
        # reduced modulo q before scaling, so each point is one rounding off
        triangle = _orbit_triangle(np.exp(2j * np.pi * (ks * (p[j] - p[i]) % q) / q), w)
        phases = np.exp(-2j * np.pi * (ks * p[i] % q) / q)
        snapped = {"period": q, "residues": p.tolist()}
    else:
        K, triangle = 16, None
        while triangle is None and K < _MAX_DEGREE:
            K *= 2
            ks = np.arange(-K, K + 1)
            triangle = _orbit_triangle(np.exp(1j * ks * (th[j] - th[i])), w)
        phases = np.exp(-1j * ks * th[i])
        snapped = {}
    if triangle is None:
        return None
    idx, t = triangle
    c = complex(a[i]) * t * phases[idx]
    return {"method": "two_site_wiener", "support": [int(k) for k in ks[idx]],
            "coefficients": [[z.real, z.imag] for z in c.tolist()], **snapped}


def _orbit_triangle(zeta: np.ndarray, w: complex):
    """Three indices into ``zeta`` and the barycentric coordinates of ``w``
    in their triangle, all at least 1e-9 and scaled to sum to 1, or None.

    Two vertices are the points nearest ``arg w`` on either side (one in
    the direction of ``w`` counts as counter-clockwise); the third is the
    point that makes the smallest coordinate largest.  The margin 1e-9 is
    far above the rounding of the points, each within about 3e-12 of
    ``e^{ik delta}`` for ``|k| <= 4096``.  So on a polygon of at most 4096
    sides, whose triangles are not thin, an accepted ``w`` lies inside the
    exact hull; on a dense orbit it lies strictly inside the unit circle,
    all of which the exact hull holds.
    """
    d = np.mod(np.angle(zeta) - cmath.phase(w), 2 * np.pi)
    i1, i2 = int(np.argmin(d)), int(np.argmax(d))
    z1, z2 = zeta[i1], zeta[i2]

    def cross(u, v):
        return u.real * v.imag - u.imag * v.real

    area = cross(z2 - z1, zeta - z1)
    with np.errstate(divide="ignore", invalid="ignore"):  # area 0: z1, z2 or collinear
        lam = np.array([cross(z2 - w, zeta - w), cross(zeta - w, z1 - w),
                        np.full(len(zeta), cross(z1 - w, z2 - w))]) / area
    worst = np.where(area != 0, lam.min(axis=0), -np.inf)
    i3 = int(np.argmax(worst))
    if not worst[i3] >= 1e-9:
        return None
    return [i1, i2, i3], lam[:, i3] / np.sum(lam[:, i3])


def compute_np_norm(p: InterpolationProblem) -> NormResult:
    """Dispatch to the backend-specific norm computation.

    The result satisfies the NormResult invariants; in particular
    result.lower >= sup_lower_bound(targets) within the tolerance.  The
    four function-algebra backends answer the problems of
    ``_exact_answer`` before any solver.
    """
    validate_problem(p)

    values = [s.value for s in p.sites]
    if p.backend == "hardy":
        from . import hardy
        return hardy.np_norm_hardy(values, p.targets, p.tolerance)

    if p.backend == "analytic_wiener":
        from . import seqalg
        return seqalg.np_norm_analytic_wiener(values, p.targets, p.tolerance)

    if p.backend == "wiener":
        from . import seqalg
        return seqalg.np_norm_wiener(values, p.targets, p.tolerance)

    if p.backend == "l1_torus":
        from . import seqalg
        return seqalg.np_norm_l1_torus(values, p.targets, p.tolerance)

    # finite backends
    from . import finitemodel
    alg = finite_algebra(p.backend, p.params, values)
    return finitemodel.np_norm_closed_form(alg, values, p.targets)
