"""Bounded-analytic-function backend on the open unit disc.

The classical interpolation theorem says there is an analytic f on the disc
with sup-norm <= t and f(lambda_i) = z_i exactly when the matrix

    M(t)[i, j] = (1 - t^{-2} z_i conj(z_j)) / (1 - lambda_i conj(lambda_j))

is positive semidefinite.  The interpolation norm is therefore the infimum
of the feasible levels t, which this module brackets by bisection.  M(t)
decomposes as S - t^{-2} D_z S D_z^* with S the positive reproducing-kernel
matrix, so feasibility is monotone in t and bisection is sound.  Zero
targets and one site have exact answers (``core._exact_answer``) and build
no matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    BracketFailure,
    EigensolveFailure,
    NonpositiveLevel,
    NormResult,
    _exact_answer,
    check_sites,
    check_targets,
    check_tolerance,
    make_result,
)


# is_feasible's PSD slack, relative to max(1, ||M(t)||_F)
_PSD_SLACK = 1e-12


@dataclass(frozen=True)
class PickMatrix:
    """Hermitian feasibility matrix at level t for data (lambdas, zs)."""

    entries: np.ndarray
    level: float
    lambdas: np.ndarray
    zs: np.ndarray


@dataclass(frozen=True)
class FeasibilityVerdict:
    feasible: bool
    min_eigenvalue: float
    psd_slack: float


def build_pick_matrix(lambdas, zs, t: float) -> PickMatrix:
    """Assemble M(t); Hermitian exactly, by mirroring one triangle.

    The sites and targets pass ``core.check_sites`` and
    ``core.check_targets``: distinct points of the open disc, one finite
    target each.
    """
    if not (t > 0):
        raise NonpositiveLevel(f"level must be positive, got {t!r}")
    lam = check_sites("hardy", lambdas)
    z = check_targets(zs, len(lam))

    num = 1.0 - np.outer(z, z.conj()) / (t * t)
    den = 1.0 - np.outer(lam, lam.conj())
    full = num / den
    upper = np.triu(full, 1)
    entries = np.diag(full.real.diagonal().astype(complex)) + upper + upper.conj().T
    return PickMatrix(entries=entries, level=float(t), lambdas=lam, zs=z)


def is_feasible(lambdas, zs, t: float) -> FeasibilityVerdict:
    """Positive semidefiniteness of M(t) up to the slack
    1e-12 * max(1, ||M||_F): the single-site case at t = |z| sits exactly
    at eigenvalue 0 and must not be reported infeasible due to rounding.
    """
    pick = build_pick_matrix(lambdas, zs, t)
    psd_slack = _PSD_SLACK * max(1.0, float(np.linalg.norm(pick.entries)))
    try:
        eigs = np.linalg.eigvalsh(pick.entries)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise EigensolveFailure(str(exc)) from exc
    min_eig = float(eigs[0])
    return FeasibilityVerdict(feasible=min_eig >= -psd_slack,
                              min_eigenvalue=min_eig,
                              psd_slack=psd_slack)


def np_norm_hardy(lambdas, zs, tolerance: float = 1e-9) -> NormResult:
    """Bracket inf{t > 0 : M(t) is PSD} to within ``tolerance``.

    Inputs pass ``core.check_sites``, ``core.check_targets`` and
    ``core.check_tolerance``.  Zero targets and one site have exact answers
    (``core._exact_answer``: methods ``zero_targets`` and ``one_site``,
    ``iterations = 0``) and build no Pick matrix; every other problem goes
    to ``_bisect``.
    """
    check_tolerance(tolerance)
    lam = check_sites("hardy", lambdas)
    z = check_targets(zs, len(lam))
    exact = _exact_answer("hardy", lam, z, tolerance)
    return exact if exact is not None else _bisect(lam, z, tolerance)


def _bisect(lam: np.ndarray, z: np.ndarray, tolerance: float) -> NormResult:
    """The bisection behind ``np_norm_hardy``, for checked inputs.

    The lower end of the starting bracket is max|z_i| (any smaller t makes a
    diagonal entry of M(t) negative); the upper end is found by doubling.
    On return the upper end is feasible and the lower end is the floor or a
    tested-infeasible level.  Bisection stops when the midpoint no longer
    lies strictly between the ends (one ulp of a large norm can exceed the
    tolerance); ``core.make_result`` then raises SolverStall carrying a
    bracket still wider than ``tolerance``, its certificate noting the
    adjacent doubles.
    """
    zmax = float(np.max(np.abs(z)))
    lo = zmax
    hi = max(zmax, tolerance)
    iterations = 0

    verdict = is_feasible(lam, z, hi)
    cap = hi * float(2 ** 60)
    while not verdict.feasible:
        lo = hi
        hi *= 2.0
        iterations += 1
        if hi > cap:
            raise BracketFailure(
                "no feasible level found while doubling; input invalid?")
        verdict = is_feasible(lam, z, hi)

    while hi - lo > tolerance:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        iterations += 1
        at_mid = is_feasible(lam, z, mid)
        if at_mid.feasible:
            hi, verdict = mid, at_mid
        else:
            lo = mid

    cert = {
        "method": "pick_bisection",
        "feasible_level": hi,
        "min_eigenvalue_at_upper": verdict.min_eigenvalue,
    }
    return make_result(lo, hi, zmax, cert, iterations, tolerance,
                       note="bisection reached adjacent doubles")
