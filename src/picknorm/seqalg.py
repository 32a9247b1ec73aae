"""Sequence-algebra backends with certified primal/dual brackets.

Three algebras, all computing the quotient norm of the joint-evaluation map:

* ``analytic_wiener`` — absolutely summable power-series coefficients; the
  functionals are evaluations at points of the closed disc.
* ``wiener`` — absolutely summable two-sided Fourier coefficients; the
  functionals are evaluations of the series at circle angles.
* ``l1_torus`` — integrable functions on the circle; the functionals are
  Fourier coefficients at prescribed integer frequencies.

Upper bounds are objective values of explicitly constructed feasible
elements (coefficient vectors or interpolating measures); lower bounds come
from dual vectors b whose dual-constraint supremum is *certified* — over a
frequency window plus a geometric tail for the coefficient algebras, over
one exact period for commensurate circle angles, and on a uniform grid
inflated by the Bernstein derivative factor for the torus backend.  Weak
duality (every certified bound <= every feasible objective) is asserted on
each solve by ``core.make_result``, which also raises SolverStall, carrying
the bracket, when it is wider than the tolerance.

Zero targets, one site and, on ``l1_torus``, two sites have exact answers
(``core._exact_answer``), which each public entry point returns before any
LP; the private ``_solve_*`` bodies are the solvers behind them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _lp
from .core import (
    CertificateRejected,
    Ends,
    GridTooCoarse,
    NormResult,
    SolverStall,
    TailBoundFailure,
    ValidationError,
    _exact_answer,
    check_dimension,
    check_sites,
    check_targets,
    check_tolerance,
    make_result,
    sup_lower_bound,
)

_MAX_DEGREE = 4096
_MAX_PERIOD = 4096
_MAX_CERT_GRID = 2 ** 25
_BLOCK = 2 ** 20


def _gap_tol(tolerance: float) -> float:
    """LP primal gap target: an eighth of the bracket tolerance, clamped."""
    return min(max(tolerance / 8.0, 1e-12), 1e-3)


def _dual_tol(tolerance: float) -> float:
    """Dual cut-loop tolerance: a quarter of the bracket tolerance, clamped."""
    return max(min(tolerance / 4.0, 1e-2), 1e-12)


@dataclass(frozen=True)
class DualCertificate:
    """A dual vector with a verified constraint bound.

    ``bound = Re(sum_i conj(b_i) a_i) / certified_sup`` is a lower bound for
    the norm by weak duality whenever ``certified_sup`` really dominates the
    dual constraint supremum; ``meta`` records how it was certified so the
    bound can be independently rechecked.
    """

    b: tuple
    certified_sup: float
    bound: float
    meta: dict


def plan_for_analytic(lambdas, tail_margin: float) -> int:
    """Smallest cutoff K with max|lambda|^{K+1} / (1 - max|lambda|) <= margin."""
    r = float(np.max(np.abs(np.asarray(lambdas, complex))))
    n = len(lambdas)
    if r >= 1.0 - 1e-14:
        K = _MAX_DEGREE
    elif r == 0.0:
        K = max(n, 2)
    else:
        K = int(math.ceil(math.log(tail_margin * (1.0 - r)) / math.log(r))) - 1
        K = min(max(K, n, 2), _MAX_DEGREE)
    return K


# --------------------------------------------------------------------------
# analytic coefficient algebra (one-sided)
# --------------------------------------------------------------------------

def _analytic_certified_sup(lam: np.ndarray, b: np.ndarray, window: int):
    """sup_{k>=0} |sum_i b_i lam_i^k| bounded by a window max + geometric tail."""
    ks = np.arange(window + 1)
    g = np.abs((lam[None, :] ** ks[:, None]) @ b)
    tail = float(np.sum(np.abs(b) * np.abs(lam) ** (window + 1)))
    k_star = int(np.argmax(g))
    return max(float(g[k_star]), tail), {"window": window, "argmax_k": k_star,
                                         "tail_bound": tail}


def analytic_wiener_certificate(lambdas, targets, b, window: int = 256) -> DualCertificate:
    """Certify a dual vector for the one-sided coefficient algebra.  The
    sites pass ``core.check_sites``, the window ``core.check_dimension``."""
    lam = check_sites("analytic_wiener", lambdas)
    a = check_targets(targets, len(lam))
    window = check_dimension(window, "window")
    b = np.asarray(b, dtype=complex).ravel()
    csup, detail = _analytic_certified_sup(lam, b, window)
    obj = float(np.real(np.sum(b * a)))
    bound = obj / csup if csup > 0 else 0.0
    meta = {"backend": "analytic_wiener",
            "sites": [complex(x) for x in lam],
            "targets": [complex(x) for x in a],
            **detail}
    return DualCertificate(b=tuple(b), certified_sup=csup, bound=bound, meta=meta)


def np_norm_analytic_wiener(lambdas, targets, tolerance: float = 1e-9) -> NormResult:
    """Bracket the minimal coefficient mass interpolating a_i at lambda_i.

    Primal: weighted-l1 LP over a candidate monomial support (columns priced
    by the dual polynomial, falling back to the full truncation range).
    Dual: LP over b with |sum_i b_i lam_i^k| <= 1 enforced on a window and a
    geometric tail constraint; the certified supremum re-derives the bound
    independently of the LP.  After eight rounds (three with a site on the
    unit circle) a bracket still wider than ``tolerance`` raises
    SolverStall (TailBoundFailure for the boundary case) carrying it, with a
    ``note``.  The certificate holds the proofs of the reported ends: the
    highest-bound ``dual`` and the ``support`` and ``coefficients`` whose
    mass is ``upper``.  Inputs pass ``core.check_sites``,
    ``core.check_targets`` and ``core.check_tolerance``.  Zero targets and
    one site have exact answers (``core._exact_answer``: methods
    ``zero_targets`` and ``one_site``, ``iterations = 0``) and solve no LP.
    """
    check_tolerance(tolerance)
    lam = check_sites("analytic_wiener", lambdas)
    a = check_targets(targets, len(lam))
    exact = _exact_answer("analytic_wiener", lam, a, tolerance)
    return exact if exact is not None else _solve_analytic_wiener(lam, a, tolerance)


def _solve_analytic_wiener(lam: np.ndarray, a: np.ndarray,
                           tolerance: float) -> NormResult:
    """The LP bracket loop behind ``np_norm_analytic_wiener``, for checked
    inputs."""
    n = len(lam)
    floor = sup_lower_bound(a)
    rmax = float(np.max(np.abs(lam)))
    boundary = rmax >= 1.0 - 1e-14
    degree = plan_for_analytic(lam, tail_margin=min(tolerance, 1e-8) * 1e-2)

    window = max(2 * n, 16)
    support = sorted(set(range(min(degree, 2 * n) + 1)))
    ends = Ends(floor)
    upper_history: list[float] = []
    rounds = 0

    while True:
        rounds += 1
        # dual solve over the current window, tail constrained
        tail_row = np.abs(lam) ** (window + 1)
        mcm = _lp.ModulusConstrainedMax(a, abs_row=tail_row)
        mcm.add_rows(lam[None, :] ** np.arange(window + 1)[:, None])
        b = mcm.solve(tol=_dual_tol(tolerance),
                      polish=tolerance < 5e-3 or rounds > 1)
        cert = analytic_wiener_certificate(lam, a, b, window=max(2 * window, 128))
        ends.offer_lower(cert.bound, cert)

        # primal support: columns where the dual polynomial is active
        g = np.abs((lam[None, :] ** np.arange(degree + 1)[:, None]) @ b)
        active = set(np.nonzero(g >= 1.0 - 1e-6)[0].tolist())
        support = sorted(set(support) | active | set(range(n)))
        if rounds >= 3 and not boundary:
            support = list(range(degree + 1))
        if len(support) > 600 and (rounds < 3 or boundary):
            order = np.argsort(-g[support])
            kept = set(np.asarray(support)[order[:600]].tolist())
            kept.update(range(min(degree, 2 * n) + 1))
            support = sorted(kept)

        cols = np.asarray(support, dtype=int)
        A = lam[:, None] ** cols[None, :]
        g_cols = (lam[None, :] ** cols[:, None]) @ b
        c, _, ub, _ = _lp.min_weighted_l1(A, a, gap_tol=_gap_tol(tolerance),
                                          phase_hints=-np.angle(g_cols),
                                          lower=ends.lower)
        upper_history.append(ub)
        ends.offer_upper(ub, (cols, c))

        # a boundary site makes the geometric tail constant, so the dual
        # bound can never rise above the sup floor: give up early
        if ends.upper - ends.lower <= tolerance or rounds >= (3 if boundary else 8):
            certificate = {"method": "analytic_l1", "dual": _cert_payload(ends.dual),
                           **_interpolant(*ends.primal), "upper_history": upper_history}
            note = ("boundary site |lambda| = 1: the geometric dual tail cannot "
                    "certify above the floor" if boundary else
                    f"not closed after {rounds} rounds at degree {degree}")
            try:
                return make_result(ends.lower, ends.upper, floor, certificate, rounds,
                                   tolerance, note)
            except SolverStall as exc:
                if not boundary:
                    raise
                raise TailBoundFailure(str(exc), exc.partial) from None
        window = min(2 * window, _MAX_DEGREE)


# --------------------------------------------------------------------------
# two-sided coefficient algebra on the circle
# --------------------------------------------------------------------------

def common_period(thetas) -> int | None:
    """Smallest q <= 4096 with every angle an integer multiple of 2*pi/q."""
    th = np.asarray(thetas, dtype=float).ravel()
    x = th * np.arange(1, _MAX_PERIOD + 1)[:, None] / (2 * np.pi)  # row q-1: th * q
    hit = np.all(np.abs(x - np.round(x)) <= 1e-9, axis=1)
    return int(np.argmax(hit)) + 1 if hit.any() else None


def wiener_certificate(thetas, targets, b, period: int | None = None,
                       window: int = 512) -> DualCertificate:
    """Certify a dual vector for the two-sided coefficient algebra.

    For commensurate angles (common period q) the dual constraint is exactly
    periodic in the frequency and the supremum over one period is exact.
    Otherwise only a frequency window is checked and the certificate is
    labeled window-limited: its bound is valid for the window-truncated
    algebra only and is never used as a certified lower bound.  The angles
    pass ``core.check_sites``, a given period and the window
    ``core.check_dimension``.
    """
    th = check_sites("wiener", thetas)
    a = check_targets(targets, len(th))
    window = check_dimension(window, "window")
    b = np.asarray(b, dtype=complex).ravel()
    if period is None:
        period = common_period(th)
    else:
        period = check_dimension(period, "period")
    if period is not None:
        ks = np.arange(period)
        span = {"period": int(period), "window": "full_period"}
    else:
        ks = np.arange(-window, window + 1)
        span = {"period": None, "window": int(window), "window_limited": True}
    g = np.abs(np.exp(1j * np.outer(ks, th)) @ b)
    csup = float(np.max(g))
    obj = float(np.real(np.sum(b * a)))
    bound = obj / csup if csup > 0 else 0.0
    meta = {"backend": "wiener", "sites": [float(x) for x in th],
            "targets": [complex(x) for x in a], **span,
            "argmax_k": int(ks[np.argmax(g)])}
    return DualCertificate(tuple(b), csup, bound, meta)


def np_norm_wiener(thetas, targets, tolerance: float = 1e-9) -> NormResult:
    """Bracket the minimal two-sided coefficient mass interpolating at angles.

    Angles commensurate with 2*pi reduce the problem exactly to one complex
    coefficient per residue class modulo the common period, making both
    sides finite and fully certified: one dual solve over the q residue
    rows, then one primal ``min_weighted_l1`` call (at most 8 cut rounds),
    so such a bracket reports one iteration.  ``common_period`` accepts an
    angle within 1e-9 of 2*pi*p/q, so the bracket certified is that of the
    snapped angles 2*pi*p_i/q; the certificate lists the ``residues`` p_i.
    Incommensurate angles keep a truncated primal; the certified lower
    bound falls back to the sup floor and the (window-limited) dual value
    is reported as a diagnostic only.
    A bracket that does not close (the period reduction's primal LP stops
    short, or the truncation degree stagnates or reaches 1024) raises
    SolverStall carrying it, with a ``note``.  The certificate holds the
    proofs of the reported ends: the truncated primal's ``support`` and
    ``coefficients``, whose mass is ``upper``.  Inputs pass
    ``core.check_sites``, ``core.check_targets`` and
    ``core.check_tolerance``.  Zero targets and one site have exact answers
    (``core._exact_answer``: methods ``zero_targets`` and ``one_site``,
    ``iterations = 0``) and solve no LP.
    """
    check_tolerance(tolerance)
    th = check_sites("wiener", thetas)
    a = check_targets(targets, len(th))
    exact = _exact_answer("wiener", th, a, tolerance)
    return exact if exact is not None else _solve_wiener(th, a, tolerance)


def _solve_wiener(th: np.ndarray, a: np.ndarray, tolerance: float) -> NormResult:
    """The residue reduction or truncated primal behind ``np_norm_wiener``,
    for checked inputs."""
    floor = sup_lower_bound(a)
    q = common_period(th)
    if q is not None:
        # exact residue-class reduction: coefficient k acts through k mod q
        omega = np.exp(2j * np.pi / q)
        p = np.round(th * q / (2 * np.pi)).astype(int) % q
        A = omega ** np.outer(p, np.arange(q))
        mcm = _lp.ModulusConstrainedMax(a)
        mcm.add_rows(A.T)  # row r: omega^(r p_i)
        b = mcm.solve(tol=_dual_tol(tolerance), polish=tolerance < 5e-3)
        cert = wiener_certificate(th, a, b, period=q)
        lower = max(floor, cert.bound)
        c, _, upper, _ = _lp.min_weighted_l1(A, a, gap_tol=_gap_tol(tolerance),
                                             phase_hints=-np.angle(A.T @ b),
                                             lower=lower)
        certificate = {
            "method": "wiener_l1_residues",
            "period": q,
            "residues": p.tolist(),
            "dual": _cert_payload(cert),
            "residue_coefficients": _complex_list(c),
        }
        return make_result(lower, upper, floor, certificate, 1, tolerance,
                           note=f"period-{q} reduction: the primal LP stopped "
                           "short of the dual bound")

    # incommensurate: truncated primal, floor-certified lower
    K = 32
    ends = Ends(floor)
    prev_upper = math.inf
    diag = None
    rounds = 0
    stagnations = 0
    while True:
        rounds += 1
        ks = np.arange(-K, K + 1)
        A = np.exp(1j * np.outer(th, ks))

        hints = None
        if K <= 128:  # the window dual is diagnostic only; skip it deep in
            mcm = _lp.ModulusConstrainedMax(a)
            mcm.add_rows(np.exp((1j * ks)[:, None] * th))
            b = mcm.solve()
            diag = wiener_certificate(th, a, b, period=None, window=2 * K)
            g = np.exp(1j * np.outer(ks, th)) @ b
            hints = -np.angle(g)

        c, _, ub, _ = _lp.min_weighted_l1(A, a, gap_tol=_gap_tol(tolerance),
                                          phase_hints=hints, lower=floor)
        ends.offer_upper(ub, (ks, c))

        # give up when the per-doubling progress cannot close the remaining
        # gap within the degree cap
        if prev_upper - ends.upper <= max(tolerance / 10, (ends.upper - floor) / 20):
            stagnations += 1
        else:
            stagnations = 0
        prev_upper = ends.upper
        if ends.upper - ends.lower <= tolerance or K >= 1024 or stagnations >= 2:
            certificate = {"method": "wiener_l1_truncated", "degree": K,
                           "window_limited_dual": _cert_payload(diag),
                           **_interpolant(*ends.primal)}
            return make_result(ends.lower, ends.upper, floor, certificate, rounds,
                               tolerance, note="incommensurate angles: the "
                               "certified lower bound is the sup floor")
        K *= 2


# --------------------------------------------------------------------------
# integrable functions on the circle, pinned Fourier coefficients
# --------------------------------------------------------------------------

def _trig_eval(ks: np.ndarray, b: np.ndarray, thetas: np.ndarray) -> np.ndarray:
    """q(theta) = sum_i b_i e^{i k_i theta}, evaluated on a frequency-shifted
    polynomial (same modulus, better conditioning for large |k|)."""
    ks = ks - ks.min()
    return np.exp(1j * np.outer(thetas, ks)) @ b


def _grid_max(ks: np.ndarray, b: np.ndarray, m: int) -> tuple[float, float]:
    """(max, argmax angle) of |q| over m uniform angles, in blocks of at
    most ``_BLOCK`` points: s = ceil(m / _BLOCK) interleaved sub-grids (s
    must divide m), sub-grid r the angles 2*pi*(j*s + r)/m, each one inverse
    FFT over the coefficients b_i e^{2 pi i k_i r / m}."""
    kshift = ks - ks.min()
    s = -(-m // _BLOCK)
    n = m // s
    best = -1.0
    best_theta = 0.0
    for r in range(s):
        spec = np.zeros(n, dtype=complex)
        c = b * np.exp(2j * np.pi * (np.mod(kshift * r, m) / m)) if r else b
        np.add.at(spec, np.mod(kshift, n), c)
        vals = np.abs(np.fft.ifft(spec) * n)
        j = int(np.argmax(vals))
        if vals[j] > best:
            best = float(vals[j])
            best_theta = float(2 * np.pi * (j * s + r) / m)
    return best, best_theta


def _bernstein_sup(ks: np.ndarray, b: np.ndarray, m: int) -> tuple[float, dict]:
    """Certified sup bound grid_max / (1 - pi*D/M) with D = max|k_i| and M,
    the grid evaluated, m rounded up to a multiple of its sub-grid count."""
    s = -(-m // _BLOCK)
    m = -(-m // s) * s
    D = int(np.max(np.abs(ks)))
    if m <= 2 * math.pi * D:
        raise GridTooCoarse(f"grid {m} too coarse for degree {D}")
    gm, th = _grid_max(ks, b, m)
    infl = 1.0 / (1.0 - math.pi * D / m)
    return gm * infl, {"grid_size": int(m), "degree": D, "grid_max": gm,
                       "argmax_angle": th, "inflation": infl}


def l1_torus_certificate(ks, targets, b, grid_size: int | None = None,
                         tolerance: float = 1e-6) -> DualCertificate:
    """Certify a dual vector for the torus backend.

    The dual polynomial q = sum_i b_i e^{i k_i theta} pairs with any
    interpolant f through sum_i conj(b_i) a_i, so
    Re sum conj(b_i) a_i / sup|q| is a lower bound for the minimal L1 norm.
    sup|q| is certified on a uniform grid inflated by the Bernstein factor
    (1 - pi * max|k_i| / M)^{-1}; a single-frequency polynomial has constant
    modulus and is certified exactly.  The grid is evaluated in blocks of at
    most 2^20 points (``_grid_max``), and a requested size above that is
    rounded up to a multiple of its block count; ``grid_size`` in ``meta``
    is the size evaluated.  The frequencies pass ``core.check_sites``, a
    given grid size ``core.check_dimension``.
    """
    ks = check_sites("l1_torus", ks)
    a = check_targets(targets, len(ks))
    if grid_size is not None:
        grid_size = check_dimension(grid_size, "grid_size")
    b = np.asarray(b, dtype=complex).ravel()
    obj = float(np.real(np.sum(np.conj(b) * a)))
    nz = np.nonzero(np.abs(b) > 0)[0]
    if len(nz) <= 1:
        csup = float(np.abs(b[nz[0]])) if len(nz) else 0.0
        detail = {"exact": True, "grid_size": 0,
                  "degree": int(np.max(np.abs(ks))) if len(ks) else 0}
    else:
        if grid_size is None:
            # grid loss on the bound is obj * pi * D / M; size M to keep it
            # within the requested certification tolerance
            D = int(np.max(np.abs(ks)))
            scale = max(1.0, abs(obj))
            grid_size = _pow2_at_least(max(64 * (D + 1),
                                           math.pi * D * scale / tolerance))
            grid_size = min(grid_size, _MAX_CERT_GRID)
        csup, detail = _bernstein_sup(ks, b, grid_size)
    bound = obj / csup if csup > 0 else 0.0
    meta = {"backend": "l1_torus", "sites": [int(k) for k in ks],
            "targets": [complex(x) for x in a], **detail}
    return DualCertificate(tuple(b), csup, bound, meta)


def _pow2_at_least(x: float) -> int:
    return 1 << max(6, int(math.ceil(math.log2(max(x, 64.0)))))


def _autocorr_coeffs(ks: np.ndarray, b: np.ndarray):
    """|q|^2 as a trig polynomial: frequency differences -> coefficients."""
    gamma: dict[int, complex] = {}
    for i, ki in enumerate(ks):
        for j, kj in enumerate(ks):
            d = int(ki - kj)
            gamma[d] = gamma.get(d, 0.0) + b[i] * np.conj(b[j])
    ds = np.array(sorted(gamma))
    cs = np.array([gamma[d] for d in ds])
    return ds, cs


def _polish_peaks(ks: np.ndarray, b: np.ndarray, seeds: np.ndarray) -> np.ndarray:
    """Newton refinement of local maxima of r = |q|^2 from grid seeds."""
    ds, cs = _autocorr_coeffs(ks, b)
    th = np.asarray(seeds, dtype=float).copy()
    for _ in range(30):
        e = np.exp(1j * np.outer(th, ds))
        r1 = np.real(e @ (1j * ds * cs))
        r2 = np.real(e @ (-(ds ** 2) * cs))
        ok = r2 < -1e-14
        step = np.zeros_like(th)
        step[ok] = r1[ok] / r2[ok]
        step = np.clip(step, -0.5, 0.5)
        th = th - step
        if np.max(np.abs(step)) < 1e-14:
            break
    return np.mod(th, 2 * np.pi)


def _local_maxima(vals: np.ndarray) -> np.ndarray:
    left = np.roll(vals, 1)
    right = np.roll(vals, -1)
    return np.nonzero((vals >= left) & (vals >= right))[0]


def _select_separated(idx: np.ndarray, vals: np.ndarray, m: int,
                      min_sep: int, cap: int) -> np.ndarray:
    """Greedily keep the highest-valued indices, pairwise separated on the
    circular grid of size m; flat stretches (constant |q|) stay bounded."""
    order = idx[np.argsort(-vals[idx])]
    blocked = np.zeros(m, dtype=bool)
    kept: list[int] = []
    for i in order:
        i = int(i)
        if blocked[i]:
            continue
        kept.append(i)
        if len(kept) >= cap:
            break
        blocked[np.arange(i - min_sep + 1, i + min_sep) % m] = True
    return np.asarray(kept, dtype=int)


def np_norm_l1_torus(ks, targets, tolerance: float = 1e-9) -> NormResult:
    """Bracket the minimal L1 norm with prescribed Fourier coefficients.

    Lower bound: LP over dual polynomials q = sum b_i e^{i k_i theta} with
    |q| <= 1 enforced by angle cuts, certified on a Bernstein-inflated grid.
    Upper bound: an interpolating atomic measure supported near the
    maximizers of the optimal |q| (the measure minimum equals the L1
    infimum for this finite-codimension quotient, and it is attained).
    After four rounds, or once certifying the gap would need a grid beyond
    2^25 points, a bracket still wider than ``tolerance`` raises
    SolverStall carrying it, with a ``note``.  The certificate holds the
    proofs of the reported ends: the highest-bound ``dual`` and every atom
    of the measure whose mass is ``upper``.  Inputs pass
    ``core.check_sites`` (integer frequencies, never truncated),
    ``core.check_targets`` and ``core.check_tolerance``.  Zero targets, one
    site and two sites have exact answers (``core._exact_answer``: methods
    ``zero_targets``, ``one_site`` and ``two_site_torus``, the last with an
    ``atoms`` payload shaped like this method's; ``iterations = 0``) and
    solve no LP.
    """
    check_tolerance(tolerance)
    ks = check_sites("l1_torus", ks)
    a = check_targets(targets, len(ks))
    exact = _exact_answer("l1_torus", ks, a, tolerance)
    return exact if exact is not None else _solve_l1_torus(ks, a, tolerance)


def _solve_l1_torus(ks: np.ndarray, a: np.ndarray, tolerance: float) -> NormResult:
    """The dual cut loop and atomic primal behind ``np_norm_l1_torus``, for
    checked inputs."""
    floor = sup_lower_bound(a)
    span = int(np.max(ks) - np.min(ks))
    coarse = tolerance >= 1e-3
    fine = _pow2_at_least(max(1024 if coarse else 4096, 64 * (span + 1)))
    fine = min(fine, 2 ** 16)
    fine_theta = (2 * np.pi / fine) * np.arange(fine)

    n_init = max(16 if coarse else 32, 4 * span + 4)
    cap = 4 * span + 12
    min_sep = max(1, fine // (8 * (span + 1)))
    mcm = _lp.ModulusConstrainedMax(np.conj(a))
    tracked = list((2 * np.pi / n_init) * np.arange(n_init))
    mcm.add_rows(np.exp(1j * ks * np.asarray(tracked)[:, None]))

    def angle_oracle(bb: np.ndarray) -> list:
        vals = np.abs(_trig_eval(ks, bb, fine_theta))
        idx = _local_maxima(vals)
        bad = idx[vals[idx] > 1.0 + 1e-9]
        if len(bad) == 0:
            return []
        bad = _select_separated(bad, vals, fine, min_sep, cap)
        rows = []
        known = np.asarray(tracked)
        for t in _polish_peaks(ks, bb, fine_theta[bad]):
            if np.min(np.abs(np.angle(np.exp(1j * (known - t))))) < np.pi / fine:
                continue
            tracked.append(float(t))
            known = np.asarray(tracked)
            rows.append(np.exp(1j * ks * t))
        return rows

    b = mcm.solve(tol=_dual_tol(tolerance), row_oracle=angle_oracle,
                  polish=not coarse)

    ends = Ends(floor)
    # coarse certification first; the expensive grid is only paid for when
    # the sup floor and the cheap bound cannot close the bracket
    cert = l1_torus_certificate(ks, a, b, tolerance=max(tolerance / 3, 1e-3))
    ends.offer_lower(cert.bound, cert)

    rounds = 0
    fallback = max(32 if tolerance >= 1e-3 else 64, 2 * span + 8)
    while True:
        rounds += 1
        # atomic primal at the active angles of the dual polynomial
        vals = np.abs(_trig_eval(ks, b, fine_theta))
        vmax = float(np.max(vals))
        idx = _local_maxima(vals)
        idx = idx[vals[idx] >= vmax * (1.0 - 1e-6)]
        idx = _select_separated(idx, vals, fine, min_sep, cap)
        cands = _polish_peaks(ks, b, fine_theta[idx]) if len(idx) else np.zeros(0)
        uniform = (2 * np.pi / fallback) * np.arange(fallback)
        cands = np.concatenate([cands, uniform])
        cands = np.unique(np.round(cands / (2 * np.pi) * 1e12).astype(np.int64)) \
            * (2 * np.pi * 1e-12)
        A = np.exp(-1j * np.outer(ks, cands))
        hints = np.angle(np.exp(1j * np.outer(cands, ks)) @ b)
        w, _, upper, _ = _lp.min_weighted_l1(A, a, gap_tol=_gap_tol(tolerance),
                                             phase_hints=hints, lower=ends.lower)
        ends.offer_upper(upper, (cands, w))

        # further refinement is pointless when certifying the remaining gap
        # would need a grid beyond the cap
        D = int(np.max(np.abs(ks)))
        needed = math.pi * D * max(1.0, ends.upper) / max(tolerance / 2, 1e-300)
        if ends.upper - ends.lower <= tolerance or rounds >= 4 or needed > _MAX_CERT_GRID:
            angles, weights = ends.primal
            certificate = {"method": "torus_l1", "dual": _cert_payload(ends.dual),
                           "atoms": {"angles": [float(t) for t in angles],
                                     "weights": _complex_list(weights)}}
            return make_result(ends.lower, ends.upper, floor, certificate, rounds,
                               tolerance, note=f"stopped in round {rounds} of 4; "
                               f"certifying the gap needs a grid of {needed:.3g} "
                               f"points, cap {_MAX_CERT_GRID}")

        # refine: more dual polishing, more primal atoms, sharper grid
        b = mcm.solve(tol=1e-12, row_oracle=angle_oracle)
        fallback = min(2 * fallback, 512)
        tol_c = max(tolerance / (3 * rounds * rounds), 1e-10)
        cert = l1_torus_certificate(ks, a, b, tolerance=tol_c)
        ends.offer_lower(cert.bound, cert)


# --------------------------------------------------------------------------
# certificate re-verification
# --------------------------------------------------------------------------

def dual_certificate_check(cert: DualCertificate) -> float:
    """Re-verify a dual certificate on a finer grid or longer window.

    Re-runs the backend's certificate function on the same sites, targets
    and dual vector at twice the grid (torus: nested finer grid) or twice
    the frequency window plus tail (coefficient algebras), or over the exact
    period for commensurate angles, and returns the implied bound.  Accepts
    iff the claimed ``bound`` and ``certified_sup`` are finite, the
    payload's sites, targets, period, window and grid size pass the
    certificate functions' input rules, and the recheck does not lower the
    bound by more than 1e-12; otherwise raises CertificateRejected naming
    the non-finite claim, the rejected field, or the violating frequency or
    angle.
    """
    if not (math.isfinite(cert.bound) and math.isfinite(cert.certified_sup)):
        raise CertificateRejected(
            f"claimed bound {cert.bound!r} over certified sup "
            f"{cert.certified_sup!r} is not finite")
    meta = cert.meta
    backend = meta.get("backend")
    sites, a, b = meta["sites"], meta["targets"], cert.b
    try:
        if backend == "l1_torus":
            m = 2 * check_dimension(meta.get("grid_size") or 4096, "grid_size")
            re = l1_torus_certificate(sites, a, b,
                                      grid_size=min(max(m, 8192), _MAX_CERT_GRID * 2))
            where = f"angle {re.meta.get('argmax_angle')!r}"
        elif backend == "analytic_wiener":
            window = 2 * check_dimension(meta.get("window", 128), "window")
            re = analytic_wiener_certificate(sites, a, b, window=window)
            where = f"frequency {re.meta['argmax_k']}"
        elif backend == "wiener":
            if meta.get("period"):
                re = wiener_certificate(sites, a, b, period=meta["period"])
            else:
                window = 2 * check_dimension(meta.get("window") or 512, "window")
                re = wiener_certificate(sites, a, b, period=None, window=window)
            where = f"frequency {re.meta['argmax_k']}"
        else:
            raise CertificateRejected(f"unknown certificate backend {backend!r}")
    except ValidationError as exc:
        raise CertificateRejected(f"certificate payload: {exc}") from None
    if re.bound < cert.bound - 1e-12:
        raise CertificateRejected(
            f"recheck lowered the bound from {cert.bound!r} to {re.bound!r}; "
            f"violating {where}")
    return re.bound


# --------------------------------------------------------------------------
# payload helpers
# --------------------------------------------------------------------------

def _complex_list(xs) -> list:
    return [[float(np.real(x)), float(np.imag(x))] for x in np.asarray(xs).ravel()]


def _interpolant(support, c) -> dict:
    return {"support": [int(k) for k in support], "coefficients": _complex_list(c)}


def _cert_payload(cert: DualCertificate | None) -> dict | None:
    if cert is None:
        return None
    meta = {}
    for key, val in cert.meta.items():
        if key == "targets":
            meta[key] = _complex_list(val)
        else:
            meta[key] = val
    return {"b": _complex_list(cert.b),
            "certified_sup": cert.certified_sup,
            "bound": cert.bound,
            "meta": meta}
