"""Independent checks of every bracket the benchmark gets back.

They run after the timed loop, so they cost the measurement nothing.  Each
check returns the reasons a problem failed, tagged with the class of the
check:

``hard``
    An invariant the library promises and holds at this commit: no error
    other than an honest stall, ``lower <= upper``, the sup floor, a
    successful backend bracket no wider than its tolerance, LP dual
    certificates that survive ``seqalg.dual_certificate_check``, generic
    finite solves equal to the closed forms, and well-formed Gleason
    distance intervals.  Any hard failure makes the run incorrect.
``known``
    Checks that fail at this commit because of a known defect.  They count
    towards the failure rate but do not make the run incorrect; once the
    defect is fixed they belong in ``hard``.

    - The Hardy bracket against the generalized eigensolve
      ``sqrt(eigh(D S D*, S)[-1])`` (ROADMAP item 1).
    - The Gleason distance lower end against the pseudo-hyperbolic closed
      form ``2(1-sqrt(1-rho^2))/rho`` (ROADMAP item 1).
    - The width of a generic finite solve: ``np_norm_generic`` returns
      without a stall when its cut LP stops adding cuts short of the
      tolerance, about one solve in a few hundred.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.linalg

from picknorm import (CertificateRejected, DualCertificate, NormResult,
                      dual_certificate_check, np_norm_closed_form)

FLOOR_SLACK = 1e-7          # verify.suite_remark1
GENERIC_SLACK = 1e-8        # verify.suite_oracle_equivalence
GLEASON_SLACK = 1e-4        # verify.suite_gleason
HARDY_REFERENCE_SLACK = 1e-6  # ROADMAP item 1 reproducer criterion

LP_BACKENDS = ("analytic_wiener", "wiener", "l1_torus")


def hardy_reference(lambdas, zs) -> float:
    """Pick's theorem: M(t) is PSD iff t^2 S - D S D* is, so the norm is the
    square root of the top generalized eigenvalue of (D S D*, S)."""
    lam = np.asarray(lambdas, dtype=complex)
    z = np.asarray(zs, dtype=complex)
    S = 1.0 / (1.0 - np.outer(lam, lam.conj()))
    DSD = z[:, None] * S * z.conj()[None, :]
    top = scipy.linalg.eigh(DSD, S, eigvals_only=True)[-1]
    return math.sqrt(max(float(top), 0.0))


def rebuild_certificate(payload: dict) -> DualCertificate:
    """DualCertificate from the JSON-style payload a NormResult carries."""
    meta = dict(payload["meta"])
    meta["targets"] = [complex(re, im) for re, im in meta["targets"]]
    return DualCertificate(b=tuple(complex(re, im) for re, im in payload["b"]),
                           certified_sup=float(payload["certified_sup"]),
                           bound=float(payload["bound"]), meta=meta)


def _check_bracket(task, res: NormResult, stalled: bool) -> list[tuple[str, str]]:
    out = []
    p = task.problem
    targets = p.targets if p is not None else task.data["targets"]
    floor = max(abs(complex(a)) for a in targets)
    if res.lower > res.upper:
        out.append(("hard", f"lower {res.lower!r} > upper {res.upper!r}"))
    if res.lower < floor - FLOOR_SLACK:
        out.append(("hard", f"lower {res.lower!r} under the sup floor {floor!r}"))
    if not stalled and res.upper - res.lower > task.tolerance:
        cls = "known" if task.kind == "finite_generic" else "hard"
        out.append((cls, f"width {res.upper - res.lower:.3e} > tolerance "
                         f"{task.tolerance:.3e}"))

    if task.kind == "hardy":
        ref = hardy_reference([s.value for s in p.sites], p.targets)
        miss = max(res.lower - ref, ref - res.upper)
        if miss > HARDY_REFERENCE_SLACK:
            out.append(("known", f"bracket [{res.lower!r}, {res.upper!r}] "
                                 f"misses the eigensolve value {ref!r}"))

    elif task.kind in LP_BACKENDS:
        payload = res.certificate.get("dual")
        if payload is not None:
            try:
                bound = dual_certificate_check(rebuild_certificate(payload))
            except CertificateRejected as exc:
                out.append(("hard", f"dual certificate rejected: {exc}"))
            else:
                justified = max(floor, bound)
                if res.lower > justified + 1e-9 * max(1.0, justified):
                    out.append(("hard", f"lower {res.lower!r} above its rechecked "
                                        f"certificate {justified!r}"))
        elif res.lower > floor + 1e-12 * max(1.0, floor):
            out.append(("hard", "lower above the floor without a dual certificate"))

    elif task.kind == "finite_generic":
        d = task.data
        cf = np_norm_closed_form(d["alg"], d["subset"], d["targets"])
        if abs(res.upper - cf.upper) > GENERIC_SLACK:
            out.append(("hard", f"generic {res.upper!r} != closed form {cf.upper!r}"))
    return out


def _check_gleason(task, interval) -> list[tuple[str, str]]:
    lam1, lam2 = task.data["lam1"], task.data["lam2"]
    rho = abs(lam1 - lam2) / abs(1.0 - lam1.conjugate() * lam2)
    expect = 2.0 * (1.0 - math.sqrt(1.0 - rho * rho)) / rho
    lower, upper = interval
    out = []
    if not 0.0 <= lower <= upper <= 2.0:
        out.append(("hard", f"distance interval [{lower!r}, {upper!r}] malformed"))
    if abs(lower - expect) > GLEASON_SLACK:
        out.append(("known", f"distance {lower!r} != closed form {expect!r}"))
    return out


def check(task, outcome: str, value) -> list[tuple[str, str]]:
    """Failure reasons for one solve; an empty list means it passed.

    ``outcome`` is ``ok``, ``stall`` (``value`` is the partial bracket) or
    ``error`` (``value`` is the exception).
    """
    if outcome == "error":
        return [("hard", f"raised {type(value).__name__}: {value}")]
    if task.kind == "gleason":
        return _check_gleason(task, value)
    return _check_bracket(task, value, outcome == "stall")
