"""Named verification suites behind `picknorm verify`.

Every suite is deterministic given its seed: problems are generated from a
seeded generator, solved through the public operations, and checked against
the library's invariants (sup-norm floor, feasibility monotonicity, closed
form versus generic solver agreement, kernel exactness, part distances,
sup-norm-property verdicts).  Suites report a check count, a failure count and
the worst observed slack.  Each check is the condition that must hold,
counted by one ``_Tally``: a check fails at most once, and a NaN anywhere in
its condition fails it.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from . import gleason, hardy, kernels
from . import finitemodel as fm
from .core import InterpolationProblem, Site, SolverStall, compute_np_norm


@dataclass(frozen=True)
class SuiteResult:
    name: str
    passed: bool
    checks: int
    failures: int
    worst_slack: float
    detail: str
    elapsed_s: float


class _Tally:
    """One suite's count of checks and failures, its worst reported slack
    and its start time."""

    def __init__(self, name: str):
        self.name = name
        self.t0 = time.perf_counter()
        self.checks = 0
        self.failures = 0
        self.worst = -math.inf

    def check(self, ok, slack=None) -> None:
        """Count one check, failed unless ``ok`` is true.  ``ok`` is the
        condition that must hold, so a NaN comparison in it fails.  A NaN
        slack sticks as the worst, so the failing suite reports ``nan``."""
        self.checks += 1
        self.failures += not ok
        if slack is not None:
            self.worst = float(np.maximum(self.worst, slack))

    def result(self, detail: str) -> SuiteResult:
        return SuiteResult(name=self.name, passed=self.failures == 0,
                           checks=self.checks, failures=self.failures,
                           worst_slack=float(self.worst), detail=detail,
                           elapsed_s=time.perf_counter() - self.t0)


def _distinct_disc_points(rng, n, rmax):
    while True:
        lam = rng.uniform(0, rmax, n) * np.exp(2j * np.pi * rng.uniform(0, 1, n))
        if len(set(lam.tolist())) == n:
            return lam


def _rand_targets(rng, n):
    return rng.standard_normal(n) + 1j * rng.standard_normal(n)


def _floor_problem(backend, rng):
    """One random valid problem for the floor suite, tolerance tuned so the
    solve is cheap (the floor holds at any bracket width)."""
    if backend == "hardy":
        n = int(rng.integers(1, 5))
        lam = _distinct_disc_points(rng, n, 0.95)
        sites = tuple(Site("disc_point", complex(v)) for v in lam)
        return InterpolationProblem("hardy", sites,
                                    tuple(_rand_targets(rng, n)), 1e-6)
    if backend == "analytic_wiener":
        n = int(rng.integers(1, 4))
        lam = _distinct_disc_points(rng, n, 0.8)
        sites = tuple(Site("disc_point", complex(v)) for v in lam)
        return InterpolationProblem("analytic_wiener", sites,
                                    tuple(_rand_targets(rng, n)), 5e-2)
    if backend == "wiener":
        q = int(rng.integers(2, 13))
        n = int(rng.integers(1, min(q, 3) + 1))
        ps = rng.choice(q, size=n, replace=False)
        sites = tuple(Site("circle_angle", 2 * np.pi * int(p) / q) for p in ps)
        return InterpolationProblem("wiener", sites,
                                    tuple(_rand_targets(rng, n)), 1e-1)
    if backend == "l1_torus":
        n = int(rng.integers(1, 4))
        ks = rng.choice(np.arange(-3, 4), size=n, replace=False)
        sites = tuple(Site("integer_character", int(k)) for k in ks)
        return InterpolationProblem("l1_torus", sites,
                                    tuple(_rand_targets(rng, n)), 0.5)
    # finite backends
    dim = int(rng.integers(1, 7))
    n = int(rng.integers(1, dim + 1))
    subset = rng.choice(np.arange(1, dim + 1), size=n, replace=False)
    sites = tuple(Site("coordinate_index", int(i)) for i in subset)
    params: dict = {"dimension": dim}
    if backend in ("finite_sup", "finite_l1"):
        params["weights"] = (1.0 + rng.uniform(0, 2, dim)).tolist()
    else:
        params["p"] = float(1.0 + rng.uniform(0, 3))
    return InterpolationProblem(backend, sites, tuple(_rand_targets(rng, n)),
                                1e-9, params)


def suite_remark1(seed: int, per_backend: int = 1000) -> SuiteResult:
    """Certified lower bound >= max|a_i| - 1e-7 on every backend."""
    tally = _Tally("remark1")
    backends = ("hardy", "analytic_wiener", "wiener", "l1_torus",
                "finite_sup", "finite_l1", "finite_lp")
    for bi, backend in enumerate(backends):
        rng = np.random.default_rng(seed * 1009 + bi)
        for _ in range(per_backend):
            p = _floor_problem(backend, rng)
            floor = max(abs(complex(a)) for a in p.targets)
            try:
                r = compute_np_norm(p)
            except SolverStall as exc:
                r = exc.partial
            if r is None:
                tally.check(False)
                continue
            slack = floor - r.lower
            tally.check(slack <= 1e-7 and r.lower <= r.upper, slack)
    return tally.result(f"{per_backend} problems x {len(backends)} backends; "
                        "slack = floor - certified lower")


def suite_monotone_feasibility(seed: int, count: int = 1000) -> SuiteResult:
    """Pick-matrix feasibility at level t implies feasibility at 2t."""
    tally = _Tally("monotone_feasibility")
    rng = np.random.default_rng(seed * 1013)
    for _ in range(count):
        n = int(rng.integers(1, 5))
        lam = _distinct_disc_points(rng, n, 0.95)
        z = _rand_targets(rng, n)
        t = float(rng.uniform(0.1, 3.0))
        if hardy.is_feasible(lam, z, t).feasible:
            v2 = hardy.is_feasible(lam, z, 2 * t)
            tally.check(v2.feasible, -v2.min_eigenvalue - v2.psd_slack)
        else:
            tally.check(True)  # nothing to imply
    return tally.result(f"{count} random levels; slack = -(min eig + slack) at 2t")


def suite_oracle_equivalence(seed: int, per_kind: int = 500) -> SuiteResult:
    """Generic convex solver equals closed forms on full C^n within 1e-8."""
    tally = _Tally("oracle_equivalence")
    for ki, kind in enumerate(("weighted_sup", "weighted_l1", "lp")):
        rng = np.random.default_rng(seed * 1019 + ki)
        for _ in range(per_kind):
            dim = int(rng.integers(1, 7))
            if kind == "lp":
                alg = fm.FiniteAlgebra(dim, kind, p=float(1.0 + rng.uniform(0.2, 3)))
            else:
                alg = fm.FiniteAlgebra(dim, kind,
                                       weights=(1.0 + rng.uniform(0, 2, dim)))
            n = int(rng.integers(1, dim + 1))
            subset = [int(i) for i in
                      rng.choice(np.arange(1, dim + 1), size=n, replace=False)]
            a = _rand_targets(rng, n)
            cf = fm.np_norm_closed_form(alg, subset, a)
            try:
                g = fm.np_norm_generic(alg, subset, a, tolerance=1e-10)
            except SolverStall as exc:
                g = exc.partial  # its upper is still an evaluated interpolant
            diff = abs(g.upper - cf.upper)
            tally.check(diff <= 1e-8, diff)
    return tally.result(f"{per_kind} problems x 3 norm kinds; slack = |generic - closed|")


def suite_kernels(seed: int) -> SuiteResult:
    """Trapezoid-kernel coefficient exactness, low-degree reproduction,
    positive-kernel mass, and smoothing convergence."""
    tally = _Tally("kernels")
    rng = np.random.default_rng(seed * 1021)

    # coefficients equal 1 on |k| <= l, bit exact
    for l in range(1, 65):
        V = kernels.kernel_coeffs("dlvp", l)
        tally.check(all(V.coeff(k) == 1.0 for k in range(-l, l + 1))
                    and V.max_freq <= 2 * l)

    # reproduction of random trigonometric polynomials of degree <= l
    for l in (4, 16):
        V = kernels.kernel_coeffs("dlvp", l)
        m = 16 * V.max_freq
        for _ in range(10):
            deg = int(rng.integers(0, l + 1))
            coef = _rand_targets(rng, 2 * deg + 1)
            th = (2 * np.pi / m) * np.arange(m)
            p = np.zeros(m, dtype=complex)
            for j, k in enumerate(range(-deg, deg + 1)):
                p += coef[j] * np.exp(1j * k * th)
            mu = kernels.TorusMeasure(density=p)
            out, _ = kernels.convolve(mu, V, m)
            err = float(np.max(np.abs(out - p)))
            tally.check(err <= 1e-10, err)

    # positive kernel: nonnegative samples, unit mass
    for order in (1, 8, 32):
        F = kernels.kernel_coeffs("fejer", order)
        m = 64 * (order + 1)
        samples, l1 = kernels.convolve(kernels.unit_point_mass(), F, m)
        tally.check(float(np.min(samples.real)) >= -1e-12 and abs(l1 - 1.0) <= 1e-10,
                    abs(l1 - 1.0))

    # smoothing of a kinked density: decreasing error, < 0.01 at order 256
    m = 8192
    th = (2 * np.pi / m) * np.arange(m)
    g = np.maximum(0.0, np.cos(th))
    mu = kernels.TorusMeasure(density=g)
    errs = []
    for l in (16, 32, 64, 128, 256):
        out, _ = kernels.convolve(mu, kernels.kernel_coeffs("dlvp", l), m)
        errs.append(float(np.mean(np.abs(out - g))))
    tally.check(all(e1 > e2 for e1, e2 in zip(errs, errs[1:])) and errs[-1] < 0.01,
                errs[-1])

    return tally.result("coefficient exactness, reproduction, positivity, smoothing")


def suite_gleason(seed: int) -> SuiteResult:
    """Part-distance closed values, disc monotonicity, and the trivial-part
    consistency check."""
    tally = _Tally("gleason")

    def check(val, expect, tol):
        tally.check(abs(val - expect) <= tol, abs(val - expect))

    lo, hi = gleason.gleason_distance_finite(fm.FiniteAlgebra(2, "weighted_l1"), 1, 2)
    check(lo, 1.0, 1e-8)
    lo, hi = gleason.gleason_distance_finite(fm.FiniteAlgebra(2, "weighted_sup"), 1, 2)
    check(lo, 2.0, 1e-8)
    lo, hi = gleason.gleason_distance_finite(
        fm.FiniteAlgebra(2, "weighted_sup", weights=[2, 1]), 1, 2)
    check(lo, 1.5, 1e-8)

    prev = 0.0
    for lam2 in (0.3, 0.5, 0.7, 0.9, 0.99):
        lo, hi = gleason.gleason_distance_hardy(0.0, lam2, 1e-6)
        check(lo, 2 * (1 - math.sqrt(1 - lam2 * lam2)) / lam2, 1e-4)  # closed form
        tally.check(lo > prev)
        prev = lo

    rep = gleason.certify_trivial_parts(fm.FiniteAlgebra(3, "weighted_sup"), [1, 2, 3])
    tally.check(rep["claimed_np_infty"] and rep["all_pairs_certified_trivial"]
                and rep["consistent"])
    rep = gleason.certify_trivial_parts(fm.FiniteAlgebra(2, "weighted_l1"), [1, 2])
    tally.check(not rep["claimed_np_infty"] and not rep["all_pairs_certified_trivial"]
                and rep["consistent"])
    rep = gleason.certify_trivial_parts("hardy", [0.0, 0.5])
    tally.check(rep["pairs"][0]["np_value"] > 1.0 and rep["consistent"])

    report = gleason.part_partition("hardy", [0.0, 0.3, 0.6])
    tally.check(report.partition == ((0, 1, 2),))
    report = gleason.part_partition(fm.FiniteAlgebra(2, "weighted_sup"), [1, 2])
    tally.check(report.partition == ((0,), (1,)))

    return tally.result("closed part distances, disc monotonicity, trivial-part checks")


def suite_np_infty(seed: int) -> SuiteResult:
    """Sup-norm-property verdicts, decided from the block closed forms:
    weighted l1 and weighted sup with a weight 2 give witnesses of norm 2
    at sup 1, unit-weight sup gives none, and ``np_norm_closed_form``
    reproduces a witness's value.  No draw is random, so ``seed`` is
    unused."""
    tally = _Tally("np_infty")

    l1 = fm.FiniteAlgebra(2, "weighted_l1")
    v = fm.np_infty_test(l1)
    if v.is_np_infty:
        tally.check(False)
    else:
        np_value, sup_value = v.witness["np_value"], v.witness["sup_value"]
        tally.check(abs(np_value - 2.0) <= 1e-10 and abs(sup_value - 1.0) <= 1e-10,
                    abs(np_value - sup_value - 1.0))

    v2 = fm.np_infty_test(fm.FiniteAlgebra(2, "weighted_sup", weights=[2, 1]))
    tally.check(not v2.is_np_infty and abs(v2.witness["np_value"] - 2.0) <= 1e-10)

    tally.check(fm.np_infty_test(fm.FiniteAlgebra(3, "weighted_sup")).is_np_infty)

    # witness recomputation exhibits the same gap
    if v.witness is not None:
        r = fm.np_norm_closed_form(l1, v.witness["subset"], v.witness["targets"])
        drift = abs(r.upper - v.witness["np_value"])
        tally.check(drift <= 1e-10, drift)

    return tally.result("sup-norm-property verdicts and witnesses from the closed forms")


_BY_NAME = {
    "remark1": suite_remark1,
    "monotone_feasibility": suite_monotone_feasibility,
    "oracle_equivalence": suite_oracle_equivalence,
    "kernels": suite_kernels,
    "gleason": suite_gleason,
    "np_infty": suite_np_infty,
}
SUITES = (*_BY_NAME, "all")


def run_suite(name: str, seed: int = 1) -> list[SuiteResult]:
    """Run one named suite (or all of them, in table order)."""
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {SUITES}")
    suites = _BY_NAME.values() if name == "all" else [_BY_NAME[name]]
    return [suite(seed) for suite in suites]
