"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines; every
tolerance is pinned here, nothing is deferred to later calibration.
"""

import time

import numpy as np
import pytest

from picknorm import (
    DualCertificate,
    dual_certificate_check,
    is_feasible,
    l1_torus_certificate,
    np_norm_analytic_wiener,
    np_norm_hardy,
    np_norm_l1_torus,
    np_norm_wiener,
)
from picknorm.finitemodel import (
    FiniteAlgebra,
    np_infty_test,
    np_norm_closed_form,
)
from picknorm.gleason import certify_trivial_parts, gleason_distance_hardy
from picknorm.kernels import TorusMeasure, convolve, kernel_coeffs
from picknorm import verify


def report(criterion: int, passed: bool, detail: str) -> None:
    status = "PASS" if passed else "FAIL"
    print(f"criterion {criterion:02d} [{status}] {detail}")
    assert passed, f"criterion {criterion}: {detail}"


def test_c01_single_site_norm_is_modulus():
    rng = np.random.default_rng(101)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(200):
        lam = rng.uniform(0, 0.95) * np.exp(2j * np.pi * rng.uniform())
        z = complex(rng.standard_normal(), rng.standard_normal())
        r = np_norm_hardy([lam], [z], 1e-9)
        worst = max(worst, abs(r.lower - abs(z)), abs(r.upper - abs(z)))
    elapsed = time.perf_counter() - t0
    report(1, worst <= 1e-9 and elapsed < 5.0,
           f"200 single-site problems, worst |norm - |z|| = {worst:.2e}, "
           f"{elapsed:.2f}s")


def test_c02_two_point_contraction_value():
    r = np_norm_hardy([0, 0.5], [0, 0.25], 1e-9)
    # oracle 1: closed form |z2|/|lam2|
    want = 0.25 / 0.5
    ok = r.lower - 1e-9 <= want <= r.upper + 1e-9 and r.upper - r.lower <= 1e-9
    # oracle 2: feasibility scan over ten thousand levels
    ts = np.linspace(0.25, 0.75, 10_000)
    flags = np.array([is_feasible([0, 0.5], [0, 0.25], float(t)).feasible
                      for t in ts])
    first = float(ts[int(np.argmax(flags))])
    ok = ok and abs(first - want) <= (ts[1] - ts[0]) + 1e-12
    report(2, ok, f"bracket [{r.lower:.12f}, {r.upper:.12f}], "
                  f"scan transition at {first:.6f}")


def test_c03_sup_floor_all_backends():
    res = verify.suite_remark1(seed=7, per_backend=1000)
    report(3, res.failures == 0,
           f"{res.checks} problems across 7 backends, worst floor slack "
           f"{res.worst_slack:.2e}, {res.failures} violations")


def test_c04_monotone_feasibility():
    res = verify.suite_monotone_feasibility(seed=11, count=1000)
    report(4, res.failures == 0,
           f"{res.checks} levels tested, {res.failures} violations")


def test_c05_coefficient_ratio_identity():
    worst_val = 0.0
    worst_gap = 0.0
    for r_ in np.linspace(0.1, 0.9, 5):
        for s_ in np.linspace(0.1, 0.9, 5):
            res = np_norm_analytic_wiener([0, float(r_)], [0, float(s_)], 1e-7)
            worst_val = max(worst_val, abs(res.upper - s_ / r_),
                            abs(res.lower - s_ / r_))
            worst_gap = max(worst_gap, res.upper - res.lower)
    report(5, worst_val <= 1e-6 and worst_gap <= 1e-6,
           f"5x5 ratio grid, worst value error {worst_val:.2e}, "
           f"worst primal-dual gap {worst_gap:.2e}")


def test_c06_circle_third_roots_value():
    r = np_norm_wiener([0, 2 * np.pi / 3], [1, -1], 1e-6)
    want = 2 / np.sqrt(3)
    err = max(abs(r.lower - want), abs(r.upper - want))
    report(6, err <= 1e-5, f"bracket [{r.lower:.9f}, {r.upper:.9f}], "
                           f"error vs 2/sqrt(3) = {err:.2e}")


def test_c07_torus_hand_certificate():
    b = np.array([1, 1, -1]) / np.sqrt(5)
    cert = l1_torus_certificate([0, 1, 2], [1, 1, -1], b, tolerance=1e-6)
    want = 3 / np.sqrt(5)
    ok = cert.bound >= want - 1e-6
    try:
        rechecked = dual_certificate_check(cert)
        ok = ok and rechecked >= want - 1e-6
    except Exception:
        ok = False
    report(7, ok, f"hand certificate bound {cert.bound:.9f} >= "
                  f"3/sqrt(5) - 1e-6, recheck accepted")


def test_c08_oracle_equivalence():
    res = verify.suite_oracle_equivalence(seed=3, per_kind=500)
    report(8, res.failures == 0,
           f"{res.checks} problems, worst |generic - closed| = "
           f"{res.worst_slack:.2e}")


def test_c09_kernel_exactness():
    flat_ok = all(kernel_coeffs("dlvp", l).coeff(k) == 1.0
                  for l in range(1, 65) for k in range(-l, l + 1))
    rng = np.random.default_rng(109)
    worst = 0.0
    for l in (2, 8, 32, 64):
        V = kernel_coeffs("dlvp", l)
        m = 8 * V.max_freq
        th = (2 * np.pi / m) * np.arange(m)
        for _ in range(5):
            deg = int(rng.integers(0, l + 1))
            coef = rng.standard_normal(2 * deg + 1) \
                + 1j * rng.standard_normal(2 * deg + 1)
            p = np.zeros(m, dtype=complex)
            for j, k in enumerate(range(-deg, deg + 1)):
                p += coef[j] * np.exp(1j * k * th)
            out, _ = convolve(TorusMeasure(density=p), V, m)
            worst = max(worst, float(np.max(np.abs(out - p))))
    report(9, flat_ok and worst <= 1e-10,
           f"flat passband bit-exact for orders 1..64; worst polynomial "
           f"reproduction error {worst:.2e}")


def test_c10_smoothing_convergence():
    m = 8192
    th = (2 * np.pi / m) * np.arange(m)
    g = np.maximum(0.0, np.cos(th))
    mu = TorusMeasure(density=g)
    errs = []
    for l in (16, 32, 64, 128, 256):
        out, _ = convolve(mu, kernel_coeffs("dlvp", l), m)
        errs.append(float(np.mean(np.abs(out - g))))
    decreasing = all(a > b for a, b in zip(errs, errs[1:]))
    report(10, decreasing and errs[-1] < 0.01,
           "smoothing errors " + ", ".join(f"{e:.2e}" for e in errs))


def test_c11_part_distance_values():
    from picknorm.gleason import gleason_distance_finite

    lo1, _ = gleason_distance_finite(FiniteAlgebra(2, "weighted_l1"), 1, 2)
    lo2, _ = gleason_distance_finite(FiniteAlgebra(2, "weighted_sup"), 1, 2)
    lo3, _ = gleason_distance_hardy(0.0, 0.5, 1e-6)
    want3 = 4 - 2 * np.sqrt(3)
    ladder = []
    prev = 0.0
    monotone = True
    for lam2 in (0.3, 0.5, 0.7, 0.9, 0.99):
        lo, _ = gleason_distance_hardy(0.0, lam2, 1e-6)
        ladder.append(lo)
        monotone = monotone and lo > prev
        prev = lo
    ok = (abs(lo1 - 1.0) <= 1e-8 and abs(lo2 - 2.0) <= 1e-8
          and abs(lo3 - want3) <= 1e-4 and monotone)
    report(11, ok,
           f"pair distances l1={lo1:.9f}, sup={lo2:.9f}, "
           f"disc(0,1/2)={lo3:.9f} (target {want3:.9f}), ladder monotone")


def test_c12_trivial_part_consistency():
    rep = certify_trivial_parts(FiniteAlgebra(3, "weighted_sup"), [1, 2, 3],
                                tolerance=1e-9)
    ok = rep["claimed_np_infty"] and rep["all_pairs_certified_trivial"] \
        and rep["consistent"]
    ok = ok and all(abs(p["np_value"] - 1.0) <= 1e-12
                    and abs(p["certified_distance_lower"] - 2.0) <= 1e-9
                    for p in rep["pairs"])
    # backends with a witness gap must not claim certification
    for alg in (FiniteAlgebra(2, "weighted_l1"),
                FiniteAlgebra(2, "weighted_sup", weights=[2, 1])):
        v = np_infty_test(alg)
        rep2 = certify_trivial_parts(alg, [1, 2], tolerance=1e-9)
        ok = ok and not v.is_np_infty and rep2["consistent"]
        for p in rep2["pairs"]:
            if p["np_value"] > 1 + 1e-9:
                ok = ok and not p["trivial_certified"]
    report(12, ok, "unit-weight sup certifies all pairs at distance 2; "
                   "witnessed backends claim nothing")


def test_c13_witnesses_reproduce():
    a1 = np_infty_test(FiniteAlgebra(2, "weighted_l1"))
    a2 = np_infty_test(FiniteAlgebra(2, "weighted_l1"))
    b1 = np_infty_test(FiniteAlgebra(2, "weighted_sup", weights=[2, 1]))
    b2 = np_infty_test(FiniteAlgebra(2, "weighted_sup", weights=[2, 1]))
    ok = (a1.witness == a2.witness and b1.witness == b2.witness
          and a1.witness["np_value"] == pytest.approx(2.0)
          and a1.witness["sup_value"] == pytest.approx(1.0)
          and b1.witness["np_value"] == pytest.approx(2.0))
    report(13, ok, f"witnesses {a1.witness['subset']}->{a1.witness['np_value']} "
                   f"and {b1.witness['subset']}->{b1.witness['np_value']} "
                   "regenerate identically")


def test_c14_verify_all_under_budget():
    t0 = time.perf_counter()
    results = verify.run_suite("all", seed=1)
    elapsed = time.perf_counter() - t0
    failures = sum(r.failures for r in results)
    detail = "; ".join(f"{r.name}:{'ok' if r.passed else 'FAIL'} "
                       f"{r.elapsed_s:.1f}s" for r in results)
    report(14, failures == 0 and elapsed < 120.0,
           f"verify all in {elapsed:.1f}s, {failures} failures ({detail})")
