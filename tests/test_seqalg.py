import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import mpmath
import numpy as np
import pytest

from picknorm import (
    CertificateRejected,
    DualCertificate,
    InterpolationProblem,
    Site,
    SolverStall,
    TailBoundFailure,
    analytic_wiener_certificate,
    compute_np_norm,
    dual_certificate_check,
    hardy,
    l1_torus_certificate,
    np_norm_analytic_wiener,
    np_norm_hardy,
    np_norm_l1_torus,
    np_norm_wiener,
    seqalg,
    wiener_certificate,
)
from picknorm.seqalg import _BLOCK, _grid_max, common_period, plan_for_analytic

SQRT2 = np.sqrt(2.0)


# ----------------------------------------------------------------------
# one-sided coefficient algebra
# ----------------------------------------------------------------------

def test_analytic_two_site_contraction():
    r = np_norm_analytic_wiener([0, 0.5], [0, 0.25], 1e-6)
    assert r.lower <= 0.5 <= r.upper
    assert r.upper - r.lower <= 1e-6


def test_analytic_single_site_constant():
    # sum c_k 2^{-k} = 1 forces sum |c_k| >= 1, attained by c_0 = 1
    r = np_norm_analytic_wiener([0.5], [1.0], 1e-6)
    assert r.lower == pytest.approx(1.0, abs=1e-6)
    assert r.upper == pytest.approx(1.0, abs=1e-9)


def test_analytic_zero_targets():
    r = np_norm_analytic_wiener([0, 0.5], [0, 0], 1e-9)
    assert r.lower == r.upper == 0.0


def test_analytic_ratio_identity_grid():
    # sites (0, r), targets (0, s): the single monomial s/r z is optimal
    for r_ in (0.2, 0.5, 0.8):
        for s_ in (0.1, 0.45, 0.9):
            res = np_norm_analytic_wiener([0, r_], [0, s_], 1e-7)
            assert res.lower <= s_ / r_ + 1e-7
            assert res.upper >= s_ / r_ - 1e-7
            assert res.upper - res.lower <= 1e-7


def test_analytic_boundary_tail_failure():
    # targets needing norm above the floor cannot be dual-certified when a
    # site sits on the unit circle
    with pytest.raises(TailBoundFailure):
        np_norm_analytic_wiener([1.0, -1.0], [1.0, 1.0j], 1e-6)


def test_analytic_boundary_floor_attained():
    r = np_norm_analytic_wiener([1.0, -1.0], [1.0, -1.0], 1e-6)
    assert r.lower == pytest.approx(1.0, abs=1e-9)
    assert r.upper - r.lower <= 1e-6


def test_truncation_plan_tail_bound():
    degree = plan_for_analytic([0.3, 0.9], 1e-10)
    r = 0.9
    assert isinstance(degree, int)
    assert r ** (degree + 1) / (1 - r) <= 1e-10


def test_analytic_certificate_weak_duality():
    rng = np.random.default_rng(8)
    for _ in range(20):
        n = int(rng.integers(1, 4))
        lam = rng.uniform(0, 0.8, n) * np.exp(2j * np.pi * rng.uniform(0, 1, n))
        while len(set(lam.tolist())) < n:
            lam = rng.uniform(0, 0.8, n) * np.exp(2j * np.pi * rng.uniform(0, 1, n))
        a = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        res = np_norm_analytic_wiener(lam, a, 1e-5)
        assert res.lower <= res.upper + 1e-12
        assert res.lower >= float(np.max(np.abs(a))) - 1e-7


def test_analytic_upper_history_monotone():
    res = np_norm_analytic_wiener([0.1, 0.5, -0.3j], [1, -1, 1j], 1e-8)
    hist = res.certificate["upper_history"]
    for prev, cur in zip(hist, hist[1:]):
        assert cur <= prev + 1e-8


_HINTED_DRAW = """
from picknorm import np_norm_analytic_wiener
r = np_norm_analytic_wiener(
    [0.11381825320187305+0.1870940179912113j, 0.144561770566145+0.08243827736430138j,
     -0.03595678245369218+0.46238028581123725j],
    [-1.4098024098046154-0.878996699256103j, -0.030475702102764464-0.8778294720894735j,
     -0.16995236537766406+1.823939295500078j], 5e-2)
print(r.lower, r.upper)
"""


@pytest.mark.parametrize("blas_threads", ["1", "2"])
def test_analytic_hinted_magnitude_lp_closes(blas_threads):
    # the phase hints of this draw leave the hinted magnitude LP infeasible
    # within HiGHS's 1e-7 tolerance; without its candidate the bracket
    # stalled with upper 79.628, on one BLAS thread count or the other, so
    # both are run
    env = dict(os.environ, OPENBLAS_NUM_THREADS=blas_threads,
               OMP_NUM_THREADS=blas_threads, MKL_NUM_THREADS=blas_threads)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(__file__).resolve().parent.parent / "src")]
        + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run([sys.executable, "-c", _HINTED_DRAW], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    lower, upper = map(float, proc.stdout.split())
    assert lower == pytest.approx(79.5702375754, abs=1e-9)
    assert lower <= upper <= lower + 5e-2


# ----------------------------------------------------------------------
# two-sided coefficient algebra
# ----------------------------------------------------------------------

def test_wiener_antipodal_signs():
    r = np_norm_wiener([0, np.pi], [1, -1], 1e-6)
    assert r.lower == pytest.approx(1.0, abs=1e-6)
    assert r.upper == pytest.approx(1.0, abs=1e-6)


def test_wiener_single_site():
    r = np_norm_wiener([0.0], [2.0], 1e-6)
    assert r.lower == pytest.approx(2.0, abs=1e-9)
    assert r.upper == pytest.approx(2.0, abs=1e-9)


def test_wiener_third_roots_value():
    # residues mod 3 reduce the problem to three coefficients; the dual
    # vector (1, -1)/sqrt(3) certifies 2/sqrt(3)
    r = np_norm_wiener([0, 2 * np.pi / 3], [1, -1], 1e-6)
    want = 2 / np.sqrt(3)
    assert r.lower <= want + 1e-9
    assert r.upper >= want - 1e-9
    assert r.upper - r.lower <= 1e-6


def test_wiener_certificate_names_the_residues():
    # angles 0 and pi are residues 0 and 1 modulo 2, and c = ((1+i)/2, (1-i)/2)
    # interpolates (1, i) with mass sqrt(2)
    r = np_norm_wiener([0.0, np.pi], [1, 1j])
    assert r.certificate["period"] == 2
    assert r.certificate["residues"] == [0, 1]
    assert all(type(p) is int for p in r.certificate["residues"])
    # the ends are not yet rounded outward: the evaluated upper end of this
    # bracket sits 1.3e-16 below sqrt(2), so containment holds to 4u
    assert r.lower <= SQRT2 * (1 + 4 * 2.0 ** -53)
    assert r.upper >= SQRT2 * (1 - 4 * 2.0 ** -53)


def test_wiener_period_detection():
    assert common_period([0.0, np.pi]) == 2
    assert common_period([0.0, 2 * np.pi / 3]) == 3
    assert common_period([0.0, 1.0]) is None
    # a prime period just inside the search range, and one just beyond it
    assert common_period([0.0, 2 * np.pi / 4093]) == 4093
    assert common_period([0.0, 2 * np.pi / 4097]) is None


def test_wiener_incommensurate_bracket():
    # e^{i 22} is nearly -1, so degree 32 already brings the mass near the
    # floor; the certificate stays window-limited
    r = np_norm_wiener([0.0, 1.0], [1.0, -1.0], 1e-4)
    assert r.lower == pytest.approx(1.0, abs=1e-12)
    assert r.upper <= 1.0 + 1e-4
    assert r.certificate["window_limited_dual"]["meta"]["window_limited"]


def test_wiener_incommensurate_stall_carries_bracket():
    with pytest.raises(SolverStall) as info:
        np_norm_wiener([0.0, 1.0], [1.0, -1.0], 1e-9)
    partial = info.value.partial
    assert partial is not None
    assert partial.lower == pytest.approx(1.0, abs=1e-12)
    assert partial.upper >= partial.lower


@pytest.mark.parametrize("thetas, targets", [
    ([1.0471975511965976, 0.0, 4.1887902047863905],
     [0.3613650302548736-0.7315595624262275j, -0.1315711747323117-2.3185513829559166j,
      0.20064336639029523-0.10444041375613672j]),
    ([3.5903916041026207, 0.0, 0.8975979010256552],
     [-1.1842481132088718-0.04128358765040887j, -0.36725000773344507+1.8460946371512454j,
      1.000798338716352-1.329202331472151j]),
    ([0.0, 2.8559933214452666, 4.569589314312426],
     [-0.23747604142299694-0.22185384336597075j, -0.0957328861847244-0.07341154719858078j,
      0.4988605040918113+0.8592918422354456j]),
    ([5.026548245743669, 3.7699111843077517],
     [-0.9100516671258233-1.016440266548483j, -0.8765678002584181-0.4468668444338911j]),
])
def test_wiener_period_draws_close(thetas, targets):
    # commensurate draws whose period reduction stalled at 1e-9 on one BLAS
    # thread when only the cut loop's candidates were ranked; the hinted,
    # projected point meets the dual bound (the benchmark's tight_seq
    # draws 184, 215, 264 and 355 at seed 1)
    r = np_norm_wiener(thetas, targets, 1e-9)
    assert r.upper - r.lower <= 1e-9
    payload = r.certificate["dual"]
    meta = dict(payload["meta"], targets=[complex(*z) for z in payload["meta"]["targets"]])
    cert = DualCertificate(tuple(complex(*z) for z in payload["b"]),
                           payload["certified_sup"], payload["bound"], meta)
    floor = max(abs(complex(a)) for a in targets)
    assert max(floor, dual_certificate_check(cert)) >= r.lower - 1e-12


def test_wiener_period_bracket_makes_one_primal_call(monkeypatch):
    # a period-8 draw that stalls at 1e-9 on one and on two BLAS threads
    # (the benchmark's tight_seq draw 691 at seed 1): a second, longer
    # primal call used to replay the first one's cut rounds and never
    # lowered the upper end
    from picknorm import _lp

    calls = []
    solve = _lp.min_weighted_l1

    def counted(*args, **kwargs):
        calls.append(1)
        return solve(*args, **kwargs)

    monkeypatch.setattr(_lp, "min_weighted_l1", counted)
    with pytest.raises(SolverStall) as info:
        np_norm_wiener([3.9269908169872414, 0.7853981633974483],
                       [0.26203314732927696 - 0.6226359278915669j,
                        -0.044734261275241695 - 1.4584611776349656j], 1e-9)
    partial = info.value.partial
    assert len(calls) == 1
    assert partial.iterations == 1
    assert partial.certificate["period"] == 8
    assert partial.lower == pytest.approx(1.4913768618950527, rel=1e-12)
    assert partial.upper == pytest.approx(1.491376863726026, rel=1e-12)


# ----------------------------------------------------------------------
# integrable functions with pinned coefficients
# ----------------------------------------------------------------------

def whole_grid_max(ks, b, m):
    """(max, argmax angle) of |q| on m uniform angles by one inverse FFT."""
    spec = np.zeros(m, dtype=complex)
    np.add.at(spec, np.mod(ks - ks.min(), m), b)
    vals = np.abs(np.fft.ifft(spec) * m)
    j = int(np.argmax(vals))
    return float(vals[j]), float(2 * np.pi * j / m)


def test_grid_max_in_chunks():
    # past 2^20 points the grid is evaluated as interleaved sub-grids of at
    # most 2^20 points; |1 + i e^{3i theta}| peaks at 2 first at theta =
    # pi/2, a grid point
    m = 2 ** 25 + 2 ** 20
    assert m // _BLOCK == 33
    gm, theta = _grid_max(np.array([0, 3]), np.array([1, 1j]), m)
    assert gm == pytest.approx(2.0, rel=1e-15)
    assert theta == pytest.approx(np.pi / 2, rel=1e-15)


@pytest.mark.parametrize("m", [64, 1000, 4097, 2 ** 17, 2 ** 20])
def test_grid_max_one_block_is_one_fft(m):
    # a grid of at most 2^20 points is one block: the whole-grid FFT, bit
    # for bit
    rng = np.random.default_rng(m)
    ks = np.array([-5, 0, 1, 2, 7])
    b = rng.standard_normal(5) + 1j * rng.standard_normal(5)
    assert _grid_max(ks, b, m) == whole_grid_max(ks, b, m)


def test_grid_max_memory_stays_at_one_block():
    # a whole-grid FFT of 2^23 points peaks at about 320 MiB
    tracemalloc.start()
    try:
        gm, _ = _grid_max(np.array([0, 1, 2]), np.array([1, 1, -1]) / np.sqrt(5), 2 ** 23)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert gm == pytest.approx(1.0, rel=1e-14)
    assert peak < 64 * 2 ** 20


def test_certificate_grid_rounds_up_to_its_blocks():
    # 2^21 + 2 points need 3 sub-grids, so the grid evaluated has
    # 3 * ceil((2^21 + 2) / 3) = 2^21 + 4 points, and the inflation and the
    # reported grid size are that grid's
    rng = np.random.default_rng(7)
    ks = np.array([0, 1, 2, 9])
    b = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    cert = l1_torus_certificate(ks, [1, 1, -1, 0.5], b, grid_size=2 ** 21 + 2)
    m = 2 ** 21 + 4
    assert cert.meta["grid_size"] == m
    assert cert.meta["inflation"] == 1.0 / (1.0 - math.pi * 9 / m)
    gm, theta = whole_grid_max(ks, b, m)
    assert cert.meta["grid_max"] == pytest.approx(gm, rel=1e-14)
    assert cert.meta["argmax_angle"] == theta


def test_torus_single_coefficient():
    r = np_norm_l1_torus([0], [1.0], 1e-6)
    assert r.lower == pytest.approx(1.0, abs=1e-9)
    assert r.upper == pytest.approx(1.0, abs=1e-9)


def test_torus_adjacent_ones():
    # dual polynomial b = (1, 0) is constant of modulus one, so the value
    # is the floor; the unit point mass at angle 0 attains it
    r = np_norm_l1_torus([0, 1], [1, 1], 1e-5)
    assert r.lower == pytest.approx(1.0, abs=1e-12)
    assert r.upper <= 1.0 + 1e-5


def test_torus_three_coefficient_value():
    # the optimal dual polynomial is -i e^{i t}(i + sin t)/sqrt(2): modulus
    # sqrt((1 + sin^2 t)/2) <= 1 with objective sqrt(2); the matching
    # measure puts weights (1 +- i)/2 at +-pi/2, so the norm is sqrt(2)
    r = np_norm_l1_torus([0, 1, 2], [1, 1, -1], 1e-5)
    assert r.lower <= SQRT2 <= r.upper + 1e-12
    assert r.upper - r.lower <= 1e-5
    assert r.upper == pytest.approx(SQRT2, abs=1e-5)


def test_torus_uniform_grid_cross_check():
    # independent oracle: atoms on a uniform grid (containing +-pi/2) with
    # magnitude phases taken from the hand-derived optimal dual polynomial
    # q(t) = -i e^{it}(i + sin t)/sqrt(2); the restricted minimum is sqrt(2)
    from picknorm import _lp

    ks = np.array([0, 1, 2])
    a = np.array([1.0, 1.0, -1.0], dtype=complex)
    m = 512
    cands = (2 * np.pi / m) * np.arange(m)
    A = np.exp(-1j * np.outer(ks, cands))
    qstar = -1j * np.exp(1j * cands) * (1j + np.sin(cands)) / SQRT2
    _, _, upper, _ = _lp.min_weighted_l1(A, a, gap_tol=1e-10,
                                         phase_hints=np.angle(qstar))
    assert upper == pytest.approx(SQRT2, abs=1e-9)
    assert upper >= SQRT2 - 1e-12


def test_torus_zero_targets():
    r = np_norm_l1_torus([0, 1], [0, 0], 1e-9)
    assert r.lower == r.upper == 0.0


def test_torus_floor():
    rng = np.random.default_rng(9)
    for _ in range(15):
        n = int(rng.integers(1, 4))
        ks = rng.choice(np.arange(-4, 5), size=n, replace=False)
        a = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        try:
            r = np_norm_l1_torus(ks, a, 1e-2)
        except SolverStall as exc:
            r = exc.partial
        assert r.lower >= float(np.max(np.abs(a))) - 1e-7
        assert r.lower <= r.upper + 1e-12


# ----------------------------------------------------------------------
# every end travels with its proof
# ----------------------------------------------------------------------

def _assert_proves_the_ends(r, a, columns, weights):
    """The published interpolant, ``columns @ weights`` at the sites, meets
    the targets within 1e-12 max(1, max|a|) and has mass ``upper``; the
    published dual, with the floor, gives ``lower``."""
    w = np.array([complex(*z) for z in weights])
    assert np.max(np.abs(columns @ w - a)) <= 1e-12 * max(1.0, np.max(np.abs(a)))
    assert np.sum(np.abs(w)) == pytest.approx(r.upper, rel=1e-12, abs=0)
    dual = r.certificate.get("dual")
    floor = max(abs(complex(z)) for z in a)
    assert r.lower == max(floor, dual["bound"] if dual else -math.inf)


def test_analytic_payload_is_the_interpolant_behind_upper():
    # floor_mix draw 641 at seed 1: upper comes from round 1, and the
    # coefficients of round 2, 2.5e-9 heavier, were once published instead
    lam = np.array([-0.13417692418615124 - 0.13297853416951108j,
                    -0.4448697118012963 - 0.5807412726111809j,
                    -0.3376415866964164 - 0.1390727499361221j])
    a = np.array([0.693253972687715 + 0.3969998766180285j,
                  -0.9065914094996792 + 0.022335291169855664j,
                  1.5680029953493524 + 1.723359454952482j])
    r = np_norm_analytic_wiener(lam, a, 0.05)
    cert = r.certificate
    _assert_proves_the_ends(r, a, lam[:, None] ** np.array(cert["support"]),
                            cert["coefficients"])


def test_torus_payload_keeps_every_atom():
    # tight_seq draw 15 at seed 1: pruning the atoms below 1e-9 upper once
    # left a residual of 4.5e-10 and a mass 2.3e-10 (relative) off upper
    ks = np.array([0, 5, 1])
    a = np.array([-1.8402462223583769 - 0.5430534582496271j,
                  0.14724734619675975 - 0.13073099302071928j,
                  0.24952960442310737 + 0.009712404966397982j])
    r = np_norm_l1_torus(ks, a, 1.9180833438967735e-09)
    atoms = r.certificate["atoms"]
    _assert_proves_the_ends(r, a, np.exp(-1j * np.outer(ks, atoms["angles"])),
                            atoms["weights"])


def test_truncated_wiener_publishes_its_interpolant():
    th, a = np.array([0.0, 1.0]), np.array([1, 1j])
    r = np_norm_wiener(th, a, 1e-3)
    cert = r.certificate
    assert cert["method"] == "wiener_l1_truncated"
    _assert_proves_the_ends(r, a, np.exp(1j * np.outer(th, cert["support"])),
                            cert["coefficients"])


# ----------------------------------------------------------------------
# certificates
# ----------------------------------------------------------------------

def test_constant_dual_polynomial_accepted():
    cert = l1_torus_certificate([0, 1], [1, 1], [1.0, 0.0])
    assert cert.certified_sup == 1.0
    assert cert.bound == pytest.approx(1.0, abs=0)
    assert dual_certificate_check(cert) >= 1.0 - 1e-12


def test_hand_certificate_three_coefficients():
    b = np.array([1, 1, -1]) / np.sqrt(5)
    cert = l1_torus_certificate([0, 1, 2], [1, 1, -1], b, tolerance=1e-6)
    want = 3 / np.sqrt(5)
    assert cert.bound >= want - 1e-6
    assert dual_certificate_check(cert) >= want - 1e-6


def test_scaled_certificate_rejected():
    b = np.array([1, 1, -1]) / np.sqrt(5)
    cert = l1_torus_certificate([0, 1, 2], [1, 1, -1], b, tolerance=1e-4)
    lie = DualCertificate(tuple(10 * b), cert.certified_sup,
                          10 * cert.bound, cert.meta)
    with pytest.raises(CertificateRejected):
        dual_certificate_check(lie)


@pytest.mark.parametrize("field", ["bound", "certified_sup"])
def test_certificate_check_rejects_non_finite_claim(field):
    cert = analytic_wiener_certificate([0.3, -0.2], [1, 0.5], [0.7, -0.1])
    claim = {"bound": cert.bound, "certified_sup": cert.certified_sup, field: np.nan}
    lie = DualCertificate(cert.b, claim["certified_sup"], claim["bound"], cert.meta)
    with pytest.raises(CertificateRejected, match="not finite"):
        dual_certificate_check(lie)


@pytest.mark.parametrize("field, value, match", [
    ("sites", [0, 1.5, 2], "site 1 = 1.5"),
    ("grid_size", 1000.5, "grid_size"),
], ids=["non-integer-frequency", "non-integer-grid"])
def test_torus_payload_field_rejected(field, value, match):
    # the parent rechecked frequency 1.5 as 1 and accepted the certificate
    b = np.array([1, 1, -1]) / np.sqrt(5)
    cert = l1_torus_certificate([0, 1, 2], [1, 1, -1], b, tolerance=1e-4)
    lie = DualCertificate(cert.b, cert.certified_sup, cert.bound,
                          {**cert.meta, field: value})
    with pytest.raises(CertificateRejected, match=match):
        dual_certificate_check(lie)


def test_wiener_payload_period_rejected():
    # the parent rechecked period 3.9 as 3 and accepted the certificate
    b = np.array([1.0, -1.0]) / np.sqrt(3)
    cert = wiener_certificate([0.0, 2 * np.pi / 3], [1, -1], b, period=3)
    lie = DualCertificate(cert.b, cert.certified_sup, cert.bound,
                          {**cert.meta, "period": 3.9})
    with pytest.raises(CertificateRejected, match="period"):
        dual_certificate_check(lie)


def test_analytic_certificate_recheck():
    lam = np.array([0.0, 0.5])
    a = np.array([0.0, 0.25])
    cert = analytic_wiener_certificate(lam, a, [-2.0, 2.0], window=64)
    assert cert.bound == pytest.approx(0.5, abs=1e-12)
    assert dual_certificate_check(cert) >= cert.bound - 1e-12


def test_wiener_certificate_periodic_exact():
    th = [0.0, 2 * np.pi / 3]
    b = np.array([1.0, -1.0]) / np.sqrt(3)
    cert = wiener_certificate(th, [1, -1], b, period=3)
    assert cert.certified_sup == pytest.approx(1.0, abs=1e-12)
    assert cert.bound == pytest.approx(2 / np.sqrt(3), abs=1e-12)
    assert dual_certificate_check(cert) == pytest.approx(cert.bound, abs=1e-12)


def test_floor_certificates_single_coordinate():
    # the j-th coordinate dual vector certifies |a_j| on all three backends
    cert = analytic_wiener_certificate([0.3, 0.8], [2.0, 1.0], [1.0, 0.0])
    assert cert.bound == pytest.approx(2.0, abs=1e-12)
    cert = wiener_certificate([0.0, np.pi / 2], [1.5, 1.0], [1.0, 0.0], period=4)
    assert cert.bound == pytest.approx(1.5, abs=1e-12)
    cert = l1_torus_certificate([2, 7], [0.5, 2.5], [0.0, 1.0])
    assert cert.bound == pytest.approx(2.5, abs=1e-12)


# ----------------------------------------------------------------------
# exact answers before any solver (core._exact_answer)
# ----------------------------------------------------------------------

def _contains(r, targets):
    """Whether the bracket contains max_i |a_i| at 50 digits."""
    with mpmath.workdps(50):
        norm = max(abs(mpmath.mpc(complex(z))) for z in targets)
        return mpmath.mpf(r.lower) <= norm <= mpmath.mpf(r.upper)


def _targets(rng, n):
    scale = 10.0 ** rng.uniform(-3, 3)
    return scale * (rng.standard_normal(n) + 1j * rng.standard_normal(n))


def _one_site_draw(backend, rng):
    if backend == "hardy":
        site = rng.uniform(0, 0.95) * np.exp(2j * np.pi * rng.uniform())
    elif backend == "analytic_wiener":  # about a quarter on the unit circle
        site = 2.0
        while abs(site) > 1.0:  # a rounded e^{i phi} can lie an ulp outside
            site = min(1.0, rng.uniform(0, 1.3)) * np.exp(2j * np.pi * rng.uniform())
    elif backend == "wiener":
        site = rng.uniform(0, 2 * np.pi)
    else:
        site = int(rng.integers(-50, 51))
    return [site], _targets(rng, 1)


def _two_site_torus_draw(rng):
    ks = rng.choice(np.arange(-6, 7), size=2, replace=False)
    a = _targets(rng, 2)
    u = rng.uniform()
    if u < 0.2:    # equal moduli, where arccos c meets its clamp
        a[1] = a[0] * np.exp(2j * np.pi * rng.uniform())
    elif u < 0.3:  # equal targets: both atoms at one angle
        a[1] = a[0]
    elif u < 0.4:
        a[rng.integers(2)] = 0.0
    return ks, a


_PUBLIC = {"hardy": np_norm_hardy, "analytic_wiener": np_norm_analytic_wiener,
           "wiener": np_norm_wiener, "l1_torus": np_norm_l1_torus}
_PRIVATE = {"hardy": hardy._bisect, "analytic_wiener": seqalg._solve_analytic_wiener,
            "wiener": seqalg._solve_wiener, "l1_torus": seqalg._solve_l1_torus}


def _assert_exact(r, targets, method):
    assert r.certificate["method"] == method
    assert r.iterations == 0
    assert "dual" not in r.certificate
    assert r.upper - r.lower <= 1e-9
    floor = max(abs(complex(z)) for z in targets)
    assert math.nextafter(floor, 0.0) <= r.lower <= floor
    assert _contains(r, targets), (r, targets)


@pytest.mark.parametrize("draw, theta, target", [
    (317, 1.7135959928671598, -1.0560399345418816 + 1.1469774496041436j),
    (495, 2.0943951023931953, 0.9499202366186454 + 1.4391536576798998j),
])
def test_one_site_wiener_draws_close(draw, theta, target):
    # tight_seq draws 317 and 495 at seed 1 stalled at 1e-9 in the solver,
    # the first at [1.5590951264267512, 1.5590951285529735]
    r = np_norm_wiener([theta], [target], 1e-9)
    _assert_exact(r, [target], "one_site")


@pytest.mark.parametrize("backend", sorted(_PUBLIC))
def test_one_site_contains_the_norm(backend):
    rng = np.random.default_rng(sorted(_PUBLIC).index(backend))
    for _ in range(1000):
        sites, a = _one_site_draw(backend, rng)
        r = _PUBLIC[backend](sites, a, 1e-9)
        _assert_exact(r, a, "one_site")
        k = sites[0] if backend == "l1_torus" else 0
        assert r.certificate["support"] == [k]
        assert r.certificate["coefficients"] == [[a[0].real, a[0].imag]]


def test_two_site_torus_contains_the_norm():
    rng = np.random.default_rng(7)
    for _ in range(1000):
        ks, a = _two_site_torus_draw(rng)
        r = np_norm_l1_torus(ks, a, 1e-9)
        _assert_exact(r, a, "two_site_torus")
        # the atoms interpolate to rounding, with mass max|a_i|
        atoms = r.certificate["atoms"]
        th = np.array(atoms["angles"])
        w = np.array([complex(*z) for z in atoms["weights"]])
        assert np.all((0 <= th) & (th <= 2 * np.pi))
        floor = np.max(np.abs(a))
        assert np.sum(np.abs(w)) == pytest.approx(floor, rel=1e-14)
        assert np.max(np.abs(np.exp(-1j * np.outer(ks, th)) @ w - a)) <= 1e-13 * floor


def test_exact_answers_run_no_solver(monkeypatch):
    from picknorm import _lp

    def forbidden(*args, **kwargs):
        raise AssertionError("a reduced problem reached a solver")

    monkeypatch.setattr(_lp, "solve_lp", forbidden)
    monkeypatch.setattr(hardy, "is_feasible", forbidden)
    rng = np.random.default_rng(11)
    for backend, kind in (("hardy", "disc_point"), ("analytic_wiener", "disc_point"),
                          ("wiener", "circle_angle"), ("l1_torus", "integer_character")):
        for _ in range(20):
            sites, a = _one_site_draw(backend, rng)
            p = InterpolationProblem(backend, (Site(kind, sites[0]),), (complex(a[0]),))
            assert compute_np_norm(p).certificate["method"] == "one_site"
        two = {"hardy": [0, 0.5], "analytic_wiener": [0, 1], "wiener": [0, 1.0],
               "l1_torus": [-2, 5]}[backend]
        zero = _PUBLIC[backend](two, [0.0, -0.0])
        assert (zero.lower, zero.upper, zero.iterations) == (0.0, 0.0, 0)
        assert zero.certificate == {"method": "zero_targets"}
    for _ in range(20):
        ks, a = _two_site_torus_draw(rng)
        p = InterpolationProblem("l1_torus", tuple(Site("integer_character", int(k))
                                                   for k in ks), tuple(a))
        assert compute_np_norm(p).certificate["method"] in ("two_site_torus", "zero_targets")
    # the solvers are still reached where no exact answer applies
    with pytest.raises(AssertionError, match="reached a solver"):
        np_norm_l1_torus([0, 1, 2], [1, 1, -1], 1e-5)
    with pytest.raises(AssertionError, match="reached a solver"):
        np_norm_hardy([0, 0.5], [1, -1])


@pytest.mark.parametrize("backend, tolerance", [
    ("hardy", 1e-9), ("analytic_wiener", 1e-6), ("wiener", 1e-6), ("l1_torus", 1e-6)])
def test_solver_bodies_agree_with_exact_answers(backend, tolerance):
    rng = np.random.default_rng(13)
    draws = [_one_site_draw(backend, rng) for _ in range(8)]
    if backend == "l1_torus":
        draws += [_two_site_torus_draw(rng) for _ in range(8)]
    for sites, a in draws:
        a = a / max(1.0, np.max(np.abs(a)))  # keep the absolute tolerance meaningful
        exact = _PUBLIC[backend](sites, a, tolerance)
        body = _PRIVATE[backend](np.asarray(sites), a, tolerance)
        assert body.certificate["method"] != exact.certificate["method"]
        assert abs(body.lower - exact.lower) <= tolerance
        assert abs(body.upper - exact.upper) <= tolerance
