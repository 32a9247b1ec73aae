import re

import numpy as np
import pytest

from picknorm.core import DomainViolation, GridTooCoarse
from picknorm.kernels import (
    TorusMeasure,
    convolve,
    kernel_coeffs,
    kernel_l1_norm,
    smoothing_chain,
    unit_point_mass,
)


def test_trapezoid_profile():
    V = kernel_coeffs("dlvp", 2)
    assert {k: V.coeff(k) for k in range(0, 5)} == {0: 1.0, 1: 1.0, 2: 1.0,
                                                    3: 0.5, 4: 0.0}
    assert V.coeff(-3) == 0.5


def test_triangular_profile():
    F = kernel_coeffs("fejer", 1)
    assert F.coeff(0) == 1.0
    assert F.coeff(1) == F.coeff(-1) == 0.5
    assert F.coeff(2) == 0.0


def test_flat_passband_bit_exact():
    for l in range(1, 65):
        V = kernel_coeffs("dlvp", l)
        assert all(V.coeff(k) == 1.0 for k in range(-l, l + 1))
        assert V.max_freq <= 2 * l


def test_unit_coefficient_at_zero():
    for l in (1, 7, 33):
        assert kernel_coeffs("dlvp", l).coeff(0) == 1.0


def test_bad_kernel_args():
    with pytest.raises(DomainViolation):
        kernel_coeffs("dlvp", 0)
    with pytest.raises(DomainViolation):
        kernel_coeffs("boxcar", 4)


def test_convolve_uniform_density():
    mu = TorusMeasure(density=np.ones(256))
    out, l1 = convolve(mu, kernel_coeffs("dlvp", 8), 256)
    assert np.max(np.abs(out - 1)) <= 1e-12
    assert l1 == pytest.approx(1.0, abs=1e-12)


def test_convolve_point_mass_gives_kernel():
    V = kernel_coeffs("dlvp", 8)
    out, l1 = convolve(unit_point_mass(), V, 512)
    # directly evaluate the kernel as a trigonometric polynomial
    th = (2 * np.pi / 512) * np.arange(512)
    direct = sum(V.coeff(k) * np.exp(1j * k * th)
                 for k in range(-V.max_freq, V.max_freq + 1))
    assert np.max(np.abs(out - direct)) <= 1e-10
    assert l1 >= 1.0


def test_convolve_reproduces_low_degree():
    m = 512
    K4 = kernel_coeffs("fejer", 4)
    base, _ = convolve(unit_point_mass(), K4, m)
    mu = TorusMeasure(density=np.real(base))
    out, _ = convolve(mu, kernel_coeffs("dlvp", 8), m)
    assert np.max(np.abs(out - np.real(base))) <= 1e-10


def test_reproduction_random_polynomials():
    rng = np.random.default_rng(21)
    for l in (3, 9):
        V = kernel_coeffs("dlvp", l)
        m = 16 * V.max_freq
        th = (2 * np.pi / m) * np.arange(m)
        for _ in range(5):
            deg = int(rng.integers(0, l + 1))
            coef = rng.standard_normal(2 * deg + 1) \
                + 1j * rng.standard_normal(2 * deg + 1)
            p = np.zeros(m, dtype=complex)
            for j, k in enumerate(range(-deg, deg + 1)):
                p += coef[j] * np.exp(1j * k * th)
            out, _ = convolve(TorusMeasure(density=p), V, m)
            assert np.max(np.abs(out - p)) <= 1e-10


def test_grid_too_coarse():
    with pytest.raises(GridTooCoarse):
        convolve(unit_point_mass(), kernel_coeffs("dlvp", 64), 256)
    with pytest.raises(GridTooCoarse):
        kernel_l1_norm(4, grid=32)


def test_positive_kernel_mass_one():
    for order in (1, 8, 64):
        assert kernel_l1_norm(order, kind="fejer") == pytest.approx(1.0, abs=1e-10)
    out, _ = convolve(unit_point_mass(), kernel_coeffs("fejer", 16), 2048)
    assert float(np.min(out.real)) >= -1e-12


def test_trapezoid_mass_recorded_not_asserted():
    # the trapezoid kernel mass stays bounded away from 1; record values at
    # two orders and require only stability and the normalization bound
    v64 = kernel_l1_norm(64)
    v128 = kernel_l1_norm(128)
    assert v64 >= 1.0 and v128 >= 1.0
    assert abs(v64 - v128) <= 1e-3


def test_measure_fourier_and_mass():
    mu = TorusMeasure(atoms=((0.0, 1.0), (np.pi, -0.5j)),
                      density=np.full(128, 0.25))
    assert mu.total_variation() == pytest.approx(1.0 + 0.5 + 0.25)
    got = mu.fourier([0, 1])
    want0 = 1.0 - 0.5j + 0.25
    want1 = 1.0 - 0.5j * np.exp(-1j * np.pi)
    assert got[0] == pytest.approx(want0, abs=1e-12)
    assert got[1] == pytest.approx(want1, abs=1e-12)


def test_measure_fourier_allows_repeated_frequencies():
    # unlike sites, frequencies may repeat, and integer-valued floats are
    # integers (1.5 is rejected: tests/test_validation.py)
    got = unit_point_mass(0.5).fourier([1, 1.0, 2])
    assert got[0] == got[1] == pytest.approx(np.exp(-0.5j), abs=1e-15)


@pytest.mark.parametrize("ks,first", [
    ([1, 2.5, 3.5], "frequency 1 = 2.5 "),
    ([0, 1, 2 + 1j], "frequency 2 = (2+1j) "),
    ([0, 2.0 ** 54, np.nan], "frequency 1 = 1.8014398509481984e+16 "),
    ([0, np.inf], "frequency 1 = inf "),
])
def test_measure_fourier_names_the_first_bad_frequency(ks, first):
    with pytest.raises(DomainViolation, match=re.escape(first)):
        unit_point_mass(0.5).fourier(ks)


def test_smoothing_chain_point_mass():
    rep = smoothing_chain(unit_point_mass(), [0, 1], orders=[4, 8, 16])
    assert rep["coefficients_match"]
    assert rep["np_lower"] == pytest.approx(1.0, abs=1e-9)
    for row in rep["rows"]:
        # the smoothed function interpolates, so its mass cannot undercut
        # the certified lower bound
        assert row["slack_vs_np_lower"] >= -1e-9
        assert row["l1_norm"] >= 1.0


def test_smoothing_chain_absolutely_continuous():
    m = 1024
    base, _ = convolve(unit_point_mass(), kernel_coeffs("fejer", 8), m)
    mu = TorusMeasure(density=np.real(base))
    rep = smoothing_chain(mu, [0, 1], orders=[16, 32, 64], grid=m)
    assert rep["coefficients_match"]
    # smoothing an integrable density converges to it in mass
    masses = [row["l1_norm"] for row in rep["rows"]]
    assert abs(masses[-1] - 1.0) <= 1e-6


def test_smoothing_chain_zero_measure():
    rep = smoothing_chain(TorusMeasure(), [0, 1], orders=[4])
    assert rep["measure_norm"] == 0.0
    assert rep["np_lower"] == rep["np_upper"] == 0.0
    assert rep["rows"][0]["l1_norm"] == 0.0


def test_smoothing_decreases_for_kinked_density():
    m = 8192
    th = (2 * np.pi / m) * np.arange(m)
    mu = TorusMeasure(density=np.maximum(0.0, np.cos(th)))
    errs = []
    for l in (16, 32, 64):
        out, _ = convolve(mu, kernel_coeffs("dlvp", l), m)
        errs.append(float(np.mean(np.abs(out - mu.density))))
    assert errs[0] > errs[1] > errs[2]
