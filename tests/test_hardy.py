import math

import numpy as np
import pytest

from picknorm import (
    DomainViolation,
    DuplicateSite,
    NonpositiveLevel,
    SolverStall,
    build_pick_matrix,
    is_feasible,
    np_norm_hardy,
)


def test_matrix_single_zero_site():
    # (1 - 0.25) / (1 - 0) with z = 0.5 at lambda = 0
    m = build_pick_matrix([0.0], [0.5], 1.0)
    assert m.entries[0, 0] == pytest.approx(0.75, abs=0)


def test_matrix_two_sites_hand_values():
    m = build_pick_matrix([0.0, 0.5], [0.0, 0.25], 1.0)
    expect = np.array([[1.0, 1.0], [1.0, 1.25]])
    assert np.allclose(m.entries, expect, atol=1e-15)


def test_matrix_reproducing_kernel_value():
    # zero target reduces the diagonal entry to 1/(1 - |lambda|^2)
    m = build_pick_matrix([0.5], [0.0], 1.0)
    assert m.entries[0, 0] == pytest.approx(4.0 / 3.0, rel=1e-15)


def test_matrix_formula_spot_check():
    rng = np.random.default_rng(1)
    lam = rng.uniform(0, 0.8, 4) * np.exp(2j * np.pi * rng.uniform(0, 1, 4))
    z = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    t = 1.7
    m = build_pick_matrix(lam, z, t)
    for i in range(4):
        for j in range(i, 4):
            want = (1 - z[i] * np.conj(z[j]) / t ** 2) \
                / (1 - lam[i] * np.conj(lam[j]))
            assert m.entries[i, j] == pytest.approx(want, rel=1e-14)


def test_matrix_exactly_hermitian():
    rng = np.random.default_rng(2)
    for _ in range(20):
        n = int(rng.integers(1, 6))
        lam = rng.uniform(0, 0.9, n) * np.exp(2j * np.pi * rng.uniform(0, 1, n))
        while len(set(lam.tolist())) < n:
            lam = rng.uniform(0, 0.9, n) * np.exp(2j * np.pi * rng.uniform(0, 1, n))
        z = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        m = build_pick_matrix(lam, z, 1.3)
        assert np.array_equal(m.entries, m.entries.conj().T)


def test_matrix_errors():
    with pytest.raises(NonpositiveLevel):
        build_pick_matrix([0.0], [0.5], 0.0)
    with pytest.raises(DomainViolation):
        build_pick_matrix([1.0], [0.5], 1.0)
    with pytest.raises(DuplicateSite):
        build_pick_matrix([0.2, 0.2], [0.5, 0.1], 1.0)


def test_feasibility_two_point():
    assert is_feasible([0, 0.5], [0, 0.25], 1.0).feasible
    assert not is_feasible([0, 0.5], [0, 0.25], 0.4).feasible


def test_feasibility_boundary_equality():
    # numerator vanishes at t = |z|; the relative slack keeps this feasible
    v = is_feasible([0.3], [0.7], 0.7)
    assert v.feasible
    assert v.min_eigenvalue == pytest.approx(0.0, abs=1e-12)


def test_single_site_norm_is_modulus():
    rng = np.random.default_rng(3)
    for _ in range(50):
        lam = rng.uniform(0, 0.95) * np.exp(2j * np.pi * rng.uniform())
        z = complex(rng.standard_normal(), rng.standard_normal())
        r = np_norm_hardy([lam], [z], 1e-9)
        assert abs(r.lower - abs(z)) <= 1e-9
        assert abs(r.upper - abs(z)) <= 1e-9


def test_two_point_contraction_value():
    # f(0) = 0 forces |f(1/2)| <= ||f||/2, attained by the linear map
    r = np_norm_hardy([0, 0.5], [0, 0.25], 1e-9)
    assert r.lower <= 0.5 <= r.upper
    assert r.upper - r.lower <= 1e-9


def test_two_point_scan_cross_check():
    # independent oracle: feasibility transition located by a coarse scan
    ts = np.linspace(0.3, 0.7, 1000)
    flags = [is_feasible([0, 0.5], [0, 0.25], float(t)).feasible for t in ts]
    first = ts[flags.index(True)]
    assert abs(first - 0.5) <= (ts[1] - ts[0]) + 1e-12


def test_zero_targets():
    r = np_norm_hardy([0, 0.5], [0, 0], 1e-9)
    assert r.lower == r.upper == 0.0


def test_sign_targets_two_point_value():
    # determinant condition for targets (1, -1) at (0, 1/2):
    # (1-s)^2/(3/4) >= (1+s)^2 with s = t^{-2}  <=>  t >= 2 + sqrt(3)
    r = np_norm_hardy([0, 0.5], [1, -1], 1e-9)
    want = 2 + np.sqrt(3)
    assert r.lower <= want <= r.upper
    assert r.upper - r.lower <= 1e-9


def test_monotone_feasibility_in_level():
    rng = np.random.default_rng(4)
    for _ in range(200):
        n = int(rng.integers(1, 5))
        lam = rng.uniform(0, 0.95, n) * np.exp(2j * np.pi * rng.uniform(0, 1, n))
        while len(set(lam.tolist())) < n:
            lam = rng.uniform(0, 0.95, n) * np.exp(2j * np.pi * rng.uniform(0, 1, n))
        z = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        t = float(rng.uniform(0.1, 3.0))
        if is_feasible(lam, z, t).feasible:
            assert is_feasible(lam, z, 2 * t).feasible


def test_unimodular_invariance():
    rng = np.random.default_rng(5)
    lam = [0.1, -0.4 + 0.3j]
    z = np.array([0.8 - 0.1j, -0.2 + 0.6j])
    base = np_norm_hardy(lam, z, 1e-9)
    for _ in range(5):
        phase = np.exp(1j * rng.uniform(0, 2 * np.pi))
        r = np_norm_hardy(lam, phase * z, 1e-9)
        assert abs(r.upper - base.upper) <= 2e-9


def test_bracket_validity():
    lam = [0.2, 0.6j]
    z = [1.0, 0.5 - 0.5j]
    tol = 1e-8
    r = np_norm_hardy(lam, z, tol)
    assert is_feasible(lam, z, r.upper).feasible
    probe = r.lower - tol
    if probe > max(abs(complex(v)) for v in z):
        assert not is_feasible(lam, z, probe).feasible


def test_floor_from_remark():
    rng = np.random.default_rng(6)
    for _ in range(50):
        n = int(rng.integers(1, 5))
        lam = rng.uniform(0, 0.9, n) * np.exp(2j * np.pi * rng.uniform(0, 1, n))
        while len(set(lam.tolist())) < n:
            lam = rng.uniform(0, 0.9, n) * np.exp(2j * np.pi * rng.uniform(0, 1, n))
        z = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        r = np_norm_hardy(lam, z, 1e-7)
        assert r.lower >= float(np.max(np.abs(z))) - 1e-7


@pytest.mark.parametrize("scale", [1e7, 1e8])
def test_bisection_stops_at_adjacent_doubles(scale, deadline):
    # the norm of (1, -1) at (0, 1/2) is 2 + sqrt(3); scaled by 1e7 or 1e8
    # one ulp of it exceeds the 1e-9 tolerance, and the midpoint stops moving
    with deadline(1.0), pytest.raises(SolverStall) as info:
        np_norm_hardy([0, 0.5], [scale, -scale], 1e-9)
    partial = info.value.partial
    assert partial.upper - partial.lower > 1e-9
    assert math.nextafter(partial.lower, math.inf) == partial.upper
    # containment holds up to is_feasible's 1e-12 eigenvalue slack, which
    # puts both ends 7e-12 relative under the norm (ROADMAP item 1)
    norm = (2 + math.sqrt(3)) * scale
    assert partial.lower <= norm <= partial.upper * (1 + 1e-11)
