import numpy as np
import pytest

from picknorm import DomainViolation, InfeasibleCoset, UnsupportedForSubalgebra
from picknorm.finitemodel import (
    FiniteAlgebra,
    annihilating_functional,
    np_infty_test,
    np_norm_closed_form,
    np_norm_generic,
    scattered_contradiction_check,
)

OMEGA = np.exp(2j * np.pi / 3)


# ----------------------------------------------------------------------
# algebra construction
# ----------------------------------------------------------------------

def test_weight_validation():
    with pytest.raises(DomainViolation):
        FiniteAlgebra(2, "weighted_sup", weights=[0.5, 1.0])
    with pytest.raises(DomainViolation):
        FiniteAlgebra(2, "lp", p=0.9)
    with pytest.raises(DomainViolation):
        FiniteAlgebra(2, "lp", p=2.0, weights=[2.0, 1.0])


def test_closure_check_rejects_non_algebra():
    # the span of the first two characters of Z/3 is not closed under
    # pointwise product (the square of the second lands on the third)
    with pytest.raises(DomainViolation, match="closed"):
        FiniteAlgebra(3, "weighted_sup",
                      basis=[[1, 1, 1], [1, OMEGA, OMEGA ** 2]])


def test_closure_accepts_genuine_subalgebra():
    FiniteAlgebra(2, "weighted_sup", basis=[[1, 1]])
    FiniteAlgebra(3, "weighted_sup", basis=[[1, 1, 0], [0, 0, 1]])


def test_subspace_constructor_skips_closure():
    alg = FiniteAlgebra.subspace([[1, 1, 1], [1, OMEGA, OMEGA ** 2]])
    assert alg.basis.shape == (2, 3)


def test_norm_values():
    assert FiniteAlgebra(2, "weighted_sup", weights=[2, 1]).norm([1, 3]) == 3.0
    assert FiniteAlgebra(2, "weighted_l1").norm([1, -2]) == 3.0
    assert FiniteAlgebra(2, "lp", p=2).norm([3, 4]) == pytest.approx(5.0)


# ----------------------------------------------------------------------
# closed forms and the generic solver
# ----------------------------------------------------------------------

def test_closed_form_values():
    assert np_norm_closed_form(FiniteAlgebra(2, "weighted_sup"),
                               [1, 2], [1, -1]).upper == 1.0
    assert np_norm_closed_form(FiniteAlgebra(2, "weighted_sup", weights=[2, 1]),
                               [1], [1]).upper == 2.0
    assert np_norm_closed_form(FiniteAlgebra(2, "weighted_l1"),
                               [1, 2], [1, -1]).upper == 2.0
    r = np_norm_closed_form(FiniteAlgebra(3, "lp", p=3), [1, 2], [1, 1])
    assert r.upper == pytest.approx(2 ** (1 / 3))


def test_closed_form_rejects_subalgebra():
    alg = FiniteAlgebra(2, "weighted_sup", basis=[[1, 1]])
    with pytest.raises(UnsupportedForSubalgebra):
        np_norm_closed_form(alg, [1], [1])


def test_generic_matches_closed_form_on_full_space():
    rng = np.random.default_rng(10)
    for kind in ("weighted_sup", "weighted_l1", "lp"):
        for _ in range(40):
            dim = int(rng.integers(1, 7))
            if kind == "lp":
                alg = FiniteAlgebra(dim, kind, p=float(1 + rng.uniform(0.2, 3)))
            else:
                alg = FiniteAlgebra(dim, kind, weights=1 + rng.uniform(0, 2, dim))
            n = int(rng.integers(1, dim + 1))
            subset = [int(i) for i in
                      rng.choice(np.arange(1, dim + 1), size=n, replace=False)]
            a = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            cf = np_norm_closed_form(alg, subset, a)
            g = np_norm_generic(alg, subset, a, tolerance=1e-10)
            assert g.upper == pytest.approx(cf.upper, abs=1e-8)
            assert g.lower <= cf.upper + 1e-9


def test_diagonal_subalgebra_cannot_separate():
    alg = FiniteAlgebra(2, "weighted_sup", basis=[[1, 1]])
    with pytest.raises(InfeasibleCoset):
        np_norm_generic(alg, [1, 2], [1, -1])


def test_one_dimensional_coset():
    alg = FiniteAlgebra(2, "weighted_sup", basis=[[1, 1]])
    r = np_norm_generic(alg, [1], [3], tolerance=1e-9)
    assert r.upper == pytest.approx(3.0, abs=1e-8)


def test_generic_weighted_l1_subalgebra_contains_closed_form():
    # on the span x = (u, u, v) the norm is 2|u| + 3|v| and the sites 1 and
    # 3 pin u and v, so the interpolation norms are 2|a| and 2|a| + 3|b|,
    # up to rounding
    alg = FiniteAlgebra(3, "weighted_l1", weights=[1, 1, 3],
                        basis=[[1, 1, 0], [0, 0, 1]])
    rng = np.random.default_rng(11)
    for _ in range(10):
        a, b = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        r = np_norm_generic(alg, [1], [a], tolerance=1e-9)
        want = 2 * abs(a)
        assert r.lower - 1e-12 <= want <= r.upper + 1e-12
        r = np_norm_generic(alg, [1, 3], [a, b], tolerance=1e-9)
        want = 2 * abs(a) + 3 * abs(b)
        assert r.lower - 1e-12 <= want <= r.upper + 1e-12


# ----------------------------------------------------------------------
# sup-norm-property search
# ----------------------------------------------------------------------

def test_unit_weight_sup_is_exact_true():
    v = np_infty_test(FiniteAlgebra(3, "weighted_sup"), sample_budget=50)
    assert v.is_np_infty and v.exact and v.witness is None


def test_l1_witness():
    v = np_infty_test(FiniteAlgebra(2, "weighted_l1"), sample_budget=50)
    assert not v.is_np_infty
    assert v.witness["subset"] == [1, 2]
    assert v.witness["targets"] == [(1 + 0j), (1 + 0j)]
    assert v.witness["np_value"] == pytest.approx(2.0)
    assert v.witness["sup_value"] == pytest.approx(1.0)


def test_weighted_sup_witness():
    v = np_infty_test(FiniteAlgebra(2, "weighted_sup", weights=[2, 1]),
                      sample_budget=50)
    assert not v.is_np_infty
    assert v.witness["subset"] == [1]
    assert v.witness["np_value"] == pytest.approx(2.0)


def test_witness_reproducible():
    alg = FiniteAlgebra(2, "weighted_l1")
    v1 = np_infty_test(alg, sample_budget=64, seed=5)
    v2 = np_infty_test(alg, sample_budget=64, seed=5)
    assert v1.witness == v2.witness
    r = np_norm_closed_form(alg, v1.witness["subset"], v1.witness["targets"])
    assert abs(r.upper - v1.witness["np_value"]) <= 1e-10


def test_single_coordinate_is_sup():
    v = np_infty_test(FiniteAlgebra(1, "weighted_l1"), sample_budget=20)
    assert v.is_np_infty


# ----------------------------------------------------------------------
# annihilators and the contradiction probe
# ----------------------------------------------------------------------

def test_full_space_has_no_annihilator():
    assert annihilating_functional(np.eye(2)) is None


def test_diagonal_annihilator():
    mu = annihilating_functional(np.array([[1, 1]], dtype=complex))
    assert np.allclose(sorted(np.abs(mu)), [0.5, 0.5], atol=1e-12)
    assert abs(np.sum(mu * np.array([1, 1]))) <= 1e-12


def test_character_annihilator():
    # the annihilator of span{(1,1,1), (1,w,w^2)} under the bilinear
    # pairing is the middle character (1, w, w^2) itself, mass-normalized
    basis = np.array([[1, 1, 1], [1, OMEGA, OMEGA ** 2]], dtype=complex)
    mu = annihilating_functional(basis)
    assert np.allclose(np.abs(mu), 1 / 3, atol=1e-12)
    for row in basis:
        assert abs(np.sum(mu * row)) <= 1e-10
    ratios = mu / mu[0]
    assert np.allclose(sorted(np.angle(ratios) % (2 * np.pi)),
                       sorted([0.0, 2 * np.pi / 3, 4 * np.pi / 3]), atol=1e-9)


def test_annihilator_normalization():
    rng = np.random.default_rng(12)
    B = rng.standard_normal((2, 4)) + 1j * rng.standard_normal((2, 4))
    mu = annihilating_functional(B)
    assert np.sum(np.abs(mu)) == pytest.approx(1.0, abs=1e-12)
    assert abs(np.max(np.abs((B @ mu)))) <= 1e-10
    j = int(np.argmax(np.abs(mu)))
    assert mu[j].imag == pytest.approx(0.0, abs=1e-12)
    assert mu[j].real > 0


def test_scattered_diagonal_branch():
    rep = scattered_contradiction_check(np.array([[1, 1]], dtype=complex))
    assert rep["branch"] == "interpolation_impossible"
    assert rep["n0"] == 2
    assert rep["pairing_lower_bound"] > 0


def test_scattered_character_branch():
    basis = np.array([[1, 1, 1], [1, OMEGA, OMEGA ** 2]], dtype=complex)
    rep = scattered_contradiction_check(basis)
    # equal atom masses force the head to cover all three coordinates, and
    # the conjugate sign pattern lies outside the span
    assert rep["n0"] == 3
    assert rep["pairing_lower_bound"] == pytest.approx(1.0, abs=1e-9)
    assert rep["branch"] == "interpolation_impossible"


def test_scattered_dense_branch():
    rep = scattered_contradiction_check(FiniteAlgebra(3, "weighted_sup"))
    assert rep["branch"] == "dense"


def test_scattered_unbounded_branch():
    # span{(1, 3)}: the annihilator concentrates 3/4 of its mass on the
    # first coordinate, and the only interpolant of the head sign has sup
    # norm 3 > 2
    rep = scattered_contradiction_check(np.array([[1, 3]], dtype=complex))
    assert rep["branch"] == "no_bounded_interpolant"
    assert rep["np_value"] == pytest.approx(3.0, abs=1e-6)


def test_scattered_never_contradicts():
    rng = np.random.default_rng(13)
    for _ in range(10):
        n = int(rng.integers(2, 5))
        m = int(rng.integers(1, n))
        B = rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))
        rep = scattered_contradiction_check(B)
        assert rep["branch"] != "annihilation_contradiction"
