import numpy as np
import pytest

from picknorm import DomainViolation, InfeasibleCoset, SolverStall
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


def test_closure_rule_is_the_block_rule():
    # two coordinate columns 1.2e-12 apart but rank one: the span's square
    # stays within least squares of it, yet it has no block structure, so
    # the constructor rejects it as the closed form would
    with pytest.raises(DomainViolation, match="closed"):
        FiniteAlgebra(2, "weighted_sup", basis=[[1, 1 + 1.2e-12]])


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


def test_closed_form_on_subalgebra():
    # on the diagonal of C^2 the element (a, a) has norm max(w) |a|
    alg = FiniteAlgebra(2, "weighted_sup", weights=[1, 2], basis=[[1, 1]])
    r = np_norm_closed_form(alg, [1], [3])
    assert (r.lower, r.upper) == (6.0, 6.0)
    assert r.certificate["method"] == "closed_form"
    assert np_norm_closed_form(alg, [1, 2], [3, 3]).upper == 6.0


def test_closed_form_on_block_subalgebras_matches_generic(random_block_algebra):
    # sites take one value per block and 0 outside every block; the closed
    # form must lie inside the generic bracket up to rounding
    rng = np.random.default_rng(14)
    for kind in ("weighted_sup", "weighted_l1", "lp"):
        for _ in range(100):
            alg, labels = random_block_algebra(rng, kind)
            n = int(rng.integers(1, 7))
            subset = [int(i) + 1 for i in rng.choice(6, size=n, replace=False)]
            values = rng.standard_normal(6) + 1j * rng.standard_normal(6)
            a = [values[labels[i - 1]] if labels[i - 1] >= 0 else 0.0 for i in subset]
            cf = np_norm_closed_form(alg, subset, a)
            assert cf.lower == cf.upper
            try:
                g = np_norm_generic(alg, subset, a, tolerance=1e-10)
            except SolverStall as exc:
                g = exc.partial
            slack = 1e-14 * max(1.0, cf.upper)
            assert g.lower - slack <= cf.upper <= g.upper + slack


def test_closed_form_conflicting_targets_in_one_block():
    alg = FiniteAlgebra(3, "weighted_l1", basis=[[1, 1, 0], [0, 0, 1]])
    with pytest.raises(InfeasibleCoset, match="one block"):
        np_norm_closed_form(alg, [1, 2], [1, -1])
    zero_coordinate = FiniteAlgebra(3, "weighted_l1", basis=[[1, 1, 0]])
    with pytest.raises(InfeasibleCoset, match="vanishes"):
        np_norm_closed_form(zero_coordinate, [3], [1])
    assert np_norm_closed_form(zero_coordinate, [1, 3], [1, 0]).upper == 2.0


def test_closed_form_rejects_plain_subspace():
    with pytest.raises(DomainViolation, match="not an algebra"):
        np_norm_closed_form(FiniteAlgebra.subspace([[1, 2, 3]]), [1], [1])


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


def test_generic_keeps_free_block_with_two_sites_in_one_block():
    # two sites pin one block of span{(1,1,1,1), (0,0,1,1)}; the block {3, 4}
    # stays free although there are as many sites as basis vectors
    alg = FiniteAlgebra(4, "weighted_l1", basis=[[1, 1, 1, 1], [0, 0, 1, 1]])
    r = np_norm_generic(alg, [1, 2], [1, 1], tolerance=1e-10)
    assert r.lower <= 2.0 + 1e-14 and r.upper == pytest.approx(2.0, abs=1e-14)
    assert np_norm_closed_form(alg, [1, 2], [1, 1]).upper == 2.0


def test_one_dimensional_coset():
    alg = FiniteAlgebra(2, "weighted_sup", basis=[[1, 1]])
    r = np_norm_generic(alg, [1], [3], tolerance=1e-9)
    assert r.upper == pytest.approx(3.0, abs=1e-8)


# floor_mix draws 261, 336, 499 and 2317 (seed 1) of generic finite solves:
# (kind, weights, subset, targets); the cut loop ends on a cut that is
# already in its phase set, with the bracket still wider than 1e-10
STALLED_CUT_LOOPS = [
    ("weighted_sup", [2.392887468465484], [1],
     [0.13078939180531735 + 0.31564991244206475j]),
    ("weighted_sup", [2.3534050456640845], [1],
     [-0.879303747035218 + 2.122614099088915j]),
    ("weighted_l1", [2.8309190938026934, 2.448424494489564, 2.4870925860425825,
                     2.6141257852362596, 1.0522692069070532], [1, 3, 5, 2],
     [0.34417745080647266 - 1.47798374777175j, 1.024780824641908 + 0.4243662207033112j,
      1.295841427623534 + 1.0642084919648997j, 0.8880090955273322 - 0.03302546604294163j]),
    ("weighted_l1", [1.1927156968034616, 1.1388364143990222, 1.0250977447303786,
                     1.4212012527610467, 2.3186084506414595, 1.8764467229133202],
     [1, 2, 6, 5],
     [-0.74635412291747 - 0.13559846651613697j, 0.15239542120629732 + 0.8292595573274487j,
      0.9431585885469698 + 0.9438614323144158j, -0.07891004439711372 + 1.4751288816223238j]),
]


@pytest.mark.parametrize("kind, weights, subset, targets", STALLED_CUT_LOOPS)
def test_generic_wide_bracket_stalls(kind, weights, subset, targets):
    alg = FiniteAlgebra(len(weights), kind, weights=weights)
    with pytest.raises(SolverStall) as info:
        np_norm_generic(alg, subset, targets, tolerance=1e-10)
    r = info.value.partial
    assert r.upper - r.lower > 1e-10 * max(1.0, r.upper)
    assert r.upper == pytest.approx(np_norm_closed_form(alg, subset, targets).upper,
                                    abs=1e-8)


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
# sup-norm property
# ----------------------------------------------------------------------

def test_unit_weight_sup_is_exact_true():
    v = np_infty_test(FiniteAlgebra(3, "weighted_sup"))
    assert v.is_np_infty and v.witness is None


def test_l1_witness():
    v = np_infty_test(FiniteAlgebra(2, "weighted_l1"))
    assert not v.is_np_infty
    assert v.witness["subset"] == [1, 2]
    assert v.witness["targets"] == [(1 + 0j), (1 + 0j)]
    assert v.witness["np_value"] == pytest.approx(2.0)
    assert v.witness["sup_value"] == pytest.approx(1.0)


def test_weighted_sup_witness():
    v = np_infty_test(FiniteAlgebra(2, "weighted_sup", weights=[2, 1]))
    assert not v.is_np_infty
    assert v.witness["subset"] == [1]
    assert v.witness["np_value"] == pytest.approx(2.0)


def test_witness_reproducible():
    alg = FiniteAlgebra(2, "weighted_l1")
    v1 = np_infty_test(alg)
    v2 = np_infty_test(alg)
    assert v1.witness == v2.witness
    r = np_norm_closed_form(alg, v1.witness["subset"], v1.witness["targets"])
    assert abs(r.upper - v1.witness["np_value"]) <= 1e-10


def test_weighted_subalgebra_witness():
    # x = (u, u, v) with weights (1, 2, 1): interpolating 1 at site 1 costs 2
    alg = FiniteAlgebra(3, "weighted_sup", weights=[1, 2, 1],
                        basis=[[1, 1, 0], [0, 0, 1]])
    v = np_infty_test(alg)
    assert not v.is_np_infty
    assert v.witness["subset"] == [1]
    assert v.witness["np_value"] == 2.0
    unit = FiniteAlgebra(3, "weighted_sup", basis=[[1, 1, 0], [0, 0, 1]])
    assert np_infty_test(unit).is_np_infty


def test_single_coordinate_is_sup():
    v = np_infty_test(FiniteAlgebra(1, "weighted_l1"))
    assert v.is_np_infty


@pytest.mark.parametrize("kind", ["weighted_sup", "weighted_l1", "lp"])
def test_np_infty_verdict_is_right(kind, random_block_algebra):
    # a claimed property survives random tuples; a witness has at most two
    # sites and a norm above its sup that the closed form reproduces
    rng = np.random.default_rng(41)
    cases = []
    for _ in range(8):
        alg, labels = random_block_algebra(rng, kind)
        cases.append((alg, labels))
        if kind != "lp":
            cases.append((FiniteAlgebra(6, kind, basis=alg.basis), labels))
    for n in (1, 2, 5):
        if kind == "lp":
            cases.append((FiniteAlgebra(n, "lp", p=float(rng.uniform(1.0, 4.0))),
                          np.arange(n)))
        else:
            cases.append((FiniteAlgebra(n, kind), np.arange(n)))
            cases.append((FiniteAlgebra(n, kind, weights=rng.uniform(1.0, 3.0, n)),
                          np.arange(n)))
    verdicts = set()
    for alg, labels in cases:
        v = np_infty_test(alg)
        verdicts.add(v.is_np_infty)
        if v.is_np_infty:
            inside = np.flatnonzero(labels >= 0)
            for _ in range(200):
                size = int(rng.integers(1, min(len(inside), 4) + 1))
                idx = rng.choice(inside, size, replace=False)
                values = rng.standard_normal(6) + 1j * rng.standard_normal(6)
                a = values[labels[idx]]
                sup = float(np.max(np.abs(a)))
                r = np_norm_closed_form(alg, (idx + 1).tolist(), a)
                assert r.upper <= sup * (1 + 1e-12)
        else:
            w = v.witness
            assert 1 <= len(w["subset"]) <= 2 and w["sup_value"] == 1.0
            r = np_norm_closed_form(alg, w["subset"], w["targets"])
            assert r.upper == w["np_value"] > 1 + 1e-9
    assert verdicts == {True, False}


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
