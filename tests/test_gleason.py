import math

import numpy as np
import pytest

from picknorm.core import DomainViolation
from picknorm.finitemodel import FiniteAlgebra, np_norm_closed_form
from picknorm.gleason import (
    certify_trivial_parts,
    gleason_distance_finite,
    gleason_distance_hardy,
    part_partition,
)


def disc_closed_form(rho: float) -> float:
    # maximum of |m_c(0) - m_c(rho)| over automorphism parameters c:
    # stationarity of rho(1 - c^2)/(1 - c rho) gives c = (1 - sqrt(1-rho^2))/rho
    # and the value 2(1 - sqrt(1 - rho^2))/rho
    return 2 * (1 - math.sqrt(1 - rho * rho)) / rho


def test_finite_distances_closed_values():
    lo, hi = gleason_distance_finite(FiniteAlgebra(2, "weighted_sup"), 1, 2)
    assert lo == hi == 2.0
    lo, hi = gleason_distance_finite(FiniteAlgebra(2, "weighted_l1"), 1, 2)
    assert lo == hi == 1.0
    lo, hi = gleason_distance_finite(
        FiniteAlgebra(2, "weighted_sup", weights=[2, 1]), 1, 2)
    assert lo == hi == 1.5
    lo, hi = gleason_distance_finite(FiniteAlgebra(2, "lp", p=2.0), 1, 2)
    assert lo == pytest.approx(math.sqrt(2.0))


def test_finite_distance_validation():
    alg = FiniteAlgebra(2, "weighted_sup")
    with pytest.raises(DomainViolation):
        gleason_distance_finite(alg, 1, 1)
    with pytest.raises(DomainViolation):
        gleason_distance_finite(alg, 0, 1)


def test_finite_distance_subalgebra_interval():
    alg = FiniteAlgebra(3, "weighted_sup", basis=[[1, 1, 0], [0, 0, 1]])
    lo, hi = gleason_distance_finite(alg, 1, 2)
    assert lo <= 1e-9 and hi <= 1e-6  # identical coordinates on the span
    lo, hi = gleason_distance_finite(alg, 1, 3)
    assert lo == pytest.approx(2.0, abs=1e-6)


def test_finite_distance_weighted_l1_subalgebra_contains_closed_form():
    # on the span x = (u, u, v) the norm is 2|u| + 3|v|, so the largest
    # |x_1 - x_3| = |u - v| on the unit ball is 1/2 and x_1 - x_2 vanishes;
    # both ends may miss the closed form by rounding
    alg = FiniteAlgebra(3, "weighted_l1", weights=[1, 1, 3],
                        basis=[[1, 1, 0], [0, 0, 1]])
    lo, hi = gleason_distance_finite(alg, 1, 3)
    assert lo - 1e-12 <= 0.5 <= hi + 1e-12
    lo, hi = gleason_distance_finite(alg, 1, 2)
    assert lo - 1e-12 <= 0.0 <= hi + 1e-12


def test_disc_distance_half():
    lo, hi = gleason_distance_hardy(0.0, 0.5, 1e-6)
    want = 4 - 2 * math.sqrt(3)
    assert lo == pytest.approx(want, abs=1e-5)
    assert lo <= want + 1e-12 <= hi + 1e-9


def test_disc_distance_matches_closed_form_and_grows():
    prev = 0.0
    for lam2 in (0.3, 0.5, 0.7, 0.9, 0.99):
        lo, hi = gleason_distance_hardy(0.0, lam2, 1e-6)
        assert lo == pytest.approx(disc_closed_form(lam2), abs=1e-6)
        assert hi <= 2.0 + 1e-9
        assert lo > prev
        prev = lo


def test_disc_distance_depends_on_invariant_ratio():
    # the distance only depends on |l1 - l2| / |1 - conj(l2) l1|
    l1, l2 = 0.2, 0.6
    rho = abs(l1 - l2) / abs(1 - l2 * l1)
    lo, _ = gleason_distance_hardy(l1, l2, 1e-6)
    assert lo == pytest.approx(disc_closed_form(rho), abs=1e-6)


def test_disc_distance_validation():
    with pytest.raises(DomainViolation):
        gleason_distance_hardy(0.3, 0.3)
    with pytest.raises(DomainViolation):
        gleason_distance_hardy(1.0, 0.3)


def test_trivial_parts_certified_on_unit_sup():
    rep = certify_trivial_parts(FiniteAlgebra(3, "weighted_sup"), [1, 2, 3])
    assert rep["claimed_np_infty"]
    assert rep["all_pairs_certified_trivial"]
    assert rep["consistent"]
    for pair in rep["pairs"]:
        assert pair["np_value"] == pytest.approx(1.0)
        assert pair["certified_distance_lower"] == pytest.approx(2.0)


def test_trivial_parts_vacuous_on_l1():
    rep = certify_trivial_parts(FiniteAlgebra(2, "weighted_l1"), [1, 2])
    assert not rep["claimed_np_infty"]
    assert not rep["pairs"][0]["trivial_certified"]
    assert rep["pairs"][0]["np_value"] == pytest.approx(2.0)
    assert rep["consistent"]  # implication with a false antecedent


def test_trivial_parts_disc_pair():
    rep = certify_trivial_parts("hardy", [0.0, 0.5], tolerance=1e-9)
    # the sign pair needs norm 2 + sqrt(3) > 1, so no certification
    assert rep["pairs"][0]["np_value"] == pytest.approx(2 + math.sqrt(3), abs=1e-6)
    assert not rep["pairs"][0]["trivial_certified"]
    assert rep["consistent"]


def test_partition_disc_interior_is_one_part():
    rep = part_partition("hardy", [0.0, 0.3, 0.6])
    assert rep.partition == ((0, 1, 2),)
    assert rep.undecided == ()


def test_partition_sup_singletons():
    rep = part_partition(FiniteAlgebra(2, "weighted_sup"), [1, 2])
    assert rep.partition == ((0,), (1,))


def test_partition_l1_single_group():
    rep = part_partition(FiniteAlgebra(2, "weighted_l1"), [1, 2])
    assert rep.partition == ((0, 1),)


def test_partition_needs_two_sites():
    with pytest.raises(DomainViolation):
        part_partition("hardy", [0.0])


def test_report_invariants():
    rep = part_partition("hardy", [0.0, 0.4, 0.8])
    n = len(rep.sites)
    for i in range(n):
        assert rep.distances[i][i] == (0.0, 0.0)
        for j in range(n):
            lo, hi = rep.distances[i][j]
            assert rep.distances[j][i] == (lo, hi)
            assert 0.0 <= lo <= hi <= 2.0 + 1e-9


def test_finite_distance_dominates_unit_ball_gaps():
    # for any pair with interpolation norm <= 1, the coordinate gap cannot
    # exceed the certified distance upper bound
    rng = np.random.default_rng(17)
    alg = FiniteAlgebra(2, "weighted_l1", weights=[1.0, 1.5])
    _, hi = gleason_distance_finite(alg, 1, 2)
    for _ in range(100):
        a = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        nrm = np_norm_closed_form(alg, [1, 2], a).upper
        if nrm <= 0:
            continue
        a = a / nrm
        assert abs(a[0] - a[1]) <= hi + 1e-8


def test_distance_two_iff_sign_norm_one():
    # certified distance lower bound 2/np(1,-1) from the norm-one pair
    alg = FiniteAlgebra(2, "weighted_sup")
    rep = certify_trivial_parts(alg, [1, 2], tolerance=1e-9)
    pair = rep["pairs"][0]
    lo, _ = gleason_distance_finite(alg, 1, 2)
    assert pair["certified_distance_lower"] <= lo + 1e-9
