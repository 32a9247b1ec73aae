import math

import numpy as np
import pytest

from picknorm.core import DomainViolation
from picknorm.finitemodel import FiniteAlgebra, np_norm_closed_form, np_norm_generic
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
    # coordinate 3 vanishes on the span of (1, 1, 0): the zero functional
    with pytest.raises(DomainViolation, match="not a character"):
        gleason_distance_finite(
            FiniteAlgebra(3, "weighted_sup", basis=[[1, 1, 0]]), 1, 3)
    with pytest.raises(DomainViolation, match="not a character"):
        certify_trivial_parts(
            FiniteAlgebra(3, "weighted_sup", basis=[[1, 1, 0]]), [1, 3])
    # a plain subspace that is not closed under products has no blocks
    with pytest.raises(DomainViolation, match="not an algebra"):
        gleason_distance_finite(FiniteAlgebra.subspace([[1, 2, 3]]), 1, 2)


def test_lp_at_p1_is_the_unit_weight_l1_norm():
    assert gleason_distance_finite(FiniteAlgebra(2, "lp", p=1.0), 1, 2) == (1.0, 1.0)
    sites = [1, 2, 3]
    rep = part_partition(FiniteAlgebra(3, "lp", p=1.0), sites)
    assert rep.partition == part_partition(FiniteAlgebra(3, "weighted_l1"), sites).partition
    assert rep.partition == ((0, 1, 2),)


def _extremal_targets(alg, in_b, in_c):
    """Values on blocks b and c at which |v_b - v_c| reaches the closed-form
    distance on the unit sphere of the block norm."""
    w = alg.weights
    if alg.norm_kind == "weighted_sup":
        return 1.0 / np.max(w[in_b]), -1.0 / np.max(w[in_c])
    if alg.norm_kind == "weighted_l1":
        sb, sc = np.sum(w[in_b]), np.sum(w[in_c])
        return (1.0 / sb, 0.0) if sb <= sc else (0.0, -1.0 / sc)
    nb, nc = np.sum(in_b), np.sum(in_c)
    if alg.p == 1.0:
        return (1.0 / nb, 0.0) if nb <= nc else (0.0, -1.0 / nc)
    # y_b = |b|^(-1/p) in l_q; the maximizer of y . v is y^(q-1)/||y||_q^(q-1)
    q = alg.p / (alg.p - 1.0)
    yb, yc = nb ** (-1.0 / alg.p), nc ** (-1.0 / alg.p)
    nq = (yb ** q + yc ** q) ** (1.0 / q)
    return yb ** q / nq ** (q - 1.0), -yc ** q / nq ** (q - 1.0)


@pytest.mark.parametrize("kind", ["weighted_sup", "weighted_l1", "lp"])
def test_block_subalgebra_distance_is_the_dual_norm(kind, random_block_algebra):
    # the generic coset minimizer is the reference: at the extremal targets
    # the interpolation norm is 1, so the distance is attained, and on
    # random targets |a_i - a_j| <= d * norm
    rng = np.random.default_rng({"weighted_sup": 1, "weighted_l1": 2, "lp": 3}[kind])
    for _ in range(6):
        alg, labels = random_block_algebra(rng, kind)
        b, c = rng.choice(labels.max() + 1, 2, replace=False)
        i = int(rng.choice(np.flatnonzero(labels == b))) + 1
        j = int(rng.choice(np.flatnonzero(labels == c))) + 1
        lo, hi = gleason_distance_finite(alg, i, j)
        assert 0.0 < lo <= hi <= 2.0
        targets = _extremal_targets(alg, labels == b, labels == c)
        r = np_norm_generic(alg, [i, j], targets, tolerance=1e-10)
        assert r.lower == pytest.approx(1.0, abs=1e-7)
        assert abs(targets[0] - targets[1]) / r.upper <= hi * (1 + 1e-12)
        for _ in range(4):
            a = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            r = np_norm_generic(alg, [i, j], a, tolerance=1e-10)
            assert abs(a[0] - a[1]) / r.lower <= hi
        twin = [m + 1 for m in np.flatnonzero(labels == b) if m + 1 != i]
        if twin:
            assert gleason_distance_finite(alg, i, twin[0]) == (0.0, 0.0)


def test_finite_distance_subalgebra_interval():
    alg = FiniteAlgebra(3, "weighted_sup", basis=[[1, 1, 0], [0, 0, 1]])
    lo, hi = gleason_distance_finite(alg, 1, 2)
    assert lo <= 1e-9 and hi <= 1e-6  # identical coordinates on the span
    lo, hi = gleason_distance_finite(alg, 1, 3)
    assert lo == pytest.approx(2.0, abs=1e-6)


def test_finite_distance_weighted_l1_subalgebra_contains_closed_form():
    # on the span x = (u, u, v) the norm is 2|u| + 3|v|, so the largest
    # |x_1 - x_3| = |u - v| on the unit ball is 1/2 and x_1 - x_2 vanishes
    alg = FiniteAlgebra(3, "weighted_l1", weights=[1, 1, 3],
                        basis=[[1, 1, 0], [0, 0, 1]])
    lo, hi = gleason_distance_finite(alg, 1, 3)
    assert lo <= 0.5 <= hi
    lo, hi = gleason_distance_finite(alg, 1, 2)
    assert lo <= 0.0 <= hi


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


def test_disc_interval_contains_high_precision_value():
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 50
    rng = np.random.default_rng(11)
    pairs = []
    for _ in range(100):
        interior = rng.uniform(0, 0.95, 2) * np.exp(2j * np.pi * rng.uniform(size=2))
        boundary = (1 - 10.0 ** rng.uniform(-15.5, -1, 2)) \
            * np.exp(2j * np.pi * rng.uniform(size=2))
        near = complex(interior[0]) + 10.0 ** rng.uniform(-16, -3) \
            * np.exp(2j * np.pi * rng.uniform())
        pairs += [(interior[0], interior[1], 1e-12), (boundary[0], boundary[1], None),
                  (interior[0], near, None), (boundary[0], boundary[0] * (1 - 1e-9), None)]
    for l1, l2, width in pairs:
        l1, l2 = complex(l1), complex(l2)
        if l1 == l2 or max(abs(l1), abs(l2)) >= 1:
            continue
        a, b = mpmath.mpc(l1), mpmath.mpc(l2)
        rho = abs(a - b) / abs(1 - mpmath.conj(a) * b)
        exact = 2 * rho / (1 + mpmath.sqrt(1 - rho * rho))
        lo, hi = gleason_distance_hardy(l1, l2)
        assert 0.0 <= lo <= exact <= hi <= 2.0, (l1, l2)
        if width is not None:
            assert hi - lo <= width


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


def test_trivial_parts_certified_on_sup_subalgebra():
    alg = FiniteAlgebra(3, "weighted_sup", basis=[[1, 1, 0], [0, 0, 1]])
    rep = certify_trivial_parts(alg, [1, 3])
    assert rep["claimed_np_infty"]
    assert rep["all_pairs_certified_trivial"]
    assert rep["consistent"]
    assert rep["pairs"][0]["np_value"] == pytest.approx(1.0)
    assert gleason_distance_finite(alg, 1, 3) == (2.0, 2.0)


def test_trivial_parts_same_block_pair_is_one_character():
    alg = FiniteAlgebra(3, "weighted_sup", basis=[[1, 1, 0], [0, 0, 1]])
    rep = certify_trivial_parts(alg, [1, 2, 3])
    same, *others = rep["pairs"]
    assert same["pair"] == (1, 2) and same["same_character"]
    assert same["np_value"] is None and not same["trivial_certified"]
    assert [p["pair"] for p in others] == [(1, 3), (2, 3)]
    assert all(p["trivial_certified"] and not p["same_character"] for p in others)
    assert rep["claimed_np_infty"]
    assert rep["all_pairs_certified_trivial"]
    assert rep["consistent"]


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


def test_disc_sign_pair_norm_contains_high_precision_value():
    # the norm of (1, -1) at two disc points is (1 + sqrt(1 - rho^2)) / rho
    mpmath = pytest.importorskip("mpmath")
    rng = np.random.default_rng(29)
    with mpmath.workdps(50):
        for _ in range(200):
            l1, l2 = (complex(z) for z in rng.uniform(0, 0.95, 2)
                      * np.exp(2j * np.pi * rng.uniform(size=2)))
            rep = certify_trivial_parts("hardy", [l1, l2])
            a, b = mpmath.mpc(l1), mpmath.mpc(l2)
            rho = abs(a - b) / abs(1 - mpmath.conj(a) * b)
            exact = (1 + mpmath.sqrt(1 - rho * rho)) / rho
            value = rep["pairs"][0]["np_value"]
            assert exact <= value <= exact * (1 + mpmath.mpf(1e-13)), (l1, l2)


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
