import numpy as np
import pytest

from picknorm import (
    DomainViolation,
    DuplicateSite,
    EmptyTargets,
    InterpolationProblem,
    LengthMismatch,
    Site,
    UnknownBackend,
    compute_np_norm,
    sup_lower_bound,
    validate_problem,
)


def hardy_problem(lams, targets, tol=1e-9):
    sites = tuple(Site("disc_point", complex(v)) for v in lams)
    return InterpolationProblem("hardy", sites, tuple(map(complex, targets)), tol)


def test_validate_well_formed():
    validate_problem(hardy_problem([0, 0.5], [0, 0.25]))


def test_duplicate_sites_named():
    with pytest.raises(DuplicateSite, match="0 and 1"):
        validate_problem(hardy_problem([0.3, 0.3], [1, 2]))


def test_boundary_point_rejected_for_open_disc():
    with pytest.raises(DomainViolation):
        validate_problem(hardy_problem([1.0], [1.0]))


def test_closed_disc_allowed_for_coefficient_algebra():
    sites = (Site("disc_point", 1.0 + 0j),)
    validate_problem(InterpolationProblem("analytic_wiener", sites, (1.0 + 0j,)))


def test_length_mismatch():
    sites = (Site("disc_point", 0.0 + 0j),)
    with pytest.raises(LengthMismatch):
        validate_problem(InterpolationProblem("hardy", sites, (1.0, 2.0)))


def test_empty_problem():
    with pytest.raises(EmptyTargets):
        validate_problem(InterpolationProblem("hardy", (), ()))


def test_unknown_backend():
    sites = (Site("disc_point", 0.0 + 0j),)
    with pytest.raises(UnknownBackend):
        validate_problem(InterpolationProblem("nope", sites, (1.0,)))


def test_wrong_site_kind():
    sites = (Site("circle_angle", 0.0),)
    with pytest.raises(DomainViolation):
        validate_problem(InterpolationProblem("hardy", sites, (1.0,)))


def test_bad_tolerance():
    with pytest.raises(DomainViolation):
        validate_problem(hardy_problem([0.0], [1.0], tol=0.0))


@pytest.mark.parametrize("targets,expected", [
    ((1, -1), 1.0),
    ((0, 0, 0), 0.0),
    ((3 + 4j,), 5.0),
])
def test_sup_lower_bound(targets, expected):
    assert sup_lower_bound(targets) == expected


def test_sup_lower_bound_empty():
    with pytest.raises(EmptyTargets):
        sup_lower_bound(())


def test_dispatch_hardy_single_site():
    r = compute_np_norm(hardy_problem([0.3], [0.7]))
    assert r.lower == pytest.approx(0.7, abs=1e-12)
    assert r.upper == pytest.approx(0.7, abs=1e-12)


def test_dispatch_finite_sup_signs():
    sites = (Site("coordinate_index", 1), Site("coordinate_index", 2))
    p = InterpolationProblem("finite_sup", sites, (1.0 + 0j, -1.0 + 0j),
                             1e-9, {"weights": [1.0, 1.0]})
    r = compute_np_norm(p)
    assert r.lower == r.upper == 1.0


def test_dispatch_analytic():
    sites = (Site("disc_point", 0.0 + 0j), Site("disc_point", 0.5 + 0j))
    p = InterpolationProblem("analytic_wiener", sites, (0.0 + 0j, 0.25 + 0j), 1e-6)
    r = compute_np_norm(p)
    assert r.lower == pytest.approx(0.5, abs=1e-6)
    assert r.upper == pytest.approx(0.5, abs=1e-6)


def test_floor_holds_on_dispatch():
    rng = np.random.default_rng(0)
    for _ in range(25):
        n = int(rng.integers(1, 4))
        lam = rng.uniform(0, 0.9, n) * np.exp(2j * np.pi * rng.uniform(0, 1, n))
        while len(set(lam.tolist())) < n:
            lam = rng.uniform(0, 0.9, n) * np.exp(2j * np.pi * rng.uniform(0, 1, n))
        z = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        r = compute_np_norm(hardy_problem(lam, z, 1e-6))
        assert r.lower >= sup_lower_bound(z) - 1e-7
        assert r.upper >= r.lower


def test_homogeneity():
    # scaling every target by c scales both certified bounds by |c|
    base = hardy_problem([0.1, 0.4 + 0.2j], [0.5, -0.3 + 0.1j], 1e-9)
    r0 = compute_np_norm(base)
    c = 2.5 * np.exp(1j * 0.7)
    scaled = hardy_problem([0.1, 0.4 + 0.2j],
                           [c * 0.5, c * (-0.3 + 0.1j)], 1e-9)
    r1 = compute_np_norm(scaled)
    assert r1.lower == pytest.approx(abs(c) * r0.lower, abs=5e-9)
    assert r1.upper == pytest.approx(abs(c) * r0.upper, abs=5e-9)


def test_monotone_in_constraints():
    # adding a site/target pair never decreases the certified lower bound
    small = compute_np_norm(hardy_problem([0.0], [0.0]))
    big = compute_np_norm(hardy_problem([0.0, 0.5], [0.0, 0.25]))
    assert big.lower >= small.lower - 1e-9
    sites2 = (Site("coordinate_index", 1),)
    sites3 = (Site("coordinate_index", 1), Site("coordinate_index", 2))
    p2 = InterpolationProblem("finite_l1", sites2, (1.0 + 0j,), 1e-9,
                              {"weights": [1.0, 1.0]})
    p3 = InterpolationProblem("finite_l1", sites3, (1.0 + 0j, 1.0 + 0j), 1e-9,
                              {"weights": [1.0, 1.0]})
    assert compute_np_norm(p3).lower >= compute_np_norm(p2).lower - 1e-12


def test_determinism():
    p = hardy_problem([0.2 + 0.1j, -0.5j], [1.0, 0.3 - 0.2j], 1e-8)
    r1 = compute_np_norm(p)
    r2 = compute_np_norm(p)
    assert r1.lower == r2.lower and r1.upper == r2.upper
    assert r1.certificate == r2.certificate


def test_dispatch_finite_with_basis_uses_closed_form():
    sites = (Site("coordinate_index", 1),)
    p = InterpolationProblem("finite_sup", sites, (3.0 + 0j,), 1e-9,
                             {"dimension": 2, "basis": [[1.0, 1.0]]})
    r = compute_np_norm(p)
    assert (r.lower, r.upper) == (3.0, 3.0)
    assert r.certificate["method"] == "closed_form"


def test_wiener_angle_range_enforced():
    sites = (Site("circle_angle", -0.1),)
    with pytest.raises(DomainViolation):
        validate_problem(InterpolationProblem("wiener", sites, (1.0,)))
    sites = (Site("circle_angle", 2 * np.pi),)
    with pytest.raises(DomainViolation):
        validate_problem(InterpolationProblem("wiener", sites, (1.0,)))
