"""Bad input raises its ValidationError subclass on every public entry point.

Each row is one entry point and one bad value: a NaN site, an infinite
target, a non-integer frequency, coordinate, dimension, kernel order or grid
size, a basis that is not 2-D, a non-finite weight or exponent, a duplicate
site or a target count that does not match.
The rules live in ``core.check_sites``, ``core.check_targets``,
``core.check_tolerance`` and ``core.check_dimension`` (``core._integer`` for
``TorusMeasure.fourier``, whose frequencies may repeat, and for
``KernelSpec.coeff``).  An entry point that skips them truncates the value,
solves with it, fails inside a solver or never returns, so each row runs
under a one-second deadline.
"""

import json

import numpy as np
import pytest

from picknorm import (
    DomainViolation,
    DuplicateSite,
    FiniteAlgebra,
    InterpolationProblem,
    LengthMismatch,
    Site,
    build_pick_matrix,
    certify_trivial_parts,
    compute_np_norm,
    convolve,
    gleason_distance_finite,
    gleason_distance_hardy,
    is_feasible,
    kernel_coeffs,
    kernel_l1_norm,
    np_norm_analytic_wiener,
    np_norm_closed_form,
    np_norm_generic,
    np_norm_hardy,
    np_norm_l1_torus,
    np_norm_wiener,
    part_partition,
    scattered_contradiction_check,
    smoothing_chain,
    unit_point_mass,
)
from picknorm.cli import main

NAN = float("nan")
INF = float("inf")


def alg():
    return FiniteAlgebra(3, "weighted_sup")


def problem(backend, kind, sites, targets, **params):
    return InterpolationProblem(backend, tuple(Site(kind, v) for v in sites),
                                tuple(targets), 1e-6, params or None)


ROWS = [
    # hardy: bisection, Pick matrix, feasibility
    ("np_norm_hardy-nan-site", lambda: np_norm_hardy([NAN, 0.5], [1, 2]), DomainViolation),
    ("np_norm_hardy-inf-target", lambda: np_norm_hardy([0, 0.5], [INF, 1]), DomainViolation),
    ("np_norm_hardy-length", lambda: np_norm_hardy([0, 0.5], [1]), LengthMismatch),
    ("build_pick_matrix-nan-site",
     lambda: build_pick_matrix([NAN, 0.5], [1, 2], 3.0), DomainViolation),
    ("build_pick_matrix-inf-target",
     lambda: build_pick_matrix([0, 0.5], [INF, 1], 3.0), DomainViolation),
    ("build_pick_matrix-length",
     lambda: build_pick_matrix([0, 0.5], [1], 3.0), LengthMismatch),
    ("is_feasible-nan-site", lambda: is_feasible([NAN, 0.5], [1, 2], 3.0), DomainViolation),
    ("is_feasible-inf-target", lambda: is_feasible([0, 0.5], [INF, 1], 3.0), DomainViolation),
    ("is_feasible-length", lambda: is_feasible([0, 0.5], [1], 3.0), LengthMismatch),
    # sequence algebras
    ("analytic_wiener-nan-site",
     lambda: np_norm_analytic_wiener([NAN, 0.5], [1, 2], 1e-6), DomainViolation),
    ("analytic_wiener-inf-target",
     lambda: np_norm_analytic_wiener([0, 0.5], [INF, 1], 1e-6), DomainViolation),
    ("analytic_wiener-length",
     lambda: np_norm_analytic_wiener([0, 0.5], [1], 1e-6), LengthMismatch),
    ("wiener-nan-site", lambda: np_norm_wiener([NAN, 1.0], [1, 2], 1e-6), DomainViolation),
    ("wiener-inf-target", lambda: np_norm_wiener([0, 1.0], [INF, 1], 1e-6), DomainViolation),
    ("wiener-length", lambda: np_norm_wiener([0, 1.0], [1], 1e-6), LengthMismatch),
    ("l1_torus-nan-site", lambda: np_norm_l1_torus([NAN, 2], [1, 2], 1e-6), DomainViolation),
    ("l1_torus-inf-target", lambda: np_norm_l1_torus([1, 2], [INF, 1], 1e-6), DomainViolation),
    ("l1_torus-non-integer",
     lambda: np_norm_l1_torus([1.5, 2], [1, 1], 1e-6), DomainViolation),
    ("l1_torus-length", lambda: np_norm_l1_torus([1, 2], [1], 1e-6), LengthMismatch),
    # finite models
    ("closed_form-nan-site", lambda: np_norm_closed_form(alg(), [NAN, 2], [1, 1]),
     DomainViolation),
    ("closed_form-inf-target", lambda: np_norm_closed_form(alg(), [1, 2], [INF, 1]),
     DomainViolation),
    ("closed_form-non-integer", lambda: np_norm_closed_form(alg(), [1.5, 2], [1, 1]),
     DomainViolation),
    ("closed_form-duplicate", lambda: np_norm_closed_form(alg(), [1, 1], [1, 1]),
     DuplicateSite),
    ("closed_form-length", lambda: np_norm_closed_form(alg(), [1, 2], [1]), LengthMismatch),
    ("generic-nan-site", lambda: np_norm_generic(alg(), [NAN, 2], [1, 1]), DomainViolation),
    ("generic-inf-target", lambda: np_norm_generic(alg(), [1, 2], [INF, 1]),
     DomainViolation),
    ("generic-non-integer", lambda: np_norm_generic(alg(), [1.5, 2], [1, 1]),
     DomainViolation),
    ("generic-duplicate", lambda: np_norm_generic(alg(), [1, 1], [1, 1]), DuplicateSite),
    ("generic-length", lambda: np_norm_generic(alg(), [1, 2], [1]), LengthMismatch),
    ("algebra-nan-weight",
     lambda: FiniteAlgebra(2, "weighted_sup", weights=[NAN, 1]), DomainViolation),
    ("algebra-inf-weight",
     lambda: FiniteAlgebra(2, "weighted_l1", weights=[1, INF]), DomainViolation),
    ("algebra-nan-p", lambda: FiniteAlgebra(2, "lp", p=NAN), DomainViolation),
    ("algebra-inf-p", lambda: FiniteAlgebra(2, "lp", p=INF), DomainViolation),
    ("algebra-non-integer-dimension", lambda: FiniteAlgebra(2.7, "weighted_sup"),
     DomainViolation),
    ("algebra-nan-dimension", lambda: FiniteAlgebra(NAN, "weighted_sup"), DomainViolation),
    ("scattered-1d-basis",
     lambda: scattered_contradiction_check(np.array([1.0, 3.0])), DomainViolation),
    # Gleason parts
    ("distance_hardy-nan-site", lambda: gleason_distance_hardy(NAN, 0.5), DomainViolation),
    ("distance_hardy-duplicate", lambda: gleason_distance_hardy(0.3, 0.3), DuplicateSite),
    ("distance_finite-non-integer",
     lambda: gleason_distance_finite(alg(), 1.5, 2), DomainViolation),
    ("distance_finite-duplicate", lambda: gleason_distance_finite(alg(), 1, 1),
     DuplicateSite),
    ("part_partition-nan-site", lambda: part_partition("hardy", [NAN, 0.5]),
     DomainViolation),
    ("part_partition-duplicate", lambda: part_partition("hardy", [0.3, 0.3]),
     DuplicateSite),
    ("part_partition-non-integer", lambda: part_partition(alg(), [1.5, 2]),
     DomainViolation),
    ("part_partition-finite-duplicate", lambda: part_partition(alg(), [1, 1]),
     DuplicateSite),
    ("trivial_parts-nan-site", lambda: certify_trivial_parts("hardy", [NAN, 0.5]),
     DomainViolation),
    ("trivial_parts-non-integer", lambda: certify_trivial_parts(alg(), [1.5, 2]),
     DomainViolation),
    ("trivial_parts-duplicate", lambda: certify_trivial_parts(alg(), [1, 1]),
     DuplicateSite),
    # kernels
    ("smoothing_chain-nan-site", lambda: smoothing_chain(unit_point_mass(), [NAN, 2]),
     DomainViolation),
    ("smoothing_chain-non-integer",
     lambda: smoothing_chain(unit_point_mass(), [1.5, 2]), DomainViolation),
    ("smoothing_chain-duplicate", lambda: smoothing_chain(unit_point_mass(), [2, 2]),
     DuplicateSite),
    ("fourier-non-integer", lambda: unit_point_mass(0.5).fourier([1.5]), DomainViolation),
    ("kernel_coeffs-non-integer-order", lambda: kernel_coeffs("fejer", 2.5), DomainViolation),
    ("kernel_coeffs-bool-order", lambda: kernel_coeffs("dlvp", True), DomainViolation),
    ("coeff-non-integer", lambda: kernel_coeffs("dlvp", 2).coeff(1.5), DomainViolation),
    ("coeff-bool", lambda: kernel_coeffs("dlvp", 2).coeff(True), DomainViolation),
    ("kernel_l1_norm-non-integer-order", lambda: kernel_l1_norm(2.5), DomainViolation),
    ("convolve-non-integer-grid",
     lambda: convolve(unit_point_mass(), kernel_coeffs("fejer", 2), 100.5), DomainViolation),
    ("smoothing_chain-non-integer-order",
     lambda: smoothing_chain(unit_point_mass(), [0, 1], orders=[2.5, 4]), DomainViolation),
    # problem dispatch
    ("compute-hardy-nan-site",
     lambda: compute_np_norm(problem("hardy", "disc_point", [NAN, 0.5], [1, 2])),
     DomainViolation),
    ("compute-hardy-inf-target",
     lambda: compute_np_norm(problem("hardy", "disc_point", [0, 0.5], [INF, 1])),
     DomainViolation),
    ("compute-finite-nan-target",
     lambda: compute_np_norm(problem("finite_sup", "coordinate_index", [1, 2], [NAN, 1],
                                     dimension=3)),
     DomainViolation),
    ("compute-finite-nan-weight",
     lambda: compute_np_norm(problem("finite_sup", "coordinate_index", [1, 2], [1, 1],
                                     weights=[NAN, 1])),
     DomainViolation),
]


@pytest.mark.parametrize("call,expected", [pytest.param(c, e, id=i) for i, c, e in ROWS])
def test_bad_input_raises_its_class(call, expected, deadline):
    with deadline(1.0), pytest.raises(expected):
        call()


def write(tmp_path, doc):
    path = tmp_path / "p.json"
    path.write_text(json.dumps(doc))  # NaN is written as the JSON extension NaN
    return str(path)


def test_compute_nan_target_exits_2(tmp_path, capsys):
    path = write(tmp_path, {"backend": "analytic_wiener", "sites": [0.0, 0.5],
                            "targets": [NAN, 1.0]})
    assert main(["compute", path]) == 2
    assert "not finite" in capsys.readouterr().err


def test_compute_nan_weight_exits_2(tmp_path, capsys):
    path = write(tmp_path, {"backend": "finite_sup", "sites": [1, 2], "targets": [1, 1],
                            "backend_params": {"weights": [NAN, 1]}})
    assert main(["compute", path]) == 2
    assert "not finite" in capsys.readouterr().err


def test_gleason_float_site_exits_2(tmp_path, capsys):
    path = write(tmp_path, {"backend": "finite_sup", "sites": [1.7, 2],
                            "backend_params": {"weights": [1, 1]}})
    assert main(["gleason", path]) == 2
    assert "sites[0]" in capsys.readouterr().err
