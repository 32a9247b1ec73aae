"""First solve on every backend, from a fresh interpreter.

``run.py`` times this script from process start to exit as ``setup_s``: the
interpreter start, the library import, scipy's lazy imports and one small
solve per backend, plus the generic finite solver and a Gleason distance.
``run.py`` also calls ``first_solves`` in its own process to warm up before
the timed loop.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from picknorm import (FiniteAlgebra, InterpolationProblem, Site,  # noqa: E402
                      compute_np_norm, gleason_distance_hardy, np_norm_generic)


def first_solves() -> None:
    two = (1.0 + 0j, 0.5j)
    for backend, kind, sites, tol in (
            ("hardy", "disc_point", (0j, 0.5 + 0j), 1e-6),
            ("analytic_wiener", "disc_point", (0j, 0.5 + 0j), 5e-2),
            ("wiener", "circle_angle", (0.0, 3.141592653589793), 1e-1),
            ("l1_torus", "integer_character", (0, 2), 0.5)):
        compute_np_norm(InterpolationProblem(
            backend, tuple(Site(kind, s) for s in sites), two, tol))
    for backend, params in (("finite_sup", {"weights": [1.0, 2.0, 1.5]}),
                            ("finite_l1", {"weights": [1.0, 2.0, 1.5]}),
                            ("finite_lp", {"dimension": 3, "p": 2.5})):
        compute_np_norm(InterpolationProblem(
            backend, (Site("coordinate_index", 1), Site("coordinate_index", 3)),
            two, 1e-9, params))
    for kind, kw in (("weighted_l1", {"weights": [1.0, 2.0, 1.5]}), ("lp", {"p": 2.5})):
        np_norm_generic(FiniteAlgebra(3, kind, **kw), [1, 3], two, tolerance=1e-10)
    gleason_distance_hardy(0.1 + 0.2j, -0.5 + 0j, 1e-6)


if __name__ == "__main__":
    first_solves()
