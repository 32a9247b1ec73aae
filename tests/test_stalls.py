"""Every stall carries its bracket.

``core.make_result`` owns the verdict: a bracket wider than its tolerance
raises SolverStall with the result in ``partial``, its certificate that of
the last round plus a ``note`` saying why it did not close.  One case per
stall site that a test can reach quickly.
"""

import pytest

from picknorm import (
    FiniteAlgebra,
    NormResult,
    SolverStall,
    TailBoundFailure,
    np_norm_analytic_wiener,
    np_norm_generic,
    np_norm_hardy,
    np_norm_l1_torus,
    np_norm_wiener,
)

CASES = [
    # one ulp of (2 + sqrt(3)) * 1e8 exceeds the tolerance
    ("hardy-adjacent-doubles", SolverStall, 1e-9,
     lambda: np_norm_hardy([0, 0.5], [1e8, -1e8], 1e-9)),
    # a site on the unit circle: the dual tail cannot certify above the floor
    ("analytic-boundary", TailBoundFailure, 1e-6,
     lambda: np_norm_analytic_wiener([1, -1], [1, 1j], 1e-6)),
    # incommensurate angles: the lower end is the sup floor
    ("wiener-incommensurate", SolverStall, 1e-9,
     lambda: np_norm_wiener([0.0, 1.0], [1.0, -1.0], 1e-9)),
    # certifying the first round's gap would need a grid beyond 2^25 points
    # (three sites: a two-site torus problem has an exact answer)
    ("torus-grid-cap", SolverStall, 1e-9,
     lambda: np_norm_l1_torus([3, 5, 1], [-0.5 + 1.59j, 0.33 - 1.19j, -0.61 + 0.35j],
                              1e-9)),
    # floor_mix generic draws 261 and 336 (seed 1): the cut loop stops short
    ("generic-cut-loop-261", SolverStall, 1e-10,
     lambda: np_norm_generic(FiniteAlgebra(1, "weighted_sup", weights=[2.392887468465484]),
                             [1], [0.13078939180531735 + 0.31564991244206475j], 1e-10)),
    ("generic-cut-loop-336", SolverStall, 1e-10,
     lambda: np_norm_generic(FiniteAlgebra(1, "weighted_sup", weights=[2.3534050456640845]),
                             [1], [-0.879303747035218 + 2.122614099088915j], 1e-10)),
]


@pytest.mark.parametrize("expected,tolerance,call",
                         [pytest.param(e, t, c, id=i) for i, e, t, c in CASES])
def test_stall_carries_its_bracket(expected, tolerance, call):
    with pytest.raises(expected) as info:
        call()
    assert isinstance(info.value, SolverStall)
    partial = info.value.partial
    assert isinstance(partial, NormResult)
    assert partial.lower <= partial.upper
    assert partial.upper - partial.lower > tolerance
    assert partial.certificate["note"]
    assert partial.certificate["note"] in str(info.value)
