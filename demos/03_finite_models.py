"""Finite model algebras: closed forms, the sup-norm property, annihilators.

On C^n with the pointwise product, interpolation norms have closed forms
(free coordinates go to zero), and so does every subalgebra, since it is
spanned by the indicators of disjoint coordinate blocks.  That makes the
finite models a testbed: a generic convex solver is cross-checked against
the closed forms, the "every interpolation norm is a sup norm" property is
decided exactly, and the Hahn-Banach annihilator argument is played out at
finite scale.
"""

import numpy as np

from picknorm import InfeasibleCoset
from picknorm.finitemodel import (
    FiniteAlgebra,
    annihilating_functional,
    np_infty_test,
    np_norm_closed_form,
    np_norm_generic,
    scattered_contradiction_check,
)

## Closed form versus the generic solver
alg = FiniteAlgebra(3, "weighted_l1", weights=[1.0, 1.5, 2.0])
cf = np_norm_closed_form(alg, [1, 3], [1.0, -2.0])
g = np_norm_generic(alg, [1, 3], [1.0, -2.0], tolerance=1e-10)
print(f"weighted l1 closed form {cf.upper:.12f}, generic {g.upper:.12f}")

## A subalgebra: the span of (1, 1, 0) and (0, 0, 1) has blocks {1, 2} and
## {3}, so interpolating a at site 1 costs (w_1 + w_2)|a| in weighted l1
sub = FiniteAlgebra(3, "weighted_l1", weights=[1.0, 1.5, 2.0],
                    basis=[[1, 1, 0], [0, 0, 1]])
cf = np_norm_closed_form(sub, [1], [1.0])
g = np_norm_generic(sub, [1], [1.0], tolerance=1e-10)
print(f"subalgebra closed form {cf.upper:.12f}, generic {g.upper:.12f}")

## Unit-weight sup norm: every interpolation norm equals the sup norm
v = np_infty_test(FiniteAlgebra(4, "weighted_sup"))
print(f"\nunit-weight sup: sup-property = {v.is_np_infty}")

## Any l1-type or weighted norm has a witness on one or two sites
for alg in (FiniteAlgebra(2, "weighted_l1"),
            FiniteAlgebra(2, "weighted_sup", weights=[2, 1]),
            FiniteAlgebra(2, "lp", p=3.0)):
    v = np_infty_test(alg)
    w = v.witness
    print(f"{alg!r}: witness subset {w['subset']} targets {w['targets']} "
          f"norm {w['np_value']:.6f} > sup {w['sup_value']:.6f}")

## Subalgebras can fail to interpolate at all
diag = FiniteAlgebra(2, "weighted_sup", basis=[[1, 1]])
try:
    np_norm_closed_form(diag, [1, 2], [1, -1])
except InfeasibleCoset as exc:
    print(f"\ndiagonal subalgebra vs targets (1,-1): {type(exc).__name__}")

## The annihilator probe: a proper subspace always kills the sign pattern
w3 = np.exp(2j * np.pi / 3)
basis = np.array([[1, 1, 1], [1, w3, w3 ** 2]])
mu = annihilating_functional(basis)
print(f"annihilator of two characters: {np.round(mu, 4)}")
rep = scattered_contradiction_check(basis)
print(f"probe branch: {rep['branch']} "
      f"(head {rep['head_mass']:.3f}, pairing bound {rep['pairing_lower_bound']:.3f})")

rep = scattered_contradiction_check(np.array([[1.0, 3.0]]))
print(f"span((1,3)) probe branch: {rep['branch']} "
      f"(minimal interpolant norm {rep['np_value']:.3f} > 2)")
