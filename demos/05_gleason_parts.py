"""Gleason parts: dual distances between evaluation functionals.

Two functionals share a part when their dual distance stays below 2.  On
the disc every interior point shares one part (the distance grows toward 2
only as the points separate hyperbolically); an algebra whose interpolation
norms are all sup norms has only singleton parts, certified here through
norm-one interpolation of (1, -1).

Every distance is a closed form: 2 rho / (1 + sqrt(1 - rho^2)) on the disc,
at the pseudo-hyperbolic distance rho, reported with its rounding bound; on
a finite model, a formula in the weights of the coordinate blocks that span
the algebra.
"""

import numpy as np

from picknorm.finitemodel import FiniteAlgebra
from picknorm.gleason import (
    certify_trivial_parts,
    gleason_distance_finite,
    gleason_distance_hardy,
    part_partition,
)

## Distance ladder on the disc: monotone toward 2, never reaching it; the
## interval's ends are the closed form widened by its rounding bound
print("lambda2   distance lower   closed form")
for lam2 in (0.3, 0.5, 0.7, 0.9, 0.99):
    lo, hi = gleason_distance_hardy(0.0, lam2, 1e-6)
    closed = 2 * (1 - np.sqrt(1 - lam2 ** 2)) / lam2
    print(f"{lam2:6.2f}   {lo:14.9f}   {closed:11.9f}")

## Three interior points: one part
rep = part_partition("hardy", [0.0, 0.3, 0.6])
print(f"\ndisc sites (0, 0.3, 0.6): partition {rep.partition}")

## Finite models: the norm decides the part structure (1/w_1 + 1/w_2 for
## weighted sup, max(1/w_1, 1/w_2) for weighted l1)
for alg, label in ((FiniteAlgebra(2, "weighted_sup"), "unit-weight sup"),
                   (FiniteAlgebra(2, "weighted_l1"), "unit-weight l1"),
                   (FiniteAlgebra(2, "weighted_sup", weights=[2, 1]), "sup w=(2,1)")):
    lo, hi = gleason_distance_finite(alg, 1, 2)
    rep = part_partition(alg, [1, 2])
    print(f"{label}: distance [{lo:.6f}, {hi:.6f}], partition {rep.partition}")

## Norm-one interpolation of (1,-1) certifies singleton parts
rep = certify_trivial_parts(FiniteAlgebra(3, "weighted_sup"), [1, 2, 3])
print(f"\nunit sup: all pairs certified trivial = "
      f"{rep['all_pairs_certified_trivial']}")

## A subalgebra: on the span of (1, 1, 0) and (0, 0, 1), coordinates 1 and 2
## are one character (distance 0, one part), and coordinate 3 is apart
sub = FiniteAlgebra(3, "weighted_sup", basis=[[1, 1, 0], [0, 0, 1]])
rep = part_partition(sub, [1, 2, 3])
print(f"block subalgebra: d(1,2) = {rep.distances[0][1]}, "
      f"d(1,3) = {rep.distances[0][2]}, partition {rep.partition}")
rep = certify_trivial_parts(sub, [1, 2, 3])
print("  same character: "
      f"{[p['pair'] for p in rep['pairs'] if p['same_character']]}, other pairs "
      f"certified trivial = {rep['all_pairs_certified_trivial']}")

rep = certify_trivial_parts("hardy", [0.0, 0.5])
print(f"disc pair (0, 1/2): sign-pair norm {rep['pairs'][0]['np_value']:.6f} "
      f"> 1, no certification, shared part stands")
