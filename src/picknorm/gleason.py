"""Gleason-part diagnostics: dual distances between multiplicative
functionals, part partitions, and the trivial-part consistency check.

Two functionals lie in the same part when ||phi - psi|| < 2 in the dual
norm; the distance never exceeds 2.  Every distance here has a closed form.

On the disc backend the distance between the evaluations at l1 and l2 is the
supremum of |f(l1) - f(l2)| over the unit ball of bounded analytic
functions, attained by a disc automorphism:

    d(rho) = 2 rho / (1 + sqrt((1 - rho)(1 + rho))),
    rho = |l1 - l2| / |1 - conj(l1) l2|  (the pseudo-hyperbolic distance).

It is reported as an interval that rounding cannot escape: rho is widened
by the relative bound 8u(1 + |l1||l2| / |1 - conj(l1) l2|), with
u = 2^-53, and d, increasing in rho and free of cancellation, is evaluated
at both ends and widened by 8u more.

On a finite model the coordinates fall into the blocks that span the
algebra (see ``finitemodel``).  For coordinates in blocks b != c it is

    1/W_b + 1/W_c                    weighted sup, W_b = max_{i in b} w_i
    max(1/S_b, 1/S_c)                weighted l1,  S_b = sum_{i in b} w_i
    (|b|^(1-q) + |c|^(1-q))^(1/q)    lp, q = p/(p-1); max(1/|b|, 1/|c|) at p = 1

and it is 0 inside one block.

The consistency check mirrors the norm-one interpolation argument: if
targets (1, -1) can be interpolated with norm arbitrarily close to 1, then
||phi - psi|| >= 2/norm -> 2, so the pair cannot share a part.  On the disc
the inequality is an equality: the norm of (1, -1) is exactly
2/d(rho) = (1 + sqrt(1 - rho^2)) / rho, so it is read off the distance.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .core import DomainViolation, check_sites
from .finitemodel import (
    FiniteAlgebra,
    _blocks,
    np_infty_test,
    np_norm_closed_form,
)
# is_feasible is unused here but stays bound: the benchmark's tracer patches
# it in every module (perfbench/test_counts.py::test_tracer_restores_the_library)
from .hardy import is_feasible  # noqa: F401

_U = 2.0 ** -53  # unit roundoff of IEEE double precision


@dataclass(frozen=True)
class GleasonReport:
    """Pairwise certified distance intervals and the induced partition.

    ``distances[i][j]`` is a (lower, upper) interval in [0, 2]; the
    partition groups sites by the transitive closure of the same-part
    relation (distance upper bound < 2 - part_slack).  Pairs whose interval
    straddles the threshold are listed as undecided and never merge groups.
    """

    sites: tuple
    distances: tuple
    partition: tuple
    undecided: tuple
    part_slack: float


def _disc_distance(rho: float) -> float:
    return 2.0 * rho / (1.0 + math.sqrt((1.0 - rho) * (1.0 + rho)))


def gleason_distance_hardy(lam1: complex, lam2: complex,
                           tolerance: float = 1e-6) -> tuple[float, float]:
    """Certified interval for ||phi_lam1 - phi_lam2|| on the disc backend.

    The closed form d(rho) = 2 rho / (1 + sqrt((1 - rho)(1 + rho))) at the
    pseudo-hyperbolic distance rho.  The computed rho (two subtractions, a
    complex product, two moduli and a division) is within the relative
    bound 8u(1 + |lam1||lam2| / |1 - conj(lam1) lam2|) of the true one, with
    u = 2^-53; d is evaluated at both ends of rho widened by that bound,
    then widened by 8u for its own five roundings and capped at 2.  The
    interval is as narrow as this rounding allows, so ``tolerance`` has no
    effect; it stays in the signature for callers that pass it.  The two
    sites pass ``core.check_sites`` for ``hardy``.
    """
    lam1, lam2 = check_sites("hardy", [lam1, lam2]).tolist()

    den = abs(1.0 - lam1.conjugate() * lam2)
    rho = abs(lam1 - lam2) / den
    err = 8.0 * _U * (1.0 + abs(lam1) * abs(lam2) / den)
    lower = _disc_distance(max(0.0, rho * (1.0 - err))) * (1.0 - 8.0 * _U)
    upper = _disc_distance(min(1.0, rho * (1.0 + err))) * (1.0 + 8.0 * _U)
    return (lower, min(2.0, upper))


def gleason_distance_finite(alg: FiniteAlgebra, i: int, j: int) -> tuple[float, float]:
    """Interval for sup{|x_i - x_j| : ||x|| <= 1} on a finite model.

    The block closed form (see the module docstring), evaluated in floating
    point and reported with zero width: 0 inside one block, and for blocks
    b != c 1/W_b + 1/W_c (weighted sup), max(1/S_b, 1/S_c) (weighted l1) or
    (|b|^(1-q) + |c|^(1-q))^(1/q) (lp).  A coordinate outside every block is
    the zero functional, not a character, and is rejected.  The two
    coordinates pass ``core.check_sites``.
    """
    i, j = check_sites(alg.backend, [i, j], alg.dimension).tolist()
    labels = _blocks(alg)
    b, c = labels[i - 1], labels[j - 1]
    if b < 0 or c < 0:
        raise DomainViolation(
            f"coordinate {i if b < 0 else j} vanishes on the span, so it is "
            "not a character")
    if b == c:
        return (0.0, 0.0)
    in_b, in_c = labels == b, labels == c
    w = alg.weights
    if alg.norm_kind == "weighted_sup":
        d = 1.0 / np.max(w[in_b]) + 1.0 / np.max(w[in_c])
    elif alg.norm_kind == "weighted_l1":
        d = max(1.0 / np.sum(w[in_b]), 1.0 / np.sum(w[in_c]))
    else:
        # the l_q norm of (|b|^(-1/p), |c|^(-1/p)), scaled by its larger
        # entry so that large q (p near 1) cannot underflow
        q = math.inf if alg.p == 1.0 else alg.p / (alg.p - 1.0)
        small, big = sorted(float(np.count_nonzero(m)) ** (-1.0 / alg.p)
                            for m in (in_b, in_c))
        d = big * (1.0 + (small / big) ** q) ** (1.0 / q)
    return (float(d), float(d))


def _sites_and_distance(backend, sites):
    """The checked sites and the distance function of ``backend``: a
    FiniteAlgebra or ``"hardy"``, else DomainViolation."""
    if isinstance(backend, FiniteAlgebra):
        sites = check_sites(backend.backend, sites, backend.dimension).tolist()
        return sites, lambda s, t: gleason_distance_finite(backend, s, t)
    if backend == "hardy":
        return check_sites("hardy", sites).tolist(), gleason_distance_hardy
    raise DomainViolation(f"unsupported backend {backend!r}")


def certify_trivial_parts(backend, sites, tolerance: float = 1e-9) -> dict:
    """Two-point interpolation of (1, -1) at norm 1 certifies distance 2.

    For every site pair, computes the interpolation norm of targets
    (1, -1); when it is within ``tolerance`` of 1 (the sup value), the
    proof inequality ||phi - psi|| >= 2/norm certifies the pair lies in
    distinct parts.  The report passes iff backends whose every
    interpolation norm is the sup norm get all pairs certified, and no
    certification is ever claimed from a norm bounded away from 1.  On a
    finite model the norms are the block closed forms; two sites in one
    block are one character, reported with ``same_character`` set, no
    norm, and left out of ``all_pairs_certified_trivial``.  On the disc the
    norm is 2/d, d the lower end of ``gleason_distance_hardy``, rounded up
    by 2u; distinct disc points always share the interior part, so the
    disc claims nothing.  The sites pass ``core.check_sites``.
    """
    sites, distance = _sites_and_distance(backend, sites)
    finite = isinstance(backend, FiniteAlgebra)
    claimed = finite and np_infty_test(backend).is_np_infty

    pairs = []
    for u in range(len(sites)):
        for v in range(u + 1, len(sites)):
            s, t = sites[u], sites[v]
            d_lo, d_hi = distance(s, t)
            if d_hi == 0.0:  # one block: one character
                np_val = None
            elif finite:
                np_val = np_norm_closed_form(backend, [s, t], [1.0, -1.0]).upper
            else:
                np_val = 2.0 / d_lo * (1.0 + 2.0 * _U)
            certified = np_val is not None and np_val <= 1.0 + tolerance
            pairs.append({
                "pair": (s, t),
                "same_character": np_val is None,
                "np_value": None if np_val is None else float(np_val),
                "certified_distance_lower": 2.0 / np_val if certified else None,
                "trivial_certified": bool(certified),
            })

    all_certified = all(p["trivial_certified"] for p in pairs
                        if not p["same_character"])
    consistent = (not claimed) or all_certified
    return {
        "claimed_np_infty": bool(claimed),
        "pairs": pairs,
        "all_pairs_certified_trivial": bool(all_certified),
        "consistent": bool(consistent),
    }


def part_partition(backend, sites, part_slack: float = 1e-6) -> GleasonReport:
    """Distance matrix plus the induced part partition.

    Same-part edges need the certified upper bound below 2 - part_slack
    (safe direction for the strict inequality); distance 2 needs the lower
    bound at or above it.  Straddling intervals are undecided and never
    merge groups; the partition is the transitive closure of the decided
    same-part edges.  The sites pass ``core.check_sites``; the report
    holds the checked values.  ``part_slack`` must be a finite real in
    [0, 2), else DomainViolation.
    """
    if not (isinstance(part_slack, numbers.Real) and not isinstance(part_slack, bool)
            and 0.0 <= part_slack < 2.0):
        raise DomainViolation(f"part_slack must be a real in [0, 2), got {part_slack!r}")
    sites, distance = _sites_and_distance(backend, sites)
    sites = tuple(sites)
    n = len(sites)
    if n < 2:
        raise DomainViolation("need at least two sites")

    dist = [[(0.0, 0.0) for _ in range(n)] for _ in range(n)]
    for u in range(n):
        for v in range(u + 1, n):
            iv = distance(sites[u], sites[v])
            dist[u][v] = iv
            dist[v][u] = iv

    threshold = 2.0 - part_slack
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    undecided = []
    for u in range(n):
        for v in range(u + 1, n):
            lo, hi = dist[u][v]
            if hi < threshold:
                parent[find(u)] = find(v)
            elif lo < threshold:
                undecided.append((u, v))

    groups: dict[int, list[int]] = {}
    for u in range(n):
        groups.setdefault(find(u), []).append(u)
    partition = tuple(tuple(g) for _, g in sorted(groups.items()))
    return GleasonReport(sites=sites,
                         distances=tuple(tuple(row) for row in dist),
                         partition=partition,
                         undecided=tuple(undecided),
                         part_slack=part_slack)
