"""Gleason-part diagnostics: dual distances between multiplicative
functionals, part partitions, and the trivial-part consistency check.

Two functionals lie in the same part when ||phi - psi|| < 2 in the dual
norm; the distance never exceeds 2.  On the disc backend the distance
between point evaluations is a supremum over the unit ball of bounded
analytic functions, attained on degree-one inner functions; on the finite
backends it is sup{|x_i - x_j| : ||x|| <= 1}, a convex maximum computed
exactly (the ball is balanced, so one support direction suffices).

The consistency check mirrors the norm-one interpolation argument: if
targets (1, -1) can be interpolated with norm arbitrarily close to 1, then
||phi - psi|| >= 2/norm -> 2, so the pair cannot share a part.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _lp
from .core import DomainViolation, SearchStall
from .finitemodel import FiniteAlgebra, np_norm_closed_form, np_infty_test
from .hardy import is_feasible, np_norm_hardy


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


def _mobius(c: complex, z: complex) -> complex:
    return (z - c) / (1.0 - np.conj(c) * z)


def _pair_gap(c: complex, lam1: complex, lam2: complex) -> float:
    return abs(_mobius(c, lam1) - _mobius(c, lam2))


def gleason_distance_hardy(lam1: complex, lam2: complex,
                           tolerance: float = 1e-6) -> tuple[float, float]:
    """Certified interval for ||phi_lam1 - phi_lam2|| on the disc backend.

    Lower bound: maximum of |f(lam1) - f(lam2)| over unimodular multiples of
    degree-one disc automorphisms (the unimodular factor drops out of the
    absolute difference), found on a polar grid over the automorphism
    parameter and sharpened by simplex refinement.  Upper bound: 2, tightened
    to lower + tolerance when inflating the achieved value pair by
    (1 + tolerance) makes the two-point interpolation body infeasible at
    level 1 (the pair sits on the boundary, so no unit-ball function beats
    it in that direction).
    """
    lam1 = complex(lam1)
    lam2 = complex(lam2)
    if abs(lam1) >= 1 or abs(lam2) >= 1:
        raise DomainViolation("sites must lie strictly inside the disc")
    if lam1 == lam2:
        raise DomainViolation("sites must be distinct")

    radii = (np.arange(64) + 0.5) / 64.0 * 0.999
    angles = 2 * np.pi * np.arange(64) / 64.0
    best_c = 0.0 + 0.0j
    best = -1.0
    for r in radii:
        cs = r * np.exp(1j * angles)
        vals = np.abs((lam1 - cs) / (1.0 - np.conj(cs) * lam1)
                      - (lam2 - cs) / (1.0 - np.conj(cs) * lam2))
        j = int(np.argmax(vals))
        if vals[j] > best:
            best = float(vals[j])
            best_c = complex(cs[j])

    from scipy.optimize import minimize

    def neg_gap(v):
        c = complex(v[0], v[1])
        if abs(c) >= 1.0:
            return 0.0
        return -_pair_gap(c, lam1, lam2)

    res = minimize(neg_gap, np.array([best_c.real, best_c.imag]),
                   method="Nelder-Mead",
                   options={"maxiter": 200, "xatol": 1e-12, "fatol": 1e-14})
    refined = -float(res.fun)
    if refined > best:
        best = refined
        best_c = complex(res.x[0], res.x[1])

    lower = best
    upper = 2.0
    f1 = _mobius(best_c, lam1)
    f2 = _mobius(best_c, lam2)
    scale = 1.0 + tolerance
    verdict = is_feasible([lam1, lam2], [scale * f1, scale * f2], 1.0)
    if not verdict.feasible:
        upper = min(2.0, lower + tolerance)
    return (lower, upper)


def gleason_distance_finite(alg: FiniteAlgebra, i: int, j: int) -> tuple[float, float]:
    """Certified interval for sup{|x_i - x_j| : ||x|| <= 1} on a finite model.

    Full C^n has closed forms (1/w_i + 1/w_j for weighted sup,
    max(1/w_i, 1/w_j) for weighted l1, 2^{1-1/p} for lp); subalgebras run a
    cut LP whose relaxation value upper-bounds and whose rescaled feasible
    point lower-bounds the supremum.
    """
    if i == j:
        raise DomainViolation("need two distinct coordinates")
    if not (1 <= i <= alg.dimension and 1 <= j <= alg.dimension):
        raise DomainViolation("coordinate index outside 1..n")
    if alg.basis is None:
        w = alg.weights
        if alg.norm_kind == "weighted_sup":
            d = 1.0 / w[i - 1] + 1.0 / w[j - 1]
        elif alg.norm_kind == "weighted_l1":
            d = max(1.0 / w[i - 1], 1.0 / w[j - 1])
        else:
            q = math.inf if alg.p == 1.0 else alg.p / (alg.p - 1.0)
            d = 2.0 if q == math.inf else 2.0 ** (1.0 / q)
        return (d, d)
    return _distance_lp(alg, i, j)


def _distance_lp(alg: FiniteAlgebra, i: int, j: int) -> tuple[float, float]:
    """max Re(x_i - x_j) over the subalgebra unit ball (balanced, so the
    phase of the functional is immaterial)."""
    if alg.norm_kind == "lp" and alg.p != 1.0:
        return _distance_smooth(alg, i, j)
    B = alg.basis
    m, n = B.shape
    w = alg.weights
    is_sup = alg.norm_kind == "weighted_sup"
    nv = 2 * m + n
    obj = np.zeros(nv)
    # x = B^T u; maximize Re(x_i - x_j)
    d_row = B.T[i - 1, :] - B.T[j - 1, :]
    obj[:m] = -d_row.real
    obj[m:2 * m] = d_row.imag
    if is_sup:
        A_ub = np.zeros((n, nv))
        A_ub[np.arange(n), 2 * m + np.arange(n)] = w
    else:
        A_ub = np.zeros((1, nv))
        A_ub[0, 2 * m:] = w
    bounds = [(None, None)] * (2 * m) + [(0, None)] * n
    cut = _lp.CutLP(m, obj, bounds, M=B.T, A_ub=A_ub, b_ub=np.ones(len(A_ub)))

    lower = 0.0
    upper = 2.0
    for _ in range(40):
        u, res = cut.solve()
        x = cut.values(u)
        upper = -float(res.fun)  # outer relaxation of the ball
        nx = alg.norm(x)
        if nx > 0:
            lower = max(lower, float(abs(x[i - 1] - x[j - 1])) / nx)
        if upper - lower <= 1e-9 * max(1.0, upper):
            break
        mags = np.hypot(x.real, x.imag)
        if not cut.add_cuts((mags > res.x[2 * m:] + 1e-13) & (mags > 1e-15), x):
            break
    return (lower, min(upper, 2.0))


def _distance_smooth(alg: FiniteAlgebra, i: int, j: int) -> tuple[float, float]:
    """lp subalgebra distance: maximize |x_i - x_j| / ||x||_p over the span."""
    from scipy.optimize import minimize

    B = alg.basis
    m = B.shape[0]
    p = alg.p

    def ratio(v):
        u = v[:m] + 1j * v[m:]
        x = B.T @ u
        nx = float(np.sum(np.abs(x) ** p) ** (1.0 / p))
        if nx < 1e-300:
            return 0.0
        return -abs(x[i - 1] - x[j - 1]) / nx

    best = 0.0
    for seed in range(4):
        rng = np.random.default_rng(seed)
        v0 = rng.standard_normal(2 * m)
        res = minimize(ratio, v0, method="Nelder-Mead",
                       options={"maxiter": 400, "fatol": 1e-13})
        best = max(best, -float(res.fun))
    # smooth maximization over a compact ball: report the found value with a
    # one-ulp-style slack as the interval
    return (best, min(2.0, best * (1.0 + 1e-7) + 1e-9))


def certify_trivial_parts(backend, sites, tolerance: float = 1e-9) -> dict:
    """Two-point interpolation of (1, -1) at norm 1 certifies distance 2.

    For every site pair, computes the interpolation norm of targets
    (1, -1); when it is within ``tolerance`` of 1 (the sup value), the
    proof inequality ||phi - psi|| >= 2/norm certifies the pair lies in
    distinct parts.  The report passes iff backends whose every
    interpolation norm is the sup norm get all pairs certified, and no
    certification is ever claimed from a norm bounded away from 1.
    """
    pairs = []
    if isinstance(backend, FiniteAlgebra):
        verdict = np_infty_test(backend, sample_budget=64)
        claimed = verdict.is_np_infty
        idx = [int(s) for s in sites]
        for u in range(len(idx)):
            for v in range(u + 1, len(idx)):
                r = np_norm_closed_form(backend, [idx[u], idx[v]], [1.0, -1.0])
                np_val = r.upper
                certified = np_val <= 1.0 + tolerance
                pairs.append({
                    "pair": (idx[u], idx[v]),
                    "np_value": float(np_val),
                    "certified_distance_lower": 2.0 / np_val if certified else None,
                    "trivial_certified": bool(certified),
                })
    else:
        if backend != "hardy":
            raise DomainViolation(f"unsupported backend {backend!r}")
        claimed = False  # distinct disc points always share the interior part
        lams = [complex(s) for s in sites]
        for u in range(len(lams)):
            for v in range(u + 1, len(lams)):
                r = np_norm_hardy([lams[u], lams[v]], [1.0, -1.0],
                                  max(tolerance, 1e-9))
                np_val = r.upper
                certified = np_val <= 1.0 + tolerance
                pairs.append({
                    "pair": (lams[u], lams[v]),
                    "np_value": float(np_val),
                    "certified_distance_lower": 2.0 / np_val if certified else None,
                    "trivial_certified": bool(certified),
                })

    all_certified = all(p["trivial_certified"] for p in pairs)
    consistent = (not claimed) or all_certified
    return {
        "claimed_np_infty": bool(claimed),
        "pairs": pairs,
        "all_pairs_certified_trivial": bool(all_certified),
        "consistent": bool(consistent),
    }


def part_partition(backend, sites, part_slack: float = 1e-6,
                   tolerance: float = 1e-6) -> GleasonReport:
    """Distance matrix plus the induced part partition.

    Same-part edges need the certified upper bound below 2 - part_slack
    (safe direction for the strict inequality); distance 2 needs the lower
    bound at or above it.  Straddling intervals are undecided and never
    merge groups; the partition is the transitive closure of the decided
    same-part edges.
    """
    sites = tuple(sites)
    n = len(sites)
    if n < 2:
        raise DomainViolation("need at least two sites")

    dist = [[(0.0, 0.0) for _ in range(n)] for _ in range(n)]
    for u in range(n):
        for v in range(u + 1, n):
            if isinstance(backend, FiniteAlgebra):
                iv = gleason_distance_finite(backend, int(sites[u]), int(sites[v]))
            elif backend == "hardy":
                iv = gleason_distance_hardy(sites[u], sites[v], tolerance)
            else:
                raise DomainViolation(f"unsupported backend {backend!r}")
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
