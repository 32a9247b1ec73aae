"""Finite model algebras on C^n: closed-form interpolation norms, a generic
convex cross-check, a decision of the "every interpolation norm is the sup
norm" property, and the annihilating-functional contradiction probe.

The model algebra is C^n under pointwise product with one of three norms:
weighted sup (max w_i|x_i|, w_i >= 1), weighted l1 (sum w_i|x_i|, w_i >= 1),
or plain lp (p >= 1).  Coordinate functionals are the characters.  An
optional basis restricts to a subalgebra, checked for multiplicative
closure.

Every multiplicatively closed subspace of C^n is spanned by the indicators
of disjoint coordinate blocks (the idempotents of C^n are 0/1 vectors), so
an element is one value per block and coordinates outside every block
vanish.  Interpolation norms therefore have closed forms on every
subalgebra: each constrained block takes its target and free blocks are
zero, giving

    max_b W_b |a_b|               weighted sup, W_b = max_{i in b} w_i
    sum_b S_b |a_b|               weighted l1,  S_b = sum_{i in b} w_i
    (sum_b |b| |a_b|^p)^(1/p)     lp

Full C^n is the case of singleton blocks.  Interpolation fails
(InfeasibleCoset) when two sites of one block get different targets, or a
site outside every block a nonzero one.  The generic solver
``np_norm_generic`` is the reference oracle for these forms, and the only
solver for plain subspaces (the annihilator probe).

The same forms decide the sup-norm property (every interpolation norm
equals the sup norm max_b |a_b|) with at most two sites.  A tuple whose
norm exceeds its sup norm exists exactly when one site with target 1
already costs more than 1 (some W_b, S_b or |b| above 1), or, in the l1
and lp kinds, two sites lie in different blocks: targets (1, 1) then cost
S_b + S_c >= 2 or (|b| + |c|)^(1/p) > 1.  In the sup kind a pair costs
max(W_b, W_c), no more than its two sites alone.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import _lp
from .core import (
    FINITE_NORM_KINDS,
    DomainViolation,
    InfeasibleCoset,
    NormResult,
    SolverStall,
    check_dimension,
    check_sites,
    check_targets,
    check_tolerance,
    make_result,
    sup_lower_bound,
)

NORM_KINDS = ("weighted_sup", "weighted_l1", "lp")


class FiniteAlgebra:
    """C^n (or a multiplicatively closed subspace of it) with a chosen norm.

    weighted_sup and weighted_l1 require all weights >= 1 so the norm is
    submultiplicative under the pointwise product; lp requires p >= 1 and
    unit weights.  A basis, when given, must span an algebra by ``_blocks``'
    rule (as many distinct coordinate columns as its rank) — an unclosed
    "basis" would silently test nothing.  Subalgebras of C^n are automatically
    semisimple (no nilpotents under pointwise product).  ``backend`` names
    the finite backend of the norm kind, whose site rule
    (``core.check_sites``) the solvers apply to coordinate indices.
    """

    def __init__(self, dimension: int, norm_kind: str, weights=None,
                 p: float | None = None, basis=None):
        if norm_kind not in NORM_KINDS:
            raise DomainViolation(f"unknown norm kind {norm_kind!r}")
        self.dimension = check_dimension(dimension)
        self.norm_kind = norm_kind
        self.backend = next(b for b, k in FINITE_NORM_KINDS.items() if k == norm_kind)

        if weights is None:
            w = np.ones(self.dimension)
        else:
            w = np.asarray(weights, dtype=float).ravel()
            if len(w) != self.dimension:
                raise DomainViolation("weights length must equal dimension")
            bad = np.flatnonzero(~np.isfinite(w))
            if len(bad):
                raise DomainViolation(f"weight {bad[0]} = {float(w[bad[0]])} is not finite")
        if norm_kind in ("weighted_sup", "weighted_l1"):
            if np.any(w < 1.0):
                raise DomainViolation(
                    f"{norm_kind} needs weights >= 1 (submultiplicativity)")
            self.p = None
        else:
            if p is None or not 1.0 <= p < math.inf:
                raise DomainViolation(f"lp norm needs a finite exponent p >= 1, got {p!r}")
            if np.any(w != 1.0):
                raise DomainViolation("lp norm uses unit weights")
            self.p = float(p)
        self.weights = w

        if basis is None:
            self.basis = None
        else:
            self.basis = _basis_rows(basis, self.dimension)
            _blocks(self)

    @classmethod
    def subspace(cls, basis, dimension=None, norm_kind: str = "weighted_sup",
                 weights=None, p: float | None = None) -> "FiniteAlgebra":
        """A plain subspace (closure check skipped) for annihilator probes."""
        B = _basis_rows(basis)
        alg = cls(B.shape[1] if dimension is None else dimension, norm_kind,
                  weights=weights, p=p)
        alg.basis = _basis_rows(B, alg.dimension)
        return alg

    def norm(self, x) -> float:
        x = np.asarray(x, dtype=complex).ravel()
        if self.norm_kind == "weighted_sup":
            return float(np.max(self.weights * np.abs(x)))
        if self.norm_kind == "weighted_l1":
            return float(np.sum(self.weights * np.abs(x)))
        return float(np.sum(np.abs(x) ** self.p) ** (1.0 / self.p))

    def __repr__(self):
        extra = f", p={self.p}" if self.norm_kind == "lp" else ""
        sub = ", subalgebra" if self.basis is not None else ""
        return f"FiniteAlgebra(n={self.dimension}, {self.norm_kind}{extra}{sub})"


def _basis_rows(basis, dimension: int | None = None) -> np.ndarray:
    """A basis as a 2-D complex array of vectors, each of length
    ``dimension`` when one is given."""
    B = np.asarray(basis, dtype=complex)
    if B.ndim != 2 or dimension not in (None, B.shape[1]):
        raise DomainViolation("basis must be a list of vectors of length = dimension")
    return B


@dataclass(frozen=True)
class NPInftyVerdict:
    """Whether every interpolation norm is the sup norm, and if not a tuple
    of at most two sites whose norm exceeds its sup norm."""

    is_np_infty: bool
    witness: dict | None


def _blocks(alg: FiniteAlgebra) -> np.ndarray:
    """Block label of every coordinate, -1 for one outside every block.

    The blocks are the classes of equal nonzero basis columns, compared
    within 1e-12 * max(1, max|B|^2).  A span of block indicators has as
    many blocks as dimensions; when the counts differ, the span is not an
    algebra (not closed under products) and its coordinates are not
    characters.  This is the closure rule the FiniteAlgebra constructor
    applies to a basis.
    """
    if alg.basis is None:
        return np.arange(alg.dimension)
    B = alg.basis
    tol = 1e-12 * max(1.0, float(np.max(np.abs(B)) ** 2))
    labels = np.full(alg.dimension, -1)
    columns = []
    for k in range(alg.dimension):
        col = B[:, k]
        if np.max(np.abs(col)) <= tol:
            continue
        for b, rep in enumerate(columns):
            if np.max(np.abs(col - rep)) <= tol:
                labels[k] = b
                break
        else:
            labels[k] = len(columns)
            columns.append(col)
    rank = np.linalg.matrix_rank(B)
    if len(columns) != rank:
        raise DomainViolation(
            f"the span is not an algebra (not closed under products): "
            f"{len(columns)} distinct coordinate columns against rank {rank}")
    return labels


def np_norm_closed_form(alg: FiniteAlgebra, subset, targets) -> NormResult:
    """Exact interpolation norm on C^n or any subalgebra of it.

    Sites are grouped by coordinate block (see the module docstring): the
    targets of sites in one block must be equal, and a site outside every
    block must have target 0, or InfeasibleCoset is raised.  With a_b the
    target of block b, the value is max_b W_b|a_b| (weighted_sup),
    sum_b S_b|a_b| (weighted_l1) or (sum_b |b| |a_b|^p)^{1/p} (lp), summed
    over the constrained blocks in subset order: a zero-width bracket,
    which ``core.make_result`` closes at tolerance 0.  A plain subspace
    that is not an algebra raises DomainViolation.  The subset and targets
    pass ``core.check_sites`` and ``core.check_targets``.
    """
    idx = check_sites(alg.backend, subset, alg.dimension)
    a = check_targets(targets, len(idx))
    labels = _blocks(alg)
    sel = labels[idx - 1]
    first: dict[int, int] = {}  # block -> position of its first site
    for k, b in enumerate(sel.tolist()):
        if b < 0:
            if a[k] != 0:
                raise InfeasibleCoset(
                    f"coordinate {idx[k]} vanishes on the span but has target {a[k]}")
        elif a[first.setdefault(b, k)] != a[k]:
            raise InfeasibleCoset(
                f"coordinates {idx[first[b]]} and {idx[k]} lie in one block "
                "but have different targets")
    keep = list(first.values())
    in_block = labels == sel[keep][:, None]  # (blocks, n)
    w = np.where(in_block, alg.weights, 0.0)
    ab = np.abs(a[keep])
    if alg.norm_kind == "weighted_sup":
        value = float(np.max(np.max(w, axis=1) * ab)) if keep else 0.0
    elif alg.norm_kind == "weighted_l1":
        value = float(np.sum(np.sum(w, axis=1) * ab))
    else:
        size = np.sum(in_block, axis=1)
        value = float(np.sum(size * ab ** alg.p) ** (1.0 / alg.p))
    floor = sup_lower_bound(a)
    return make_result(value, value, floor,
                       {"method": "closed_form", "free_coordinates": "zero"}, 0, 0.0)


def _coset_parametrization(alg: FiniteAlgebra, idx: np.ndarray, a: np.ndarray):
    """x = x0 + N u over the span, with x_i = a_i enforced; raises
    InfeasibleCoset when the span cannot interpolate."""
    n = alg.dimension
    B = np.eye(n, dtype=complex) if alg.basis is None else alg.basis
    E = B.T[idx - 1, :]  # (s, m): coefficients -> constrained coordinates
    coef0, *_ = np.linalg.lstsq(E, a, rcond=None)
    # one refinement step: a mixed basis leaves a residual of cond(E) * eps
    coef0 += np.linalg.lstsq(E, a - E @ coef0, rcond=None)[0]
    resid = float(np.linalg.norm(E @ coef0 - a))
    if resid > 1e-9 * max(1.0, float(np.max(np.abs(a))) if len(a) else 1.0):
        raise InfeasibleCoset(
            f"subalgebra cannot interpolate the targets (residual {resid:.3e})")
    # null space of E; E can be square or tall and still rank-deficient,
    # when two sites lie in one block
    _, s, vh = np.linalg.svd(E)
    rank = int(np.sum(s > 1e-13 * max(1.0, s[0] if len(s) else 1.0)))
    null = vh[rank:].conj().T
    x0 = B.T @ coef0
    directions = B.T @ null  # (n, d)
    return x0, directions


def np_norm_generic(alg: FiniteAlgebra, subset, targets,
                    tolerance: float = 1e-8) -> NormResult:
    """Minimize the algebra norm over the interpolation coset.

    Polyhedral LP with adaptive modulus cuts for the sup/l1 kinds; the lower
    end is the relaxation's objective as HiGHS reports it, within its 1e-7
    feasibility tolerance rather than certified.  Smooth convex descent plus
    a Hoelder dual bound for lp with p > 1.  The upper end is the evaluated
    norm of the returned interpolant.  When the bracket stays wider than
    ``max(tolerance, 1e-11) * max(1, upper)``, ``core.make_result`` raises
    SolverStall carrying it, its certificate noting why.
    This is the reference oracle for np_norm_closed_form, and the solver for
    plain subspaces, which have no closed form.  Inputs pass
    ``core.check_sites``, ``core.check_targets`` and
    ``core.check_tolerance``.
    """
    check_tolerance(tolerance)
    idx = check_sites(alg.backend, subset, alg.dimension)
    a = check_targets(targets, len(idx))
    floor = sup_lower_bound(a)
    x0, N = _coset_parametrization(alg, idx, a)
    if not np.any(np.abs(a) > 0) and alg.basis is None:
        return make_result(0.0, 0.0, 0.0, {"method": "generic", "note": "zero targets"},
                           0, tolerance)

    if alg.norm_kind in ("weighted_sup", "weighted_l1") or alg.p == 1.0:
        lower, upper, x = _generic_lp(alg, x0, N, tolerance)
        method = "generic_lp"
    else:
        lower, upper, x = _generic_lp_smooth(alg, x0, N)
        method = "generic_descent"
    cert = {"method": method, "minimizer": [[float(v.real), float(v.imag)]
                                            for v in x]}
    return make_result(max(lower, 0.0), upper, floor, cert, 0,
                       max(tolerance, 1e-11) * max(1.0, upper),
                       note="the lower end stopped short of the evaluated minimizer")


def _generic_lp(alg: FiniteAlgebra, x0: np.ndarray, N: np.ndarray,
                tolerance: float):
    """Cut LP for min ||x0 + N u|| in the weighted sup / l1 kinds."""
    n = alg.dimension
    d = N.shape[1]
    w = alg.weights
    is_sup = alg.norm_kind == "weighted_sup"
    # real variables: [Re u (d), Im u (d), t (n)] and, for sup, s appended
    nv = 2 * d + n + (1 if is_sup else 0)
    cost = np.zeros(nv)
    A_ub = b_ub = None
    if is_sup:
        # w_i t_i <= s
        A_ub = np.zeros((n, nv))
        A_ub[np.arange(n), 2 * d + np.arange(n)] = w
        A_ub[:, -1] = -1.0
        b_ub = np.zeros(n)
        cost[-1] = 1.0
    else:
        cost[2 * d:2 * d + n] = w
    bounds = [(None, None)] * (2 * d) + [(0, None)] * (nv - 2 * d)
    cut = _lp.CutLP(d, cost, bounds, M=N, off=x0, A_ub=A_ub, b_ub=b_ub)

    lower = 0.0
    upper = math.inf
    best_x = x0
    for _ in range(40):
        u, res = cut.solve()
        x = cut.values(u)
        lower = float(res.fun)
        val = alg.norm(x)
        if val < upper:
            upper = val
            best_x = x
        if upper - lower <= max(tolerance, 1e-11) * max(1.0, upper):
            break
        mags = np.hypot(x.real, x.imag)
        if not cut.add_cuts((mags > res.x[2 * d:2 * d + n] + 1e-13) & (mags > 1e-15), x):
            break
    return lower, upper, best_x


def _generic_lp_smooth(alg: FiniteAlgebra, x0: np.ndarray, N: np.ndarray):
    """Smooth convex descent for the lp kinds (p > 1), with a Hoelder dual
    bound.

    The Hoelder vector g = |x|^(p-1) e^(i arg x) at the minimizer, projected
    onto ker N^* (least squares), pairs to Re<g, x0> with every point of the
    coset, so Re<g, x0> / ||g||_q bounds every feasible norm from below.
    """
    from scipy.optimize import minimize

    p = alg.p
    d = N.shape[1]

    def unpack(v):
        u = v[:d] + 1j * v[d:]
        return x0 + N @ u

    def fun_grad(v):
        x = unpack(v)
        ax = np.abs(x)
        F = float(np.sum(ax ** p))
        if F == 0.0:
            return 0.0, np.zeros(2 * d)
        val = F ** (1.0 / p)
        g_x = np.zeros_like(x)
        mask = ax > 0
        g_x[mask] = (val ** (1.0 - p)) * (ax[mask] ** (p - 2.0)) * x[mask]
        gu = N.conj().T @ g_x
        return val, np.concatenate([gu.real, gu.imag])

    x = x0
    if d:
        res = minimize(fun_grad, np.zeros(2 * d), jac=True, method="L-BFGS-B",
                       options={"maxiter": 500, "ftol": 1e-15, "gtol": 1e-12})
        x = unpack(res.x)
    upper = alg.norm(x)

    g = np.abs(x) ** (p - 1.0) * np.exp(1j * np.angle(x))
    if d:
        g = g - N @ np.linalg.lstsq(N, g, rcond=None)[0]
    q = p / (p - 1.0)
    gq = float(np.sum(np.abs(g) ** q) ** (1.0 / q))
    lower = float(np.real(np.sum(np.conj(g) * x0))) / gq if gq > 0 else 0.0
    return min(lower, upper), upper, x


def np_infty_test(alg: FiniteAlgebra, tolerance: float = 1e-9) -> NPInftyVerdict:
    """Decide whether every interpolation norm on ``alg`` is the sup norm.

    By the block criterion of the module docstring, only unit targets on
    one or two sites need checking.  The witness is the first in-block
    coordinate whose target 1 costs more than 1 + ``tolerance``, else (in
    the l1 and lp kinds) the first pair of in-block coordinates in
    different blocks whose targets (1, 1) do; each value is
    ``np_norm_closed_form``'s.  ``tolerance`` is the gap allowed at unit
    targets, so a block weight within it of 1 counts as 1.
    """
    labels = _blocks(alg)
    sites = [int(i) + 1 for i in np.flatnonzero(labels >= 0)]
    candidates = ([i] for i in sites)
    if alg.norm_kind != "weighted_sup":
        candidates = itertools.chain(candidates, (
            [i, j] for i, j in itertools.combinations(sites, 2)
            if labels[i - 1] != labels[j - 1]))
    for idx in candidates:
        v = np_norm_closed_form(alg, idx, [1.0] * len(idx)).upper
        if v > 1.0 + tolerance:
            witness = {"subset": idx, "targets": [1 + 0j] * len(idx),
                       "np_value": v, "sup_value": 1.0}
            return NPInftyVerdict(False, witness)
    return NPInftyVerdict(True, None)


def annihilating_functional(basis) -> np.ndarray | None:
    """A unit-mass vector mu with sum_i mu_i x_i = 0 for every basis vector x
    (bilinear pairing), or None when the span is all of C^n.

    Normalized to sum|mu_i| = 1 with the largest entry rotated positive
    real, so results are deterministic.
    """
    B = np.asarray(basis, dtype=complex)
    if B.ndim != 2:
        raise DomainViolation("basis must be a 2-d array of row vectors")
    n = B.shape[1]
    _, s, vh = np.linalg.svd(B)
    tol = 1e-12 * max(1.0, float(s[0]) if len(s) else 1.0)
    rank = int(np.sum(s > tol))
    if rank >= n:
        return None
    mu = vh[rank].conj()  # B @ mu = 0 exactly in the bilinear pairing
    mu = mu / np.sum(np.abs(mu))
    j = int(np.argmax(np.abs(mu)))
    mu = mu / (mu[j] / abs(mu[j]))
    return mu


def scattered_contradiction_check(basis_or_alg, tolerance: float = 1e-9) -> dict:
    """Probe the annihilator dichotomy on a proper subspace of C^n.

    Any nonzero mu annihilating the span is purely atomic here; order its
    entries by modulus, take the smallest head with mass > 2/3, and ask the
    span for an interpolant of the conjugate sign pattern with algebra norm
    <= 2.  Were one to exist, its pairing with mu would be at least
    head - 2*tail > 0, contradicting annihilation — so the probe must land
    in one of the failure branches, and the report states which.
    """
    if isinstance(basis_or_alg, FiniteAlgebra):
        alg = basis_or_alg
        if alg.basis is None:
            return {"branch": "dense", "mu": None,
                    "detail": "full C^n has no annihilating functional"}
    else:
        alg = FiniteAlgebra.subspace(np.asarray(basis_or_alg, dtype=complex))

    mu = annihilating_functional(alg.basis)
    if mu is None:
        return {"branch": "dense", "mu": None,
                "detail": "span is all of C^n; nothing to annihilate it"}

    order = sorted(range(len(mu)), key=lambda i: (-abs(mu[i]), i))
    total = float(np.sum(np.abs(mu)))
    head = 0.0
    n0 = 0
    # strict head rule with a guard so rounding ties (head exactly 2/3)
    # cannot produce a vacuous pairing bound; 2/3 = 2/(1 + 2) is the mass
    # at which head - 2*tail turns positive for the norm bound 2
    limit = (2.0 / 3.0) * total * (1.0 + 1e-9)
    for i in order:
        head += abs(mu[i])
        n0 += 1
        if head > limit:
            break
    head_idx = order[:n0]
    tail_mass = total - head
    bound_value = head - 2.0 * tail_mass

    subset = [i + 1 for i in head_idx]
    targets = np.array([np.conj(mu[i]) / abs(mu[i]) for i in head_idx])

    report = {
        "mu": [complex(z) for z in mu],
        "n0": n0,
        "head_mass": head,
        "tail_mass": tail_mass,
        "pairing_lower_bound": bound_value,
        "subset": subset,
    }
    try:
        result = np_norm_generic(alg, subset, targets, tolerance=1e-9)
    except SolverStall as exc:
        result = exc.partial  # the branches read only its evaluated interpolant
    except InfeasibleCoset:
        report["branch"] = "interpolation_impossible"
        report["detail"] = ("the proper subspace cannot interpolate the sign "
                            "pattern at all")
        return report

    if result.upper > 2.0 + tolerance:
        report["branch"] = "no_bounded_interpolant"
        report["np_value"] = result.upper
        report["detail"] = (f"minimal interpolant norm {result.upper:.6f} "
                            "exceeds 2.0; the sup-norm property "
                            "fails on this subspace")
        return report

    # a norm <= 2 interpolant exists: its pairing with mu must vanish by
    # annihilation yet be >= head - 2*tail > 0 by construction — impossible,
    # so reaching this branch means an internal inconsistency
    x = np.array([complex(v[0], v[1]) for v in result.certificate["minimizer"]])
    pairing = complex(np.sum(mu * x))
    report["branch"] = "annihilation_contradiction"
    report["np_value"] = result.upper
    report["pairing"] = pairing
    report["detail"] = ("found a bounded interpolant whose pairing "
                        f"{abs(pairing):.3e} should exceed "
                        f"{bound_value:.3e} but annihilation forces 0")
    return report
