"""Internal LP machinery shared by the sequence-algebra and finite backends.

Complex moduli in objectives and constraints are handled by supporting
half-planes: |c| is the sup over phases of Re(e^{-i*phi} c), so an epigraph
variable t with cuts t >= Re(e^{-i*phi} c) under-approximates |c| from below,
and a constraint |L(b)| <= 1 is outer-approximated by cuts
Re(e^{-i*phi} L(b)) <= 1.  Cuts are refined adaptively at the phases of the
current iterate (Kelley's cutting-plane method), which reaches 1e-10 gaps
with a few dozen half-planes where a uniform polygon would need thousands.

``CutLP`` is the one engine that builds and solves these cut LPs; every cut
loop here and in the finite backends is a specification on it.  Its bounded
maps arrive as row blocks, one map per row, and live in one 2-D array.
Every row reaches HiGHS through ``addRows``.  The first solve of a cut loop
creates the model with every row in a fixed order (bounded maps, then
epigraph maps, each map by map and phase by phase, then the caller's rows)
and keeps it.  Each later solve appends only the rows added since, and
HiGHS restarts dual simplex from the previous optimal basis without
presolve (Huangfu & Hall 2018, "Parallelizing the dual revised simplex
method", Math. Prog. Comp. 10).  The optimal value does not depend on that
history, but the vertex HiGHS returns does: it depends on the row order,
the basis it starts from and every coefficient's bits.

The primal ``min_weighted_l1`` is dual first.  Given the phases of a dual
solution, it first solves ``_magnitude_lp``, the LP over the magnitudes at
those phases, and polishes that point by IRLS.  When the caller's certified
lower bound already meets the better of the two, projected onto the
constraints, it returns at once (``rounds == 0``); only an open gap runs
the cut loop, for at most 8 rounds.  Callers vary only the gap target, the
hints and the certified lower end; every other knob is a constant here.

Every bound reported upward is certified by direct evaluation of the
returned vectors, never by trusting the solver's objective value alone.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse
from scipy.optimize import OptimizeResult
# scipy's private HiGHS bindings, the module its own HiGHS method goes through
from scipy.optimize._highspy import _highs_wrapper

from .core import InfeasibleCoset, SolverStall

_HIGHS_OPTIONS = _highs_wrapper._h.HighsOptions()
_HIGHS_OPTIONS.presolve = "on"
_HIGHS_OPTIONS.output_flag = _HIGHS_OPTIONS.log_to_console = False
_HIGHS_OPTIONS.simplex_strategy = (
    _highs_wrapper._h.simplex_constants.SimplexStrategy.kSimplexStrategyDual)


def solve_lp(c, A_ub, b_ub, A_eq, b_eq, bounds, *, model=None):
    """min c.x s.t. A_ub x <= b_ub, A_eq x = b_eq, bounds; HiGHS dual simplex.

    Calls scipy's HiGHS bindings directly, with the options scipy's own
    HiGHS method uses, and skips its input parsing and its dual and marginal
    bookkeeping, which nothing here reads.  A new model gets its costs and
    bounds through ``addCols``, then the ``A_ub`` and the ``A_eq`` block
    through ``addRows``, as ``_csr`` lays them out.

    ``model``, the ``model`` of an earlier result, re-solves that LP with
    the rows ``A_ub x <= b_ub`` appended (``c``, ``A_eq``, ``b_eq`` and
    ``bounds`` are already in it): HiGHS keeps its optimal basis and
    warm-starts dual simplex without presolve.  Passing ``A_eq`` with it
    raises ``ValueError``.

    Returns an object with ``x``, ``fun``, the solved HiGHS ``model`` and
    ``status``, which is always 0 (optimal).  Nothing here reads ``status``;
    it stays because the benchmark's tracer (``perfbench/tracing.py``)
    counts results by it.  Nothing downstream trusts solver feasibility claims:
    bounds are always re-certified by direct evaluation, and equality
    residuals are repaired.  An infeasible LP raises ``InfeasibleCoset``;
    every other outcome raises ``SolverStall`` naming the solver's status.
    """
    if model is not None and A_eq is not None:
        raise ValueError("model= takes only appended A_ub rows")
    # looked up per call, as scipy does, so a tracer that swaps the module
    # handle sees every solve
    h = _highs_wrapper._h
    highs = model
    statuses = []
    if highs is None:
        n = len(c)
        bnd = np.array(bounds, dtype=float).reshape(n, 2)  # a None bound: nan
        bnd = np.where(np.isnan(bnd), [-np.inf, np.inf], bnd)  # ... is infinite
        highs = h._Highs()
        highs.passOptions(_HIGHS_OPTIONS)
        statuses.append(highs.addCols(n, np.asarray(c, dtype=float), bnd[:, 0], bnd[:, 1],
                                      0, np.zeros(n, np.int32), np.zeros(0, np.int32),
                                      np.zeros(0)))
    for A, b, eq in ((A_ub, b_ub, False), (A_eq, b_eq, True)):
        if A is None:
            continue
        b = np.asarray(b, dtype=float)
        start, index, value = _csr(A)
        statuses.append(highs.addRows(len(b), b if eq else np.full(len(b), -np.inf),
                                      b, len(value), start, index, value))
    if h.HighsStatus.kError in statuses:
        status = h.HighsModelStatus.kModelError
    else:
        highs.run()
        status = highs.getModelStatus()
    if status == h.HighsModelStatus.kInfeasible:
        raise InfeasibleCoset("linear system has no solution")
    if status != h.HighsModelStatus.kOptimal:
        raise SolverStall(f"LP solver failed (HiGHS status {int(status)}): "
                          f"{highs.modelStatusToString(status)}")
    return OptimizeResult(x=np.array(highs.getSolution().col_value),
                          fun=highs.getObjectiveValue(), status=0, model=highs)


def _csr(A):
    """The block A as HiGHS's row-wise (start, index, value), ordered by row,
    then column; a dense block drops its zeros, a sparse block keeps what it
    stores (each entry at most once)."""
    if sparse.issparse(A):
        A = A.tocoo()
        order = np.lexsort((A.col, A.row))
        rows, cols, vals = A.row[order], A.col[order], A.data[order]
    else:
        A = np.asarray(A, dtype=float)
        rows, cols = np.nonzero(A)  # row-major: by row, then column
        vals = A[rows, cols]
    start = np.searchsorted(rows, np.arange(A.shape[0] + 1))
    return (start.astype(np.int32), cols.astype(np.int32),
            np.asarray(vals, dtype=float))


class CutLP:
    """Kelley cut LP over u in C^d for the moduli of complex affine maps.

    The LP's columns are [Re u (d), Im u (d), t (one per epigraph map), the
    caller's extra columns], with cost, bounds and the extra rows ``A_ub``
    and equalities ``A_eq`` given by the caller.  Epigraph map j is
    L_j(u) = M_j u + off_j (with ``M`` None, L_j(u) = u_j) and carries
    t_j >= |L_j(u)|; a bounded map L(u) = B u carries |L(u)| <= 1.  Bounded
    maps arrive as blocks through ``add_bounded``, one map per row, and are
    kept in one array, ``bounded``, in the order they were added.  Each map
    is replaced by the cuts Re(e^{-i phi} L(u)) <= t_j (or 1) at the phases
    phi of its own phase set, which starts as ``cuts`` equally spaced phases
    and grows by ``add_cuts``.

    The first ``solve`` creates the HiGHS model with every row, map by map,
    and keeps it; each later one appends the rows of the phases (and bounded
    maps) added since, and warm-starts from the previous basis, so the
    returned vertex depends on the order of solves and additions.  Setting
    ``model`` to None rebuilds the whole LP at the next solve.

    Callers compare moduli as np.hypot(Re, Im), which rounds as the scalar
    abs() does (numpy's vectorized complex abs can differ in the last bit);
    those comparisons decide which cuts exist.
    """

    def __init__(self, d: int, cost, bounds, *, M=None, off=None, cuts: int = 16,
                 A_ub=None, b_ub=None, A_eq=None, b_eq=None):
        self.d = d
        self.M = M
        self.off = off
        self.bounded = np.zeros((0, d), dtype=complex)
        self.phases0 = np.arange(cuts) * (2 * np.pi / cuts)
        self.phases = [self.phases0] * (d if M is None else len(M))
        self.lp = (cost, A_ub, b_ub, A_eq, b_eq, bounds)
        self.model = None  # the live HiGHS model, after the first solve
        self.sent = [0] * len(self.phases)  # phases of each map in the model

    def add_bounded(self, rows) -> None:
        """Add the maps L(u) = row . u with |L(u)| <= 1, one per row of the
        2-D block ``rows``, after the earlier ones."""
        rows = np.asarray(rows, dtype=complex).reshape(-1, self.d)
        nb = len(self.bounded)
        self.phases[nb:nb] = [self.phases0] * len(rows)
        self.sent[nb:nb] = [0] * len(rows)
        self.bounded = np.vstack([self.bounded, rows])

    def values(self, u: np.ndarray) -> np.ndarray:
        """L(u) for every map, bounded maps first.

        Bounded maps are evaluated one dot product each and epigraph maps by
        one product with ``M``; the cut phases depend on these bits.
        """
        x = u if self.M is None else self.M @ u
        if self.off is not None:
            x = self.off + x
        if not len(self.bounded):
            return x
        return np.concatenate([(self.bounded[:, None, :] @ u)[:, 0], x])

    def add_cuts(self, mask: np.ndarray, values: np.ndarray) -> bool:
        """Cut map j at angle(values[j]) wherever ``mask[j]`` holds and no
        phase of map j lies within 1e-12 of it; report whether any was added."""
        added = False
        for j in np.nonzero(mask)[0]:
            phi = float(np.angle(values[j]))
            if np.min(np.abs(np.angle(np.exp(1j * (self.phases[j] - phi))))) > 1e-12:
                self.phases[j] = np.append(self.phases[j], phi)
                added = True
        return added

    def solve(self):
        """Solve with every cut so far; returns (u, result).

        Without a live model (the first solve, or after ``model`` is set to
        None) it builds the LP with every phase and the caller's rows; with
        one it appends only the phases added since.
        """
        cost, A_ub, b_ub, A_eq, b_eq, bounds = self.lp
        if self.model is None:
            self.sent = [0] * len(self.phases)
        else:
            A_ub = b_ub = A_eq = b_eq = None  # already in the model
        A, rhs = self._rows([ph[s:] for ph, s in zip(self.phases, self.sent)],
                            len(cost), A_ub, b_ub)
        res = solve_lp(cost, A, rhs, A_eq, b_eq, bounds, model=self.model)
        self.model = res.model
        self.sent = [len(ph) for ph in self.phases]
        return res.x[:self.d] + 1j * res.x[self.d:2 * self.d], res

    def _rows(self, phases: list, ncols: int, A_ub=None, b_ub=None):
        """The cut rows of map j at the phases ``phases[j]``, map by map,
        then the rows ``A_ub x <= b_ub``; returns (A, rhs)."""
        d, nb = self.d, len(self.bounded)
        counts = [len(ph) for ph in phases]
        ks = np.repeat(np.arange(len(counts)), counts)  # the map of each row
        e = np.exp(-1j * np.concatenate(phases))
        rows = np.arange(len(ks))
        epi = ks >= nb
        # maps with a coefficient row: the bounded ones and those of M
        dense = ~epi if self.M is None else np.ones(len(ks), dtype=bool)
        D = self.bounded
        if self.M is not None:
            D = np.vstack([D, self.M])
        coef = e[dense, None] * D[ks[dense]]
        r = [np.repeat(rows[dense], 2 * d), rows[~dense], rows[~dense], rows[epi]]
        c = [np.tile(np.arange(2 * d), len(coef)), ks[~dense] - nb,
             d + ks[~dense] - nb, 2 * d + ks[epi] - nb]
        v = [np.hstack([coef.real, -coef.imag]).ravel(), e[~dense].real,
             -e[~dense].imag, -np.ones(int(np.sum(epi)))]
        rhs = np.where(epi, 0.0, 1.0)
        if self.off is not None:
            # -Re(e * off), rounded as the scalar complex product rounds it
            o, ee = self.off[ks[epi] - nb], e[epi]
            rhs[epi] = -(ee.real * o.real - ee.imag * o.imag)
        if A_ub is not None:
            rr, cc = np.nonzero(A_ub)
            r.append(len(ks) + rr)
            c.append(cc)
            v.append(A_ub[rr, cc])
            rhs = np.concatenate([rhs, b_ub])
        r, c, v = (np.concatenate(a) for a in (r, c, v))
        keep = v != 0
        return sparse.coo_array((v[keep], (r[keep], c[keep])),
                                shape=(len(rhs), ncols)), rhs


def _irls_polish(A: np.ndarray, rhs: np.ndarray, w: np.ndarray,
                 c0: np.ndarray) -> np.ndarray:
    """Iteratively reweighted least-norm descent for min sum w|c|, Ac = rhs.

    Each of at most 25 steps solves min sum w_k |c_k|^2 / d_k over the
    affine set with d = |c| of the previous iterate (closed form through a
    small m x m system); started from an LP vertex it sharpens the last few
    digits that tangent cuts leave behind.
    """
    c = c0.copy()
    best = c0
    best_val = float(np.sum(w * np.abs(c0)))
    for _ in range(25):
        d = np.maximum(np.abs(c), 1e-14)
        scale = d / w
        gram = (A * scale[None, :]) @ A.conj().T
        try:
            y = np.linalg.solve(gram, rhs)
        except np.linalg.LinAlgError:
            break
        c_new = scale * (A.conj().T @ y)
        val = float(np.sum(w * np.abs(c_new)))
        if val < best_val:
            best_val = val
            best = c_new
        if np.max(np.abs(c_new - c)) <= 1e-15 * max(1.0, float(np.max(np.abs(c_new)))):
            break
        c = c_new
    return best


def _magnitude_lp(A: np.ndarray, rhs: np.ndarray, w: np.ndarray,
                  phases: np.ndarray, slack: float | None = None) -> np.ndarray:
    """min sum w r over r >= 0 subject to A diag(e^{i phases}) r = rhs.

    With the phase of every coordinate fixed, the weighted l1 problem is a
    plain LP over the magnitudes r, whose basic solutions are sparse.  With
    ``slack``, the equalities are elastic: slack columns +-I, each priced at
    ``slack``, keep the LP feasible.  Returns r; an infeasible LP raises
    ``InfeasibleCoset`` and any other solver failure ``SolverStall``.
    """
    m, n = A.shape
    cols = A * np.exp(1j * phases)[None, :]
    M = np.vstack([cols.real, cols.imag])
    rhs_r = np.concatenate([rhs.real, rhs.imag])
    cost = w
    if slack is not None:
        eye = np.eye(2 * m)
        M = np.hstack([M, eye, -eye])
        cost = np.concatenate([w, np.full(4 * m, slack)])
    res = solve_lp(cost, None, None, M, rhs_r, [(0, None)] * len(cost))
    return np.maximum(res.x[:n], 0.0)


def _phase_fixed_descent(A: np.ndarray, rhs: np.ndarray, w: np.ndarray,
                         c0: np.ndarray) -> np.ndarray:
    """Solve the magnitude LP once, with the phases of c0 frozen.

    Its basic solutions are sparse conic points, so this extracts a clean
    atomic solution from a smeared vertex of the cut polyhedron (degenerate
    optimal faces).  Returns c0 itself unless the new point's value is
    smaller by more than 1e-15.
    """
    scale = max(1e-300, float(np.max(np.abs(c0))))
    idx = np.nonzero(np.abs(c0) > 1e-12 * scale)[0]
    if len(idx) == 0:
        return c0
    phases = np.angle(c0[idx])
    try:
        r = _magnitude_lp(A[:, idx], rhs, w[idx], phases)
    except (InfeasibleCoset, SolverStall):
        return c0
    c = np.zeros(A.shape[1], dtype=complex)
    c[idx] = r * np.exp(1j * phases)
    if float(np.sum(w * np.abs(c))) < float(np.sum(w * np.abs(c0))) - 1e-15:
        return c
    return c0


def _phase_hint_solution(A: np.ndarray, rhs: np.ndarray, w: np.ndarray,
                         hints: np.ndarray) -> np.ndarray | None:
    """The magnitude LP at externally supplied phases.

    Complementary slackness pins the optimal phase of every coordinate to
    the dual solution, so solving min sum w r at those phases recovers a
    sparse optimal point even when the cut LP returns a smeared vertex of a
    degenerate face.  Hints from an inexact dual can leave that LP
    infeasible by more than HiGHS's 1e-7 tolerance; it is then solved again
    with elastic equalities (slacks priced at 1e6 max(w)), and the point is
    projected onto Ac = rhs, so it is ranked by a value it really has.
    """
    try:
        return _magnitude_lp(A, rhs, w, hints) * np.exp(1j * hints)
    except InfeasibleCoset:
        pass
    except SolverStall:
        return None
    try:
        r = _magnitude_lp(A, rhs, w, hints, slack=1e6 * float(np.max(w)))
    except SolverStall:
        return None
    return _project(A, rhs, r * np.exp(1j * hints))


def _project(A: np.ndarray, rhs: np.ndarray, c: np.ndarray) -> np.ndarray:
    """c plus the least-norm correction onto the affine set Ac = rhs."""
    resid = rhs - A @ c
    if not np.any(resid):
        return c
    try:
        return c + A.conj().T @ np.linalg.solve(A @ A.conj().T, resid)
    except np.linalg.LinAlgError:
        return c + np.linalg.lstsq(A, resid, rcond=None)[0]


def min_weighted_l1(A: np.ndarray, rhs: np.ndarray, *, gap_tol: float = 1e-11,
                    phase_hints: np.ndarray | None = None, lower: float = 0.0):
    """Minimize sum_k |c_k| over complex c subject to A c = rhs.

    Returns (c, lp_lower, evaluated_upper, rounds).  evaluated_upper =
    sum |c| of the returned point is a valid upper bound: every returned
    point is projected onto Ac = rhs, which repairs the solver's equality
    residual.  ``lower`` is a lower bound on the minimum that the caller
    has already certified (a dual bound); 0.0 is the trivial one.  A zero
    ``rhs`` returns c = 0 at once.

    With ``phase_hints`` (the phases of a dual solution), the hinted
    magnitude LP and its IRLS polish run first.  If the better of the two
    projected points has a value within ``gap_tol * max(1, value)`` of
    ``lower``, it is returned with ``rounds == 0`` and ``lp_lower`` is the
    caller's ``lower``; no cut LP is built.  Otherwise, and without hints,
    a Kelley cut loop runs for at most 8 rounds: each round's vertex's
    phase-fixed and IRLS polishes (each the vertex itself unless it found
    a smaller value), and in round 1 the unprojected hinted point, are
    candidates, ranked by their value before projection, and ``lp_lower``
    is the last cut LP's optimum (the cuts under-approximate each modulus).
    """
    A = np.asarray(A, dtype=complex)
    rhs = np.asarray(rhs, dtype=complex)
    m, n = A.shape
    w = np.ones(n)

    if not np.any(rhs):
        return np.zeros(n, dtype=complex), 0.0, 0.0, 0

    # dual first: the hinted point or its IRLS polish, projected, may
    # already meet the caller's certified lower bound
    hinted = None
    if phase_hints is not None:
        hinted = _phase_hint_solution(A, rhs, w, phase_hints)
        if hinted is not None:
            points = [_project(A, rhs, c) for c in
                      (hinted, _irls_polish(A, rhs, w, hinted))]
            values = [float(np.sum(w * np.abs(c))) for c in points]
            k = int(np.argmin(values))
            if values[k] - lower <= gap_tol * max(1.0, values[k]):
                return points[k], lower, values[k], 0

    # variables: [x (n), y (n), t (n)]
    A_eq = np.zeros((2 * m, 3 * n))
    A_eq[:m, :n] = A.real
    A_eq[:m, n:2 * n] = -A.imag
    A_eq[m:, :n] = A.imag
    A_eq[m:, n:2 * n] = A.real
    b_eq = np.concatenate([rhs.real, rhs.imag])
    cut = CutLP(n, np.concatenate([np.zeros(2 * n), w]),
                [(None, None)] * (2 * n) + [(0, None)] * n,
                cuts=4 if gap_tol >= 1e-6 else 8, A_eq=A_eq, b_eq=b_eq)

    lp_lower = 0.0
    best_c = np.zeros(n, dtype=complex)
    best_upper = np.inf
    prev_upper = np.inf
    stagnant = 0
    rounds = 0
    for rounds in range(1, 9):
        c, res = cut.solve()
        lp_lower = float(res.fun)
        cands = [_phase_fixed_descent(A, rhs, w, c), _irls_polish(A, rhs, w, c)]
        if hinted is not None and rounds == 1:
            cands.append(hinted)
        for cand in cands:
            upper = float(np.sum(w * np.abs(cand)))
            if upper < best_upper:
                best_upper = upper
                best_c = cand

        scale = max(1.0, best_upper)
        if best_upper - lp_lower <= gap_tol * scale:
            break
        if prev_upper - best_upper <= 0.25 * gap_tol * scale:
            stagnant += 1
            if stagnant >= 2:
                break  # polished value has stopped moving twice in a row
        else:
            stagnant = 0
        prev_upper = best_upper

        # refine: cut at the phase of every coordinate whose epigraph is slack
        slack = w * (np.abs(c) - res.x[2 * n:])
        active = max(1, int(np.sum(np.abs(c) > 1e-12 * scale)))
        if not cut.add_cuts((slack > gap_tol * scale / (4 * active)) &
                            (np.hypot(c.real, c.imag) > 1e-15), c):
            break

    # repair: the least-norm correction for the solver's equality
    # tolerance, so the evaluated upper bound comes from a point feasible
    # to machine rounding
    best_c = _project(A, rhs, best_c)
    return best_c, lp_lower, float(np.sum(w * np.abs(best_c))), rounds


class ModulusConstrainedMax:
    """Maximize Re(sum_i obj_i b_i) over complex b with |L_j(b)| <= 1.

    Constraint rows L_j are complex vectors, added as 2-D blocks by
    ``add_rows`` and kept in the one array ``cut.bounded``; the row set can
    grow between solves (semi-infinite constraints add their violated
    indices through a row oracle).  The pairing is bilinear (no
    conjugation); callers wanting Re sum conj(b)a pass obj = conj(a).  An
    optional weighted absolute-sum constraint sum_i d_i |b_i| <= 1
    (geometric tails) is carried via epigraph variables u_i >= |b_i|.

    The cut LP over [Re b, Im b, u] only localizes the maximizer; an SLSQP
    polish on the smooth problem then sharpens it, for at most 600 rows.
    Callers vary only the tolerance, the row oracle and whether to polish.
    """

    def __init__(self, obj: np.ndarray, abs_row: np.ndarray | None = None):
        self.obj = np.asarray(obj, dtype=complex)
        self.n = n = len(self.obj)
        self.abs_row = None if abs_row is None else np.asarray(abs_row, float)
        tail = None
        if self.abs_row is not None:
            tail = np.concatenate([np.zeros(2 * n), self.abs_row])[None, :]
        self.cut = CutLP(n, np.concatenate([-self.obj.real, self.obj.imag, np.zeros(n)]),
                         [(None, None)] * (2 * n) + [(0, None)] * n, cuts=8,
                         A_ub=tail, b_ub=None if tail is None else np.ones(1))

    def add_rows(self, rows) -> None:
        """Add the constraints |L_j(b)| <= 1, one per row of the 2-D block."""
        self.cut.add_bounded(rows)

    def _refine(self, b: np.ndarray, u: np.ndarray, tol: float) -> float:
        """Add cuts at the phases of violated rows/epigraphs; return worst violation."""
        v = self.cut.values(b)
        mags = np.hypot(v.real, v.imag)
        nr = len(self.cut.bounded)
        over = np.concatenate([mags[:nr] - 1.0 > tol / 4, mags[nr:] > u + tol / 4])
        self.cut.add_cuts(over & (mags > 0), v)
        worst = float(np.max(mags[:nr] - 1.0, initial=0.0))
        if self.abs_row is not None:
            worst = max(worst, float(np.dot(self.abs_row, np.abs(b)) - 1.0))
        return worst

    def _worst_violation(self, b: np.ndarray) -> float:
        worst = 0.0
        if len(self.cut.bounded):
            worst = float(np.max(np.abs(self.cut.bounded @ b)) - 1.0)
        if self.abs_row is not None:
            worst = max(worst, float(np.dot(self.abs_row, np.abs(b)) - 1.0))
        return worst

    def _polish(self, b0: np.ndarray) -> np.ndarray:
        """Sharpen a cut-loop vertex on the smooth problem max Re(obj.b)
        s.t. |L_j b|^2 <= 1 (SLSQP); reclaims the O(violation) objective loss
        that tangent cuts leave behind."""
        from scipy.optimize import minimize

        n = self.n
        L = self.cut.bounded
        Lr, Li = L.real, L.imag
        d = self.abs_row

        def split(x):
            return x[:n] + 1j * x[n:]

        cost_vec = np.concatenate([-self.obj.real, self.obj.imag])

        def fun(x):
            return float(cost_vec @ x)

        def jac(x):
            return cost_vec

        def cons_f(x):
            b = split(x)
            w = L @ b
            vals = 1.0 - (w.real ** 2 + w.imag ** 2)
            if d is not None:
                vals = np.append(vals, 1.0 - float(np.dot(d, np.abs(b))))
            return vals

        def cons_j(x):
            b = split(x)
            w = L @ b
            # d|w|^2/dx = 2 Re(w) [Lr, -Li] + 2 Im(w) [Li, Lr]
            grad = np.hstack([
                2 * w.real[:, None] * Lr + 2 * w.imag[:, None] * Li,
                -2 * w.real[:, None] * Li + 2 * w.imag[:, None] * Lr,
            ])
            out = -grad
            if d is not None:
                mags = np.maximum(np.abs(b), 1e-150)
                row = -np.concatenate([d * b.real / mags, d * b.imag / mags])
                out = np.vstack([out, row])
            return out

        viol = self._worst_violation(b0)
        x0 = np.concatenate([b0.real, b0.imag]) / (1.0 + max(viol, 0.0) + 1e-12)
        res = minimize(fun, x0, jac=jac, method="SLSQP",
                       constraints=[{"type": "ineq", "fun": cons_f, "jac": cons_j}],
                       options={"maxiter": 200, "ftol": 1e-14})
        # "unsuccessful" terminations (positive directional derivative etc.)
        # still tend to land on the constraint surface; judge by certified
        # quality (objective over feasibility excess), not the flag
        if res.x is None or not np.all(np.isfinite(res.x)):
            return b0
        b = split(res.x)

        def score(bb):
            ex = 1.0 + max(self._worst_violation(bb), 0.0)
            return self.objective(bb) / ex
        return b if score(b) >= score(b0) else b0

    def solve(self, tol: float = 1e-11, row_oracle=None,
              polish: bool = True) -> np.ndarray:
        """Cut loop to localize the active set, then smooth polish.

        Each pass runs at most 30 cut rounds.  ``row_oracle(b)``, when
        given, is consulted only between converged passes: it may return a
        block of additional constraint rows (semi-infinite index sets:
        violated angles found by a grid scan), which are added in one call
        and trigger another pass; at most six passes run.
        """
        # the LP loop only localizes the active geometry when a smooth
        # polish follows, so its exit tolerance can stay coarse
        loop_tol = max(tol, 1e-3) if polish else tol
        b = np.zeros(self.n, dtype=complex)
        for outer in range(6):
            for _ in range(30):
                b, res = self.cut.solve()
                worst = self._refine(b, res.x[2 * self.n:], loop_tol)
                if worst <= loop_tol:
                    break
            if polish and 0 < len(self.cut.bounded) <= 600:
                b = self._polish(b)
            if row_oracle is None:
                break
            new_rows = row_oracle(b)
            if not len(new_rows):
                break
            self.add_rows(new_rows)
        return b

    def objective(self, b: np.ndarray) -> float:
        return float(np.real(np.sum(self.obj * b)))
