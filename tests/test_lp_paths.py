"""The LP paths of ``_lp`` give brackets that agree.

``solve_lp`` calls scipy's private HiGHS bindings directly and falls back to
``linprog(method="highs")`` when they cannot be imported.  On the direct
path ``CutLP`` keeps its HiGHS model alive and warm-starts each cut round
from the previous basis; the fallback rebuilds the LP every round.  The two
can return different optimal vertices, so these tests check what holds for
any correct solver: the brackets of one problem intersect, every closed
bracket is no wider than its tolerance, every LP-backend lower end survives
``dual_certificate_check``, and a warm model's optimum equals a cold rebuild
of the same cuts.  The fallback is forced by monkeypatching the module, so a
scipy release that changes the private bindings fails here instead of
silently moving a bracket.
"""

import copy
import importlib.util

import numpy as np
import pytest
from scipy import sparse

from picknorm import _lp, verify
from picknorm import finitemodel as fm
from picknorm.core import InfeasibleCoset, SolverStall, compute_np_norm
from picknorm.seqalg import DualCertificate, dual_certificate_check

HAS_BINDINGS = importlib.util.find_spec("scipy.optimize._highspy._highs_wrapper") is not None

direct_only = pytest.mark.skipif(
    not HAS_BINDINGS, reason="scipy has no scipy.optimize._highspy._highs_wrapper")


def _both_paths(monkeypatch, solve):
    """solve() on the direct path, then on the linprog fallback."""
    direct = solve()
    with monkeypatch.context() as m:
        m.setattr(_lp, "_highs_wrapper", None)
        fallback = solve()
    return direct, fallback


def _result(solve):
    """(result, closed) of a solve, with a stall's partial bracket."""
    try:
        return solve(), True
    except SolverStall as exc:
        assert exc.partial is not None, exc
        return exc.partial, False


def _certified_lower(r, targets) -> float:
    """The lower end a result's dual certificate justifies after recheck."""
    floor = max(abs(complex(a)) for a in targets)
    payload = r.certificate.get("dual")
    if payload is None:
        return floor
    meta = dict(payload["meta"], targets=[complex(*z) for z in payload["meta"]["targets"]])
    cert = DualCertificate(b=tuple(complex(*z) for z in payload["b"]),
                           certified_sup=payload["certified_sup"],
                           bound=payload["bound"], meta=meta)
    return max(floor, dual_certificate_check(cert))


def _assert_agree(direct, fallback, allowed):
    """Brackets intersect; a closed one is no wider than allowed(i, r)."""
    for i, ((rd, cd), (rf, cf)) in enumerate(zip(direct, fallback)):
        assert max(rd.lower, rf.lower) <= min(rd.upper, rf.upper), (rd, rf)
        for r, closed in ((rd, cd), (rf, cf)):
            if closed:
                assert r.upper - r.lower <= allowed(i, r), r


@direct_only
def test_direct_bindings_are_used():
    # the private module exists, so its import and option set-up must work
    assert _lp._highs_wrapper is not None


@direct_only
@pytest.mark.parametrize("backend", ["analytic_wiener", "wiener", "l1_torus"])
def test_remark1_brackets_match(monkeypatch, backend):
    rng = np.random.default_rng(2024)
    problems = [verify._floor_problem(backend, rng) for _ in range(80)]

    def solve():
        out = []
        for p in problems:
            r, closed = _result(lambda: compute_np_norm(p))
            lower = _certified_lower(r, p.targets)
            assert r.lower <= lower + 1e-9 * max(1.0, lower), (r, lower)
            out.append((r, closed))
        return out

    direct, fallback = _both_paths(monkeypatch, solve)
    _assert_agree(direct, fallback, lambda i, r: problems[i].tolerance)


@direct_only
def test_generic_finite_brackets_match(monkeypatch):
    rng = np.random.default_rng(2025)
    problems = []
    for kind in ("weighted_sup", "weighted_l1", "lp"):
        for _ in range(40):
            dim = int(rng.integers(1, 7))
            if kind == "lp":
                alg = fm.FiniteAlgebra(dim, kind, p=float(1.0 + rng.uniform(0.2, 3)))
            else:
                alg = fm.FiniteAlgebra(dim, kind, weights=1.0 + rng.uniform(0, 2, dim))
            n = int(rng.integers(1, dim + 1))
            subset = [int(i) for i in
                      rng.choice(np.arange(1, dim + 1), size=n, replace=False)]
            a = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            problems.append((alg, subset, a))

    def solve():
        return [_result(lambda: fm.np_norm_generic(alg, subset, a, tolerance=1e-10))
                for alg, subset, a in problems]

    direct, fallback = _both_paths(monkeypatch, solve)
    # np_norm_generic closes at a relative width
    _assert_agree(direct, fallback, lambda i, r: 1e-10 * max(1.0, r.upper))


def _cold_fun(cut: _lp.CutLP) -> float:
    """The optimum of the same cut set, rebuilt and solved from scratch."""
    fresh = copy.copy(cut)
    fresh.model = None
    return fresh.solve()[1].fun


@direct_only
def test_live_model_matches_a_cold_rebuild():
    rng = np.random.default_rng(7)
    # the epigraph cut loop of min_weighted_l1: min sum |c_k| s.t. A c = rhs
    m, n = 3, 12
    A = rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))
    rhs = rng.standard_normal(m) + 1j * rng.standard_normal(m)
    A_eq = np.block([[A.real, -A.imag, np.zeros((m, n))],
                     [A.imag, A.real, np.zeros((m, n))]])
    cut = _lp.CutLP(n, np.concatenate([np.zeros(2 * n), np.ones(n)]),
                    [(None, None)] * (2 * n) + [(0, None)] * n, cuts=4,
                    A_eq=A_eq, b_eq=np.concatenate([rhs.real, rhs.imag]))
    for _ in range(4):
        c, res = cut.solve()
        assert cut.model is not None
        cut.add_cuts(np.abs(c) > res.x[2 * n:] + 1e-12, c)
    c, res = cut.solve()
    assert res.fun == pytest.approx(_cold_fun(cut), rel=1e-9)

    # the bounded maps of ModulusConstrainedMax, with rows added between
    # solves as its row oracle adds them, and a caller's row (a tail)
    mcm = _lp.ModulusConstrainedMax(rng.standard_normal(4) + 1j * rng.standard_normal(4),
                                    abs_row=np.full(4, 0.1))
    theta = np.linspace(0, 2 * np.pi, 24, endpoint=False)
    rows = np.exp(1j * np.outer(theta, np.arange(4)))
    mcm.add_rows(rows[:8])
    for batch in (rows[8:16], rows[16:]):
        b, res = mcm.cut.solve()
        mcm._refine(b, res.x[8:], 1e-9)
        mcm.add_rows(batch)
    b, res = mcm.cut.solve()
    assert res.fun == pytest.approx(_cold_fun(mcm.cut), rel=1e-9)


def _next_rows(cut: _lp.CutLP):
    """The (A, rhs) that cut.solve() sends next: every row for a build, the
    rows added since the last solve for the live model."""
    cost, A_ub, b_ub = cut.lp[:3]
    if cut.model is None:
        return cut._rows(cut.phases, len(cost), A_ub, b_ub)
    return cut._rows([ph[s:] for ph, s in zip(cut.phases, cut.sent)], len(cost))


@pytest.mark.parametrize("fallback", [False, True])
def test_bounded_block_matches_rows_added_one_by_one(monkeypatch, fallback):
    if fallback:
        monkeypatch.setattr(_lp, "_highs_wrapper", None)
    rng = np.random.default_rng(11)
    d = 4
    theta = np.linspace(0, 2 * np.pi, 20, endpoint=False)
    rows = np.exp(1j * np.outer(theta, np.arange(d)))
    obj = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    tail = np.concatenate([np.zeros(2 * d), np.full(d, 0.1)])[None, :]

    def make():
        return _lp.CutLP(d, np.concatenate([-obj.real, obj.imag, np.zeros(d)]),
                         [(None, None)] * (2 * d) + [(0, None)] * d, cuts=8,
                         A_ub=tail, b_ub=np.ones(1))

    block, single = make(), make()
    u = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    for batch in (rows[:8], rows[8:14], rows[14:]):
        # the first batch goes into a cold build, the later ones are
        # appended to the live model
        block.add_bounded(batch)
        for row in batch:
            single.add_bounded(row[None, :])
        assert block.bounded.tobytes() == single.bounded.tobytes()
        assert block.values(u).tobytes() == single.values(u).tobytes()
        (Ab, rhs_b), (As, rhs_s) = _next_rows(block), _next_rows(single)
        for part in ("row", "col", "data"):
            assert getattr(Ab, part).tobytes() == getattr(As, part).tobytes()
        assert rhs_b.tobytes() == rhs_s.tobytes()
        (ub, rb), (us, rs) = block.solve(), single.solve()
        assert ub.tobytes() == us.tobytes()
        assert rb.x.tobytes() == rs.x.tobytes() and rb.fun == rs.fun
        # cut every map at its phase, so the next solve sends new phases too
        for cut, x in ((block, ub), (single, us)):
            v = cut.values(x)
            cut.add_cuts(np.hypot(v.real, v.imag) > 0, v)
        u = ub


@pytest.mark.parametrize("fallback", [False, True])
def test_status_mapping(monkeypatch, fallback):
    if fallback:
        monkeypatch.setattr(_lp, "_highs_wrapper", None)
    # x0 + x1 = 1 and x0 + x1 = 2
    with pytest.raises(InfeasibleCoset):
        _lp.solve_lp([1.0, 1.0], None, None, [[1.0, 1.0], [1.0, 1.0]], [1.0, 2.0],
                     [(0, None)] * 2)
    # min -x0 s.t. x0 - x1 <= 1, x >= 0
    with pytest.raises(SolverStall):
        _lp.solve_lp([-1.0, 0.0], [[1.0, -1.0]], [1.0], None, None, [(0, None)] * 2)
    # min x0 + 2 x1 s.t. x0 + x1 >= 1, x >= 0
    res = _lp.solve_lp([1.0, 2.0], [[-1.0, -1.0]], [-1.0], None, None, [(0, None)] * 2)
    assert res.status == 0
    assert res.fun == 1.0
    assert res.x.tolist() == [1.0, 0.0]


@direct_only
def test_appended_rows_warm_start():
    c, bounds = [1.0, 2.0], [(0, None)] * 2
    res = _lp.solve_lp(c, [[-1.0, -1.0]], [-1.0], None, None, bounds)
    # append x0 <= 0.25: the optimum moves to (0.25, 0.75)
    res = _lp.solve_lp(c, [[1.0, 0.0]], [0.25], None, None, bounds, model=res.model)
    assert res.status == 0
    assert res.x.tolist() == [0.25, 0.75]
    assert res.fun == 1.75
    # append x1 <= 0.5: x0 + x1 >= 1 can no longer hold
    with pytest.raises(InfeasibleCoset):
        _lp.solve_lp(c, [[0.0, 1.0]], [0.5], None, None, bounds, model=res.model)


@direct_only
def test_model_takes_only_appended_rows(monkeypatch):
    c, bounds = [1.0, 2.0], [(0, None)] * 2
    model = _lp.solve_lp(c, [[-1.0, -1.0]], [-1.0], None, None, bounds).model
    with pytest.raises(ValueError):
        _lp.solve_lp(c, None, None, [[1.0, 1.0]], [1.0], bounds, model=model)
    # the fallback has no live model to append to
    monkeypatch.setattr(_lp, "_highs_wrapper", None)
    with pytest.raises(ValueError):
        _lp.solve_lp(c, [[1.0, 0.0]], [0.25], None, None, bounds, model=model)


def _torus_grid_problem():
    """min sum |c| over atoms on a 512-point grid with Fourier coefficients
    (1, 1, -1) at k = 0, 1, 2, and the phases of its optimal dual polynomial
    q(t) = -i e^{it}(i + sin t)/sqrt(2); the minimum is sqrt(2), attained
    by weights (1 +- i)/2 at +-pi/2 (tests/test_seqalg.py derives it)."""
    ks = np.arange(3)
    theta = (2 * np.pi / 512) * np.arange(512)
    A = np.exp(-1j * np.outer(ks, theta))
    q = -1j * np.exp(1j * theta) * (1j + np.sin(theta)) / np.sqrt(2.0)
    return A, np.array([1.0, 1.0, -1.0], dtype=complex), np.angle(q)


def _counting_solve_lp(monkeypatch) -> list:
    calls = []
    solve = _lp.solve_lp

    def counted(*args, **kwargs):
        calls.append(1)
        return solve(*args, **kwargs)

    monkeypatch.setattr(_lp, "solve_lp", counted)
    return calls


@pytest.mark.parametrize("fallback", [False, True])
def test_certified_lower_skips_the_cut_loop(monkeypatch, fallback):
    if fallback:
        monkeypatch.setattr(_lp, "_highs_wrapper", None)
    A, rhs, hints = _torus_grid_problem()
    lower, gap_tol = np.sqrt(2.0), 1e-10
    calls = _counting_solve_lp(monkeypatch)
    c, lp_lower, upper, rounds = _lp.min_weighted_l1(
        A, rhs, gap_tol=gap_tol, phase_hints=hints, lower=lower)
    # one hinted magnitude LP, no CutLP
    assert rounds == 0
    assert len(calls) == 1
    assert lp_lower == lower
    assert upper == float(np.sum(np.abs(c)))
    assert upper - lower <= gap_tol * max(1.0, upper)
    assert np.max(np.abs(A @ c - rhs)) <= 1e-13


@pytest.mark.parametrize("fallback", [False, True])
def test_open_gap_runs_the_cut_loop_unchanged(monkeypatch, fallback):
    if fallback:
        monkeypatch.setattr(_lp, "_highs_wrapper", None)
    A, rhs, hints = _torus_grid_problem()
    gap_tol = 1e-10
    # a lower end 1e-6 under the hinted value leaves the gap open
    c, *rest = _lp.min_weighted_l1(A, rhs, gap_tol=gap_tol, phase_hints=hints,
                                   lower=np.sqrt(2.0) - 1e-6)
    c0, *rest0 = _lp.min_weighted_l1(A, rhs, gap_tol=gap_tol, phase_hints=hints)
    assert rest[2] >= 1
    assert rest == rest0
    assert c.tobytes() == c0.tobytes()


def test_csr_of_a_shuffled_coo_block_matches_the_dense_block():
    rng = np.random.default_rng(3)
    dense = rng.standard_normal((5, 7))
    dense[rng.random((5, 7)) < 0.5] = 0.0
    r, k = np.nonzero(dense)
    perm = rng.permutation(len(r))
    coo = sparse.coo_array((dense[r, k][perm], (r[perm], k[perm])), shape=dense.shape)
    got, want = _lp._csr(coo), _lp._csr(dense)
    for a, b, dtype in zip(got, want, (np.int32, np.int32, np.float64)):
        assert a.dtype == b.dtype == dtype
        assert a.tobytes() == b.tobytes()
    start, index, value = want
    # the dense block's zeros are dropped, and the arrays rebuild it
    assert len(value) == np.count_nonzero(dense) and np.all(value != 0)
    assert np.array_equal(sparse.csr_array((value, index, start), shape=dense.shape)
                          .toarray(), dense)
    # a sparse block keeps an explicit zero it stores
    stored = sparse.coo_array(([1.0, 0.0], ([1, 0], [0, 1])), shape=(2, 2))
    assert [a.tolist() for a in _lp._csr(stored)] == [[0, 1, 2], [1, 0], [0.0, 1.0]]

    c, bounds = rng.standard_normal(7), [(-1, 1)] * 7
    res_coo = _lp.solve_lp(c, coo, np.ones(5), None, None, bounds)
    res_dense = _lp.solve_lp(c, dense, np.ones(5), None, None, bounds)
    assert res_coo.fun == res_dense.fun
    assert res_coo.x.tobytes() == res_dense.x.tobytes()


def test_vertex_polishers_return_c0_unless_they_improve():
    A, rhs, _ = _torus_grid_problem()
    w = np.ones(A.shape[1])
    # the sparse optimum: weights (1 +- i)/2 at +-pi/2
    opt = np.zeros(A.shape[1], dtype=complex)
    opt[128], opt[384] = (1 + 1j) / 2, (1 - 1j) / 2
    # the least-norm interpolant is smeared over the whole grid
    smeared = A.conj().T @ np.linalg.solve(A @ A.conj().T, rhs)
    for polish in (_lp._phase_fixed_descent, _lp._irls_polish):
        assert polish(A, rhs, w, opt) is opt
        out = polish(A, rhs, w, smeared)
        assert out is not smeared
        assert np.sum(np.abs(out)) < np.sum(np.abs(smeared))


def test_infeasible_phase_hints_give_a_projected_point():
    # at phase pi/2 both columns are i, so i r0 + i r1 = 1 has no solution
    # r >= 0; the elastic re-solve keeps r = 0 and the projection repairs it
    A = np.array([[1.0, 1.0]], dtype=complex)
    c = _lp._phase_hint_solution(A, np.array([1.0 + 0j]), np.ones(2),
                                 np.full(2, np.pi / 2))
    assert np.allclose(c, [0.5, 0.5], atol=1e-12)
    assert abs(A @ c - 1.0)[0] <= 1e-15
