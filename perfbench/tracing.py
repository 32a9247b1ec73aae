"""Outside-in span tracing of the picknorm layers.

The tracer wraps module attributes of the library from the benchmark's own
files; nothing under ``src/`` knows about it.  Every wrapped call records a
span (name, start, end, parent span, problem index) in memory; hooks record
counts at the same boundaries (LP rows, cut rounds, certificate grid points,
polisher outcomes).  Self time is computed from the nesting after the run.

A wrapper only sees calls that look the function up on a module or class at
call time.  ``Tracer.install`` therefore replaces every binding of a wrapped
function in the package's modules (``gleason`` imports ``is_feasible`` by
name, for instance), and ``workloads`` calls the public solves through their
modules.
"""

from __future__ import annotations

import collections
import time

import numpy as np

from picknorm import _lp, core, finitemodel, gleason, hardy, seqalg

_MODULES = (core, hardy, seqalg, _lp, finitemodel, gleason)


class Tracer:
    """Span recorder plus the layer wrappers; ``restore`` undoes them."""

    def __init__(self):
        self.spans: list[list] = []   # [name, start, end, parent, problem]
        self.counts: collections.Counter = collections.Counter()
        self.samples: dict[str, list] = collections.defaultdict(list)
        self.problem = -1
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []
        self._vertex_value = float("inf")

    # -- spans ---------------------------------------------------------------

    def begin(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.problem])
        self._stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name, func, hook=None):
        tracer = self

        def wrapper(*args, **kwargs):
            idx = tracer.begin(name)
            try:
                out = func(*args, **kwargs)
            except Exception:
                tracer.counts[name + ".raised"] += 1
                raise
            finally:
                tracer.end(idx)
            if hook is not None:
                hook(args, out)
            return out

        return wrapper

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _patch_function(self, func, name: str, hook=None) -> None:
        wrapper = self._wrap(name, func, hook)
        for mod in _MODULES:
            for attr, val in list(vars(mod).items()):
                if val is func:
                    self._patch(mod, attr, wrapper)

    def _patch_method(self, cls, attr: str, name: str, hook=None) -> None:
        self._patch(cls, attr, self._wrap(name, getattr(cls, attr), hook))

    # -- layer hooks ---------------------------------------------------------

    def _on_solve_lp(self, args, res) -> None:
        c, A_ub, _, A_eq, _, _ = args
        rows = sum(0 if A is None else A.shape[0] for A in (A_ub, A_eq))
        self.samples["lp.solve_lp.rows"].append(rows)
        self.samples["lp.solve_lp.cols"].append(len(c))
        if res.status == 4:
            self.counts["lp.solve_lp.status4"] += 1

    def _on_min_weighted_l1(self, args, out) -> None:
        self.counts["lp.min_weighted_l1.rounds"] += int(out[3])

    def _on_vertex_polisher(self, name):
        # (A, rhs, w, c0): c0 is the round's LP vertex, returned unchanged
        # unless the polisher found a smaller weighted l1 value
        def hook(args, out):
            w, c0 = args[2], args[3]
            self._vertex_value = float(np.sum(w * np.abs(c0)))
            self.counts[name + ".improved"] += int(out is not c0)
        return hook

    def _on_phase_hint(self, args, out) -> None:
        # runs after the two vertex polishers of the same round, so it is
        # compared with the vertex they saw
        w = args[2]
        better = (out is not None and
                  float(np.sum(w * np.abs(out))) < self._vertex_value)
        self.counts["lp.phase_hint.improved"] += int(better)

    def _on_polish_slsqp(self, args, out) -> None:
        # _polish keeps the SLSQP point on a tie too, so compare the
        # certified quality it ranks by: objective over feasibility excess
        mcm, b0 = args[0], args[1]

        def score(b):
            return mcm.objective(b) / (1.0 + max(mcm._worst_violation(b), 0.0))
        self.counts["lp.polish_slsqp.improved"] += int(score(out) > score(b0))

    def _on_certificate(self, args, cert) -> None:
        meta = cert.meta
        if meta["backend"] == "l1_torus":
            points = int(meta.get("grid_size") or 0)
        elif meta["backend"] == "analytic_wiener":
            points = int(meta["window"]) + 1
        elif meta.get("period"):
            points = int(meta["period"])
        else:
            points = 2 * int(meta["window"]) + 1
        self.counts["seqalg.certificate.grid_points"] += points

    # -- install / restore ---------------------------------------------------

    def install(self) -> None:
        self._patch_function(core.compute_np_norm, "core.compute_np_norm")
        self._patch_function(hardy.np_norm_hardy, "hardy.np_norm_hardy")
        self._patch_function(hardy.is_feasible, "hardy.is_feasible")
        self._patch_function(gleason.gleason_distance_hardy, "gleason.distance_hardy")
        for fn in ("np_norm_analytic_wiener", "np_norm_wiener", "np_norm_l1_torus"):
            self._patch_function(getattr(seqalg, fn), "seqalg." + fn)
        for fn in ("analytic_wiener_certificate", "wiener_certificate",
                   "l1_torus_certificate"):
            self._patch_function(getattr(seqalg, fn), "seqalg.certificate",
                                 self._on_certificate)
        self._patch_function(_lp.min_weighted_l1, "lp.min_weighted_l1",
                             self._on_min_weighted_l1)
        self._patch_function(_lp._phase_fixed_descent, "lp.phase_fixed",
                             self._on_vertex_polisher("lp.phase_fixed"))
        self._patch_function(_lp._irls_polish, "lp.irls",
                             self._on_vertex_polisher("lp.irls"))
        self._patch_function(_lp._phase_hint_solution, "lp.phase_hint",
                             self._on_phase_hint)
        self._patch_function(_lp.solve_lp, "lp.solve_lp", self._on_solve_lp)
        self._patch_method(_lp.ModulusConstrainedMax, "solve", "lp.mcm_solve")
        self._patch_method(_lp.ModulusConstrainedMax, "_polish", "lp.polish_slsqp",
                           self._on_polish_slsqp)
        self._patch_function(finitemodel.np_norm_closed_form, "finitemodel.closed_form")
        self._patch_function(finitemodel.np_norm_generic, "finitemodel.generic")
        self._install_highs()

    def _install_highs(self) -> None:
        # scipy's linprog builds a fresh _Highs per call through the
        # wrapper module's ``_h``; a proxy hands it a subclass whose run()
        # is a span, everything else comes from the real module
        from scipy.optimize._highspy import _highs_wrapper

        real = _highs_wrapper._h
        tracer = self

        class TimedHighs(real._Highs):
            def run(self):
                idx = tracer.begin("highs.run")
                try:
                    return super().run()
                finally:
                    tracer.end(idx)

        class Proxy:
            _Highs = TimedHighs

            def __getattr__(self, name):
                return getattr(real, name)

        self._patch(_highs_wrapper, "_h", Proxy())

    def restore(self) -> None:
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)

    # -- reduction -----------------------------------------------------------

    def layer_totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, busy seconds and self seconds."""
        child = np.zeros(len(self.spans))
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, dict[str, float]] = collections.defaultdict(
            lambda: {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
        for i, (name, start, end, _, _) in enumerate(self.spans):
            rec = out[name]
            rec["calls"] += 1
            rec["busy_s"] += end - start
            rec["self_s"] += end - start - child[i]
        return out

    def span_cost(self, calls: int = 20000, repeats: int = 5) -> float:
        """Median seconds one span adds to a call, timed on a no-op.

        The untraced and traced wall times of a run differ by less than the
        shared host drifts between two runs, so the tracing overhead is
        reported as this cost times the number of spans instead.  Hook work
        (row counts, polisher scores) is not included.
        """
        def noop():
            return None

        wrapped = self._wrap("trace.calibration", noop)
        first = len(self.spans)
        costs = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            for _ in range(calls):
                noop()
            t1 = time.perf_counter()
            for _ in range(calls):
                wrapped()
            t2 = time.perf_counter()
            costs.append(((t2 - t1) - (t1 - t0)) / calls)
            del self.spans[first:]
        return float(np.median(costs))

    def write(self, path) -> None:
        """Write every span once, as one JSON document."""
        import json

        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "problem"],
                       "spans": self.spans}, fh)
