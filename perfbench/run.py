"""picknorm benchmark: certified-bracket throughput, latency and quality.

    python3 perfbench/run.py --workload floor_mix --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the library is imported from
``src/``.  One client in one process solves one seeded problem at a time
(a closed loop) through the library's public solve functions for
``--seconds`` seconds, then checks every bracket with independent oracles
outside the timed region.  The last line of stdout is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` solves with
every layer wrapped in spans and reports the per-layer metrics and the
tracing overhead.  See ``perfbench/README.md`` for the metric definitions.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

# BLAS threads are pinned before numpy loads, here and in the setup probes:
# the host has two shared cores and the workloads are single-client.
BLAS_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                "MKL_NUM_THREADS": "1"}
SETUP_PROBES = 7

END_TO_END_UNITS = {
    "setup_s": "s",
    "throughput_pps": "1/s",
    "latency_p50_ms": "ms",
    "latency_p95_ms": "ms",
    "ok_rate": "ratio",
    "closed_rate": "ratio",
    "peak_rss_mb": "MB",
}

BACKEND_KINDS = ("hardy", "analytic_wiener", "wiener", "l1_torus",
                 "finite_sup", "finite_l1", "finite_lp", "finite_generic")


@dataclass
class Record:
    task: object
    outcome: str      # "ok", "stall" or "error"
    value: object     # result, partial bracket or exception
    latency_s: float


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def import_library():
    """Import picknorm from this checkout's src/, never from elsewhere."""
    if not (SRC / "picknorm" / "__init__.py").is_file():
        sys.exit(f"run.py: no picknorm sources under {SRC}; run from a checkout")
    sys.path.insert(0, str(SRC))
    import picknorm

    if not Path(picknorm.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"run.py: imported picknorm from {picknorm.__file__}, not {SRC}")
    return picknorm


def measure_setup(probes: int = SETUP_PROBES) -> float:
    """Median wall time of fresh interpreters that import and solve once."""
    times = []
    for _ in range(probes):
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, str(HERE / "setup_probe.py")])
        # wait() without a timeout returns as the probe exits; with one it
        # polls in steps of up to 50 ms, which quantized setup_s
        watchdog = threading.Timer(120, proc.kill)
        watchdog.start()
        try:
            code = proc.wait()
        finally:
            watchdog.cancel()
        times.append(time.perf_counter() - t0)
        if code:
            raise subprocess.CalledProcessError(code, proc.args)
    return statistics.median(times)


def solve(tasks, seconds, count, tracer=None):
    """Closed loop: the next problem starts when the previous one returns.

    Stops after ``count`` problems, or once ``seconds`` have passed when
    ``count`` is None.  Returns the records and the loop's wall time.
    """
    from picknorm import SolverStall, TailBoundFailure

    records = []
    start = time.perf_counter()
    for i, task in enumerate(tasks):
        if count is not None:
            if i >= count:
                break
        elif i and time.perf_counter() - start >= seconds:
            break
        if tracer is not None:
            tracer.problem = i
            root = tracer.begin("problem")
        t0 = time.perf_counter()
        try:
            value, outcome = task.call(), "ok"
        except (SolverStall, TailBoundFailure) as exc:
            partial = getattr(exc, "partial", None)
            value, outcome = (partial, "stall") if partial is not None else (exc, "error")
        except Exception as exc:  # recorded and reported as a failed problem
            value, outcome = exc, "error"
        latency = time.perf_counter() - t0
        if tracer is not None:
            tracer.end(root)
        records.append(Record(task, outcome, value, latency))
    return records, time.perf_counter() - start


def percentile(xs, q) -> float:
    import numpy as np

    return float(np.percentile(np.asarray(xs, dtype=float), q)) if len(xs) else 0.0


def judge(records):
    """Oracle verdicts: (hard failures, known-defect misses, example reasons)."""
    import oracles

    hard = known = 0
    examples = {"hard": [], "known": []}
    for i, rec in enumerate(records):
        reasons = oracles.check(rec.task, rec.outcome, rec.value)
        classes = {cls for cls, _ in reasons}
        hard += "hard" in classes
        known += classes == {"known"}
        for cls, why in reasons:
            examples[cls].append(f"problem {i} ({rec.task.kind}, {cls}): {why}")
    return hard, known, examples["hard"] + examples["known"]


def width_to_tol_p95(records) -> float:
    """95th percentile of width / tolerance over norm brackets that closed."""
    return percentile([(r.value.upper - r.value.lower) / r.task.tolerance
                       for r in records if r.outcome == "ok" and r.task.kind != "gleason"],
                      95)


def end_to_end(records, wall, setup_s, hard, known) -> dict:
    n = len(records)
    lat_ms = [r.latency_s * 1e3 for r in records]
    stalls = sum(r.outcome == "stall" for r in records)
    return {
        "setup_s": setup_s,
        "throughput_pps": n / wall,
        "latency_p50_ms": percentile(lat_ms, 50),
        "latency_p95_ms": percentile(lat_ms, 95),
        "ok_rate": 1.0 - (hard + known) / n,
        "closed_rate": 1.0 - stalls / n,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(tracer, records, span_cost_s) -> dict:
    """Per-layer metrics with units, from the traced pass."""
    from oracles import LP_BACKENDS

    tot = tracer.layer_totals()
    cnt = tracer.counts
    n = len(records)
    m: dict[str, tuple[float, str]] = {}

    root_ms = {}
    for name, start, end, _, problem in tracer.spans:
        if name == "problem":
            root_ms.setdefault(records[problem].task.kind, []).append((end - start) * 1e3)
    for kind in BACKEND_KINDS:
        m[f"core.backend.{kind}.ms_p50"] = (percentile(root_ms.get(kind, []), 50), "ms")
        m[f"core.backend.{kind}.ms_p95"] = (percentile(root_ms.get(kind, []), 95), "ms")

    def calls_busy(prefix):
        rec = tot.get(prefix, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
        m[prefix + ".calls"] = (rec["calls"], "count")
        m[prefix + ".busy_s"] = (rec["busy_s"], "s")
        return rec

    def improved(prefix, calls):
        m[prefix + ".improved_ratio"] = (cnt[prefix + ".improved"] / calls if calls else 0.0,
                                        "ratio")

    feas = calls_busy("hardy.is_feasible")
    m["hardy.is_feasible.per_problem"] = (feas["calls"] / n, "count/problem")
    calls_busy("gleason.distance_hardy")
    calls_busy("seqalg.certificate")
    m["seqalg.certificate.grid_points"] = (cnt["seqalg.certificate.grid_points"], "count")
    m["seqalg.bracket_rounds"] = (sum(
        r.value.iterations for r in records
        if r.task.kind in LP_BACKENDS and r.outcome != "error"), "count")
    mwl = calls_busy("lp.min_weighted_l1")
    m["lp.min_weighted_l1.self_s"] = (mwl["self_s"], "s")
    m["lp.min_weighted_l1.rounds"] = (cnt["lp.min_weighted_l1.rounds"], "count")
    mcm = calls_busy("lp.mcm_solve")
    m["lp.mcm_solve.self_s"] = (mcm["self_s"], "s")
    for prefix in ("lp.polish_slsqp", "lp.phase_fixed", "lp.irls", "lp.phase_hint"):
        improved(prefix, calls_busy(prefix)["calls"])
    lp = calls_busy("lp.solve_lp")
    rows = tracer.samples["lp.solve_lp.rows"]
    m["lp.solve_lp.rows_max"] = (max(rows, default=0), "rows")
    m["lp.solve_lp.rows_mean"] = (statistics.fmean(rows) if rows else 0.0, "rows")
    m["lp.solve_lp.cols_max"] = (max(tracer.samples["lp.solve_lp.cols"], default=0),
                                  "cols")
    m["lp.solve_lp.status4"] = (cnt["lp.solve_lp.status4"], "count")
    m["lp.solve_lp.raised"] = (cnt["lp.solve_lp.raised"], "count")
    highs = calls_busy("highs.run")
    m["lp.scipy_overhead_s"] = (lp["busy_s"] - highs["busy_s"], "s")
    calls_busy("finitemodel.closed_form")
    calls_busy("finitemodel.generic")
    m["bracket.width_to_tol_p95"] = (width_to_tol_p95(records), "ratio")
    m["trace.problems"] = (n, "count")
    m["trace.overhead_s"] = (len(tracer.spans) * span_cost_s, "s")
    return m


def main(argv=None) -> int:
    args = parse_args(argv)
    os.environ.update(BLAS_THREADS)
    picknorm = import_library()

    import numpy
    import scipy
    import workloads
    from setup_probe import first_solves

    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"run.py: unknown workload {args.workload!r}; "
                 f"choose from {', '.join(workloads.WORKLOADS)}")
    print(f"# picknorm benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print(f"# host: nproc={os.cpu_count()} python={platform.python_version()} "
          f"numpy={numpy.__version__} scipy={scipy.__version__} "
          f"picknorm={picknorm.__version__}; "
          + " ".join(f"{k}={v}" for k, v in BLAS_THREADS.items()))

    setup_s = measure_setup() if args.trace == 0 else None
    first_solves()  # lazy imports and first-call costs stay out of the loop

    if args.trace == 0:
        records, wall = solve(workloads.stream(args.workload, args.seed),
                              args.seconds, None)
    else:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
        try:
            records, wall = solve(workloads.stream(args.workload, args.seed),
                                  args.seconds, None, tracer)
        finally:
            tracer.restore()
        span_cost_s = tracer.span_cost()
        print(f"# trace: spans={len(tracer.spans)} span_cost_us={span_cost_s * 1e6:.3f}")
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / f"spans_{args.workload}_{args.seed}.json")

    hard, known, examples = judge(records)
    n = len(records)
    stalls = sum(r.outcome == "stall" for r in records)
    errors = sum(r.outcome == "error" for r in records)
    print(f"# closed loop, 1 client: attempted={n} wall_s={wall:.3f} ok="
          f"{n - stalls - errors} stalls={stalls} errors={errors} "
          f"hard_failures={hard} known_defect_misses={known} "
          f"fail_rate={(hard + known) / n:.6f} stall_rate={stalls / n:.6f} "
          f"width_to_tol_p95={width_to_tol_p95(records):.6g}")
    for line in examples[:5]:
        print(f"# {line}")

    if args.trace == 0:
        metrics = {k: (v, END_TO_END_UNITS[k])
                   for k, v in end_to_end(records, wall, setup_s, hard, known).items()}
        print(f"# latency samples: {n}")
    else:
        metrics = per_layer(tracer, records, span_cost_s)
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(json.dumps({
        "correct": hard == 0,
        "attempted": n,
        "failed": hard,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
