"""Deterministic counts of the traced benchmark.

    python3 -m pytest -q perfbench/test_counts.py

LP calls, HiGHS runs, cut rounds, feasibility checks and certificate grid
points depend only on the inputs, so two traced runs of the same seed and
problem count must agree exactly; a later change can gate them without
timing noise.
"""

import itertools
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

run.import_library()

import tracing  # noqa: E402
import workloads  # noqa: E402

COUNTS = (
    "lp.solve_lp.calls",
    "lp.solve_lp.rows_max",
    "highs.run.calls",
    "lp.min_weighted_l1.rounds",
    "lp.mcm_solve.calls",
    "lp.polish_slsqp.calls",
    "seqalg.bracket_rounds",
    "seqalg.certificate.grid_points",
    "hardy.is_feasible.calls",
    "gleason.distance_hardy.calls",
    "finitemodel.generic.calls",
)

PROBLEMS = {"floor_mix": 24, "tight_seq": 7, "disc": 30}


def traced_counts(workload: str, seed: int) -> dict:
    tracer = tracing.Tracer()
    tracer.install()
    try:
        records, _ = run.solve(workloads.stream(workload, seed), None,
                               PROBLEMS[workload], tracer)
    finally:
        tracer.restore()
    metrics = run.per_layer(tracer, records, 0.0)
    return {name: metrics[name][0] for name in COUNTS}


@pytest.mark.parametrize("workload", sorted(PROBLEMS))
def test_counts_repeat_for_a_seed(workload):
    first = traced_counts(workload, seed=5)
    assert first == traced_counts(workload, seed=5)
    assert first["lp.solve_lp.calls"] == first["highs.run.calls"]
    if workload == "disc":
        assert first["lp.solve_lp.calls"] == 0
        assert first["hardy.is_feasible.calls"] > 0
    else:
        assert first["lp.solve_lp.calls"] > 0


def test_tight_seq_has_multiround_brackets():
    # the multi-round slot must keep producing brackets past round 1, or
    # tight_seq stops exercising the bracket loop
    slots = [slot for slot, _ in workloads._CYCLES["tight_seq"]]
    pos = slots.index("analytic_wiener_multiround")
    tasks = itertools.islice(workloads.stream("tight_seq", 5), pos, None, len(slots))
    records, _ = run.solve(tasks, None, 20)
    rounds = [r.value.iterations for r in records if r.outcome != "error"]
    assert len(rounds) == 20
    assert sum(n > 1 for n in rounds) >= 2


def test_tracer_restores_the_library():
    from picknorm import _lp, core, gleason, hardy

    before = (core.compute_np_norm, hardy.is_feasible, gleason.is_feasible,
              _lp.solve_lp, _lp.ModulusConstrainedMax.solve)
    tracer = tracing.Tracer()
    tracer.install()
    assert gleason.is_feasible is hardy.is_feasible is not before[1]
    tracer.restore()
    assert (core.compute_np_norm, hardy.is_feasible, gleason.is_feasible,
            _lp.solve_lp, _lp.ModulusConstrainedMax.solve) == before


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "disc", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
