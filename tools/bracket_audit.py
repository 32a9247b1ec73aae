"""Compare the brackets two checkouts report on the same benchmark problems.

    python3 tools/bracket_audit.py BASE CHANGE --workload tight_seq --seed 1 --count 2000

BASE and CHANGE are source checkouts (each with ``src/`` and
``perfbench/``).  One subprocess per checkout, with one BLAS thread, solves
the first ``--count`` problems of that checkout's
``perfbench/workloads.stream(workload, seed)`` and records
``(outcome, lower, upper, iterations)`` per problem, with the hard failures
``perfbench/oracles.check`` finds.  The two subprocesses run side by side.
The report gives, per problem kind, how many brackets are identical (both
ends bit for bit), narrower (no end moved outward), wider (some end moved
outward) or changed outcome, the widest widening, the indices of the first
few problems that got wider or changed outcome (to re-check by hand), and
the CHANGE side's hard oracle failures.  It imports only from
``perfbench/`` and writes nothing there.

The exit code is 0 when no bracket got wider, no outcome changed and the
change side has no hard oracle failure, and 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

ONE_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}
FIRST = 10  # problems listed per class, to re-check by hand


def solve_checkout(checkout: str, workload: str, seed: int, count: int) -> None:
    """Child side: print one JSON list with a record per problem."""
    sys.path.insert(0, str(Path(checkout, "perfbench").resolve()))
    import run

    run.import_library()
    import oracles
    import workloads

    records, _ = run.solve(workloads.stream(workload, seed), None, count)
    out = []
    for rec in records:
        value = rec.value
        if rec.outcome == "error":
            lower = upper = iterations = None
        elif isinstance(value, tuple):  # a Gleason distance interval
            (lower, upper), iterations = value, None
        else:
            lower, upper, iterations = value.lower, value.upper, value.iterations
        hard = [why for cls, why in oracles.check(rec.task, rec.outcome, value)
                if cls == "hard"]
        out.append({"kind": rec.task.kind, "outcome": rec.outcome,
                    "lower": None if lower is None else float(lower),
                    "upper": None if upper is None else float(upper),
                    "iterations": iterations, "hard": hard})
    print(json.dumps(out))


def classify(base: dict, change: dict) -> tuple[str, float]:
    """(class, widening) of one problem's pair of records."""
    if base["outcome"] != change["outcome"]:
        return "outcome", 0.0
    if (base["lower"], base["upper"]) == (change["lower"], change["upper"]):
        return "identical", 0.0
    widening = max(base["lower"] - change["lower"], change["upper"] - base["upper"])
    return ("wider", widening) if widening > 0 else ("narrower", 0.0)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("base")
    ap.add_argument("change")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--count", type=int, required=True)
    ap.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.child:
        solve_checkout(args.base, args.workload, args.seed, args.count)
        return 0

    env = dict(os.environ, **ONE_THREAD)
    procs = [subprocess.Popen(
        [sys.executable, __file__, checkout, checkout, "--child",
         "--workload", args.workload, "--seed", str(args.seed),
         "--count", str(args.count)], stdout=subprocess.PIPE, env=env, text=True)
        for checkout in (args.base, args.change)]
    runs = []
    for proc in procs:
        stdout, _ = proc.communicate()
        if proc.returncode:
            sys.exit(f"bracket_audit: a checkout's run exited {proc.returncode}")
        runs.append(json.loads(stdout.strip().splitlines()[-1]))
    base, change = runs

    counts: dict[str, Counter] = {}
    widest = (0.0, None)
    first: dict[str, list[str]] = {"wider": [], "outcome": []}
    for i, (b, c) in enumerate(zip(base, change)):
        cls, widening = classify(b, c)
        counts.setdefault(b["kind"], Counter())[cls] += 1
        if widening > widest[0]:
            widest = (widening, f"problem {i} ({b['kind']})")
        if cls in first and len(first[cls]) < FIRST:
            first[cls].append(f"{i} ({b['kind']})")
    hard = [f"problem {i} ({c['kind']}): {why}"
            for i, c in enumerate(change) for why in c["hard"]]

    print(f"workload={args.workload} seed={args.seed} problems={len(base)}")
    classes = ("identical", "narrower", "wider", "outcome")
    print(f"{'kind':<22}" + "".join(f"{k:>11}" for k in classes))
    for kind in sorted(counts):
        print(f"{kind:<22}" + "".join(f"{counts[kind][k]:>11}" for k in classes))
    total = sum(counts.values(), Counter())
    print(f"{'all':<22}" + "".join(f"{total[k]:>11}" for k in classes))
    print("widest widening: " + (f"{widest[0]:.3e} at {widest[1]}"
                                  if widest[1] else "none"))
    for cls, where in first.items():
        print(f"first {cls}: " + (", ".join(where) if where else "none"))
    print(f"hard oracle failures: change {len(hard)}, "
          f"base {sum(len(b['hard']) for b in base)}")
    for line in hard:
        print(f"  {line}")
    return int(bool(total["wider"] or total["outcome"] or hard))


if __name__ == "__main__":
    sys.exit(main())
