"""Seeded problem streams for the three benchmark workloads.

The generators live here, not in the library, so that a change to
``picknorm.verify`` cannot silently move the workload.  They mirror the
distributions of ``verify._floor_problem`` (``floor_mix``), of
``verify.suite_oracle_equivalence`` (the generic finite solves), and of the
ill-conditioned Hardy reproducer in ROADMAP item 1 (``disc``).

A stream is an endless sequence of ``Task`` objects.  Kinds are interleaved
round-robin in a fixed cycle, and every kind draws from its own generator
seeded from ``(seed, workload, kind)``, so the first N tasks of a stream are
the same whatever the machine speed, and the kind mix of any prefix is the
cycle's mix to within one cycle.  Where solve time depends mostly on the
number of sites, a kind's k-th draw takes its site count from k rather than
from the generator (stratified sampling): the marginal distribution is
unchanged, and runs of different seeds differ less in their mix of sizes.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from picknorm import InterpolationProblem, Site, core, finitemodel, gleason
from picknorm.finitemodel import FiniteAlgebra

WORKLOADS = ("floor_mix", "tight_seq", "disc")


@dataclass(frozen=True)
class Task:
    """One public solve call plus what the oracles need to check it.

    ``kind`` is the backend name, ``finite_generic`` or ``gleason``.
    ``call`` performs the public solve and returns its result; it looks the
    solve function up on its module at call time, so the tracer's wrappers
    see it.  ``problem`` (for ``compute_np_norm`` calls) or ``data`` carries
    the inputs for the oracles.
    """

    kind: str
    tolerance: float
    call: Callable[[], object]
    problem: InterpolationProblem | None = None
    data: dict | None = None


def _disc_points(rng, n, rmax):
    while True:
        lam = rng.uniform(0, rmax, n) * np.exp(2j * np.pi * rng.uniform(0, 1, n))
        if len(set(lam.tolist())) == n:
            return lam


def _targets(rng, n):
    return rng.standard_normal(n) + 1j * rng.standard_normal(n)


def _norm_task(backend, sites, targets, tol, params=None) -> Task:
    p = InterpolationProblem(backend, tuple(sites), tuple(complex(a) for a in targets),
                             tol, params)
    return Task(kind=backend, tolerance=tol, call=lambda: core.compute_np_norm(p),
                problem=p)


# -- floor_mix: the remark1 floor suite plus oracle_equivalence solves -------

def _floor(backend: str, rng, k: int) -> Task:
    if backend == "hardy":
        n = 1 + k % 4
        lam = _disc_points(rng, n, 0.95)
        return _norm_task(backend, [Site("disc_point", complex(v)) for v in lam],
                          _targets(rng, n), 1e-6)
    if backend == "analytic_wiener":
        n = 1 + k % 3
        lam = _disc_points(rng, n, 0.8)
        return _norm_task(backend, [Site("disc_point", complex(v)) for v in lam],
                          _targets(rng, n), 5e-2)
    if backend == "wiener":
        q = int(rng.integers(2, 13))
        n = int(rng.integers(1, min(q, 3) + 1))
        ps = rng.choice(q, size=n, replace=False)
        return _norm_task(backend,
                          [Site("circle_angle", 2 * np.pi * int(p) / q) for p in ps],
                          _targets(rng, n), 1e-1)
    if backend == "l1_torus":
        n = 1 + k % 3
        ks = rng.choice(np.arange(-3, 4), size=n, replace=False)
        return _norm_task(backend, [Site("integer_character", int(f)) for f in ks],
                          _targets(rng, n), 0.5)
    dim = int(rng.integers(1, 7))
    n = int(rng.integers(1, dim + 1))
    subset = rng.choice(np.arange(1, dim + 1), size=n, replace=False)
    params: dict = {"dimension": dim}
    if backend in ("finite_sup", "finite_l1"):
        params["weights"] = (1.0 + rng.uniform(0, 2, dim)).tolist()
    else:
        params["p"] = float(1.0 + rng.uniform(0, 3))
    return _norm_task(backend, [Site("coordinate_index", int(i)) for i in subset],
                      _targets(rng, n), 1e-9, params)


def _finite_generic(rng, k: int) -> Task:
    norm_kind = ("weighted_sup", "weighted_l1", "lp")[k % 3]
    dim = int(rng.integers(1, 7))
    if norm_kind == "lp":
        alg = FiniteAlgebra(dim, norm_kind, p=float(1.0 + rng.uniform(0.2, 3)))
    else:
        alg = FiniteAlgebra(dim, norm_kind, weights=1.0 + rng.uniform(0, 2, dim))
    n = int(rng.integers(1, dim + 1))
    subset = [int(i) for i in rng.choice(np.arange(1, dim + 1), size=n, replace=False)]
    a = _targets(rng, n)
    return Task(kind="finite_generic", tolerance=1e-10,
                call=lambda: finitemodel.np_norm_generic(alg, subset, a, tolerance=1e-10),
                data={"alg": alg, "subset": subset, "targets": a})


# -- tight_seq: large cut LPs and multi-round brackets, sequence algebras ----

def _tight_analytic(rng, k: int) -> Task:
    # 1e-7, not 1e-9: below about 1e-8 some 5% of draws run the full eight
    # window doublings and stall after 0.5-1.6 s, and those few draws alone
    # moved throughput and p95 by 13-20% between seeds in a 30 s run
    n = 1 + k % 3
    lam = _disc_points(rng, n, 0.8)
    return _norm_task("analytic_wiener", [Site("disc_point", complex(v)) for v in lam],
                      _targets(rng, n), 1e-7)


def _tight_wiener(rng, k: int) -> Task:
    q = int(rng.integers(2, 13))
    n = int(rng.integers(1, min(q, 3) + 1))
    ps = rng.choice(q, size=n, replace=False)
    return _norm_task("wiener", [Site("circle_angle", 2 * np.pi * int(p) / q) for p in ps],
                      _targets(rng, n), 1e-9)


def _tight_torus(rng, k: int) -> Task:
    # tolerances stay under 1.5e-7, where the certification grid a refinement
    # round would need exceeds its 2^25 cap, so problems that do not close in
    # the first round stall there; above it a rare draw certifies on a 2^25
    # point grid (1.6 GB, seconds), and peak memory depended on the seed
    n = 2 + k % 3
    ks = rng.choice(np.arange(-6, 7), size=n, replace=False)
    tol = float(10.0 ** rng.uniform(-9, -7))
    return _norm_task("l1_torus", [Site("integer_character", int(f)) for f in ks],
                      _targets(rng, n), tol)


def _multiround_analytic(rng, k: int) -> Task:
    # the only steady source of brackets that go past their first round:
    # at 1e-9 with two sites in |lambda| < 0.5 about one draw in five
    # doubles its dual window (rounds 2-3, full primal support from round
    # 3) and about one in twenty-five runs seven rounds (0.4-0.7 s); with
    # three sites the long brackets run eight rounds, stall after up to
    # 1.5 s, and set a run's throughput
    lam = _disc_points(rng, 2, 0.5)
    return _norm_task("analytic_wiener", [Site("disc_point", complex(v)) for v in lam],
                      _targets(rng, 2), 1e-9)


def _incommensurate_wiener(rng, k: int) -> Task:
    # two angles: with three, one draw in twenty doubles the truncation
    # degree up to 1024 and takes 1.5-10 s, a single draw then setting a
    # 30 s run's throughput
    while True:
        th = np.sort(rng.uniform(0, 2 * np.pi, 2))
        if np.min(np.diff(th)) > 0.2:
            break
    return _norm_task("wiener", [Site("circle_angle", float(t)) for t in th],
                      _targets(rng, 2), 1e-3)


# -- disc: ill-conditioned Hardy brackets and Gleason distances ---------------

def _disc_hardy(rng, k: int) -> Task:
    n = 1 + k % 5
    lam = rng.uniform(0, 0.95, n) * np.exp(2j * np.pi * rng.uniform(size=n))
    z = _targets(rng, n)
    return _norm_task("hardy", [Site("disc_point", complex(v)) for v in lam], z, 1e-9)


def _disc_gleason(rng, k: int) -> Task:
    lam1, lam2 = _disc_points(rng, 2, 0.95)
    return Task(kind="gleason", tolerance=1e-6,
                call=lambda: gleason.gleason_distance_hardy(lam1, lam2, 1e-6),
                data={"lam1": complex(lam1), "lam2": complex(lam2)})


# The cycles fix each workload's kind mix.  floor_mix weights the seven
# backends equally, as the floor suite does, with the generic finite solver
# as an eighth kind.  tight_seq gives the multi-round analytic brackets and
# incommensurate wiener one slot in seven each.  disc draws four Hardy
# brackets per Gleason distance.
_CYCLES: dict[str, tuple[tuple[str, Callable], ...]] = {
    "floor_mix": tuple((b, (lambda rng, k, b=b: _floor(b, rng, k))) for b in (
        "hardy", "analytic_wiener", "wiener", "l1_torus",
        "finite_sup", "finite_l1", "finite_lp")) + (
        ("finite_generic", _finite_generic),),
    "tight_seq": (
        ("analytic_wiener", _tight_analytic),
        ("l1_torus", _tight_torus),
        ("wiener", _tight_wiener),
        ("analytic_wiener_multiround", _multiround_analytic),
        ("l1_torus", _tight_torus),
        ("wiener", _tight_wiener),
        ("wiener_incommensurate", _incommensurate_wiener),
    ),
    "disc": (
        ("hardy", _disc_hardy),
        ("hardy", _disc_hardy),
        ("gleason", _disc_gleason),
        ("hardy", _disc_hardy),
        ("hardy", _disc_hardy),
    ),
}


def stream(workload: str, seed: int) -> Iterator[Task]:
    """Endless, seed-determined task sequence for one workload."""
    if workload not in _CYCLES:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    cycle = _CYCLES[workload]
    rngs = {slot: np.random.default_rng([seed, zlib.crc32(f"{workload}/{slot}".encode())])
            for slot, _ in cycle}
    draws = dict.fromkeys(rngs, 0)
    while True:
        for slot, make in cycle:
            yield make(rngs[slot], draws[slot])
            draws[slot] += 1
