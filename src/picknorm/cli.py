"""Command-line front end: problem files in, certified results out.

Problem files are JSON documents; complex numbers are two-element arrays
[re, im] (plain numbers are taken as reals), angles are radians.  Exit
codes: 0 success, 1 I/O failure, 2 validation or parse failure, 3 solver
stall.  Output on stdout is deterministic for identical file + flags +
seed; wall-clock timing is only emitted under --timing.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

import numpy as np

from . import gleason as gleason_mod
from . import kernels, verify
from .core import (
    FINITE_NORM_KINDS,
    InterpolationProblem,
    Site,
    SolverError,
    SolverStall,
    ValidationError,
    compute_np_norm,
    finite_algebra,
    sup_lower_bound,
    BACKEND_SITE_KIND,
)

EXIT_OK = 0
EXIT_IO = 1
EXIT_VALIDATION = 2
EXIT_SOLVER = 3


class ParseError(ValueError):
    """Problem-file rejection carrying the offending field path."""

    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.path = path


def _is_number(value) -> bool:
    """A JSON number: ``true`` and ``false`` parse to bools, which are ints
    to Python, and are not numbers here."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _as_complex(value, path: str) -> complex:
    if _is_number(value):
        return complex(value)
    if isinstance(value, list) and len(value) == 2 and all(map(_is_number, value)):
        return complex(value[0], value[1])
    raise ParseError(path, "expected a number or [re, im] pair")


def parse_problem(doc: dict, tol_override: float | None = None) -> InterpolationProblem:
    """Parse a problem document field by field; raises ParseError with a
    field path on the first offense.  The value rules (finite, in range,
    distinct, a positive tolerance) are ``core.validate_problem``'s, which
    ``compute_np_norm`` applies."""
    if not isinstance(doc, dict):
        raise ParseError("$", "problem file must be a JSON object")
    backend = doc.get("backend")
    if backend not in BACKEND_SITE_KIND:
        raise ParseError("backend",
                         f"unknown backend {backend!r}; expected one of "
                         f"{sorted(BACKEND_SITE_KIND)}")
    raw_sites = doc.get("sites")
    if not isinstance(raw_sites, list) or not raw_sites:
        raise ParseError("sites", "expected a non-empty array")
    sites = _parse_sites(BACKEND_SITE_KIND[backend], raw_sites)

    raw_targets = doc.get("targets")
    if not isinstance(raw_targets, list):
        raise ParseError("targets", "expected an array")
    targets = tuple(_as_complex(v, f"targets[{i}]")
                    for i, v in enumerate(raw_targets))

    tolerance = doc.get("tolerance", 1e-9)
    if tol_override is not None:
        tolerance = tol_override
    if not _is_number(tolerance):
        raise ParseError("tolerance", "expected a number")

    return InterpolationProblem(backend=backend, sites=tuple(sites),
                                targets=targets, tolerance=float(tolerance),
                                params=_parse_params(doc))


def _parse_sites(kind: str, raw: list) -> list[Site]:
    """One Site per entry of a problem file's ``sites`` array; the value
    rules themselves are ``core.check_sites``'s."""
    sites = []
    for i, rv in enumerate(raw):
        path = f"sites[{i}]"
        if kind == "disc_point":
            sites.append(Site(kind, _as_complex(rv, path)))
        elif kind == "circle_angle":
            if not _is_number(rv):
                raise ParseError(path, "expected an angle in radians")
            sites.append(Site(kind, float(rv)))
        else:
            if not isinstance(rv, int) or isinstance(rv, bool):
                raise ParseError(path, "expected an integer")
            sites.append(Site(kind, int(rv)))
    return sites


def _parse_params(doc: dict) -> dict | None:
    """``backend_params`` with the basis entries parsed as complex numbers."""
    params = doc.get("backend_params")
    if params is not None and not isinstance(params, dict):
        raise ParseError("backend_params", "expected an object")
    if params:
        params = dict(params)
        weights = params.get("weights")
        named = {f"weights[{i}]": w for i, w in
                 enumerate(weights if isinstance(weights, list) else ())}
        for path, v in {"p": params.get("p"), **named}.items():
            if isinstance(v, bool):
                raise ParseError(f"backend_params.{path}", "expected a number")
        if "basis" in params and params["basis"] is not None:
            basis = params["basis"]
            if not isinstance(basis, list):
                raise ParseError("backend_params.basis", "expected an array of vectors")
            params["basis"] = [
                [_as_complex(v, f"backend_params.basis[{i}][{j}]")
                 for j, v in enumerate(row)]
                for i, row in enumerate(basis)
            ]
    return params or None


def _emit_json(doc: dict) -> None:
    # complex numbers left in a payload (the disc sites of an analytic dual
    # certificate) are written as [re, im], like the input format
    sys.stdout.write(json.dumps(doc, sort_keys=True, indent=2, default=_complex_out))
    sys.stdout.write("\n")


def _complex_out(z) -> list:
    return [float(np.real(z)), float(np.imag(z))]


def _load(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        print(f"error: cannot read {path}: {exc}", file=sys.stderr)
        raise SystemExit(EXIT_IO)
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        print(f"error: {path} is not valid JSON: {exc}", file=sys.stderr)
        raise SystemExit(EXIT_VALIDATION)


def cmd_compute(args) -> int:
    doc = _load(args.file)
    t0 = time.perf_counter()
    problem = parse_problem(doc, args.tol)
    result = compute_np_norm(problem)
    elapsed_ms = 1000.0 * (time.perf_counter() - t0)

    out = {
        "norm_lower": result.lower,
        "norm_upper": result.upper,
        "sup_floor": sup_lower_bound(problem.targets),
        "certificate": result.certificate,
        "iterations": result.iterations,
        "backend_echo": problem.backend,
        "timing_ms": elapsed_ms if args.timing else None,
        "config_echo": {
            "tolerance": problem.tolerance,
            "format": "csv" if args.csv else "json",
        },
    }
    if args.csv:
        sys.stdout.write("norm_lower,norm_upper,sup_floor,backend,iterations\n")
        sys.stdout.write(
            f"{out['norm_lower']!r},{out['norm_upper']!r},"
            f"{out['sup_floor']!r},{problem.backend},{result.iterations}\n")
    else:
        _emit_json(out)
    return EXIT_OK


def cmd_gleason(args) -> int:
    doc = _load(args.file)
    backend = doc.get("backend")
    if backend != "hardy" and backend not in FINITE_NORM_KINDS:
        raise ParseError("backend", f"backend {backend!r} has no part diagnostics")
    raw = doc.get("sites")
    if not isinstance(raw, list) or len(raw) < 2:
        raise ParseError("sites", "need at least two sites")
    sites = [s.value for s in _parse_sites(BACKEND_SITE_KIND[backend], raw)]
    if backend == "hardy":
        target = "hardy"
    else:
        target = finite_algebra(backend, _parse_params(doc), sites)
    slack = doc.get("part_slack", 1e-6)
    report = gleason_mod.part_partition(target, sites, part_slack=slack)

    out = {
        "backend_echo": backend,
        "sites": [(_complex_out(s) if backend == "hardy" else int(s))
                  for s in report.sites],
        "distances": [[[float(lo), float(hi)] for lo, hi in row]
                      for row in report.distances],
        "partition": [list(g) for g in report.partition],
        "undecided": [list(p) for p in report.undecided],
        "part_slack": report.part_slack,
    }
    if args.theorem4:
        check = gleason_mod.certify_trivial_parts(target, list(report.sites))
        out["theorem4"] = {
            "claimed_np_infty": check["claimed_np_infty"],
            "all_pairs_certified_trivial": check["all_pairs_certified_trivial"],
            "consistent": check["consistent"],
            "pairs": [
                {"pair": [(_complex_out(x) if backend == "hardy" else int(x))
                          for x in p["pair"]],
                 "same_character": p["same_character"],
                 "np_value": p["np_value"],
                 "trivial_certified": p["trivial_certified"]}
                for p in check["pairs"]
            ],
        }
    _emit_json(out)
    return EXIT_OK


def cmd_verify(args) -> int:
    results = verify.run_suite(args.suite, seed=args.seed)
    all_pass = True
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        all_pass = all_pass and r.passed
        sys.stdout.write(
            f"suite {r.name}: {status} checks={r.checks} failures={r.failures} "
            f"worst_slack={r.worst_slack:.6e}\n")
        print(f"  [{r.name}] {r.detail} ({r.elapsed_s:.1f}s)", file=sys.stderr)
    sys.stdout.write(f"overall: {'PASS' if all_pass else 'FAIL'}\n")
    return EXIT_OK if all_pass else EXIT_SOLVER


def cmd_kernel_probe(args) -> int:
    sys.stdout.write("order,dlvp_l1_norm,fejer_l1_norm\n")
    order = 1
    while order <= args.lmax:
        v = kernels.kernel_l1_norm(order, kind="dlvp")
        f = kernels.kernel_l1_norm(order, kind="fejer")
        sys.stdout.write(f"{order},{v!r},{f!r}\n")
        order *= 2
    return EXIT_OK


def _seed(text: str) -> int:
    """A ``--seed`` value: numpy's generators take only seeds >= 0."""
    seed = int(text)
    if seed < 0:
        raise argparse.ArgumentTypeError(f"seed must be >= 0, got {seed}")
    return seed


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="picknorm",
        description="Certified interpolation norms on concrete commutative "
                    "Banach algebra backends.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compute", help="bracket the norm for a problem file")
    p.add_argument("file")
    p.add_argument("--tol", type=float, default=None,
                   help="override the problem tolerance")
    fmt = p.add_mutually_exclusive_group()
    fmt.add_argument("--json", action="store_true", default=True,
                     help="JSON output (default)")
    fmt.add_argument("--csv", action="store_true",
                     help="flat CSV output for plotting")
    p.add_argument("--timing", action="store_true",
                   help="include wall-clock timing (breaks byte determinism)")
    p.set_defaults(func=cmd_compute)

    p = sub.add_parser("gleason", help="part distances and partition")
    p.add_argument("file")
    p.add_argument("--theorem4", action="store_true",
                   help="append the trivial-part consistency report")
    p.set_defaults(func=cmd_gleason)

    p = sub.add_parser("verify", help="run a named invariant suite")
    p.add_argument("suite", choices=list(verify.SUITES))
    p.add_argument("--seed", type=_seed, default=1)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("kernel-probe",
                       help="kernel l1-norm sequence as CSV")
    p.add_argument("--lmax", type=int, default=64)
    p.set_defaults(func=cmd_kernel_probe)

    return parser


def main(argv=None) -> int:
    """Run one command; its parse, validation and solver errors become exit
    codes 2 and 3 here, with the message on stderr."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ParseError, ValidationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except SolverStall as exc:
        print(f"error: solver stalled: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except SolverError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
