"""Trigonometric smoothing kernels and the measure-smoothing chain.

Two coefficient profiles: the positive triangular kernel (order n, weights
1 - |k|/(n+1)) and the trapezoid kernel of order l whose coefficients equal
1 exactly for |k| <= l and fall linearly to 0 at |k| = 2l.  Convolving a
measure with the trapezoid kernel yields an integrable function with the
same Fourier coefficients up to frequency l, which is how interpolation
problems on the circle are smoothed without moving the pinned data.

Conventions: normalized Haar measure throughout — function L1 norms are
(1/2pi) * integral, a unit point mass has total variation 1, and densities
are taken with respect to dtheta/(2pi), so the l1 quadrature weight on an
M-point grid is 1/M.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field

import numpy as np

from .core import (
    DomainViolation,
    GridTooCoarse,
    SolverStall,
    _integer,
    check_dimension,
    check_sites,
)
from .seqalg import np_norm_l1_torus


@dataclass(frozen=True)
class KernelSpec:
    """Fourier-coefficient profile of a smoothing kernel."""

    kind: str
    order: int
    coeffs: dict

    def coeff(self, k: int) -> float:
        """The coefficient at frequency ``k``, a real integer by
        ``core._integer`` (1.5, NaN and True are rejected, never truncated)."""
        if not (isinstance(k, numbers.Real) and not isinstance(k, bool)
                and _integer(complex(k))):
            raise DomainViolation(f"frequency must be an integer, got {k!r}")
        return self.coeffs.get(int(k), 0.0)

    @property
    def max_freq(self) -> int:
        return max(abs(k) for k in self.coeffs)


def kernel_coeffs(kind: str, order: int) -> KernelSpec:
    """Coefficient profile: triangular ("fejer") or trapezoid ("dlvp").

    The trapezoid profile min(1, 2 - |k|/l) is exactly 1 for |k| <= l and
    supported on |k| < 2l; equivalently it is twice the triangular kernel of
    order 2l-1 minus the one of order l-1.  The order passes
    ``core.check_dimension``.
    """
    order = check_dimension(order, "kernel order")
    if kind == "fejer":
        coeffs = {k: 1.0 - abs(k) / (order + 1)
                  for k in range(-order, order + 1)}
    elif kind == "dlvp":
        coeffs = {}
        for k in range(-2 * order, 2 * order + 1):
            c = min(1.0, 2.0 - abs(k) / order)
            if c > 0.0:
                coeffs[k] = c
    else:
        raise DomainViolation(f"unknown kernel kind {kind!r}")
    return KernelSpec(kind=kind, order=order, coeffs=coeffs)


@dataclass(frozen=True)
class TorusMeasure:
    """A measure on the circle: point masses plus an optional density.

    ``atoms`` is a tuple of (angle, complex weight); ``density`` holds grid
    samples of an integrable function on uniformly spaced angles (with
    respect to normalized Haar measure, so its mass is mean(samples)).
    """

    atoms: tuple = ()
    density: np.ndarray | None = None

    def total_variation(self) -> float:
        tv = sum(abs(complex(w)) for _, w in self.atoms)
        if self.density is not None:
            tv += float(np.mean(np.abs(self.density)))
        return float(tv)

    def fourier(self, ks) -> np.ndarray:
        """hat mu(k) = integral of e^{-ik theta} d mu (atoms exact, density
        by the trapezoid rule on its own grid).  Every frequency must be an
        integer by ``core._integer`` (1.5 is rejected, never truncated);
        repeats are allowed."""
        k = np.asarray(ks, dtype=complex).ravel()
        bad = np.flatnonzero(~_integer(k))
        if len(bad):
            i = int(bad[0])
            z = complex(k[i])
            raise DomainViolation(
                f"frequency {i} = {z.real if z.imag == 0 else z!r} is not an integer")
        ks = k.real.astype(int)
        out = np.zeros(len(ks), dtype=complex)
        for theta, w in self.atoms:
            out += complex(w) * np.exp(-1j * ks * float(theta))
        if self.density is not None:
            g = np.asarray(self.density, dtype=complex)
            m = len(g)
            th = (2 * np.pi / m) * np.arange(m)
            out += np.exp(-1j * np.outer(ks, th)) @ g / m
        return out


def unit_point_mass(theta: float = 0.0) -> TorusMeasure:
    return TorusMeasure(atoms=((float(theta), 1.0 + 0.0j),))


def convolve(mu: TorusMeasure, V: KernelSpec, grid: int):
    """Samples of (mu * V)(theta_m) = sum_k c_k hat mu(k) e^{ik theta_m} on
    ``grid`` uniform angles, and the quadrature l1 norm (1/M) sum |samples|.

    Frequency-domain evaluation: exact for the atomic part, quadrature-exact
    for densities that are trigonometric polynomials resolved by their own
    grid.  Output coefficients at |k| <= l reproduce hat mu(k) exactly for
    the trapezoid kernel.  The grid size passes ``core.check_dimension``.
    """
    grid = check_dimension(grid, "grid")
    if grid < 8 * V.max_freq:
        raise GridTooCoarse(
            f"grid {grid} < 8 * max kernel frequency {V.max_freq}")
    ks = np.array(sorted(V.coeffs), dtype=int)
    weights = np.array([V.coeffs[int(k)] for k in ks])
    muhat = mu.fourier(ks)
    spec = np.zeros(grid, dtype=complex)
    np.add.at(spec, np.mod(ks, grid), weights * muhat)
    samples = np.fft.ifft(spec) * grid
    l1 = float(np.mean(np.abs(samples)))
    return samples, l1


def kernel_l1_norm(order: int, grid: int | None = None,
                   kind: str = "dlvp") -> float:
    """Quadrature value of the kernel's l1 norm with a stability check:
    the grid doubles until the value moves by less than 1e-8.  A given grid
    size passes ``core.check_dimension``."""
    V = kernel_coeffs(kind, order)
    grid = 64 * order if grid is None else check_dimension(grid, "grid")
    if grid < 64 * order:
        raise GridTooCoarse(f"grid {grid} < 64 * order {order}")
    m = 1 << int(np.ceil(np.log2(max(grid, 8192))))
    delta = unit_point_mass()
    _, prev = convolve(delta, V, m)
    while m < 2 ** 22:
        m *= 2
        _, val = convolve(delta, V, m)
        if abs(val - prev) < 1e-8:
            return val
        prev = val
    raise GridTooCoarse(
        f"kernel l1 quadrature did not stabilize below 1e-8 by grid {m}")


def _sample_coeffs(samples: np.ndarray, ks) -> np.ndarray:
    """Fourier coefficients of a sampled trig polynomial (exact when the
    grid resolves degree + max frequency)."""
    ks = np.asarray(ks, dtype=int).ravel()
    m = len(samples)
    spec = np.fft.fft(samples) / m
    return spec[np.mod(ks, m)]


def smoothing_chain(mu: TorusMeasure, ks, orders=None,
                    grid: int | None = None) -> dict:
    """Smooth a measure into integrable functions without moving the pinned
    coefficients, and compare against the interpolation-norm bracket.

    For each trapezoid order l > max|k_i|: f_l = mu * V_l has
    hat f_l(k_i) = hat mu(k_i) exactly (checked to 1e-10), its l1 norm is at
    most ||V_l||_1 * ||mu||, and it interpolates — so ||f_l||_1 must sit at
    or above the certified lower bound for the interpolation norm of the
    pinned coefficients.  The report records every slack in that chain.
    The frequencies pass ``core.check_sites`` for ``l1_torus``, the orders
    ``core.check_dimension``.
    """
    ks = check_sites("l1_torus", ks)
    kmax = int(np.max(np.abs(ks))) if len(ks) else 0
    a = mu.fourier(ks)
    tv = mu.total_variation()

    if orders is None:
        l0 = 1
        while l0 <= kmax:
            l0 *= 2
        orders = [l0 * (2 ** j) for j in range(5)]
    else:
        orders = [check_dimension(l, "smoothing order") for l in orders]
        if any(l <= kmax for l in orders):
            raise DomainViolation("every order must exceed max|k_i|")

    if np.any(np.abs(a) > 0):
        try:
            bracket = np_norm_l1_torus(ks, a, tolerance=1e-3)
        except SolverStall as exc:
            bracket = exc.partial
        np_lower, np_upper = bracket.lower, bracket.upper
    else:
        np_lower = np_upper = 0.0

    rows = []
    coeffs_match = True
    for l in orders:
        V = kernel_coeffs("dlvp", l)
        m = grid if grid is not None else max(1024, 8 * V.max_freq)
        samples, l1 = convolve(mu, V, m)
        fhat = _sample_coeffs(samples, ks)
        cerr = float(np.max(np.abs(fhat - a))) if len(ks) else 0.0
        coeffs_match = coeffs_match and cerr <= 1e-10
        rows.append({
            "order": l,
            "l1_norm": l1,
            "coefficient_error": cerr,
            "slack_vs_np_lower": l1 - np_lower,
            "slack_vs_measure_norm": tv - l1,
        })

    return {
        "frequencies": [int(k) for k in ks],
        "targets": [complex(z) for z in a],
        "measure_norm": tv,
        "np_lower": float(np_lower),
        "np_upper": float(np_upper),
        "rows": rows,
        "coefficients_match": coeffs_match,
    }
