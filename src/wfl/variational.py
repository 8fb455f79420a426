"""Convex duality layer for the dry-friction limit.

The limit dissipation is encoded by the density

    M(v, xi) = |v| K(xi) + chi(xi),        K(xi) = int_0^1 |xi - W'(y)| dy,

where ``W'`` is the force profile of one corrugation period (1-periodic,
zero average, range [rho_minus, rho_plus]) and ``chi`` is the indicator of
the closed threshold interval.  Its viscous counterpart is the quadratic
density ``M_eps(v, xi) = eps^gamma v^2/2 + xi^2/(2 eps^gamma)``.  Both
dominate the duality pairing ``v * xi``, with equality exactly on the
contact set; that equality-case structure is what the upper-energy-estimate
certificate checks on computed trajectories.

The indicator is represented by a ``math.inf`` sentinel, never by a finite
penalty: a finite penalty would silently absorb constraint violations that
the certificate exists to catch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np
from scipy.optimize import brentq

from .errors import ConfigError
from .limit_solver import LimitSystem, Trajectory
from .models import BristleModel, coefficients, invert_contact_map
from .profiles import SurfaceProfile, eval_profile

__all__ = [
    "ElasticInterval",
    "ViscousQuadratic",
    "LimitWithK",
    "CertificateReport",
    "legendre_conjugate_limit",
    "legendre_conjugate_numeric",
    "k_of_xi",
    "contact_set_member",
    "limit_density",
    "de_giorgi_certificate",
]


@dataclass(frozen=True)
class ElasticInterval:
    """Closed force interval [lower, upper] where the state can stick."""

    lower: float
    upper: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.lower) and math.isfinite(self.upper)):
            raise ConfigError("threshold interval must be finite")
        if not self.lower < 0.0 < self.upper:
            raise ConfigError(
                f"thresholds must straddle zero, got [{self.lower}, {self.upper}]"
            )

    @classmethod
    def from_coefficients(cls, coeffs) -> "ElasticInterval":
        return cls(lower=coeffs.rho_minus, upper=coeffs.rho_plus)

    @classmethod
    def from_system(cls, system: LimitSystem) -> "ElasticInterval":
        return cls(lower=system.rho_minus, upper=system.rho_plus)

    @property
    def width(self) -> float:
        return self.upper - self.lower

    def contains(self, xi: float, tol: float = 0.0) -> bool:
        return self.lower - tol <= xi <= self.upper + tol

    def clip(self, xi):
        return np.clip(xi, self.lower, self.upper)


def legendre_conjugate_limit(xi: float, interval: ElasticInterval) -> float:
    """Conjugate of the positively homogeneous limit potential.

    A rate-independent potential with slopes [lower, upper] conjugates to
    the indicator of that interval: zero on it (boundary included), +inf
    outside.
    """
    if interval.contains(float(xi)):
        return 0.0
    return math.inf


def _sample(wprime: Callable, ys: np.ndarray) -> np.ndarray:
    """Evaluate a force sampler on an array, tolerating scalar-only callables."""
    try:
        values = np.asarray(wprime(ys), dtype=float)
        if values.shape == ys.shape:
            return values
    except (TypeError, ValueError):
        pass
    return np.array([float(wprime(float(y))) for y in ys])


_GAUSS_ORDERS = (25, 50)
_GAUSS_RULES = {n: np.polynomial.legendre.leggauss(n) for n in _GAUSS_ORDERS}


def _gauss(g: Callable, a: float, b: float, order: int) -> float:
    nodes, weights = _GAUSS_RULES[order]
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    return half * float(np.dot(weights, _sample(g, mid + half * nodes)))


def _integrate_piece(g: Callable, a: float, b: float, tol: float, depth: int = 0) -> float:
    coarse = _gauss(g, a, b, 25)
    fine = _gauss(g, a, b, 50)
    if abs(fine - coarse) <= max(tol, 1e-15 * abs(fine)) or depth >= 30:
        return fine
    m = 0.5 * (a + b)
    half_tol = 0.5 * tol
    return _integrate_piece(g, a, m, half_tol, depth + 1) + _integrate_piece(
        g, m, b, half_tol, depth + 1
    )


def k_of_xi(xi: float, wprime: Callable, abs_tol: float = 1e-10, scan: int = 1024) -> float:
    """Mean absolute force gap K(xi) = int_0^1 |xi - W'(y)| dy.

    The integrand has kinks where ``xi`` crosses the force profile, so the
    period is split at bracketed roots of ``xi - W'`` and each constant-sign
    piece is integrated by adaptive Gauss quadrature of the smooth signed
    integrand.  When there is no crossing at all, the zero-average property
    of ``W'`` collapses the integral to ``|xi|`` exactly.
    """
    xi = float(xi)
    ys = np.linspace(0.0, 1.0, scan + 1)
    f = xi - _sample(wprime, ys)
    signs = np.sign(f)

    cuts = {0.0, 1.0}
    interior = np.nonzero(signs[1:-1] == 0.0)[0] + 1
    for i in interior:
        cuts.add(float(ys[i]))

    def scalar_gap(y: float) -> float:
        return xi - float(np.asarray(wprime(y)).reshape(-1)[0])

    crossing = np.nonzero(signs[:-1] * signs[1:] < 0.0)[0]
    for i in crossing:
        root = brentq(
            scalar_gap, float(ys[i]), float(ys[i + 1]), xtol=1e-15, rtol=8.9e-16
        )
        cuts.add(float(root))

    pieces = sorted(cuts)
    if len(pieces) == 2:
        # constant sign on the whole period: the W' part averages to zero
        return abs(xi)

    piece_tol = abs_tol / max(1, len(pieces) - 1)
    total = 0.0
    for a, b in zip(pieces[:-1], pieces[1:]):
        if b - a <= 1e-15:
            continue
        total += abs(_integrate_piece(lambda y: xi - wprime(y), a, b, piece_tol))
    return total


@dataclass(frozen=True)
class ViscousQuadratic:
    """Quadratic dissipation density of the viscous flow at scale epsilon."""

    epsilon: float
    gamma: float = 1.0

    def __post_init__(self) -> None:
        if self.epsilon <= 0.0 or not math.isfinite(self.epsilon):
            raise ConfigError(f"epsilon must be positive, got {self.epsilon}")
        if self.gamma <= 0.0 or not math.isfinite(self.gamma):
            raise ConfigError(f"gamma must be positive, got {self.gamma}")

    @property
    def time_scale(self) -> float:
        return self.epsilon**self.gamma

    def value(self, v, xi):
        """M_eps(v, xi) = eps^gamma v^2 / 2 + xi^2 / (2 eps^gamma)."""
        tau = self.time_scale
        return 0.5 * tau * np.square(v) + np.square(xi) / (2.0 * tau)

    def residual(self, v, xi):
        """M_eps(v, xi) - v*xi as the explicit square of the force defect."""
        root = math.sqrt(self.time_scale)
        return 0.5 * np.square(root * np.asarray(v, dtype=float) - np.asarray(xi, dtype=float) / root)


@dataclass(frozen=True)
class LimitWithK:
    """Rate-independent density |v| K(xi) + indicator of the threshold interval.

    ``K`` evaluations are memoized on a 1e-12-relative quantization of the
    argument; K is 1-Lipschitz, so the substitution error is below every
    tolerance used by callers and repeated near-threshold queries from
    certificate sweeps collapse to a handful of quadratures.
    """

    wprime: Callable
    interval: ElasticInterval
    abs_tol: float = 1e-10
    scan: int = 1024
    _cache: dict = field(init=False, default_factory=dict, repr=False, compare=False)

    @property
    def _quantum(self) -> float:
        return 1e-12 * self.interval.upper

    def k(self, xi: float) -> float:
        xi = float(xi)
        if xi >= self.interval.upper or xi <= self.interval.lower:
            # no crossing outside the force range: exact absolute value
            return abs(xi)
        key = round(xi / self._quantum)
        if key not in self._cache:
            self._cache[key] = k_of_xi(
                key * self._quantum, self.wprime, self.abs_tol, self.scan
            )
        return self._cache[key]

    def value(self, v, xi):
        chi = legendre_conjugate_limit(xi, self.interval)
        if chi == math.inf:
            return math.inf
        return abs(v) * self.k(xi)

    def residual(self, v, xi):
        value = self.value(v, xi)
        if value == math.inf:
            return math.inf
        return value - v * xi


def contact_set_member(
    v: float,
    xi: float,
    interval: ElasticInterval,
    tau_xi: Optional[float] = None,
    tau_v: float = 1e-12,
) -> bool:
    """Membership in the duality contact set.

    Sticking states pair zero velocity with any admissible force; moving
    states must sit exactly on the threshold matching their direction.
    """
    if tau_xi is None:
        tau_xi = 1e-8 * interval.upper
    v = float(v)
    xi = float(xi)
    if abs(v) <= tau_v:
        return interval.contains(xi, tol=tau_xi)
    branch = interval.upper if v > 0.0 else interval.lower
    return abs(xi - branch) <= tau_xi


def legendre_conjugate_numeric(grid: np.ndarray, values: np.ndarray, slopes) -> np.ndarray:
    """Discrete Legendre transform sup_x (s*x - f(x)) over a sample grid."""
    grid = np.asarray(grid, dtype=float)
    values = np.asarray(values, dtype=float)
    if grid.shape != values.shape or grid.ndim != 1:
        raise ConfigError("conjugate needs matching 1-d sample arrays")
    slopes = np.atleast_1d(np.asarray(slopes, dtype=float))
    return np.max(slopes[:, None] * grid[None, :] - values[None, :], axis=1)


def limit_density(model: BristleModel, profile: SurfaceProfile) -> LimitWithK:
    """Dissipation density of the limit system for a bristle model.

    The one-period force profile is the tension-scaled slope of the
    perceived corrugation, sampled through the contact-map inversion, and
    the threshold interval comes from the same coefficient pipeline used
    everywhere else.
    """
    coeffs = coefficients(model, profile)
    a = model.slope_factor
    alpha = coeffs.alpha

    def wprime(y):
        p = invert_contact_map(profile, a, y)
        wp = eval_profile(profile, p, 1)
        return alpha * wp / (1.0 + a * wp)

    return LimitWithK(wprime=wprime, interval=ElasticInterval.from_coefficients(coeffs))


@dataclass(frozen=True)
class CertificateReport:
    """Outcome of the upper-energy-estimate check on one trajectory."""

    residual: float
    tolerance: float
    passed: bool
    chi_time: Optional[float] = None


def de_giorgi_certificate(
    system: LimitSystem,
    trajectory: Trajectory,
    density: LimitWithK,
    tolerance: Optional[float] = None,
) -> CertificateReport:
    """Check the energy identity that characterizes limit solutions.

    Along an exact solution,

        E(T, z(T)) + int |zdot| K(-D_z E) dt = E(0, z(0)) + int dE/dt dt

    and the driving force -D_z E never leaves the threshold interval.  The
    residual of the discretized identity is pure quadrature error for a
    true solution, so the default certification tolerance scales like
    10 * Lip(ell) * max|z| * dt.  A force excursion beyond the interval
    (the indicator firing) fails the certificate immediately and reports
    the offending time.
    """
    interval = density.interval
    if (
        abs(interval.lower - system.rho_minus) > 1e-6 * interval.upper
        or abs(interval.upper - system.rho_plus) > 1e-6 * interval.upper
    ):
        raise ConfigError(
            "density thresholds do not match the system thresholds: "
            f"[{interval.lower}, {interval.upper}] vs "
            f"[{system.rho_minus}, {system.rho_plus}]"
        )

    t = trajectory.times
    z = trajectory.states
    xi = system.ell(t) - system.phi_force(z)
    dt = np.diff(t)
    if tolerance is None:
        tolerance = (
            10.0 * system.ell_lipschitz * float(np.max(np.abs(z))) * float(np.max(dt))
        )

    tau_xi = 1e-8 * interval.upper
    outside = (xi < interval.lower - tau_xi) | (xi > interval.upper + tau_xi)
    if np.any(outside):
        when = float(t[int(np.argmax(outside))])
        return CertificateReport(
            residual=math.inf, tolerance=float(tolerance), passed=False, chi_time=when
        )

    t_mid = t[:-1] + 0.5 * dt
    z_mid = 0.5 * (z[:-1] + z[1:])
    xi_mid = interval.clip(system.ell(t_mid) - system.phi_force(z_mid))
    dz = np.diff(z)

    dissipated = 0.0
    for step, force in zip(dz, xi_mid):
        if step != 0.0:
            dissipated += abs(step) * density.k(force)

    # external power int dE/dt = -int ell'(t) z dt, Simpson with linearly
    # interpolated midpoints
    f_lo = -system.ell_rate(t[:-1]) * z[:-1]
    f_hi = -system.ell_rate(t[1:]) * z[1:]
    f_mid = -system.ell_rate(t_mid) * z_mid
    power = float(np.sum((dt / 6.0) * (f_lo + 4.0 * f_mid + f_hi)))

    residual = float(
        system.energy(t[-1], z[-1])
        + dissipated
        - system.energy(t[0], z[0])
        - power
    )
    return CertificateReport(
        residual=residual,
        tolerance=float(tolerance),
        passed=abs(residual) <= tolerance,
        chi_time=None,
    )
