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
from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Optional

import numpy as np

from .codegen import closure
from .errors import ConfigError
from .limit_solver import LimitSystem, Trajectory
from .models import BristleModel, coefficients
# unused here; perfbench's tracer wraps this binding
from .models import invert_contact_map
from .profiles import (
    SurfaceProfile,
    curvature_roots,
    eval_profile,
    fourier_source,
    fourier_sums,
    like_input,
    sorted_distinct,
)

__all__ = [
    "ElasticInterval",
    "ViscousQuadratic",
    "LimitWithK",
    "CertificateReport",
    "k_of_xi",
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

    def clip(self, xi):
        return np.clip(xi, self.lower, self.upper)


def k_of_xi(xi: float, wprime: Callable) -> float:
    """Mean absolute force gap K(xi) = int_0^1 |xi - W'(y)| dy, by quadrature.

    The integrand has kinks where ``xi`` crosses the force profile, so the
    period is split at bracketed roots of ``xi - W'`` and each constant-sign
    piece is integrated by ``scipy.integrate.quad``.  A level just inside an
    extremum of ``W'`` crosses it twice within one scan cell, with no sign
    change at the nodes: where ``|xi - W'|`` has a sampled minimum between
    nodes of one sign, the extremum is located and both crossings bracketed
    around it.  When there is no crossing at all, the zero-average property
    of ``W'`` collapses the integral to ``|xi|`` exactly.  This is the
    reference route for any sampled ``W'`` (a 1-periodic callable that takes
    arrays); :meth:`LimitWithK.k` is the exact one for a bristle.  Only this
    oracle imports SciPy (the ``test`` extra); without it, :class:`ConfigError`.
    """
    try:
        from scipy.integrate import quad
        from scipy.optimize import brentq, minimize_scalar
    except ImportError as exc:
        raise ConfigError("k_of_xi needs SciPy, from the 'test' extra") from exc

    xi = float(xi)
    ys = np.linspace(0.0, 1.0, 1025)
    gaps = xi - np.asarray(wprime(ys), dtype=float)
    signs = np.sign(gaps)

    def gap(y: float) -> float:
        return xi - float(wprime(y))

    def root(lo: float, hi: float) -> float:
        return float(brentq(gap, lo, hi, xtol=1e-15, rtol=8.9e-16))

    cuts = {0.0, 1.0}
    cuts.update(float(y) for y in ys[1:-1][signs[1:-1] == 0.0])
    cuts.update(root(ys[i], ys[i + 1]) for i in np.flatnonzero(signs[:-1] * signs[1:] < 0.0))

    # sampled minima of |xi - W'| between neighbours of the same sign, over
    # the 1024 nodes of one period (node 0's left neighbour is node 1023)
    size, side = np.abs(gaps[:-1]), signs[:-1]
    dips = (side != 0.0) & (np.roll(side, 1) == side) & (np.roll(side, -1) == side)
    dips &= (size <= np.roll(size, 1)) & (size <= np.roll(size, -1))
    step = float(ys[1])
    for j in np.flatnonzero(dips):
        lo, hi, sign = float(ys[j]) - step, float(ys[j]) + step, float(side[j])
        turn = minimize_scalar(lambda y: sign * gap(y), bounds=(lo, hi), method="bounded",
                               options={"xatol": 1e-14})
        if turn.fun < 0.0:
            cuts.update((root(lo, turn.x) % 1.0, root(turn.x, hi) % 1.0))

    pieces = sorted(cuts)
    if len(pieces) == 2:
        # constant sign on the whole period: the W' part averages to zero
        return abs(xi)
    return sum(
        abs(quad(gap, a, b, epsabs=1e-14, epsrel=1e-13, limit=200)[0])
        for a, b in zip(pieces[:-1], pieces[1:])
    )


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

    The force profile ``W'(y) = alpha w'(p) / (1 + a w'(p))`` at ``p = g^{-1}(y)``,
    ``g(p) = p + a w(p)``, has the exact antiderivative ``alpha w(g^{-1}(y))``.
    """

    profile: SurfaceProfile
    slope_factor: float
    alpha: float
    interval: ElasticInterval

    @cached_property
    def _table(self) -> tuple:
        """Nodes ``p``, slopes ``s = w'(p)`` and first and last index of the pieces
        of [0, 1] where w' is monotone, each stored with ``s`` increasing: a level
        crosses a piece at most once, in the cell that ``searchsorted`` names.
        Pieces break at every root of w'' (:func:`curvature_roots`), so no piece
        holds an extremum of w'; the 1025-node grid inside them only seeds the
        Newton polish of each crossing.
        """
        turns = curvature_roots(self.profile)
        grid = np.linspace(0.0, 1.0, 1025)
        at = np.searchsorted(grid, turns)
        nodes = np.insert(grid, at, turns)
        bounds = sorted_distinct(np.r_[0, at + np.arange(turns.size), nodes.size - 1])
        slopes = eval_profile(self.profile, nodes, 1)
        pieces = [np.arange(lo, hi + 1) for lo, hi in zip(bounds[:-1], bounds[1:])]
        order = np.concatenate([i if slopes[i[-1]] >= slopes[i[0]] else i[::-1] for i in pieces])
        last = np.cumsum([i.size for i in pieces]) - 1
        return nodes[order], slopes[order], np.r_[0, last[:-1] + 1], last

    @cached_property
    def _scalar_k(self):
        """:meth:`k` of one Python float: :data:`_K`, compiled once per number of terms."""
        nodes, slopes, first, last = self._table
        body, values = fourier_source(self.profile, _K)
        return closure(body, "xi", {
            "lower": self.interval.lower, "upper": self.interval.upper, "a": self.slope_factor,
            "alpha": self.alpha, "nodes": nodes.tolist(), "slopes": slopes.tolist(),
            "pieces": list(zip(first.tolist(), last.tolist())), "bisect_left": bisect_left,
            "sin": math.sin, "cos": math.cos, **values})

    def __getstate__(self) -> dict:
        # the compiled K is rebuilt on first use, not pickled
        return {k: v for k, v in self.__dict__.items() if k != "_scalar_k"}

    def k(self, xi):
        """K(xi) = int_0^1 |xi - W'(y)| dy for a scalar or an array ``xi``.

        With ``y = g(p)``, ``xi - W'`` has the sign of ``xi - (alpha - a xi) w'(p)``
        as admissibility keeps ``1 + a w' > 0``; inside the thresholds
        ``alpha - a xi`` has the sign of alpha, so the sign flips where w'
        crosses the level ``xi / (alpha - a xi)``.  Between crossings the
        integral is the increment of ``F(p) = xi g(p) - alpha w(p)``, and K
        sums their absolute values.  Outside the thresholds K = |xi| exactly.
        A Python float takes the compiled, ``math``-only :meth:`_scalar_k`,
        which equals this array route bit for bit.
        """
        if type(xi) is float:
            return self._scalar_k(xi)
        flat = np.asarray(xi, dtype=float).ravel()
        out = np.abs(flat)
        inner = np.flatnonzero((flat > self.interval.lower) & (flat < self.interval.upper))
        rows = 2**15 // self._table[2].size  # bounds the (rows, pieces) temporaries
        for start in range(0, inner.size, rows):
            block = inner[start:start + rows]
            out[block] = self._crossing_sum(flat[block])
        return like_input(xi, out.reshape(np.shape(xi)))

    def _crossing_sum(self, xi: np.ndarray) -> np.ndarray:
        profile, a, alpha = self.profile, self.slope_factor, self.alpha
        nodes, slopes, first, last = self._table
        level = xi / (alpha - a * xi)
        rows, cells = [], []
        for i, k in zip(first, last):
            rows.append(np.flatnonzero((level > slopes[i]) & (level <= slopes[k])))
            # slopes[cell - 1] < level <= slopes[cell]
            cells.append(i + np.searchsorted(slopes[i:k + 1], level[rows[-1]]))
        cols = np.repeat(np.arange(1, first.size + 1), [r.size for r in rows])
        rows, cell = np.concatenate(rows), np.concatenate(cells)
        p0, p1, s0 = nodes[cell - 1], nodes[cell], slopes[cell - 1]
        guess = p0 + (level[rows] - s0) / (slopes[cell] - s0) * (p1 - p0)
        # per row the cuts 0, one slot per piece, 1; an empty slot repeats
        # the cut before it, which adds a zero-width piece
        cuts = np.zeros((xi.size, first.size + 2))
        cuts[:, -1] = 1.0
        cuts[rows, cols] = _polish(profile, level[rows], guess, p0, p1)
        cuts = np.maximum.accumulate(cuts, axis=1)
        f = xi[:, None] * cuts + (a * xi - alpha)[:, None] * eval_profile(profile, cuts, 0)
        # left to right, as _scalar_k adds them: .sum(axis=1) adds eight or
        # more columns pairwise, in another order
        total = np.zeros(xi.size)
        for gap in np.abs(np.diff(f, axis=1)).T:
            total += gap
        return total

    def value(self, v, xi):
        """|v| K(xi) where lower <= xi <= upper, +inf elsewhere, elementwise.

        Scalars or arrays broadcast together; two scalars give a float, and
        two Python floats take the ``math``-only route of :meth:`k`.
        """
        if type(v) is float and type(xi) is float:
            if xi < self.interval.lower or xi > self.interval.upper:
                return math.inf
            return abs(v) * self.k(xi)
        xi = np.asarray(xi, dtype=float)
        outside = (xi < self.interval.lower) | (xi > self.interval.upper)
        # a nan xi gives nan; 0 * K(+-inf) is nan too but lies outside
        with np.errstate(invalid="ignore"):
            out = np.where(outside, math.inf, np.abs(v) * self.k(xi))
        return out if out.ndim else float(out)

    def residual(self, v, xi):
        """Duality defect M(v, xi) - v xi, elementwise; +inf stays +inf, inf - inf is nan."""
        if type(v) is float and type(xi) is float:  # Python floats never warn
            return self.value(v, xi) - v * xi
        with np.errstate(invalid="ignore"):
            return self.value(v, xi) - v * xi


def _polish(profile, level, p, p0, p1):
    """Roots of ``w'(p) = level`` where ``w'(p0) < level <= w'(p1)``, elementwise.

    Newton on w' (w' and w'' from :func:`fourier_sums`), bisecting when a step leaves
    the shrinking bracket.  K is stationary in each cut, so a root off by d
    moves K by O(d^2): each root stops on its own once its step is below
    1e-8.  A root's iterates do not depend on the other elements, and
    :data:`_K` repeats their operations in the same order, so a scalar and an
    array call agree exactly.
    """
    live, sums = np.ones(p.shape, dtype=bool), fourier_sums(profile, "WP, WPP")
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(60):
            wp, wpp = sums(p)
            r = wp - level
            p0, p1 = np.where(r < 0.0, p, p0), np.where(r < 0.0, p1, p)
            newton = p - r / wpp
            inside = (newton - p0) * (newton - p1) <= 0.0
            step = np.where(live, np.where(inside, newton, 0.5 * (p0 + p1)), p)
            live &= np.abs(step - p) > 1e-8
            p = step
            if not live.any():
                break
    return p


# The float K(xi), a function body over ``xi`` with :func:`fourier_source`'s sums: the
# operations of LimitWithK._crossing_sum in its order, ``bisect_left`` for ``searchsorted``,
# _polish inlined, a running max over the cuts and the |increments| of F added left to
# right.  A zero-width piece adds exactly 0.0 there and is skipped here.
_K = """\
if not lower < xi < upper:
    return abs(xi)
level = xi / (alpha - a * xi)
scale = a * xi - alpha
cut = total = 0.0
W = sums(cut)
f = xi * cut + scale * W
for i, k in pieces:
    if not slopes[i] < level <= slopes[k]:
        continue
    cell = bisect_left(slopes, level, i, k + 1)
    p0, p1, s0 = nodes[cell - 1], nodes[cell], slopes[cell - 1]
    p = p0 + (level - s0) / (slopes[cell] - s0) * (p1 - p0)
    for _ in range(60):
        WP, WPP = sums(p)
        r = WP - level
        if r < 0.0:
            p0 = p
        else:
            p1 = p
        step = 0.5 * (p0 + p1)
        # where w'' = 0 _polish's Newton point is infinite or NaN and fails the bracket test
        if WPP != 0.0:
            newton = p - r / WPP
            if (newton - p0) * (newton - p1) <= 0.0:
                step = newton
        done = not abs(step - p) > 1e-8
        p = step
        if done:
            break
    if p > cut:
        cut, previous = p, f
        W = sums(cut)
        f = xi * cut + scale * W
        total += abs(f - previous)
if cut < 1.0:
    W = sums(1.0)
    total += abs(xi + scale * W - f)
return total
"""


def limit_density(model: BristleModel, profile: SurfaceProfile) -> LimitWithK:
    """Dissipation density of the limit system for a bristle model.

    The one-period force profile is the tension-scaled slope of the
    perceived corrugation, and the threshold interval comes from the same
    coefficient pipeline used everywhere else.
    """
    coeffs = coefficients(model, profile)
    return LimitWithK(
        profile=profile,
        slope_factor=model.slope_factor,
        alpha=coeffs.alpha,
        interval=ElasticInterval(lower=coeffs.rho_minus, upper=coeffs.rho_plus),
    )


@dataclass(frozen=True)
class CertificateReport:
    """Outcome of the upper-energy-estimate check on one trajectory."""

    residual: float
    tolerance: float
    passed: bool
    chi_time: Optional[float] = None


def de_giorgi_certificate(
    system: LimitSystem, trajectory: Trajectory, density: LimitWithK
) -> CertificateReport:
    """Check the energy identity that characterizes limit solutions.

    Along an exact solution,

        E(T, z(T)) + int |zdot| K(-D_z E) dt = E(0, z(0)) + int dE/dt dt

    and the driving force -D_z E never leaves the threshold interval.  The
    residual of the discretized identity is pure quadrature error for a
    true solution, so the certification tolerance is
    10 * Lip(ell) * max|z| * max dt.  A force excursion beyond the interval
    (the indicator firing) fails the certificate immediately and reports
    the offending time.  The dissipation sums |dz| K(xi) over the steps,
    with K evaluated only at the midpoints of the steps where z moves; a
    stuck step adds 0.0 without a call to K.
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
    tolerance = 10.0 * system.ell_lipschitz * float(np.max(np.abs(z))) * float(np.max(dt))

    tau_xi = 1e-8 * interval.upper
    outside = (xi < interval.lower - tau_xi) | (xi > interval.upper + tau_xi)
    if np.any(outside):
        when = float(t[int(np.argmax(outside))])
        return CertificateReport(
            residual=math.inf, tolerance=tolerance, passed=False, chi_time=when
        )

    t_mid = t[:-1] + 0.5 * dt
    z_mid = 0.5 * (z[:-1] + z[1:])
    xi_mid = interval.clip(system.ell(t_mid) - system.phi_force(z_mid))
    # K only where z moves: a stuck step adds |dz| K = 0.0 either way
    gains = np.abs(np.diff(z))
    moving = np.flatnonzero(gains)
    if moving.size:
        gains[moving] *= density.k(xi_mid[moving])
    dissipated = float(np.sum(gains))

    # external power int dE/dt = -int ell'(t) z dt, Simpson with linearly
    # interpolated midpoints
    f = -system.ell_rate(t) * z
    f_mid = -system.ell_rate(t_mid) * z_mid
    power = float(np.sum((dt / 6.0) * (f[:-1] + 4.0 * f_mid + f[1:])))

    residual = float(
        system.energy(t[-1], z[-1])
        + dissipated
        - system.energy(t[0], z[0])
        - power
    )
    return CertificateReport(
        residual=residual,
        tolerance=tolerance,
        passed=abs(residual) <= tolerance,
        chi_time=None,
    )
