"""The limit layer's per-sample routes, as test oracles.

``solve_limit`` clamps on Python floats read one at a time,
``de_giorgi_certificate`` evaluates K(xi) only at the midpoints of the steps
where z moves, and ``LimitWithK.k`` of a Python float runs a function
compiled from one source text.  This module keeps the routes they replaced:
the clamp on NumPy scalars, one index at a time, the certificate's residual
with K(xi) at every midpoint, and the float K as a Python loop over the
Fourier terms.  The tests compare the states byte for byte and the
residuals and K values bit for bit.
"""

import math
from bisect import bisect_left

import numpy as np

from formula_route import scalar_terms


def play(lower, upper, z0):
    """States of ``min(upper[n], max(lower[n], z))``, one NumPy index at a time."""
    states = np.empty_like(lower)
    states[0] = min(max(z0, lower[0]), upper[0])
    z = states[0]
    for n in range(1, lower.size):
        z = min(upper[n], max(lower[n], z))
        states[n] = z
    return states


def certificate_residual(system, trajectory, density):
    """The energy-identity residual of ``de_giorgi_certificate`` with |dz| K(xi)
    summed over all midpoints, for a trajectory inside the elastic strip."""
    t, z = trajectory.times, trajectory.states
    dt = np.diff(t)
    t_mid = t[:-1] + 0.5 * dt
    z_mid = 0.5 * (z[:-1] + z[1:])
    xi_mid = density.interval.clip(system.ell(t_mid) - system.phi_force(z_mid))
    dissipated = float(np.sum(np.abs(np.diff(z)) * density.k(xi_mid)))
    f_lo = -system.ell_rate(t[:-1]) * z[:-1]
    f_hi = -system.ell_rate(t[1:]) * z[1:]
    f_mid = -system.ell_rate(t_mid) * z_mid
    power = float(np.sum((dt / 6.0) * (f_lo + 4.0 * f_mid + f_hi)))
    return float(
        system.energy(t[-1], z[-1]) + dissipated - system.energy(t[0], z[0]) - power
    )


def scalar_k(density, xi: float) -> float:
    """``density.k`` of one Python float, with ``math`` only.

    The operations of ``LimitWithK._crossing_sum`` in the same order:
    ``bisect_left`` for ``searchsorted``, :func:`_polish_scalar` for
    ``_polish``, a running max over the cuts and the |increments| of F
    added left to right.  A zero-width piece adds exactly 0.0 there and
    is skipped here.
    """
    if not density.interval.lower < xi < density.interval.upper:
        return abs(xi)
    nodes, slopes, first, last = density._table
    nodes, slopes, pieces = nodes.tolist(), slopes.tolist(), list(zip(first.tolist(), last.tolist()))
    terms = scalar_terms(density.profile)
    a, alpha = density.slope_factor, density.alpha
    level = xi / (alpha - a * xi)
    scale = a * xi - alpha
    cut = total = 0.0
    f = xi * cut + scale * _w(terms, cut)
    for i, k in pieces:
        if not slopes[i] < level <= slopes[k]:
            continue
        cell = bisect_left(slopes, level, i, k + 1)
        p0, p1, s0 = nodes[cell - 1], nodes[cell], slopes[cell - 1]
        guess = p0 + (level - s0) / (slopes[cell] - s0) * (p1 - p0)
        root = _polish_scalar(terms, level, guess, p0, p1)
        if root > cut:
            cut, previous = root, f
            f = xi * cut + scale * _w(terms, cut)
            total += abs(f - previous)
    if cut < 1.0:
        total += abs(xi + scale * _w(terms, 1.0) - f)
    return total


def _w(terms, p: float) -> float:
    """w(p) over ``scalar_terms``, summed as ``eval_profile`` sums it."""
    w = 0.0
    for rate, phase, amplitude, _, _ in terms:
        w += amplitude * math.sin(rate * p + phase)
    return w


def _polish_scalar(terms, level: float, p: float, p0: float, p1: float) -> float:
    """``_polish`` for one root, with ``math`` only and the same steps."""
    cos, sin = math.cos, math.sin
    for _ in range(60):
        d1 = d2 = 0.0
        for rate, phase, _, slope, curvature in terms:
            u = rate * p + phase
            d1 += slope * cos(u)
            d2 -= curvature * sin(u)
        r = d1 - level
        if r < 0.0:
            p0 = p
        else:
            p1 = p
        step = 0.5 * (p0 + p1)
        # where w'' = 0 _polish's Newton point is infinite or NaN and fails the bracket test
        if d2 != 0.0:
            newton = p - r / d2
            if (newton - p0) * (newton - p1) <= 0.0:
                step = newton
        done = not abs(step - p) > 1e-8
        p = step
        if done:
            break
    return p
