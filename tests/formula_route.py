"""The formulas as closures and the profile's sums as loops, as test oracles.

Each geometry writes its shift, force and energy once, as source text
(``model.shift``, ``model.force``, ``model.energy``), which the stepper
splices into its stages and the array routes compile.  This module keeps
the route it replaced: the three formulas as closures over constants
computed once, called with the ``sqrt`` and ``acos`` passed in.  The tests
compare the two bit for bit on arrays, and the oracles of the viscous
layer (``z_route``, ``stepper_route``, ``viscous_route``) step with them.

The profile's Fourier sums, on floats and on arrays, are compiled from one
text (``profiles.fourier_source``).  This module keeps the loops they
replaced: ``eval_profile``'s over NumPy arrays, ``scalar_terms``, the
per-term factors as Python floats that the ``math`` oracles sum, and the
float W'(z) of ``models.perceived_extrema``.
"""

import math
from functools import lru_cache

import numpy as np

from wfl.errors import ConfigError
from wfl.models import SlantedBristle, VerticalBristle, invert_contact_map
from wfl.profiles import TWO_PI, like_input


def formulas(model, sqrt, acos):
    """``(shift, force, energy)`` of ``model``; ``shift`` is ``None`` for a tip under its root.

    - ``shift(y)``: root minus tip abscissa (relative to flat contact) at tip
      height ``y``, and its ``y``-derivative;
    - ``force(y, wp)``: microscale force at tip height ``y`` and surface slope ``wp``;
    - ``energy(y)``: microscale potential at tip height ``y``, zeroed on the flat.
    """
    if isinstance(model, VerticalBristle):
        k, rest = model.k, model.L_rest - model.h

        def force(y, wp):
            return k * (rest + y) * wp

        def energy(y):
            return 0.5 * k * ((rest + y) ** 2 - rest ** 2)

        return None, force, energy

    if isinstance(model, SlantedBristle):
        k, L_rest, h = model.k, model.L_rest, model.h
        cos_t, tan_t = math.cos(model.theta), math.tan(model.theta)
        rate, tension, rest = -tan_t, k / cos_t, L_rest - h / cos_t

        def shift(y):
            return rate * y, rate

        def force(y, wp):
            return tension * (L_rest - (h - y) / cos_t) * wp / (1.0 - tan_t * wp)

        def energy(y):
            return 0.5 * k * ((rest + y / cos_t) ** 2 - rest ** 2)

        return shift, force, energy

    k, L, h, theta_rest = model.k, model.L, model.h, model.theta_rest
    # L * L in the shift, L ** 2 in the force: pow need not round as a product does
    LL, L2 = L * L, L ** 2
    flat = sqrt(LL - h * h)
    rest = (model.theta_lim - theta_rest) ** 2

    def shift(y):
        d = h - y
        s = sqrt(LL - d * d)
        return s - flat, d / s

    def force(y, wp):
        d = h - y
        s = sqrt(L2 - d * d)
        return k * (acos(d / L) - theta_rest) * wp / (s * (1.0 + d / s * wp))

    def energy(y):
        return 0.5 * k * ((acos((h - y) / L) - theta_rest) ** 2 - rest)

    return shift, force, energy


def scalar_q(loading):
    """The loading's ``q`` on one Python float: its ``scalar_source()`` expression, compiled.

    The stepper splices that expression into its stages; for the ramp and
    the sinusoid it is a formula on ``math``, and otherwise a call of the
    loading's own ``scalar_q``.
    """
    expression, constants = loading.scalar_source()
    return eval(f"lambda t: {expression}", dict(constants))


def eval_profile(profile, x, order: int = 0):
    """Evaluate w or its derivative of order 1, 2 or 3 at ``x`` (scalar or array).

    Args:
        profile: the surface profile.
        x: evaluation points, any shape.
        order: 0 for w, 1 for w', 2 for w'', 3 for w'''.

    Returns:
        Value with the same shape as ``x`` (a float for scalar input).
    """
    if order not in (0, 1, 2, 3):
        raise ConfigError(f"order must be 0, 1, 2 or 3, got {order}")
    xs = np.asarray(x, dtype=float)
    out = np.zeros_like(xs)
    # sin and cos of +-inf are nan, which propagates without a warning
    with np.errstate(invalid="ignore"):
        for term in profile.terms:
            u = TWO_PI * term.harmonic * xs + term.phase
            rate = TWO_PI * term.harmonic
            if order == 0:
                out += term.amplitude * np.sin(u)
            elif order == 1:
                out += term.amplitude * rate * np.cos(u)
            elif order == 2:
                out -= term.amplitude * rate * rate * np.sin(u)
            else:
                out -= term.amplitude * rate * rate * rate * np.cos(u)
    return like_input(x, out)


@lru_cache(maxsize=256)
def scalar_terms(profile) -> tuple:
    """Per Fourier term ``(rate, phase, A, A rate, A rate rate)`` as Python floats.

    The factors of w, w' and w'' formed as :func:`eval_profile` forms them,
    so ``math`` sums over them, term by term in this order, equal its array
    results bit for bit.
    """
    terms = []
    for term in profile.terms:
        rate, amplitude = float(TWO_PI * term.harmonic), float(term.amplitude)
        slope = amplitude * rate
        terms.append((rate, float(term.phase), amplitude, slope, slope * rate))
    return tuple(terms)


def perceived_slope(profile, slope_factor: float, steps: int = 100):
    """Exact W'(z) = w'(p) / (1 + a w'(p)) at p = g^{-1}(z), as a function of a float z.

    ``invert_contact_map``'s Newton on floats, summed in :func:`eval_profile`'s
    order, with the same steps, stop and clip, so it equals that array route bit for
    bit; a z unsolved after ``steps`` steps takes the array route itself.
    """
    a, terms, ymax = slope_factor, scalar_terms(profile), profile.amplitude_bound
    radius = max(abs(a * ymax), abs(a * -ymax))
    sin, cos = math.sin, math.cos

    def slope(z: float) -> float:
        p, lo, hi = z, z - radius, z + radius
        for _ in range(steps):
            w = wp = 0.0
            for rate, phase, amplitude, factor, _ in terms:
                u = rate * p + phase
                w += amplitude * sin(u)
                wp += factor * cos(u)
            r = p + a * w - z
            if abs(r) <= 1e-12:
                break
            p -= r / (1.0 + a * wp)
            p = lo if p <= lo else hi if p >= hi else p  # as np.clip: a tie takes the bound
        else:
            wp = eval_profile(profile, invert_contact_map(profile, a, z), 1)
        return wp / (1.0 + a * wp)
    return slope
