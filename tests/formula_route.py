"""The geometries' formulas and the loadings' scalar ``q`` as closures, as test oracles.

Each geometry writes its shift, force and energy once, as source text
(``model.shift``, ``model.force``, ``model.energy``), which the stepper
splices into its stages and the array routes compile.  This module keeps
the route it replaced: the three formulas as closures over constants
computed once, called with the ``sqrt`` and ``acos`` passed in.  The tests
compare the two bit for bit on arrays, and the oracles of the viscous
layer (``z_route``, ``stepper_route``, ``viscous_route``) step with them.
"""

import math

from wfl.models import SlantedBristle, VerticalBristle


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
