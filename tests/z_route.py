"""The z route: the viscous flow stepped in the root position, as a test oracle.

The integrator steps the contact coordinate ``p`` and maps it to the root
position ``z = g(p)`` explicitly.  This module keeps the route it replaced:
the force, the energy and the right-hand side in ``z``, which solve the
root-tip relation ``p + shift(eps w(p / eps)) = z`` by Newton at every point
(arrays) or call (floats).  The tests step both routes through the same
stepper and compare the states on the output grid and the step counts, and
compare the post-processed force and energy.
"""

import math

from wfl import models
from wfl.profiles import scalar_terms


def scalar_force(model, profile, epsilon):
    """``V_eps'`` as a function of one Python float ``z``, with no NumPy call.

    Each call sums w and w' over the Fourier terms in the order
    ``eval_profile`` does, solves the root-tip relation by the Newton
    iteration of ``models.wiggly_force`` (same tolerance, clip radius and
    iteration cap) and applies the geometry's force, so it agrees bitwise
    with ``wiggly_force``.  A point where Newton does not converge is handed
    to ``wiggly_force``, whose bisection and ``SolverError`` apply.
    """
    models._require_valid_epsilon(model, profile, epsilon)
    shift, bristle_force, _ = model.formulas(math.sqrt, math.acos)
    terms = scalar_terms(profile)
    sin, cos = math.sin, math.cos
    ymax = epsilon * profile.amplitude_bound
    radius = 0.0 if shift is None else max(abs(shift(ymax)[0]), abs(shift(-ymax)[0]))

    def at(z: float) -> float:
        tol = 1e-13 * max(1.0, abs(z))
        lo, hi = z - radius, z + radius
        p = z
        for _ in range(100):
            x = p / epsilon
            w = wp = 0.0
            for rate, phase, amplitude, slope, _ in terms:
                u = rate * x + phase
                w += amplitude * sin(u)
                wp += slope * cos(u)
            y = epsilon * w
            if shift is None:
                return bristle_force(y, wp)
            s, ds = shift(y)
            r = p + s - z
            if abs(r) <= tol:
                return bristle_force(y, wp)
            p = min(max(p - r / (1.0 + ds * wp), lo), hi)
        return models.wiggly_force(model, profile, epsilon, z)

    return at


def force(system, t, z):
    """Total force ell(t) - Phi'(z) - V_eps'(z); also -D_z of the energy."""
    return (
        system.base.ell(t)
        - system.base.phi_force(z)
        - models.wiggly_force(system.model, system.profile, system.epsilon, z)
    )


def energy(system, t, z):
    """E_eps(t, z) = Phi(z) + V_eps(z) - ell(t) z."""
    return (
        system.base.phi_value(z)
        + models.wiggly_energy(system.model, system.profile, system.epsilon, z)
        - system.base.ell(t) * z
    )


def rhs(system, t, z):
    """zdot = (ell(t) - Phi'(z) - V_eps'(z)) / eps^gamma on arrays."""
    return force(system, t, z) / system.time_scale


def scalar_rhs(system):
    """:func:`rhs` on two Python floats, its operations in its order, so bitwise equal to it."""
    base = system.base
    q = base.loading.scalar_q()
    k_h, rest, tau = base.k_h, base.L_h_rest, system.time_scale
    micro_force = scalar_force(system.model, system.profile, system.epsilon)

    def fun(t: float, z: float) -> float:
        return (k_h * (q(t) - rest) - k_h * z - micro_force(z)) / tau

    return fun
