"""The limit layer's per-sample routes, as test oracles.

``solve_limit`` clamps on Python floats read one at a time, and
``de_giorgi_certificate`` evaluates K(xi) only at the midpoints of the steps
where z moves.  This module keeps the routes they replaced: the clamp on
NumPy scalars, one index at a time, and the certificate's residual with
K(xi) at every midpoint.  The tests compare the states byte for byte and
the residuals bit for bit.
"""

import numpy as np


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
