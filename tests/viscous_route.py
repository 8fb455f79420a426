"""The viscous layer's whole-mesh post-processing, as a test oracle.

``integrate`` post-processes the stepper's dense output one fixed-size
block of mesh segments at a time.  This module keeps the route it replaced:
every mesh-length array built at once, from a :class:`StepperResult`.  The
tests compare every trajectory array byte for byte and the power integral
bit for bit.
"""

import math

import numpy as np

from wfl.limit_solver import elastic_strip, overflow_raises
from wfl.profiles import sorted_distinct
from wfl.viscous_solver import TILTED_SPLIT, ViscousTrajectory


def post_process(system, sol, z0, grid):
    """The :class:`ViscousTrajectory` of stepper result ``sol`` on ``grid``, the whole mesh at once."""
    tau = system.time_scale
    with overflow_raises("post-processing"):
        nodes = sorted_distinct(np.concatenate((sol.t, grid)))
        p_nodes = sol.sample(nodes)
        p_nodes[np.searchsorted(nodes, sol.t)] = sol.y
        z_nodes, xi_nodes, e_nodes, _ = system.at_contact(nodes, p_nodes)
        z_nodes[0] = z0
        zdot_nodes = xi_nodes / tau

        g_nodes = tau * np.square(zdot_nodes)
        power_nodes = -system.base.ell_rate(nodes) * z_nodes
        diss_steps, power_steps = g_nodes[:-1], power_nodes[:-1]
        m = 2 * (TILTED_SPLIT if system.model.formulas(math.sqrt, math.acos)[0] else 1)
        for j in range(1, m):
            at = (1.0 - j / m) * nodes[:-1] + (j / m) * nodes[1:]
            z_at, xi_at, _, _ = system.at_contact(at, sol.sample(at))
            weight = 4.0 if j % 2 else 2.0
            diss_steps = diss_steps + weight * (tau * np.square(xi_at / tau))
            power_steps = power_steps + weight * (-system.base.ell_rate(at) * z_at)
        weights = np.diff(nodes) / (3.0 * m)
        diss_cum = np.concatenate(([0.0], np.cumsum(weights * (diss_steps + g_nodes[1:]))))
        power_integral = float(np.sum(weights * (power_steps + power_nodes[1:])))

        grid_idx = np.searchsorted(nodes, grid)
        states = z_nodes[grid_idx]
        lower, upper = elastic_strip(system.base, grid)
        delta = np.maximum(np.maximum(states - upper, lower - states), 0.0)

        return ViscousTrajectory(
            times=grid,
            states=states,
            velocities=zdot_nodes[grid_idx],
            energies=e_nodes[grid_idx],
            dissipation=diss_cum[grid_idx],
            xi=xi_nodes[grid_idx],
            delta=delta,
            power_integral=power_integral,
        )


def sweep_rows(limit, systems, sols, z0, grid, windows):
    """``run_sweep``'s rows without ``runtime_s``, every scale's trajectory kept to the end."""
    limit_diss = tuple(limit.dissipated(t1, t2) for t1, t2 in windows)
    runs = [post_process(system, sol, z0, grid) for system, sol in zip(systems, sols)]
    sup_errors = [float(np.max(np.abs(tr.states - limit.states))) for tr in runs]
    gaps = [tuple(abs(tr.dissipated(t1, t2) - d) for (t1, t2), d in zip(windows, limit_diss))
            for tr in runs]
    return [(system.epsilon, e, *g) for system, e, g in zip(systems, sup_errors, gaps)]
