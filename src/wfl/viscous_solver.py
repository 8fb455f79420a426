"""Viscous dynamics of the driven state over the full corrugated potential.

Before any limit is taken the root coordinate obeys the singularly
perturbed gradient flow

    eps^gamma zdot = -Phi'(z) - V_eps'(z) + ell(t),

where ``V_eps`` is the exact microscale bristle potential.  The right side
fluctuates on the spatial scale ``eps``, so slips traverse one corrugation
period in a time of order ``eps^(gamma)``; the integrator therefore caps
its step at ``eps^gamma / 2`` and relies on an adaptive embedded
Runge-Kutta 4(5) pair for everything else.

Dissipation is accumulated as ``int eps^gamma zdot^2 dt`` with a composite
Simpson rule over the union of accepted integrator steps and requested
output times, evaluating the dense-output interpolant at segment endpoints
and midpoints.  That keeps the quadrature aligned with the time scales the
integrator actually resolved, including fast slip bursts between output
samples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.integrate import solve_ivp

from .errors import ConfigError, ScaleValidityError, StiffnessFailureError
from .limit_solver import LimitSystem, Trajectory, default_grid, elastic_strip
from .models import BristleModel, epsilon_limit, scalar_force, wiggly_energy, wiggly_force
from .profiles import SurfaceProfile


@dataclass(frozen=True)
class IntegratorConfig:
    """Tolerances and step control for the viscous integrator."""

    rtol: float = 1e-9
    atol: float = 1e-11
    max_step: Optional[float] = None

    def __post_init__(self) -> None:
        if self.rtol <= 0.0 or self.atol <= 0.0:
            raise ConfigError("integrator tolerances must be positive")
        if self.max_step is not None and self.max_step <= 0.0:
            raise ConfigError("max_step must be positive when given")

    def effective_max_step(self, time_scale: float) -> float:
        """User cap intersected with half the boundary-layer time scale."""
        cap = 0.5 * time_scale
        if self.max_step is None:
            return cap
        return min(self.max_step, cap)


@dataclass(frozen=True)
class WigglySystem:
    """Limit system dressed with its microscale potential at scale epsilon."""

    base: LimitSystem
    model: BristleModel
    profile: SurfaceProfile
    epsilon: float
    gamma: float = 1.0

    def __post_init__(self) -> None:
        if self.gamma <= 0.0 or not math.isfinite(self.gamma):
            raise ConfigError(f"gamma must be positive, got {self.gamma}")
        limit = epsilon_limit(self.model, self.profile)
        if not 0.0 < self.epsilon <= limit:
            raise ScaleValidityError(
                f"epsilon {self.epsilon} outside the valid range (0, {limit:.6g}] "
                f"for this geometry"
            )

    @property
    def time_scale(self) -> float:
        """Relaxation time eps^gamma of the viscous term."""
        return self.epsilon ** self.gamma

    @property
    def beta(self) -> float:
        """Exponent of the strip-attraction radius: min(1, gamma)."""
        return min(1.0, self.gamma)

    def force(self, t, z):
        """Total force ell(t) - Phi'(z) - V_eps'(z); also -D_z of the energy."""
        return (
            self.base.ell(t)
            - self.base.phi_force(z)
            - wiggly_force(self.model, self.profile, self.epsilon, z)
        )

    def energy(self, t, z):
        """E_eps(t, z) = Phi(z) + V_eps(z) - ell(t) z."""
        return (
            self.base.phi_value(z)
            + wiggly_energy(self.model, self.profile, self.epsilon, z)
            - self.base.ell(t) * z
        )


def rhs(system: WigglySystem, t, z):
    """zdot = (ell(t) - Phi'(z) - V_eps'(z)) / eps^gamma."""
    return system.force(t, z) / system.time_scale


@dataclass(frozen=True)
class ViscousTrajectory(Trajectory):
    """Viscous run sampled on a grid, with force and strip diagnostics.

    ``xi`` is the total configurational force (equal to eps^gamma * zdot
    along exact solutions), ``delta`` the distance to the quasistatic
    elastic strip, and ``power_integral`` the accumulated external power
    term ``int dE/dt dt = -int ell' z dt`` over the whole run.
    """

    xi: np.ndarray = None
    delta: np.ndarray = None
    power_integral: float = 0.0

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.xi is None or self.delta is None:
            raise ConfigError("viscous trajectory requires xi and delta columns")


def _union_with_midpoints(accepted: np.ndarray, grid: np.ndarray):
    nodes = np.union1d(accepted, grid)
    mids = 0.5 * (nodes[:-1] + nodes[1:])
    return nodes, mids


def integrate(
    system: WigglySystem,
    z0: float,
    horizon: Optional[float] = None,
    config: Optional[IntegratorConfig] = None,
    grid=None,
) -> ViscousTrajectory:
    """Integrate the viscous flow from ``z0`` and sample it on ``grid``.

    Raises :class:`StiffnessFailureError` when the adaptive integrator
    drives its step below the floating-point spacing (the problem is
    stiffer than the explicit pair can handle at these tolerances).
    """
    if config is None:
        config = IntegratorConfig()
    if horizon is None:
        horizon = system.base.loading.horizon
    if not 0.0 < horizon <= system.base.loading.horizon * (1.0 + 1e-12):
        raise ConfigError(
            f"horizon must lie in (0, {system.base.loading.horizon}], got {horizon}"
        )
    if grid is None:
        grid = default_grid(horizon)
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or grid.size < 2 or np.any(np.diff(grid) <= 0.0):
        raise ConfigError("output grid must be strictly increasing with >= 2 points")
    if grid[0] != 0.0 or grid[-1] > horizon * (1.0 + 1e-12):
        raise ConfigError("output grid must start at 0 and end within the horizon")
    if not math.isfinite(z0):
        raise ConfigError(f"initial state must be finite, got {z0}")

    tau = system.time_scale
    # the scalar form of rhs: built once, so no step pays for validation
    # or NumPy; post-processing below keeps the array route
    ell, phi_force = system.base.ell, system.base.phi_force
    micro_force = scalar_force(system.model, system.profile, system.epsilon)

    def fun(t, y):
        t, z = float(t), float(y[0])  # SciPy passes NumPy scalars
        try:
            f = micro_force(z)
        except (ArithmeticError, ValueError):  # math raises where NumPy gives nan
            f = math.nan
        v = float((ell(t) - phi_force(z) - f) / tau)
        if not math.isfinite(v):
            raise StiffnessFailureError(
                f"force evaluation overflowed at t = {t:.6g}, z = {z:.6g}; "
                f"the state has left the integrable range"
            )
        return (v,)

    sol = solve_ivp(
        fun,
        (0.0, float(grid[-1])),
        [float(z0)],
        method="RK45",
        rtol=config.rtol,
        atol=config.atol,
        max_step=config.effective_max_step(tau),
        dense_output=True,
    )
    if sol.status != 0:
        raise StiffnessFailureError(
            f"viscous integration stalled at t = {sol.t[-1]:.6g}: {sol.message}"
        )

    # quadrature mesh: accepted steps refined by the output grid, plus
    # segment midpoints for Simpson weights
    nodes, mids = _union_with_midpoints(sol.t, grid)
    z_nodes = sol.sol(nodes)[0]
    z_mids = sol.sol(mids)[0]
    zdot_nodes = rhs(system, nodes, z_nodes)
    zdot_mids = rhs(system, mids, z_mids)

    widths = np.diff(nodes)
    g_nodes = tau * np.square(zdot_nodes)
    g_mids = tau * np.square(zdot_mids)
    diss_steps = (widths / 6.0) * (g_nodes[:-1] + 4.0 * g_mids + g_nodes[1:])
    diss_cum = np.concatenate(([0.0], np.cumsum(diss_steps)))

    # external power int dE/dt = -int ell'(t) z dt, same Simpson mesh
    p_nodes = -system.base.ell_rate(nodes) * z_nodes
    p_mids = -system.base.ell_rate(mids) * z_mids
    power_steps = (widths / 6.0) * (p_nodes[:-1] + 4.0 * p_mids + p_nodes[1:])
    power_integral = float(np.sum(power_steps))

    grid_idx = np.searchsorted(nodes, grid)
    states = z_nodes[grid_idx]
    velocities = zdot_nodes[grid_idx]
    dissipation = diss_cum[grid_idx]
    xi = (
        system.base.ell(grid)
        - system.base.phi_force(states)
        - wiggly_force(system.model, system.profile, system.epsilon, states)
    )
    energies = system.energy(grid, states)
    lower, upper = elastic_strip(system.base, grid)
    delta = np.maximum(np.maximum(states - upper, lower - states), 0.0)

    return ViscousTrajectory(
        times=grid,
        states=states,
        velocities=velocities,
        energies=energies,
        dissipation=dissipation,
        xi=xi,
        delta=delta,
        power_integral=power_integral,
    )


def energy_balance_residual(system: WigglySystem, trajectory: ViscousTrajectory) -> float:
    """Defect of E(T) + dissipation = E(0) + int dE/dt dt along the run.

    Along an exact solution this vanishes identically; for a computed one
    it collects integrator and quadrature error, so it serves as an a
    posteriori accuracy certificate.
    """
    return float(
        abs(
            trajectory.energies[-1]
            + trajectory.dissipation[-1]
            - trajectory.energies[0]
            - trajectory.power_integral
        )
    )
