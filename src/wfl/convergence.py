"""Scale sweeps certifying the quasistatic limit numerically.

For a shrinking sequence of corrugation scales the harness integrates the
viscous flow, solves the limit play process once on the same grid, and
reports sup-norm state errors plus dissipation gaps per time window.  The
empirical convergence order is a least-squares slope of log(sup error)
against log(epsilon); it is a measurement, not an asserted theorem
constant.

Scales run one after another, coarsest first, in this process: on two
cores a process pool measured no faster than this loop and used more than
twice its peak memory.  Each scale's trajectory is reduced to its sup error
and window gaps before the next scale starts, so a sweep holds one
trajectory at a time.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import ConfigError, SolverError
from .limit_solver import LimitSystem, solve_limit, time_grid
from .models import BristleModel
from .profiles import SurfaceProfile
from .viscous_solver import IntegratorConfig, WigglySystem, integrate, step_cap

__all__ = ["SweepReport", "run_sweep"]


@dataclass(frozen=True)
class SweepReport:
    """Per-scale convergence measurements, one row per epsilon.

    ``dissipation_gaps[i][j]`` is |viscous - limit| dissipated energy for
    scale ``epsilons[i]`` on window ``windows[j]``, and
    ``limit_dissipation[j]`` the limit value on that window.  The fit is
    ``None`` when fewer than two scales were measured.
    """

    epsilons: tuple
    sup_errors: tuple
    windows: tuple
    dissipation_gaps: tuple
    limit_dissipation: tuple
    fitted_order: Optional[float]
    runtimes: tuple

    @property
    def rows(self):
        """(epsilon, sup_error, *gaps, runtime) per scale, CSV-ready."""
        return [
            (e, s, *gaps, r)
            for e, s, gaps, r in zip(
                self.epsilons, self.sup_errors, self.dissipation_gaps, self.runtimes
            )
        ]


def _fit_order(epsilons: Sequence[float], sup_errors: Sequence[float]) -> Optional[float]:
    if len(epsilons) < 2 or any(s <= 0.0 for s in sup_errors):
        return None
    slope = np.polyfit(np.log(np.asarray(epsilons)), np.log(np.asarray(sup_errors)), 1)[0]
    return float(slope)


def run_sweep(
    system: LimitSystem,
    profile: SurfaceProfile,
    model: BristleModel,
    epsilons: Sequence[float],
    windows: Optional[Sequence] = None,
    z0: float = 0.0,
    gamma: float = 1.0,
    config: Optional[IntegratorConfig] = None,
    grid=None,
) -> SweepReport:
    """Measure viscous-to-limit convergence over a decreasing scale list.

    All scales are validated up front, their range and their step budget
    (:func:`~wfl.viscous_solver.step_cap`), so an inadmissible epsilon
    aborts with :class:`ConfigError` before any integration starts.  The
    first integration that fails stops the sweep with a :class:`SolverError`
    that names its epsilon and has the solver error as its cause.
    """
    eps = [float(e) for e in epsilons]
    if not eps:
        raise ConfigError("sweep needs at least one epsilon")
    if len(set(eps)) != len(eps):
        raise ConfigError("sweep epsilons must be distinct")
    eps = sorted(eps, reverse=True)

    # fail fast on any invalid scale before spending time on trajectories
    systems = [
        WigglySystem(base=system, model=model, profile=profile, epsilon=e, gamma=gamma)
        for e in eps
    ]

    grid = time_grid(system.loading, grid)
    for wiggly in systems:
        step_cap(wiggly, grid[-1])
    if windows is None:
        windows = ((0.0, float(grid[-1])),)
    windows = tuple((float(t1), float(t2)) for t1, t2 in windows)
    for t1, t2 in windows:
        if not 0.0 <= t1 < t2 <= float(grid[-1]) * (1.0 + 1e-12):
            raise ConfigError(f"window ({t1}, {t2}) outside the sweep range")

    limit = solve_limit(system, z0, grid=grid)
    limit_diss = tuple(limit.dissipated(t1, t2) for t1, t2 in windows)

    sup_errors, gaps, runtimes = [], [], []
    for wiggly in systems:
        start = time.perf_counter()
        try:
            trajectory = integrate(wiggly, float(z0), config=config, grid=grid)
        except SolverError as exc:
            raise SolverError(f"sweep aborted at eps = {wiggly.epsilon}: {exc}") from exc
        runtimes.append(time.perf_counter() - start)
        sup_errors.append(float(np.max(np.abs(trajectory.states - limit.states))))
        gaps.append(tuple(abs(trajectory.dissipated(t1, t2) - d)
                          for (t1, t2), d in zip(windows, limit_diss)))
        del trajectory  # the next scale runs without it: a sweep holds one at a time

    return SweepReport(
        epsilons=tuple(eps),
        sup_errors=tuple(sup_errors),
        windows=windows,
        dissipation_gaps=tuple(gaps),
        limit_dissipation=limit_diss,
        fitted_order=_fit_order(eps, sup_errors),
        runtimes=tuple(runtimes),
    )
