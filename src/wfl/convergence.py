"""Scale sweeps certifying the quasistatic limit numerically.

For a shrinking sequence of corrugation scales the harness integrates the
viscous flow, solves the limit play process once on the same grid, and
reports sup-norm state errors plus dissipation gaps per time window.  The
empirical convergence order is a least-squares slope of log(sup error)
against log(epsilon); it is a measurement, not an asserted theorem
constant.

Per-scale trajectories are independent, so they run in a process pool over
read-only inputs; every result lands in its slot by index, which keeps
reports bitwise deterministic no matter how workers are scheduled.  The
``WFL_THREADS`` environment variable caps the pool size.
"""

from __future__ import annotations

import math
import os
import pickle
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import ConfigError, SweepError, WflError
from .limit_solver import LimitSystem, Trajectory, default_grid, elastic_strip, solve_limit
from .models import BristleModel
from .profiles import SurfaceProfile
from .viscous_solver import (
    IntegratorConfig,
    ViscousTrajectory,
    WigglySystem,
    integrate,
)

__all__ = ["SweepReport", "StripDiagnostics", "run_sweep", "strip_diagnostics"]


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

    def __post_init__(self) -> None:
        n = len(self.epsilons)
        if len(self.sup_errors) != n or len(self.dissipation_gaps) != n:
            raise ConfigError("sweep report rows must align with epsilons")
        if len(self.runtimes) != n:
            raise ConfigError("sweep report needs one runtime per epsilon")
        if any(e2 >= e1 for e1, e2 in zip(self.epsilons, self.epsilons[1:])):
            raise ConfigError("sweep scales must be strictly decreasing")
        if not all(math.isfinite(s) for s in self.sup_errors):
            raise ConfigError("sup errors must all be finite")

    @property
    def rows(self):
        """(epsilon, sup_error, *gaps, runtime) per scale, CSV-ready."""
        return [
            (e, s, *gaps, r)
            for e, s, gaps, r in zip(
                self.epsilons, self.sup_errors, self.dissipation_gaps, self.runtimes
            )
        ]


def _pool_size(requested: Optional[int], jobs: int) -> int:
    if requested is None:
        requested = os.cpu_count() or 1
    cap = os.environ.get("WFL_THREADS")
    if cap:
        try:
            cap_value = int(cap)
        except ValueError as exc:
            raise ConfigError(f"WFL_THREADS must be an integer, got {cap!r}") from exc
        if cap_value >= 1:
            requested = min(requested, cap_value)
    return max(1, min(requested, jobs))


def _sweep_task(task):
    index, system, z0, config, grid = task
    start = time.perf_counter()
    trajectory = integrate(system, z0, config=config, grid=grid)
    return index, trajectory, time.perf_counter() - start


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
    workers: Optional[int] = None,
) -> SweepReport:
    """Measure viscous-to-limit convergence over a decreasing scale list.

    All scales are validated up front, so an inadmissible epsilon aborts
    before any integration starts.  If an integration fails midway, the
    completed rows are wrapped in a partial report attached to the raised
    :class:`SweepError`.
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

    horizon = system.loading.horizon
    if grid is None:
        grid = default_grid(horizon)
    grid = np.asarray(grid, dtype=float)

    if windows is None:
        windows = ((0.0, float(grid[-1])),)
    windows = tuple((float(t1), float(t2)) for t1, t2 in windows)
    for t1, t2 in windows:
        if not 0.0 <= t1 < t2 <= float(grid[-1]) * (1.0 + 1e-12):
            raise ConfigError(f"window ({t1}, {t2}) outside the sweep range")

    limit = solve_limit(system, z0, grid=grid)
    limit_diss = tuple(limit.dissipated(t1, t2) for t1, t2 in windows)

    tasks = [(i, systems[i], float(z0), config, grid) for i in range(len(eps))]
    results: list = [None] * len(eps)
    failures: list = [None] * len(eps)

    pool = _pool_size(workers, len(eps))
    try:
        picklable = pool > 1 and len(pickle.dumps((system, model, profile, config))) > 0
    except Exception:
        picklable = False

    if pool > 1 and picklable:
        with ProcessPoolExecutor(max_workers=pool) as executor:
            futures = [executor.submit(_sweep_task, task) for task in tasks]
            for i, future in enumerate(futures):
                try:
                    index, trajectory, runtime = future.result()
                    results[index] = (trajectory, runtime)
                except WflError as exc:
                    failures[i] = exc
    else:
        for task in tasks:
            try:
                index, trajectory, runtime = _sweep_task(task)
                results[index] = (trajectory, runtime)
            except WflError as exc:
                failures[task[0]] = exc
                break

    done = [i for i, r in enumerate(results) if r is not None]
    sup_errors = {}
    gaps = {}
    for i in done:
        trajectory, _ = results[i]
        sup_errors[i] = float(np.max(np.abs(trajectory.states - limit.states)))
        gaps[i] = tuple(
            abs(trajectory.dissipated(t1, t2) - limit_diss[j])
            for j, (t1, t2) in enumerate(windows)
        )

    def build(indices):
        kept = list(indices)
        return SweepReport(
            epsilons=tuple(eps[i] for i in kept),
            sup_errors=tuple(sup_errors[i] for i in kept),
            windows=windows,
            dissipation_gaps=tuple(gaps[i] for i in kept),
            limit_dissipation=limit_diss,
            fitted_order=_fit_order(
                [eps[i] for i in kept], [sup_errors[i] for i in kept]
            ),
            runtimes=tuple(results[i][1] for i in kept),
        )

    first_failure = next((f for f in failures if f is not None), None)
    if first_failure is not None:
        partial = build(done) if done else None
        raise SweepError(
            f"sweep aborted: {first_failure}", partial=partial
        ) from first_failure
    return build(range(len(eps)))


@dataclass(frozen=True)
class StripDiagnostics:
    """Distance to the elastic strip along a viscous run.

    ``fitted_constant`` is the smallest C with
    delta(t) <= delta(0) exp(-rate t) + C eps^beta pointwise; it is a
    reported measurement, with no claimed relation to any proof constant.
    """

    times: np.ndarray
    delta: np.ndarray
    decay_rate: float
    fitted_constant: float


def strip_diagnostics(system: WigglySystem, trajectory: ViscousTrajectory) -> StripDiagnostics:
    """Recompute strip distances and fit the boundary-layer decay envelope."""
    times = trajectory.times
    lower, upper = elastic_strip(system.base, times)
    delta = np.maximum(
        np.maximum(trajectory.states - upper, lower - trajectory.states), 0.0
    )
    rate = system.base.uniform_convexity / system.time_scale
    envelope = delta[0] * np.exp(-rate * times)
    excess = np.maximum(delta - envelope, 0.0)
    fitted = float(np.max(excess) / system.epsilon**system.beta)
    return StripDiagnostics(
        times=times, delta=delta, decay_rate=float(rate), fitted_constant=fitted
    )
