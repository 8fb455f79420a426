"""Quasistatic dry-friction evolution of the driven bristle state.

In the small-corrugation limit the root coordinate ``z`` follows a play
process between two moving envelopes.  With stored energy
``E(t, z) = Phi(z) - ell(t) z``, where ``Phi(z) = k_h z^2 / 2``, and
friction thresholds ``rho_minus < 0 < rho_plus``, the state must satisfy
the force inclusion ``-D_z E(t, z) in [rho_minus, rho_plus]``, which
confines it to the elastic strip

    z_minus(t) = (ell(t) - rho_plus) / k_h,
    z_plus(t)  = (ell(t) - rho_minus) / k_h,

and it moves only when pushed by a strip boundary.  On a time grid this is
the exact clamp recursion

    z_{n+1} = min(z_plus(t_{n+1}), max(z_minus(t_{n+1}), z_n)),

which is the catching-up scheme for the underlying sweeping process; no
further time-discretisation error enters beyond sampling the envelopes.

The driving force ``ell(t) = k_h (q(t) - L_h_rest)`` comes from a hauling
spring of stiffness ``k_h`` whose far end follows a loading program
``q(t)``.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from array import array
from bisect import bisect_right
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from .codegen import closure
from .errors import ConfigError, SolverError
from .profiles import like_input, positive_integer

DEFAULT_GRID_POINTS = 4097  # horizon / 4096 steps


def _as_array(t):
    return np.atleast_1d(np.asarray(t, dtype=float))


@contextmanager
def overflow_raises(what: str):
    """Run NumPy code in which overflow, division by zero or an invalid result is a solver error.

    NumPy would otherwise warn and carry an inf or a nan on.  The message
    names the kind of error, taken from the start of NumPy's message.
    """
    with np.errstate(over="raise", divide="raise", invalid="raise"):
        try:
            yield
        except FloatingPointError as exc:
            kind = {"overflow": "overflowed", "divide by zero": "divided by zero",
                    "underflow": "underflowed", "invalid value": "gave an invalid value"}
            raise SolverError(f"{what} {kind.get(str(exc).split(' encountered')[0], 'failed')} "
                              f"({exc})") from exc


class LoadingProgram(ABC):
    """Prescribed motion of the hauling-spring anchor on [0, horizon]."""

    @abstractmethod
    def q(self, t):
        """Anchor position at time t (scalar or array)."""

    def scalar_q(self) -> Callable[[float], float]:
        """``q`` as a function of one Python float, built once per run, for :meth:`scalar_source`.

        The piecewise loading returns a closure over its piece table that
        uses only ``math`` and equals its array ``q`` bit for bit.  This
        default goes through ``q``.
        """
        q = self.q
        return lambda t: float(q(t))

    def scalar_source(self) -> tuple[str, dict]:
        """``q`` at one Python float ``t`` as an expression, and the values it names.

        The viscous stepper splices it into each stage.  The ramp and the
        sinusoid give their formula, written once: their array ``q`` is the
        same text compiled for arrays.  This default calls ``scalar_q``.
        """
        return "q(t)", {"q": self.scalar_q()}

    @abstractmethod
    def qdot(self, t):
        """Anchor velocity at time t."""

    @property
    @abstractmethod
    def horizon(self) -> float:
        """End of the loading interval."""

    @property
    @abstractmethod
    def max_rate(self) -> float:
        """Supremum of |qdot| over the horizon, from the parameters."""


class _Formula(LoadingProgram):
    """A loading whose ``q`` is its :meth:`scalar_source` expression, compiled for arrays.

    The text compiles once per loading, on first use, with ``sin = np.sin``.
    """

    @cached_property
    def _array_q(self):
        expression, constants = self.scalar_source()
        return closure(f"return {expression}\n", "t", {**constants, "sin": np.sin})

    def __getstate__(self) -> dict:
        # the compiled q is rebuilt on first use, not pickled
        return {k: v for k, v in self.__dict__.items() if k != "_array_q"}

    def q(self, t):
        # 0 * inf for a ramp of rate 0 and sin(+-inf) are nan at t = +-inf
        with np.errstate(invalid="ignore"):
            return like_input(t, self._array_q(_as_array(t)))


@dataclass(frozen=True)
class Ramp(_Formula):
    """Uniform pull: q(t) = q0 + rate * t."""

    q0: float = 0.0
    rate: float = 1.0
    duration: float = 1.0

    def __post_init__(self) -> None:
        if self.duration <= 0.0 or not math.isfinite(self.duration):
            raise ConfigError(f"loading horizon must be positive, got {self.duration}")
        if not (math.isfinite(self.q0) and math.isfinite(self.rate)):
            raise ConfigError("ramp parameters must be finite")

    def scalar_source(self) -> tuple[str, dict]:
        return "q0 + rate * t", {"q0": self.q0, "rate": self.rate}

    def qdot(self, t):
        ts = _as_array(t)
        return like_input(t, np.where(np.isnan(ts), ts, self.rate))

    @property
    def horizon(self) -> float:
        return self.duration

    @property
    def max_rate(self) -> float:
        return abs(self.rate)


@dataclass(frozen=True)
class SinusoidLoading(_Formula):
    """Oscillating pull: q(t) = q0 + amplitude * sin(2 pi frequency t + phase)."""

    q0: float = 0.0
    amplitude: float = 1.0
    frequency: float = 1.0
    duration: float = 1.0
    phase: float = 0.0

    def __post_init__(self) -> None:
        if self.duration <= 0.0 or not math.isfinite(self.duration):
            raise ConfigError(f"loading horizon must be positive, got {self.duration}")
        if not 0.0 < self.frequency < math.inf:
            raise ConfigError(f"frequency must be positive and finite, got {self.frequency}")
        for name in ("q0", "amplitude", "phase"):
            if not math.isfinite(getattr(self, name)):
                raise ConfigError(f"{name} must be finite")

    def scalar_source(self) -> tuple[str, dict]:
        return "q0 + amplitude * sin(rate * t + phase)", {
            "q0": self.q0, "amplitude": self.amplitude, "sin": math.sin,
            "rate": 2.0 * math.pi * self.frequency, "phase": self.phase}

    def qdot(self, t):
        ts = _as_array(t)
        u = 2.0 * math.pi * self.frequency * ts + self.phase
        rate = 2.0 * math.pi * self.frequency * self.amplitude
        with np.errstate(invalid="ignore"):
            return like_input(t, rate * np.cos(u))

    @property
    def horizon(self) -> float:
        return self.duration

    @property
    def max_rate(self) -> float:
        return abs(self.amplitude) * 2.0 * math.pi * self.frequency


@dataclass(frozen=True)
class SmoothedPiecewiseLinear(LoadingProgram):
    """Piecewise-linear anchor motion with C1 corners.

    Within ``blend`` of each interior knot the velocity ramps linearly
    between the adjacent segment slopes (the cubic-Hermite smoothing of the
    position), so q is C1 and ``max |qdot|`` is still the largest segment
    slope.  Knot values outside the blend zones are matched exactly.
    """

    times: tuple[float, ...]
    values: tuple[float, ...]
    blend: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "times", tuple(float(t) for t in self.times))
        object.__setattr__(self, "values", tuple(float(v) for v in self.values))
        if len(self.times) < 2 or len(self.times) != len(self.values):
            raise ConfigError("need matching times/values with at least two knots")
        if not all(map(math.isfinite, self.times + self.values)):
            raise ConfigError("knot times and values must be finite")
        diffs = np.diff(self.times)
        if np.any(diffs <= 0.0):
            raise ConfigError("knot times must be strictly increasing")
        if self.times[0] != 0.0:
            raise ConfigError("loading must start at t = 0")
        if not 0.0 < self.blend <= 0.5 * float(np.min(diffs)):
            raise ConfigError(
                "blend half-width must be positive and at most half the "
                "shortest segment"
            )
        if not np.all(np.isfinite(self._table[1])):
            raise ConfigError("knot values change too fast: a loading slope overflows")

    @cached_property
    def _table(self) -> tuple:
        """Sorted piece starts and, for each piece, ``(anchor, value, slope, change)``.

        A piece holds ``value + slope u + change u^2 / (4 blend)`` at ``u = t - anchor``.
        Blend zones are closed at both ends; of two touching zones the later owns the point.
        An equal-slope zone is linear, at the rate ``s0 + ds`` (bitwise its ``s0 + ds u``).
        """
        knots, values, blend = self.times, self.values, self.blend
        slopes = [(v1 - v0) / (t1 - t0)
                  for t0, t1, v0, v1 in zip(knots, knots[1:], values, values[1:])]
        starts, pieces = [-math.inf], [(knots[0], values[0], slopes[0], 0.0)]
        for i in range(1, len(slopes)):
            s0, ds = slopes[i - 1], slopes[i] - slopes[i - 1]
            lo = knots[i] - blend
            if starts[-1] >= lo:  # zones touch: the segment between them is empty
                del starts[-1], pieces[-1]
            starts += [lo, math.nextafter(knots[i] + blend, math.inf)]
            pieces += [(lo, values[i] - s0 * blend, s0 if ds else s0 + ds, ds),
                       (knots[i], values[i], slopes[i], 0.0)]
        return starts, pieces

    def _pieces_at(self, ts: np.ndarray) -> np.ndarray:
        """Columns anchor, value, slope and change of the piece that holds each time."""
        starts, pieces = self._table
        return np.array(pieces).T[:, np.searchsorted(starts, ts, side="right") - 1]

    def scalar_q(self) -> Callable[[float], float]:
        starts, pieces = self._table
        width = 4.0 * self.blend

        def q(t):
            anchor, value, slope, change = pieces[bisect_right(starts, t) - 1]
            u = t - anchor
            return value + slope * u + change * u * u / width if change else value + slope * u

        return q

    def q(self, t):
        ts = _as_array(t)
        anchor, value, slope, change = self._pieces_at(ts)
        u = ts - anchor
        with np.errstate(invalid="ignore"):  # a flat end segment at t = +-inf
            out = value + slope * u
        bent = change != 0.0
        out[bent] += change[bent] * u[bent] * u[bent] / (4.0 * self.blend)
        return like_input(t, out)

    def qdot(self, t):
        ts = _as_array(t)
        anchor, _, out, change = self._pieces_at(ts)
        bent = change != 0.0
        out[bent] += change[bent] * ((ts[bent] - anchor[bent]) / (2.0 * self.blend))
        # a nan time sorts past the last piece start, whose slope would be returned
        out[np.isnan(ts)] = np.nan
        return like_input(t, out)

    @property
    def horizon(self) -> float:
        return self.times[-1]

    @property
    def max_rate(self) -> float:
        return max(abs(slope) for _, _, slope, _ in self._table[1])


@dataclass(frozen=True)
class LimitSystem:
    """Driven dry-friction system in the small-corrugation limit.

    The elastic energy is quadratic, ``Phi(z) = k_h z^2 / 2``: a linear
    hauling spring.
    """

    k_h: float
    L_h_rest: float
    loading: LoadingProgram
    rho_plus: float
    rho_minus: float

    def __post_init__(self) -> None:
        if self.k_h <= 0.0 or not math.isfinite(self.k_h):
            raise ConfigError(f"hauling stiffness must be positive, got {self.k_h}")
        if not math.isfinite(self.L_h_rest):
            raise ConfigError("hauling spring rest length must be finite")
        if not -math.inf < self.rho_minus < 0.0 < self.rho_plus < math.inf:
            raise ConfigError(
                f"thresholds must satisfy rho_minus < 0 < rho_plus, got "
                f"({self.rho_minus}, {self.rho_plus})"
            )

    def ell(self, t):
        return self.k_h * (self.loading.q(t) - self.L_h_rest)

    def ell_rate(self, t):
        return self.k_h * self.loading.qdot(t)

    @property
    def ell_lipschitz(self) -> float:
        """Lipschitz constant of the driving force ell."""
        return self.k_h * self.loading.max_rate

    def phi_value(self, z):
        return 0.5 * self.k_h * np.square(z)

    def phi_force(self, z):
        return self.k_h * z

    def energy(self, t, z):
        """E(t, z) = Phi(z) - ell(t) z."""
        return self.phi_value(z) - self.ell(t) * z


def elastic_strip(system: LimitSystem, t):
    """Admissible interval [z_minus(t), z_plus(t)] of the force inclusion."""
    lower, upper = _strip(system, system.ell(_as_array(t)))
    return like_input(t, lower), like_input(t, upper)


def _strip(system: LimitSystem, ell):
    """[z_minus, z_plus] where the driving force takes the values ``ell``."""
    return (ell - system.rho_plus) / system.k_h, (ell - system.rho_minus) / system.k_h


@dataclass(frozen=True)
class Trajectory:
    """Sampled evolution: states, energies, running dissipation."""

    times: np.ndarray
    states: np.ndarray
    energies: np.ndarray
    dissipation: np.ndarray

    def __post_init__(self) -> None:
        n = self.times.size
        for name in ("states", "energies", "dissipation"):
            if getattr(self, name).size != n:
                raise ConfigError(f"trajectory field {name} has mismatched length")
        if n < 2 or np.any(np.diff(self.times) <= 0.0):
            raise ConfigError("trajectory times must be strictly increasing")

    def dissipated(self, t1: float, t2: float) -> float:
        """Energy dissipated on [t1, t2], additive across adjacent windows."""
        if not t1 <= t2:
            raise ConfigError(f"window must have t1 <= t2, got ({t1}, {t2})")
        lo, hi = self.times[0], self.times[-1]
        if t1 < lo - 1e-12 or t2 > hi + 1e-12:
            raise ConfigError(f"window ({t1}, {t2}) outside trajectory range")
        c1 = float(np.interp(t1, self.times, self.dissipation))
        c2 = float(np.interp(t2, self.times, self.dissipation))
        return c2 - c1


def default_grid(horizon: float, steps: int = DEFAULT_GRID_POINTS - 1) -> np.ndarray:
    """``steps + 1`` equally spaced times from 0 to ``horizon``."""
    if not 0.0 < horizon < math.inf:
        raise ConfigError(f"horizon must be positive and finite, got {horizon}")
    if not positive_integer(steps):
        raise ConfigError(f"a time grid needs a positive integer number of steps, got {steps!r}")
    return np.linspace(0.0, horizon, steps + 1)


def time_grid(loading: LoadingProgram, grid=None) -> np.ndarray:
    """``grid``, checked, or the :func:`default_grid` of the loading horizon.

    A grid is 1-D with at least two strictly increasing points, starts at 0
    and ends within the loading horizon (up to a relative 1e-12).
    """
    if grid is None:
        grid = default_grid(loading.horizon)
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or grid.size < 2 or not np.all(np.diff(grid) > 0.0):
        raise ConfigError("time grid must be strictly increasing with >= 2 points")
    if grid[0] != 0.0 or not grid[-1] <= loading.horizon * (1.0 + 1e-12):
        raise ConfigError(f"time grid must run from 0 to at most the horizon {loading.horizon:g}")
    return grid


def _play(lower, upper, z0: float) -> np.ndarray:
    """States of the clamp recursion on the sampled strip ``[lower, upper]``.

    The first state is ``min(max(z0, lower[0]), upper[0])``.  After it the
    loop reads the envelopes one Python float at a time through
    ``memoryview`` and clamps with two comparisons, which pick what
    ``min(high, max(low, z))`` picks, ties and signed zeros included; the
    states fill an ``array("d")`` that NumPy reads without a copy.
    """
    z = float(min(max(z0, lower[0]), upper[0]))
    states = array("d", (z,))
    append = states.append
    for low, high in zip(memoryview(lower)[1:], memoryview(upper)[1:]):
        if not z > low:
            z = low
        if not z < high:
            z = high
        append(z)
    return np.frombuffer(states)


def solve_limit(system: LimitSystem, z0: float, grid=None) -> Trajectory:
    """Evolve the play process from ``z0`` on a :func:`time_grid`.

    ``z0`` must be finite and lie inside the elastic strip at the initial
    time (up to a 1e-12 slack for roundoff); otherwise the quasistatic
    problem has no solution starting there and :class:`ConfigError` is
    raised.  The clamp recursion runs in :func:`_play` on Python floats.
    """
    grid = time_grid(system.loading, grid)
    if not math.isfinite(z0):
        raise ConfigError(f"initial state must be finite, got {z0}")
    with overflow_raises("limit solution"):
        ell = system.ell(grid)
        lower, upper = _strip(system, ell)
        scale = max(1.0, abs(z0), float(np.max(np.abs(upper))))
        slack = 1e-12 * scale
        if not lower[0] - slack <= z0 <= upper[0] + slack:
            raise ConfigError(
                f"initial state {z0} outside the elastic strip "
                f"[{lower[0]}, {upper[0]}] at t = {grid[0]}"
            )

        states = _play(lower, upper, z0)
        increments = np.diff(states)
        dissipation = np.concatenate((
            [0.0],
            np.cumsum(
                system.rho_plus * np.maximum(increments, 0.0)
                + system.rho_minus * np.minimum(increments, 0.0)
            ),
        ))
        energies = system.phi_value(states) - ell * states
        return Trajectory(
            times=grid,
            states=states,
            energies=energies,
            dissipation=dissipation,
        )
