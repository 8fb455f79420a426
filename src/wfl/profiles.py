"""Periodic surface profiles and their slope extrema.

A profile is a finite Fourier sine series

    w(x) = sum_i  A_i sin(2 pi n_i x + phi_i),

with period 1, describing the microscale corrugation of a rough surface.
The two numbers that control the induced friction are the extreme slopes

    omega_plus  = max w'(x) > 0,      omega_minus = min w'(x) < 0,

so this module exposes closed-form evaluation of w, w', w'' together with a
scan-and-refine routine that locates those extrema to high accuracy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.optimize import brentq, minimize_scalar

from .errors import DegenerateProfileError, InvalidScaleError

TWO_PI = 2.0 * math.pi

#: Largest harmonic index accepted in a profile.  A 4096-point scan leaves
#: 64 samples per period of the fastest mode, enough to bracket every
#: slope extremum before refinement.
MAX_HARMONIC = 64

_SCAN_POINTS = 4096


@dataclass(frozen=True)
class FourierTerm:
    """One sine mode ``amplitude * sin(2 pi harmonic x + phase)``."""

    amplitude: float
    harmonic: int = 1
    phase: float = 0.0

    def __post_init__(self) -> None:
        if not isinstance(self.harmonic, (int, np.integer)) or isinstance(self.harmonic, bool):
            raise InvalidScaleError(f"harmonic must be an integer, got {self.harmonic!r}")
        if not 1 <= int(self.harmonic) <= MAX_HARMONIC:
            raise InvalidScaleError(
                f"harmonic must lie in [1, {MAX_HARMONIC}], got {self.harmonic}"
            )
        if not math.isfinite(self.amplitude) or not math.isfinite(self.phase):
            raise InvalidScaleError("amplitude and phase must be finite")


@dataclass(frozen=True)
class SurfaceProfile:
    """Period-1 corrugation profile given by a finite sine series."""

    terms: tuple[FourierTerm, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "terms", tuple(self.terms))
        if not self.terms:
            raise InvalidScaleError("profile needs at least one Fourier term")
        if all(term.amplitude == 0.0 for term in self.terms):
            raise InvalidScaleError("profile needs at least one nonzero amplitude")

    @classmethod
    def sinusoid(cls, slope: float = 0.1, harmonic: int = 1, phase: float = 0.0) -> "SurfaceProfile":
        """Single sinusoid with prescribed slope amplitude.

        ``sinusoid(s, n)`` is ``(s / (2 pi n)) sin(2 pi n x + phase)``, whose
        derivative oscillates between -s and +s.
        """
        if slope <= 0.0:
            raise InvalidScaleError(f"slope amplitude must be positive, got {slope}")
        amplitude = slope / (TWO_PI * harmonic)
        return cls(terms=(FourierTerm(amplitude, harmonic, phase),))

    @property
    def amplitude_bound(self) -> float:
        """Upper bound on sup |w|: the sum of absolute amplitudes."""
        return sum(abs(t.amplitude) for t in self.terms)


@dataclass(frozen=True)
class DerivativeExtrema:
    """Extreme slopes of a profile and where they occur in [0, 1)."""

    omega_plus: float
    omega_minus: float
    location_plus: float
    location_minus: float


def eval_profile(profile: SurfaceProfile, x, order: int = 0):
    """Evaluate w, w' or w'' at ``x`` (scalar or array).

    Args:
        profile: the surface profile.
        x: evaluation points, any shape.
        order: 0 for w, 1 for w', 2 for w''.

    Returns:
        Value with the same shape as ``x`` (a float for scalar input).
    """
    if order not in (0, 1, 2):
        raise ValueError(f"order must be 0, 1 or 2, got {order}")
    xs = np.asarray(x, dtype=float)
    out = np.zeros_like(xs)
    for term in profile.terms:
        u = TWO_PI * term.harmonic * xs + term.phase
        rate = TWO_PI * term.harmonic
        if order == 0:
            out += term.amplitude * np.sin(u)
        elif order == 1:
            out += term.amplitude * rate * np.cos(u)
        else:
            out -= term.amplitude * rate * rate * np.sin(u)
    return like_input(x, out)


def like_input(x, values: np.ndarray):
    """``values`` as a float when ``x`` is a scalar (or a 0-d array), else as is.

    Functions that compute on ``np.asarray(x)`` or ``np.atleast_1d(x)``
    return through this, so a scalar argument gets a scalar back.
    """
    if isinstance(x, np.ndarray):
        return values if x.ndim else values.item()
    # a Python float is the common scalar, and testing for it is cheaper than isscalar
    return values.item() if type(x) is float or np.isscalar(x) else values


def _refine_slope_extremum(profile: SurfaceProfile, lo: float, hi: float, sign: float) -> float:
    """Location in (lo, hi) of an extremum of w'.

    ``sign=+1`` targets a maximum of w', ``sign=-1`` a minimum.  Tries a
    bracketed root of w'' first, falling back to direct bounded
    minimisation when the curvature does not change sign across the
    bracket (flat or degenerate extrema).
    """
    c_lo = eval_profile(profile, lo, 2)
    c_hi = eval_profile(profile, hi, 2)
    if sign * c_lo > 0.0 > sign * c_hi:
        return brentq(lambda t: eval_profile(profile, t, 2), lo, hi, xtol=1e-15)
    res = minimize_scalar(
        lambda t: -sign * eval_profile(profile, t, 1),
        bounds=(lo, hi),
        method="bounded",
        options={"xatol": 1e-14},
    )
    return float(res.x)


@lru_cache(maxsize=256)
def derivative_extrema(profile: SurfaceProfile) -> DerivativeExtrema:
    """Locate max and min of w' over one period.

    Scans ``w'`` on a 4096-point grid, then refines each candidate inside
    its bracketing grid cell to about 1e-12 in location.  Raises
    :class:`DegenerateProfileError` when the refined slopes do not satisfy
    ``omega_minus < 0 < omega_plus``.  Results are cached per profile since
    parameter sweeps ask for the same extrema many times.
    """
    xs = np.arange(_SCAN_POINTS, dtype=float) / _SCAN_POINTS
    slopes = eval_profile(profile, xs, 1)
    step = 1.0 / _SCAN_POINTS

    def refine(idx: int, sign: float) -> tuple[float, float]:
        x0 = xs[idx]
        loc = _refine_slope_extremum(profile, x0 - step, x0 + step, sign)
        grid_val = slopes[idx]
        val = eval_profile(profile, loc, 1)
        if sign * val < sign * grid_val:
            loc, val = x0, grid_val
        return loc % 1.0, float(val)

    loc_plus, omega_plus = refine(int(np.argmax(slopes)), +1.0)
    loc_minus, omega_minus = refine(int(np.argmin(slopes)), -1.0)
    if not (omega_minus < 0.0 < omega_plus):
        raise DegenerateProfileError(
            f"slope extrema do not straddle zero: min {omega_minus}, max {omega_plus}"
        )
    return DerivativeExtrema(
        omega_plus=omega_plus,
        omega_minus=omega_minus,
        location_plus=loc_plus,
        location_minus=loc_minus,
    )
