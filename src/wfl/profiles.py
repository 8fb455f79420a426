"""Periodic surface profiles and their slope extrema.

A profile is a finite Fourier sine series

    w(x) = sum_i  A_i sin(2 pi n_i x + phi_i),

with period 1, describing the microscale corrugation of a rough surface.
The two numbers that control the induced friction are the extreme slopes

    omega_plus  = max w'(x) > 0,      omega_minus = min w'(x) < 0,

so this module exposes closed-form evaluation of w and its first three
derivatives and every root of w'', over which those extrema are exact
maxima and minima.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ConfigError

TWO_PI = 2.0 * math.pi

#: Largest harmonic index accepted in a profile.  It bounds the degree 2H of
#: the polynomial whose roots :func:`curvature_roots` takes, so the companion
#: eigenvalue problem is at most 128 x 128.
MAX_HARMONIC = 64


@dataclass(frozen=True)
class FourierTerm:
    """One sine mode ``amplitude * sin(2 pi harmonic x + phase)``."""

    amplitude: float
    harmonic: int = 1
    phase: float = 0.0

    def __post_init__(self) -> None:
        _check_harmonic(self.harmonic)
        if not math.isfinite(self.amplitude) or not math.isfinite(self.phase):
            raise ConfigError("amplitude and phase must be finite")


def _check_harmonic(harmonic) -> None:
    if not isinstance(harmonic, (int, np.integer)) or isinstance(harmonic, bool):
        raise ConfigError(f"harmonic must be an integer, got {type(harmonic).__name__}")
    if not 1 <= int(harmonic) <= MAX_HARMONIC:
        raise ConfigError(f"harmonic must lie in [1, {MAX_HARMONIC}]")


@dataclass(frozen=True)
class SurfaceProfile:
    """Period-1 corrugation profile given by a finite sine series."""

    terms: tuple[FourierTerm, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "terms", tuple(self.terms))
        if not self.terms:
            raise ConfigError("profile needs at least one Fourier term")
        if all(term.amplitude == 0.0 for term in self.terms):
            raise ConfigError("profile needs at least one nonzero amplitude")

    @classmethod
    def sinusoid(cls, slope: float = 0.1, harmonic: int = 1, phase: float = 0.0) -> "SurfaceProfile":
        """Single sinusoid with prescribed slope amplitude.

        ``sinusoid(s, n)`` is ``(s / (2 pi n)) sin(2 pi n x + phase)``, whose
        derivative oscillates between -s and +s.
        """
        if slope <= 0.0:
            raise ConfigError(f"slope amplitude must be positive, got {slope}")
        _check_harmonic(harmonic)  # before it divides
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
def scalar_terms(profile: SurfaceProfile) -> tuple:
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


def like_input(x, values: np.ndarray):
    """``values`` as a float when ``x`` is a scalar (or a 0-d array), else as is.

    Functions that compute on ``np.asarray(x)`` or ``np.atleast_1d(x)``
    return through this, so a scalar argument gets a scalar back.
    """
    if isinstance(x, np.ndarray):
        return values if x.ndim else values.item()
    # a Python float is the common scalar, and testing for it is cheaper than isscalar
    return values.item() if type(x) is float or np.isscalar(x) else values


def sorted_distinct(values: np.ndarray) -> np.ndarray:
    """``np.unique`` of a 1-D array, bit for bit, without its import of ``numpy.ma``.

    Sort, then keep each value that differs from its left neighbour: the
    mask ``np.unique`` itself applies after the same sort.
    """
    s = np.sort(values)
    return s[np.r_[True, s[1:] != s[:-1]]] if s.size else s


@lru_cache(maxsize=256)
def curvature_roots(profile: SurfaceProfile) -> np.ndarray:
    """Every root of w'' in [0, 1), ascending, as a read-only array.

    With ``z = exp(2 pi i x)``, ``z^H w''(x)`` is a polynomial of degree 2H in
    ``z`` (H the highest harmonic left once cancelling terms are summed), so
    the roots of w'' are the angles of its unit-circle roots, which
    ``np.roots`` takes from the companion matrix (Boyd, J. Eng. Math. 56,
    2006).  When every harmonic left is a multiple of some g > 1, that is a
    polynomial of degree 2H/g in ``z^g``, and each of its unit-circle roots
    gives g angles.  Three Newton steps on w'' with w''' polish each one.  A root
    within 1e-4 of the unit circle counts: a triple root of w'' (a flat
    extremum of w') leaves the eigenvalue solver some 1e-5 off the circle,
    and a complex pair that close only adds a point where w'' nearly
    vanishes.  Both callers take the roots as candidates (for the extrema of
    w') or as breaks (between monotone pieces of w'), where an extra point is
    harmless and a missing one is not.  Empty when the terms cancel to w = 0.
    """
    # coefficient of exp(2 pi i n x) in w'', up to a common factor 1/(2i)
    spectrum = np.zeros(MAX_HARMONIC + 1, dtype=complex)
    for term in profile.terms:
        rate = TWO_PI * term.harmonic
        spectrum[term.harmonic] -= term.amplitude * rate * rate * np.exp(1j * term.phase)
    size = np.abs(spectrum)
    # a mode that cancels to rounding noise must not lead the polynomial
    present = np.flatnonzero(size > 1e-14 * size.max())
    if present.size == 0:
        roots = np.empty(0)
    else:
        # every harmonic left a multiple of g: w'' is a polynomial in zeta = z^g
        g = math.gcd(*present.tolist())
        reduced = spectrum[::g]
        top = int(present[-1]) // g
        # zeta^top w'' has coefficient c_n at zeta^(top + n) and -conj(c_n) at zeta^(top - n)
        coefficients = np.concatenate(
            (reduced[top:0:-1], [0.0], -np.conj(reduced[1:top + 1]))
        )
        zeta = np.roots(coefficients)
        turn = np.angle(zeta[np.abs(np.abs(zeta) - 1.0) <= 1e-4]) / TWO_PI
        # z^g = zeta at the g angles (turn + k) / g, k = 0 .. g - 1
        x = ((turn[:, None] + np.arange(g)) / g).ravel()
        with np.errstate(divide="ignore", invalid="ignore"):
            for _ in range(3):
                step = eval_profile(profile, x, 2) / eval_profile(profile, x, 3)
                x = np.where(np.isfinite(step), x - step, x)
        x %= 1.0
        # a tiny negative x wraps to exactly 1.0
        roots = sorted_distinct(np.where(x < 1.0, x, 0.0))
    roots.flags.writeable = False
    return roots


@lru_cache(maxsize=256)
def derivative_extrema(profile: SurfaceProfile) -> DerivativeExtrema:
    """Max and min of w' over one period, and where they occur in [0, 1).

    Every extremum of w' is a root of w'', so these are the largest and the
    smallest w' over :func:`curvature_roots`.  Raises
    :class:`ConfigError` unless ``omega_minus < 0 < omega_plus``,
    also when the terms cancel to a flat profile.  Results are cached per
    profile since parameter sweeps ask for the same extrema many times.
    """
    roots = curvature_roots(profile)
    if roots.size == 0:
        raise ConfigError("profile terms cancel: the slope vanishes everywhere")
    slopes = eval_profile(profile, roots, 1)
    top, bottom = int(np.argmax(slopes)), int(np.argmin(slopes))
    omega_plus, omega_minus = float(slopes[top]), float(slopes[bottom])
    if not (omega_minus < 0.0 < omega_plus):
        raise ConfigError(
            f"slope extrema do not straddle zero: min {omega_minus}, max {omega_plus}"
        )
    return DerivativeExtrema(
        omega_plus=omega_plus,
        omega_minus=omega_minus,
        location_plus=float(roots[top]),
        location_minus=float(roots[bottom]),
    )
