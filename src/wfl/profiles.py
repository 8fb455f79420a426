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
import re
from dataclasses import dataclass
from functools import lru_cache
from textwrap import indent

import numpy as np

from .errors import ConfigError

TWO_PI = 2.0 * math.pi

#: Largest harmonic index accepted in a profile.  It bounds the 8H cells that
#: :func:`curvature_roots` starts from, so at most 512.
MAX_HARMONIC = 64

#: Cells narrower than this are not split: a multiple root of w'' leaves a
#: run of them that no test of :func:`curvature_roots` resolves.
_FLOOR = 1e-8

#: The bracketed Newton of :func:`curvature_roots` stops once no root moves
#: by more than this: it converges quadratically, so the three Newton steps
#: that follow take each root from there to rounding.
_NEWTON_TOL = 1e-9


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
        # curvature_roots bounds w''' by this sum: at inf its certificate is void
        m4 = sum(abs(float(t.amplitude)) * (TWO_PI * int(t.harmonic)) ** 4 for t in self.terms)
        if not math.isfinite(m4):
            raise ConfigError("profile curvature overflows: sum |A| (2 pi n)^4 is not finite")

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
    # sin and cos of +-inf are nan, which propagates without a warning
    with np.errstate(invalid="ignore"):
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


def fourier_source(profile: SurfaceProfile, text: str) -> tuple[str, dict]:
    """``text`` with each line ``names = sums(point)`` unrolled into w, w' or w'' (W, WP
    or WPP) at ``point``, summed in :func:`eval_profile`'s order with term i's phase in
    ``U{i}``, and the :func:`scalar_terms` values it names: the text depends only on
    the number of terms."""
    values = {}

    def unroll(match):
        lines = []
        for i, term in enumerate(scalar_terms(profile)):
            values.update({f"rate{i}": term[0], f"phase{i}": term[1]})
            lines.append(f"U{i} = rate{i} * {match[3]} + phase{i}")
            for name in match[2].split(", "):
                order = ("W", "WP", "WPP").index(name)
                factor, sign, call = (("amplitude", "+", "sin"), ("slope", "+", "cos"),
                                      ("curvature", "-", "sin"))[order]
                values[f"{factor}{i}"] = term[2 + order]
                add = f"= 0.0 {sign}" if i == 0 else f"{sign}="
                lines.append(f"{name} {add} {factor}{i} * {call}(U{i})")
        return indent("\n".join(lines), match[1])

    return re.sub(r"^( *)(.+) = sums\((.+)\)$", unroll, text, flags=re.M), values


def positive_integer(value) -> bool:
    """Whether ``value`` is a positive ``int`` or NumPy integer (a bool is not)."""
    return not isinstance(value, bool) and isinstance(value, (int, np.integer)) and value > 0


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

    Certified subdivision (Moore, Kearfott & Cloud, *Introduction to Interval
    Analysis*, SIAM 2009, ch. 8) on w'' summed by harmonic, so that terms
    which cancel give no roots.  With ``c_n`` the coefficient of
    ``exp(2 pi i n x)`` left in w'', H the highest harmonic left and
    ``Mk = sum |c_n| (2 pi n)^(k - 2)``, w'' is M3-Lipschitz and w''' is
    M4-Lipschitz.  Starting from 8H cells of [0, 1), a cell with midpoint m
    and half-width r

    - holds no root if ``|w''(m)| > M3 r + err``;
    - holds at most one if ``|w'''(m)| > M4 r + err'``, since w''' keeps its
      sign there: one exactly when w'' vanishes at its left end or differs in
      sign at its two ends, which safeguarded Newton then locates to 1e-9
      inside that bracket;
    - is split in two otherwise.

    ``err = 2^-46 (M3 + K M2)``, K the number of harmonics left, is 16 times a
    bound on the rounding error of ``w''(m)`` summed from the ``c_n``: each
    phase ``2 pi n m`` is off by at most ``2 u 2 pi n`` (u = 2^-53), which
    costs at most ``2 u M3``, and the sines, cosines, 2K products and their
    sum at most ``6 K u M2``.  ``err' = 2^-46 (M4 + K M3)`` is the same bound
    one derivative up.

    A multiple root of w'' leaves cells that neither test resolves, so cells
    are not split below a width of about 1e-8, and each contiguous run of
    such cells gives one candidate, the midpoint where ``|w''|`` is least.
    Three Newton steps on w'' with w''' from :func:`eval_profile` polish
    every root.  Both callers take the roots as candidates (for the extrema
    of w') or as breaks (between monotone pieces of w'), where an extra point
    is harmless and a missing one is not.  Empty when the terms cancel to
    w = 0.
    """
    # w''(x) = sum_n Im(c_n exp(2 pi i n x)), the terms of each harmonic summed
    spectrum = np.zeros(MAX_HARMONIC + 1, dtype=complex)
    for term in profile.terms:
        rate = TWO_PI * term.harmonic
        spectrum[term.harmonic] -= term.amplitude * rate * rate * np.exp(1j * term.phase)
    size = np.abs(spectrum)
    # a mode that cancels to rounding noise must not set the cell count
    present = np.flatnonzero(size > 1e-14 * size.max())
    if present.size == 0:
        roots = np.empty(0)
    else:
        x = _subdivide(spectrum[present], TWO_PI * present, 8 * int(present[-1]))
        with np.errstate(divide="ignore", invalid="ignore"):
            for _ in range(3):
                step = eval_profile(profile, x, 2) / eval_profile(profile, x, 3)
                x = np.where(np.isfinite(step), x - step, x)
        x %= 1.0
        # a tiny negative x wraps to exactly 1.0
        roots = sorted_distinct(np.where(x < 1.0, x, 0.0))
    roots.flags.writeable = False
    return roots


def _curvature(x: np.ndarray, c: np.ndarray, rate: np.ndarray) -> tuple:
    """w'' and w''' at ``x``, summed from the coefficients ``c`` at ``rate = 2 pi n``."""
    phase = np.multiply.outer(x, rate)
    sin, cos = np.sin(phase), np.cos(phase)
    return sin @ c.real + cos @ c.imag, cos @ (rate * c.real) - sin @ (rate * c.imag)


def _subdivide(c: np.ndarray, rate: np.ndarray, count: int) -> np.ndarray:
    """The cell search of :func:`curvature_roots` on ``count`` cells of [0, 1).

    ``c`` holds the coefficients left in w'' and ``rate`` their ``2 pi n``.
    Returns one point per root found and one per unresolved run of cells.
    """
    m2, m3, m4 = (float(np.sum(np.abs(c) * rate**k)) for k in (0, 1, 2))
    err2, err3 = 2.0**-46 * (m3 + c.size * m2), 2.0**-46 * (m4 + c.size * m3)
    cells = np.arange(count)
    brackets = []  # per level: left ends, right ends, whether w'' rises across the cell
    while True:
        width = 1.0 / count
        # one evaluation at the midpoints, left ends and right ends; the right
        # end of the last cell is x = 0, so neighbours share each end bitwise
        w2, w3 = _curvature(np.concatenate(
            ((cells + 0.5) * width, cells * width, (cells + 1) % count * width)), c, rate)
        mid, left, right = w2.reshape(3, -1)
        live = np.abs(mid) <= m3 * 0.5 * width + err2
        monotone = live & (np.abs(w3[: cells.size]) > m4 * 0.5 * width + err3)
        # a root at a shared end belongs to the cell it starts, so it is found once
        change = monotone & ((left == 0.0) | (np.sign(left) * np.sign(right) < 0.0))
        brackets.append((cells[change] * width, (cells[change] + 1) * width, right[change] > 0.0))
        split = live & ~monotone
        cells, mid = cells[split], mid[split]
        if cells.size == 0 or width < _FLOOR:
            break
        cells, count = (2 * cells[:, None] + np.arange(2)).ravel(), 2 * count
    # one candidate per run of adjacent unresolved cells: where |w''| is least
    runs = np.split(np.arange(cells.size), np.flatnonzero(np.diff(cells) > 1) + 1)
    unresolved = [(cells[run[np.argmin(np.abs(mid[run]))]] + 0.5) * width
                  for run in runs if run.size]
    a, b, rising = (np.concatenate(part) for part in zip(*brackets))
    x = 0.5 * (a + b)
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(100):
            w2, w3 = _curvature(x, c, rate)
            # the root lies past x where w''(x) is below zero and w'' rises
            beyond = (w2 < 0.0) == rising
            a, b = np.where(beyond, x, a), np.where(beyond, b, x)
            newton = x - np.where(w2 == 0.0, 0.0, w2 / w3)
            # a step just past the bracket stops at its end, where a root at a
            # cell's end lies; a step further off bisects
            inside = np.clip(newton, a, b)
            near = np.abs(newton - inside) <= 0.25 * (b - a)
            x, previous = np.where(near, inside, 0.5 * (a + b)), x
            if np.all(np.abs(x - previous) <= _NEWTON_TOL):
                break
    return np.concatenate((x, unresolved))


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
