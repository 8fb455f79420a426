"""Elastic bristle contacts and the friction coefficients they generate.

Three bristle geometries share one abstract mechanism.  A bristle tip is
dragged over a corrugated surface ``y = eps * w(x / eps)``; elasticity plus
geometry turn the corrugation into a tilted washboard potential for the
bristle root, and in the small-scale limit the root obeys dry friction with
thresholds

    rho_plus > 0  (resisting rightward sliding),
    rho_minus < 0 (resisting leftward sliding).

The models:

* ``VerticalBristle``: a vertical linear spring of stiffness ``k`` and rest
  length ``L_rest`` pinned at height ``h`` above the surface.  The tip
  tracks the corrugation directly.
* ``SlantedBristle``: the same spring mounted at a fixed angle ``theta``
  from the vertical.  The contact point lags or leads the root, which skews
  the perceived corrugation.
* ``AngularBristle``: a rigid rod of length ``L`` hinged at height ``h``
  with a torsional spring (stiffness ``k``, rest angle ``theta_rest``).
  The rod's inclination at flat contact is ``theta_lim = arccos(h / L)``.

Each geometry reduces to two numbers: a tension scale ``alpha`` (force per
unit slope carried by the contact) and a slope factor ``a``.  The factor
deforms the profile seen by the root: if the tip sits at surface abscissa
``p``, the root sits at ``z = g(p) = p + a * w(p)``, and the perceived
profile is ``W(z) = w(g^{-1}(z))``.  Whenever ``1 + a w'(p) > 0`` the map
is invertible and the perceived extreme slopes are

    mu_pm = omega_pm / (1 + a * omega_pm),

from which the friction thresholds follow:

    alpha > 0:  rho_plus = alpha * mu_plus,  rho_minus = alpha * mu_minus
    alpha < 0:  rho_plus = alpha * mu_minus, rho_minus = alpha * mu_plus.

Each geometry is one class holding ``name``, ``alpha``, ``slope_factor``,
two methods, to which the module functions delegate, and three texts with
the values they name; a fourth geometry is one more class.

* ``conditions(extrema)``: admissibility inequalities, for :func:`coefficients`;
* ``clearance(profile)``: tolerated corrugation height, for :func:`epsilon_limit`;
* ``shift``, ``force`` and ``energy``: the geometry, each part written once
  as straight-line source text on the tip height ``y`` and the surface slope
  ``wp``.  They read the values that ``constants`` names, ``sqrt`` and
  ``acos``, and each may read the locals of the ones before it:

  - ``shift`` sets ``s``, root minus tip abscissa (relative to flat
    contact), and its ``y``-derivative ``ds``; the contact point solves
    ``p + s(eps w(p / eps)) = z``.  It is empty for a tip under its root,
    and a tip with a shift is tilted;
  - ``force`` sets ``f``, the microscale force;
  - ``energy`` sets ``e``, the microscale potential, zeroed on the flat.

  The viscous stepper splices the shift and the force, never the energy,
  into each stage, on floats with ``math`` (:func:`wfl.viscous_solver.scalar_rhs`).
  :func:`contact_point` runs the shift alone on arrays and :func:`at_contact`
  all three, with ``np.sqrt`` and libm's ``acos`` taken elementwise, compiled
  once per text (:mod:`wfl.codegen`) and bound to its numbers once per model
  instance.  ``sqrt`` is correctly rounded on both routes and the ``acos`` is
  libm's on both, so they agree bitwise, and neither depends on NumPy's SIMD
  ``arccos``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Union

import numpy as np

from .codegen import closure
from .errors import ConfigError, SolverError
from .profiles import (
    DerivativeExtrema,
    SurfaceProfile,
    derivative_extrema,
    eval_profile,
    like_input,
    positive_integer,
    scalar_terms,
)


def _require_finite(**values: float) -> None:
    for name, value in values.items():
        if not math.isfinite(value):
            raise ConfigError(f"{name} must be finite, got {value}")


def _require_spring(model, **more: float) -> None:
    """Every value finite, then a linear spring's ``k > 0``, ``h > 0`` and ``L_rest >= 0``."""
    _require_finite(k=model.k, L_rest=model.L_rest, h=model.h, **more)
    if model.k <= 0.0:
        raise ConfigError(f"stiffness must be positive, got {model.k}")
    if model.h <= 0.0:
        raise ConfigError(f"stand-off height must be positive, got {model.h}")
    if model.L_rest < 0.0:
        raise ConfigError(f"rest length must be nonnegative, got {model.L_rest}")


class _Geometry:
    """A geometry's texts as functions of NumPy arrays, built on first use, once per instance.

    Per instance, not per equal value: ``0.0 == -0.0``, and the two hash alike.
    """

    @cached_property
    def _shift_on_arrays(self):
        """``s, ds`` of ``y``; None for a tip under its root."""
        return _on_arrays(self, self.shift, "y", "s, ds") if self.shift else None

    @cached_property
    def _contact_on_arrays(self):
        """``s, ds, f, e`` of ``y, wp``, or ``f, e`` for a tip under its root."""
        returns = "s, ds, f, e" if self.shift else "f, e"
        return _on_arrays(self, self.shift + self.force + self.energy, "y, wp", returns)

    def __getstate__(self) -> dict:
        # the compiled functions are rebuilt on first use, not pickled
        return {k: v for k, v in self.__dict__.items()
                if k not in ("_shift_on_arrays", "_contact_on_arrays")}


@dataclass(frozen=True)
class VerticalBristle(_Geometry):
    """Vertical linear spring: stiffness ``k``, rest length ``L_rest``, stand-off ``h``."""

    k: float
    L_rest: float
    h: float

    def __post_init__(self) -> None:
        _require_spring(self)
        if self.L_rest == self.h:
            raise ConfigError(
                "rest length equals stand-off: spring is unloaded on the flat "
                "and the friction thresholds vanish"
            )

    name = "vertical"
    slope_factor = 0.0

    @property
    def alpha(self) -> float:
        return self.k * (self.L_rest - self.h)

    def conditions(self, extrema: DerivativeExtrema) -> tuple[AdmissibilityCondition, ...]:
        return ()

    def clearance(self, profile: SurfaceProfile) -> float:
        return 0.5 * self.h

    shift = ""
    force = "f = k * (rest + y) * wp\n"
    energy = "e = 0.5 * k * ((rest + y) ** 2 - rest ** 2)\n"

    @property
    def constants(self) -> dict:
        return {"k": self.k, "rest": self.L_rest - self.h}


@dataclass(frozen=True)
class SlantedBristle(_Geometry):
    """Linear spring mounted at angle ``theta`` from the vertical."""

    k: float
    L_rest: float
    h: float
    theta: float

    def __post_init__(self) -> None:
        _require_spring(self, theta=self.theta)
        if not 0.0 < self.theta < 0.5 * math.pi:
            raise ConfigError(
                f"mounting angle must lie in (0, pi/2), got {self.theta}"
            )
        if self.L_rest == self.h / math.cos(self.theta):
            raise ConfigError(
                "spring is exactly at rest length on the flat; friction degenerates"
            )

    name = "slanted"

    @property
    def slope_factor(self) -> float:
        return -math.tan(self.theta)

    @property
    def alpha(self) -> float:
        cos_t = math.cos(self.theta)
        return (self.k / cos_t) * (self.L_rest - self.h / cos_t)

    def conditions(self, extrema: DerivativeExtrema) -> tuple[AdmissibilityCondition, ...]:
        margin = 1.0 / math.tan(self.theta) - extrema.omega_plus
        return (AdmissibilityCondition("omega_plus < cot(theta)", margin),)

    def clearance(self, profile: SurfaceProfile) -> float:
        omega_plus = derivative_extrema(profile).omega_plus
        return 0.25 * self.h * (1.0 - math.tan(self.theta) * omega_plus)

    shift = "s = rate * y\nds = rate\n"
    force = "f = tension * (L_rest - (h - y) / cos_t) * wp / (1.0 - tan_t * wp)\n"
    energy = "e = 0.5 * k * ((rest + y / cos_t) ** 2 - rest ** 2)\n"

    @property
    def constants(self) -> dict:
        cos_t, tan_t = math.cos(self.theta), math.tan(self.theta)
        return {"rate": -tan_t, "tension": self.k / cos_t, "L_rest": self.L_rest, "h": self.h,
                "cos_t": cos_t, "tan_t": tan_t, "k": self.k, "rest": self.L_rest - self.h / cos_t}


@dataclass(frozen=True)
class AngularBristle(_Geometry):
    """Rigid rod of length ``L`` on a torsional spring at height ``h``.

    The rod hangs from a hinge that travels horizontally at height ``h``
    above the mean surface; its inclination from the vertical is ``theta``
    and the spring drives it toward ``theta_rest``.  Flat contact pins the
    inclination at ``theta_lim = arccos(h / L)``.
    """

    k: float
    L: float
    h: float
    theta_rest: float

    def __post_init__(self) -> None:
        _require_finite(k=self.k, L=self.L, h=self.h, theta_rest=self.theta_rest)
        if self.k <= 0.0:
            raise ConfigError(f"torsional stiffness must be positive, got {self.k}")
        # L^2 - h^2 enters as a positive float: under- or overflow would divide by 0 or inf
        if not (0.0 < self.h < self.L and 0.0 < self.L * self.L - self.h * self.h < math.inf):
            raise ConfigError(
                f"need 0 < h < L and a finite L^2 - h^2 > 0, got h={self.h}, L={self.L}"
            )
        if not -0.5 * math.pi < self.theta_rest < self.theta_lim:
            raise ConfigError(
                f"rest angle must lie in (-pi/2, theta_lim={self.theta_lim:.6f}), "
                f"got {self.theta_rest}"
            )

    name = "angular"

    @property
    def theta_lim(self) -> float:
        return math.acos(self.h / self.L)

    @property
    def slope_factor(self) -> float:
        # cot(theta_lim), written directly in terms of the geometry
        return self.h / math.sqrt(self.L ** 2 - self.h ** 2)

    @property
    def alpha(self) -> float:
        return self.k * (self.theta_lim - self.theta_rest) / math.sqrt(
            self.L ** 2 - self.h ** 2
        )

    def conditions(self, extrema: DerivativeExtrema) -> tuple[AdmissibilityCondition, ...]:
        margin_lo = extrema.omega_minus + math.tan(self.theta_lim)
        margin_hi = self.slope_factor - extrema.omega_plus
        return (
            AdmissibilityCondition("-tan(theta_lim) < omega_minus", margin_lo),
            AdmissibilityCondition("omega_plus < cot(theta_lim)", margin_hi),
        )

    def clearance(self, profile: SurfaceProfile) -> float:
        return 0.5 * min(self.h, self.L - self.h)

    # L * L in the shift, L ** 2 in the force, as constants: pow need not round as a product does
    shift = ("d = h - y\n"
             "r = sqrt(LL - d * d)\n"
             "s = r - flat\n"
             "ds = d / r\n")
    force = ("rf = sqrt(L2 - d * d)\n"
             "theta = acos(d / L)\n"
             "f = k * (theta - theta_rest) * wp / (rf * (1.0 + d / rf * wp))\n")
    energy = "e = 0.5 * k * ((theta - theta_rest) ** 2 - rest)\n"

    @property
    def constants(self) -> dict:
        LL, h = self.L * self.L, self.h
        return {"h": h, "LL": LL, "L2": self.L ** 2, "flat": math.sqrt(LL - h * h), "k": self.k,
                "L": self.L, "theta_rest": self.theta_rest,
                "rest": (self.theta_lim - self.theta_rest) ** 2}


BristleModel = Union[VerticalBristle, SlantedBristle, AngularBristle]


@dataclass(frozen=True)
class FrictionCoefficients:
    """Tension scale, perceived slopes, and friction thresholds of a contact."""

    alpha: float
    mu_plus: float
    mu_minus: float
    rho_plus: float
    rho_minus: float

    def __post_init__(self) -> None:
        if not -math.inf < self.rho_minus < 0.0 < self.rho_plus < math.inf:
            raise ConfigError(
                f"friction thresholds must straddle zero and be finite: alpha={self.alpha}, "
                f"rho_minus={self.rho_minus}, rho_plus={self.rho_plus}"
            )


@dataclass(frozen=True)
class AdmissibilityCondition:
    label: str
    margin: float


def mu_from_omega(
    omega_plus: float, omega_minus: float, slope_factor: float
) -> tuple[float, float]:
    """Perceived extreme slopes ``omega_pm / (1 + a * omega_pm)``.

    Requires ``omega_minus < 0 < omega_plus`` and ``1 + a * omega_pm > 0``;
    the latter is the invertibility of the tip-to-root map and fails with
    :class:`ConfigError`.
    """
    if not omega_minus < 0.0 < omega_plus:
        raise ConfigError(
            f"extreme slopes must straddle zero, got ({omega_minus}, {omega_plus})"
        )
    den_plus = 1.0 + slope_factor * omega_plus
    den_minus = 1.0 + slope_factor * omega_minus
    if not (den_plus > 0.0 and den_minus > 0.0):
        raise ConfigError(
            f"slope factor a={slope_factor} gives nonpositive 1 + a*omega "
            f"({den_plus}, {den_minus}); contact map not invertible"
        )
    return omega_plus / den_plus, omega_minus / den_minus


def coefficients(model: BristleModel, profile: SurfaceProfile) -> FrictionCoefficients:
    """Friction coefficients of a bristle model on a given profile.

    Raises :class:`ConfigError` when the profile slopes violate the model's
    admissibility inequalities (``model.conditions``, one per inequality with
    its margin, positive when satisfied; none for the vertical bristle) or
    when the contact carries no force on the flat.
    """
    extrema = derivative_extrema(profile)
    failing = [c for c in model.conditions(extrema) if not c.margin > 0.0]
    if failing:
        detail = "; ".join(f"{c.label} (margin {c.margin:.3e})" for c in failing)
        raise ConfigError(f"model inadmissible for this profile: {detail}")
    alpha = model.alpha
    if alpha == 0.0:
        raise ConfigError("contact tension scale alpha is zero")
    mu_plus, mu_minus = mu_from_omega(
        extrema.omega_plus, extrema.omega_minus, model.slope_factor
    )
    if alpha > 0.0:
        rho_plus, rho_minus = alpha * mu_plus, alpha * mu_minus
    else:
        # with a negative tension scale the perceived profile flips, so the
        # extreme slopes swap roles: max(alpha * W') = alpha * min(W')
        rho_plus, rho_minus = alpha * mu_minus, alpha * mu_plus
    return FrictionCoefficients(
        alpha=alpha,
        mu_plus=mu_plus,
        mu_minus=mu_minus,
        rho_plus=rho_plus,
        rho_minus=rho_minus,
    )


# ---------------------------------------------------------------------------
# perceived profile: numerical inversion of the tip-to-root map
# ---------------------------------------------------------------------------

def invert_contact_map(profile: SurfaceProfile, slope_factor: float, z):
    """Solve ``p + a * w(p) = z`` for ``p`` (elementwise, safeguarded Newton).

    The map is strictly increasing under the admissibility condition, so the
    solution is unique and lies within ``|a| * sup|w|`` of ``z``.  This is
    the contact iteration of :func:`wiggly_force` for the shift ``a * y`` at
    eps = 1, where ``1.0 * w(p / 1.0)`` is exact, with Newton stopped and
    the result checked at a residual of 1e-12.  :func:`mu_from_omega`
    raises :class:`ConfigError` where the map is not invertible.
    """
    extrema = derivative_extrema(profile)
    mu_from_omega(extrema.omega_plus, extrema.omega_minus, slope_factor)
    a = slope_factor
    return like_input(z, _contact(profile, 1.0, z, lambda y: (a * y, a), tol=1e-12, bound=1e-12))


def perceived_profile(profile: SurfaceProfile, slope_factor: float, samples: int = 4096):
    """One period of the perceived profile: grid ``z``, heights W(z) and slopes W'(z)."""
    if not positive_integer(samples):
        raise ConfigError(f"samples must be a positive integer, got {samples!r}")
    zs = np.arange(samples, dtype=float) / samples
    ps = invert_contact_map(profile, slope_factor, zs)
    wp = eval_profile(profile, ps, 1)
    return zs, eval_profile(profile, ps, 0), wp / (1.0 + slope_factor * wp)


def _bounded_brent(func, a: float, b: float, xatol: float) -> float:
    """Least value of ``func`` found on ``[a, b]`` by Brent's bounded minimisation.

    Golden-section search with parabolic steps (Brent, *Algorithms for
    Minimization without Derivatives*, 1973, ch. 5), stopped when the best
    point lies within ``2 tol - (b - a) / 2`` of the bracket's midpoint, with
    ``tol = sqrt(2.2e-16) |x| + xatol / 3``, or after 500 evaluations.  The
    operations run in the order of SciPy's ``minimize_scalar(method="bounded")``,
    so the two agree bit for bit, evaluation by evaluation.
    """
    sqrt_eps = math.sqrt(2.2e-16)
    golden_mean = 0.5 * (3.0 - math.sqrt(5.0))
    # xf: best point so far; nfc: second best; fulc: the point before nfc
    xf = nfc = fulc = a + golden_mean * (b - a)
    fx = fnfc = ffulc = func(xf)
    rat = e = 0.0
    num = 1
    xm = 0.5 * (a + b)
    tol1 = sqrt_eps * abs(xf) + xatol / 3.0
    tol2 = 2.0 * tol1
    while abs(xf - xm) > tol2 - 0.5 * (b - a):
        golden = True
        if abs(e) > tol1:
            # parabola through the three points
            r = (xf - nfc) * (fx - ffulc)
            q = (xf - fulc) * (fx - fnfc)
            p = (xf - fulc) * q - (xf - nfc) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            r, e = e, rat
            if abs(p) < abs(0.5 * q * r) and q * (a - xf) < p < q * (b - xf):
                golden = False
                rat = p / q
                x = xf + rat
                if x - a < tol2 or b - x < tol2:
                    rat = tol1 if xm >= xf else -tol1
        if golden:
            e = (a if xf >= xm else b) - xf
            rat = golden_mean * e
        stride = max(abs(rat), tol1)
        x = xf - stride if rat < 0.0 else xf + stride
        fu = func(x)
        num += 1
        if fu <= fx:
            if x >= xf:
                a = xf
            else:
                b = xf
            fulc, ffulc, nfc, fnfc, xf, fx = nfc, fnfc, xf, fx, x, fu
        else:
            if x < xf:
                a = x
            else:
                b = x
            if fu <= fnfc or nfc == xf:
                fulc, ffulc, nfc, fnfc = nfc, fnfc, x, fu
            elif fu <= ffulc or fulc == xf or fulc == nfc:
                fulc, ffulc = x, fu
        xm = 0.5 * (a + b)
        tol1 = sqrt_eps * abs(xf) + xatol / 3.0
        tol2 = 2.0 * tol1
        if num >= 500:
            break
    return fx


#: Newton steps of :func:`_perceived_slope` before the array route, as in :func:`_contact`.
_SLOPE_STEPS = 100


def _perceived_slope(profile: SurfaceProfile, slope_factor: float):
    """Exact W'(z) = w'(p) / (1 + a w'(p)) at p = g^{-1}(z), as a function of a float z.

    :func:`invert_contact_map`'s Newton on floats, summed in :func:`eval_profile`'s
    order, with the same steps, stop and clip, so it equals that array route bit for
    bit; a z unsolved after ``_SLOPE_STEPS`` steps takes the array route itself.
    """
    a, terms, ymax = slope_factor, scalar_terms(profile), profile.amplitude_bound
    radius = max(abs(a * ymax), abs(a * -ymax))
    sin, cos = math.sin, math.cos

    def slope(z: float) -> float:
        p, lo, hi = z, z - radius, z + radius
        for _ in range(_SLOPE_STEPS):
            w = wp = 0.0
            for rate, phase, amplitude, factor, _ in terms:
                u = rate * p + phase
                w += amplitude * sin(u)
                wp += factor * cos(u)
            r = p + a * w - z
            if abs(r) <= 1e-12:
                break
            p -= r / (1.0 + a * wp)
            p = lo if p <= lo else hi if p >= hi else p  # as np.clip: a tie takes the bound
        else:
            wp = eval_profile(profile, invert_contact_map(profile, a, z), 1)
        return wp / (1.0 + a * wp)
    return slope


def perceived_extrema(profile: SurfaceProfile, slope_factor: float) -> tuple[float, float]:
    """Extreme slopes of the perceived profile, by direct numerical search.

    This is the oracle counterpart of :func:`mu_from_omega`: it never uses
    the closed form, only tabulation of ``W'`` and bounded refinement
    (:func:`_bounded_brent`) of every local maximum and minimum of the
    table, so the two routes cross-check each other even where two extrema
    of ``W'`` nearly tie.
    """
    grid, _, slopes = perceived_profile(profile, slope_factor)
    step = 1.0 / grid.size
    slope = _perceived_slope(profile, slope_factor)

    def refine(idx: int, sign: float) -> float:
        z0 = float(grid[idx])
        least = _bounded_brent(lambda z: -sign * slope(z), z0 - step, z0 + step, 1e-12)
        # never return something worse than the raw grid sample
        return max(-least, sign * slopes[idx])

    # local extrema of the periodic table, ties included
    before, after = np.roll(slopes, 1), np.roll(slopes, -1)
    peaks = np.flatnonzero((slopes >= before) & (slopes >= after))
    troughs = np.flatnonzero((slopes <= before) & (slopes <= after))
    mu_plus = max(refine(i, +1.0) for i in peaks)
    mu_minus = -max(refine(i, -1.0) for i in troughs)
    return float(mu_plus), float(mu_minus)


# ---------------------------------------------------------------------------
# microscale forces
# ---------------------------------------------------------------------------

def epsilon_limit(model: BristleModel, profile: SurfaceProfile) -> float:
    """Largest corrugation scale the geometry tolerates with a safety margin.

    The corrugation height ``eps * sup|w|`` must stay well below the
    model's geometric clearances, otherwise contact may detach or become
    multivalued.  Runs at larger ``eps`` are refused.
    """
    return model.clearance(profile) / profile.amplitude_bound


def _require_valid_epsilon(model: BristleModel, profile: SurfaceProfile, epsilon: float) -> None:
    if epsilon <= 0.0 or not math.isfinite(epsilon):
        raise ConfigError(f"epsilon must be positive and finite, got {epsilon}")
    limit = epsilon_limit(model, profile)
    if epsilon > limit:
        raise ConfigError(
            f"epsilon {epsilon} exceeds the geometric validity limit {limit:.6g} "
            f"for this {model.name} bristle"
        )


def _contact(profile: SurfaceProfile, epsilon: float, z, shift, tol=None, bound=1e-10):
    """Contact point ``p`` for root position ``z``.

    ``p`` solves ``p + shift(eps w(p / eps)) = z`` by safeguarded Newton
    (the relation is strictly monotone inside the validity region), stopped
    at ``tol`` (by default 1e-13 of ``max(1, |z|)``), with a bisection sweep
    for points whose residual is still above 1e-12; a residual above
    ``bound`` after the sweep raises :class:`SolverError`.  A tip
    under its root (``shift`` is ``None``) solves nothing.
    """
    zs = np.array(z, dtype=float, ndmin=1)
    if shift is None:
        return zs
    ymax = epsilon * profile.amplitude_bound
    radius = max(abs(shift(ymax)[0]), abs(shift(-ymax)[0]))
    lo, hi = zs - radius, zs + radius
    if tol is None:
        tol = 1e-13 * max(1.0, float(np.max(np.abs(zs), initial=0.0)))
    p = zs
    for _ in range(100):
        x = p / epsilon
        y = epsilon * eval_profile(profile, x, 0)
        s, ds = shift(y)
        r = p + s - zs
        if np.max(np.abs(r), initial=0.0) <= tol:
            return p
        p = np.clip(p - r / (1.0 + ds * eval_profile(profile, x, 1)), lo, hi)

    def residual(q):
        return q + shift(epsilon * eval_profile(profile, q / epsilon, 0))[0] - zs

    bad = np.abs(residual(p)) > 1e-12
    if np.any(bad):
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            high = residual(mid) > 0.0
            hi = np.where(high, mid, hi)
            lo = np.where(high, lo, mid)
        p = np.where(bad, 0.5 * (lo + hi), p)
        worst = float(np.max(np.abs(residual(p))))
        if worst > bound:
            raise SolverError(f"contact iteration stalled at residual {worst:.3e}")
    return p


def _libm_acos(x):
    """``math.acos`` elementwise: NumPy's SIMD ``arccos`` can be an ulp off libm's."""
    x = np.asarray(x, dtype=float)
    return np.fromiter(map(math.acos, x.ravel().tolist()), float, x.size).reshape(x.shape)


def wiggly_force(model: BristleModel, profile: SurfaceProfile, epsilon: float, z):
    """Derivative of the microscale bristle potential at root position ``z``.

    Computed from the exact geometry (no small-slope expansion): locate the
    contact point, then differentiate the stored elastic energy through the
    root-tip relation.
    """
    return like_input(z, at_contact(model, profile, epsilon,
                                    contact_point(model, profile, epsilon, z))[1])


def _on_arrays(model: BristleModel, text: str, arguments: str, returns: str):
    """``text``, from ``model``'s shift, force and energy, as a function of NumPy arrays
    returning ``returns``."""
    return closure(f"{text}return {returns}\n", arguments,
                   {**model.constants, "sqrt": np.sqrt, "acos": _libm_acos})


def contact_point(model: BristleModel, profile: SurfaceProfile, epsilon: float, z):
    """Tip abscissa ``p`` of root position ``z``, the inverse of :func:`at_contact`'s ``z``."""
    _require_valid_epsilon(model, profile, epsilon)
    return like_input(z, _contact(profile, epsilon, z, model._shift_on_arrays))


def at_contact(model: BristleModel, profile: SurfaceProfile, epsilon: float, p):
    """``z``, ``V_eps'(z)``, ``V_eps(z)`` and ``g'(p)`` with the tip at abscissa ``p``, as arrays.

    No Newton: the root position ``z = g(p) = p + s(y)``, ``y = eps w(p / eps)``,
    is explicit, and so is the slope ``g'(p) = 1 + ds(y) w'(p / eps)`` of the contact map.
    """
    _require_valid_epsilon(model, profile, epsilon)
    ps = np.array(p, dtype=float, ndmin=1)
    x = ps / epsilon
    y = epsilon * eval_profile(profile, x, 0)
    wp = eval_profile(profile, x, 1)
    if not model.shift:
        return (ps, *model._contact_on_arrays(y, wp), 1.0)
    s, ds, f, e = model._contact_on_arrays(y, wp)
    return ps + s, f, e, 1.0 + ds * wp


def wiggly_energy(model: BristleModel, profile: SurfaceProfile, epsilon: float, z):
    """Microscale bristle potential at root position ``z``, zeroed on the flat."""
    return like_input(z, at_contact(model, profile, epsilon,
                                    contact_point(model, profile, epsilon, z))[2])


# ---------------------------------------------------------------------------
# brushed contacts: direction-dependent rest angle
# ---------------------------------------------------------------------------

def nap_coefficients(
    mu_plus: float, theta_lim: float, theta_with: float
) -> tuple[float, float]:
    """Friction thresholds of a napped contact, stroked each way.

    A rod whose rest angle tilts by ``theta_with`` toward the stroke
    direction resists less when brushed with the nap than against it:

        rho_with    = (mu_plus / tan(theta_lim)) * (theta_lim - theta_with)
        rho_against = (mu_plus / tan(theta_lim)) * (theta_lim + theta_with)

    (unit torsional stiffness per unit hinge height).  The ratio
    ``rho_against / rho_with`` is independent of that normalisation, and
    ``theta_with = 0`` recovers the direction-symmetric contact.
    """
    if not 0.0 <= theta_with < theta_lim < 0.5 * math.pi:
        raise ConfigError(
            f"need 0 <= theta_with < theta_lim < pi/2, got "
            f"theta_with={theta_with}, theta_lim={theta_lim}"
        )
    if not 0.0 < mu_plus < math.inf:
        raise ConfigError(f"mu_plus must be positive, got {mu_plus}")
    factor = mu_plus / math.tan(theta_lim)
    return factor * (theta_lim - theta_with), factor * (theta_lim + theta_with)


def axial_tension(model: AngularBristle, rho: float) -> float:
    """Axial force in the rod while sliding at threshold ``rho``.

    Negative values mean the rod is compressed, which is how a contact
    stroked against its nap digs in.  ``rho`` should be ``rho_plus`` for
    rightward sliding or ``rho_minus`` for leftward sliding.
    """
    if not isinstance(model, AngularBristle):
        raise ConfigError("axial tension is defined for angular bristles only")
    _require_finite(rho=rho)
    s = math.sqrt(model.L ** 2 - model.h ** 2)
    spring_part = -(model.k / model.L) * (model.theta_lim - model.theta_rest) * (model.h / s)
    return spring_part + rho * model.L / s
