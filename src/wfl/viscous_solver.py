"""Viscous dynamics of the driven state over the full corrugated potential.

Before any limit is taken the root coordinate obeys the singularly
perturbed gradient flow

    eps^gamma zdot = -Phi'(z) - V_eps'(z) + ell(t),

where ``V_eps`` is the exact microscale bristle potential.  The right side
fluctuates on the spatial scale ``eps``, so slips traverse one corrugation
period in a time of order ``eps^(gamma)``; the integrator therefore caps
its step at ``eps^gamma / 2`` and relies on an adaptive embedded
Runge-Kutta 5(4) pair for everything else.

The pair is Dormand-Prince 5(4) (Dormand & Prince 1980; Hairer, Norsett &
Wanner, *Solving ODEs I*, II.4-6), stepped in plain Python floats by
:func:`solve_ivp` with SciPy's RK45 initial step, error norm and step-size
controller, so it takes SciPy's steps to rounding.  Each accepted step keeps
its quartic dense-output coefficients, and post-processing evaluates them
one block of ``_BLOCK`` mesh segments at a time, so that its transient
arrays keep one size however many steps a run takes.

The stepper advances the tip abscissa ``p`` by :func:`scalar_rhs`: the root
position ``z = g(p) = p + shift(eps w(p / eps))`` is explicit and strictly
increasing inside the validity region, so ``eps^gamma g'(p) pdot =
-Phi'(z) - V_eps'(z) + ell(t)`` needs no contact Newton (``p = z`` for a
tip under its root), and post-processing evaluates ``z``, ``zdot``, ``xi``
and the energy from ``p`` (:meth:`WigglySystem.at_contact`).  The right-hand
side is straight-line source text over named floats, and the stepper's loop
is one source template, ``_DOPRI5``, with a placeholder line for each of its
eight right-hand-side evaluations: :func:`solve_ivp` splices the text into
them and compiles the result once per distinct text (:mod:`wfl.codegen`),
so a stage runs without a Python call and the scales of a sweep share one
compiled loop.

Dissipation is accumulated as ``int eps^gamma zdot^2 dt`` with a composite
Simpson rule over the union of accepted integrator steps and requested
output times, evaluating the dense-output interpolant at segment endpoints
and midpoints.  That keeps the quadrature aligned with the time scales the
integrator actually resolved, including fast slip bursts between output
samples, and for a tilted bristle each segment is first split in
``TILTED_SPLIT`` panels.
"""

from __future__ import annotations

import math
import re
import sys
from array import array
from dataclasses import dataclass
from functools import cached_property
from textwrap import indent
from typing import Optional

import numpy as np

from .codegen import closure, compiled, renamed
from .errors import ConfigError, SolverError
from .limit_solver import LimitSystem, Trajectory, elastic_strip, overflow_raises, time_grid
from .models import BristleModel, _require_valid_epsilon, at_contact, contact_point
# unused here; perfbench's tracer wraps these bindings
from .models import epsilon_limit, wiggly_energy, wiggly_force
from .profiles import SurfaceProfile, fourier_source, sorted_distinct


#: Most steps a run may take: :func:`integrate` refuses a run whose step cap
#: needs more, and :func:`solve_ivp` stops one that takes as many short of its end.
MAX_STEPS = 10**6

#: Simpson panels per mesh segment for a tilted bristle: with one, the dissipation's
#: quadrature error reaches 2e-6 of the energy scale at eps = 0.01; with three, 3e-8.
TILTED_SPLIT = 3

#: Mesh segments :func:`integrate` post-processes at a time, so that its
#: transient arrays keep one size whatever the run's step count.
_BLOCK = 4096


@dataclass(frozen=True)
class IntegratorConfig:
    """Tolerances and step control for the viscous integrator."""

    rtol: float = 1e-9
    atol: float = 1e-11

    def __post_init__(self) -> None:
        if not (0.0 < self.rtol < math.inf and 0.0 < self.atol < math.inf):
            raise ConfigError("integrator tolerances must be positive")


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
        _require_valid_epsilon(self.model, self.profile, self.epsilon)
        try:
            tau = self.time_scale
        except OverflowError:
            tau = math.inf
        if not sys.float_info.min <= tau < math.inf:
            raise ConfigError(f"time scale eps^gamma = {tau:g} is not a normal float")

    @property
    def time_scale(self) -> float:
        """Relaxation time eps^gamma of the viscous term."""
        return self.epsilon ** self.gamma

    def at_contact(self, t, p):
        """z, xi = ell(t) - Phi'(z) - V_eps'(z), E_eps(t, z) and g'(p) at tip ``p``."""
        z, micro_force, micro_energy, slope = at_contact(self.model, self.profile, self.epsilon, p)
        ell = self.base.ell(t)
        return (z, ell - self.base.phi_force(z) - micro_force,
                self.base.phi_value(z) + micro_energy - ell * z, slope)


@dataclass(frozen=True, eq=False)
class ScalarRHS:
    """A right-hand side ``y' = f(t, y)`` of two floats as straight-line source text.

    ``body`` holds statements that read the time ``T`` and the state ``Y``
    and set ``K``; every other name in it is a local of its own or a key of
    ``constants``, bound to its value.  :func:`solve_ivp` splices ``body``
    into each stage of its loop, so a stage makes no Python call; calling
    the object compiles ``body`` as a function of ``(t, y)`` on first use.
    """

    body: str
    constants: dict

    def __call__(self, t: float, y: float) -> float:
        return self._function(t, y)

    @cached_property
    def _function(self):
        return closure(f"{self.body.rstrip()}\nreturn K\n", "T, Y", self.constants)


def _failure(t: float, p: float, slope: float = 1.0) -> SolverError:
    if slope <= 0.0:
        return SolverError(f"the contact map folds at t = {t:.6g}, p = {p:.6g}")
    return SolverError(f"force evaluation overflowed at t = {t:.6g}, p = {p:.6g}; "
                       f"the state has left the integrable range")


def scalar_rhs(system: WigglySystem) -> ScalarRHS:
    """pdot = (ell(t) - Phi'(z) - V_eps'(z)) / (eps^gamma g'(p)) as straight-line source.

    The statements, built once per run over named floats, are assembled
    from four sources: the profile's Fourier sums (:func:`~wfl.profiles.fourier_source`)
    for w and w' at ``p / eps``; the geometry's ``shift`` and ``force`` texts, the ones
    :func:`~wfl.models.at_contact` compiles for arrays, with ``math.sqrt`` and
    ``math.acos``, for V_eps'(z) and, for a tilted bristle, the shift and
    slope of ``z = g(p)``; the loading's ``scalar_source`` for q(t), the
    formula its array ``q`` is compiled from for the ramp and the sinusoid and
    a ``scalar_q`` call otherwise; and Phi'(z) = k_h z.  There is no NumPy
    call and no contact Newton (``p = z``, g' = 1 for a tip under its root),
    so each operation is the array route's, bitwise.  A math error in the
    force maps to nan; a non-finite result (the state ran away) and a fold,
    g' <= 0, raise :class:`SolverError`.  :func:`solve_ivp` splices the
    statements into its stages, and the result is also a function of
    ``(t, p)``.
    """
    base, model = system.base, system.model
    contact, sums = fourier_source(system.profile, "X = Y / eps\nW, WP = sums(X)\nH = eps * W")
    constants = {"eps": system.epsilon, "k_h": base.k_h, "rest": base.L_h_rest,
                 "tau": system.time_scale, "sin": math.sin, "cos": math.cos, "sqrt": math.sqrt,
                 "acos": math.acos, "nan": math.nan, "isfinite": math.isfinite,
                 "failure": _failure, **sums}
    contact = contact.splitlines()
    # the geometry's and the loading's own names get a prefix; their inputs and outputs
    # become the body's
    contact += renamed(model.shift + model.force, "bristle_", {
        "y": "H", "wp": "WP", "f": "F", "s": "S", "ds": "DS", "sqrt": "sqrt", "acos": "acos"}
    ).splitlines()
    constants.update({"bristle_" + name: value for name, value in model.constants.items()})
    q, values = base.loading.scalar_source()
    q = renamed(q, "load_", {"t": "T"})
    constants.update({"load_" + name: value for name, value in values.items()})
    tilted = bool(model.shift)
    if tilted:
        contact += ["Z = Y + S", "G = 1.0 + DS * WP"]
    # math raises where NumPy gives nan: any such error means the state ran away
    body = "try:\n" + indent("\n".join(contact), "    ")
    body += "\nexcept (ArithmeticError, ValueError):\n"
    if tilted:
        body += ("    Z = F = G = nan\n"
                 f"K = (k_h * (({q}) - rest) - k_h * Z - F) / (tau * G)\n"
                 "if not (isfinite(K) and G > 0.0):\n    raise failure(T, Y, G)\n")
    else:
        body += ("    F = nan\n"
                 f"K = (k_h * (({q}) - rest) - k_h * Y - F) / tau\n"
                 "if not isfinite(K):\n    raise failure(T, Y)\n")
    return ScalarRHS(body, constants)


# The DOPRI5 loop as source text: the body of ``dopri5(t, t_end, y, rtol, atol,
# max_step, min_step, max_steps, times, states, stages, <constants>)``, which
# returns the evaluation count and leaves the accepted steps in the flat
# buffers ``times``, ``states`` and ``stages``.  Each line ``k = fun(T, Y)``
# evaluates the right-hand side at time T and state Y; :func:`_stepper` fills
# it with the right-hand side's statements.  The tableau is bound to locals,
# and abs, min and max are written out as the comparisons by which the
# builtins pick, so nan and inf come out as they would.
_DOPRI5 = """\
    # Dormand-Prince 5(4): nodes C, stages A, 5th-order weights B and the error
    # weights E over the six stages plus the FSAL stage, as in SciPy's RK45
    # (zero entries dropped)
    C2, C3, C4, C5 = 1 / 5, 3 / 10, 4 / 5, 8 / 9
    A21 = 1 / 5
    A31, A32 = 3 / 40, 9 / 40
    A41, A42, A43 = 44 / 45, -56 / 15, 32 / 9
    A51, A52, A53, A54 = 19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729
    A61, A62, A63, A64, A65 = 9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656
    B1, B3, B4, B5, B6 = 35 / 384, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84
    E1, E3, E4, E5, E6, E7 = (
        -71 / 57600, 71 / 16695, -71 / 1920, 17253 / 339200, -22 / 525, 1 / 40)
    SAFETY, MIN_FACTOR, MAX_FACTOR = 0.9, 0.2, 10.0

    T, Y = t, y
    k1 = fun(T, Y)
    # SciPy's select_initial_step for one component
    span = t_end - t
    ay = -y if y < 0.0 else y
    scale = atol + ay * rtol
    d0, d1 = ay / scale, (-k1 if k1 < 0.0 else k1) / scale
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    if span < h0:
        h0 = span
    # h0 is 0 where d1 overflowed; the first step then starts at the floor
    if h0 > 0.0:
        T, Y = t + h0, y + h0 * k1
        probe = fun(T, Y)
        d2 = probe - k1
        d2 = (-d2 if d2 < 0.0 else d2) / scale / h0
    else:
        d2 = inf
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = h0 * 1e-3
        h1 = h1 if h1 > 1e-6 else 1e-6
    else:
        h1 = (0.01 / (d2 if d2 > d1 else d1)) ** 0.2
    h_abs = 100 * h0
    if h1 < h_abs:
        h_abs = h1
    if span < h_abs:
        h_abs = span
    if max_step < h_abs:
        h_abs = max_step
    nfev = 2

    append_t, append_y, extend = times.append, states.append, stages.extend
    steps = 1
    while t < t_end:
        h = max_step if h_abs > max_step else (min_step if min_step > h_abs else h_abs)
        rejected = False
        while True:
            if h < min_step:
                raise SolverError(
                    f"viscous integration stalled at t = {t:.6g}: the step size "
                    f"fell below the floating-point spacing"
                )
            t_new = t + h
            if t_end < t_new:
                t_new = t_end
            h = t_new - t
            t_h = t + h  # SciPy's time for the last two stages, maybe 1 ulp off t_new
            T, Y = t + C2 * h, y + h * (A21 * k1)
            k2 = fun(T, Y)
            T, Y = t + C3 * h, y + h * (A31 * k1 + A32 * k2)
            k3 = fun(T, Y)
            T, Y = t + C4 * h, y + h * (A41 * k1 + A42 * k2 + A43 * k3)
            k4 = fun(T, Y)
            T, Y = t + C5 * h, y + h * (A51 * k1 + A52 * k2 + A53 * k3 + A54 * k4)
            k5 = fun(T, Y)
            T, Y = t_h, y + h * (A61 * k1 + A62 * k2 + A63 * k3 + A64 * k4 + A65 * k5)
            k6 = fun(T, Y)
            y_new = y + h * (B1 * k1 + B3 * k3 + B4 * k4 + B5 * k5 + B6 * k6)
            T, Y = t_h, y_new
            k7 = fun(T, Y)
            nfev += 6
            error = h * (E1 * k1 + E3 * k3 + E4 * k4 + E5 * k5 + E6 * k6 + E7 * k7)
            error = -error if error < 0.0 else error
            ay, an = -y if y < 0.0 else y, -y_new if y_new < 0.0 else y_new
            error_norm = error / (atol + (an if an > ay else ay) * rtol)
            if error_norm < 1.0:
                if error_norm == 0.0:
                    factor = MAX_FACTOR
                else:
                    factor = SAFETY * error_norm ** -0.2
                    factor = factor if factor < MAX_FACTOR else MAX_FACTOR
                if rejected:
                    factor = factor if factor < 1.0 else 1.0
                h_abs = h * factor
                break
            factor = SAFETY * error_norm ** -0.2
            h *= factor if factor > MIN_FACTOR else MIN_FACTOR
            rejected = True
        extend((k1, k2, k3, k4, k5, k6, k7))
        t, y, k1 = t_new, y_new, k7
        append_t(t)
        append_y(y)
        steps += 1
        if steps > max_steps and t < t_end:
            raise SolverError(
                f"viscous integration took {max_steps} steps to reach t = {t:.6g} of {t_end:.6g}"
            )
    return nfev
"""
# a placeholder line of _DOPRI5: its indent and the stage's name for the result
_STAGE = re.compile(r"^( *)(\w+) = fun\(T, Y\)$", re.MULTILINE)

# Quartic dense output: the step's seven stages times P give the
# coefficients of x, x^2, x^3, x^4 (x = (t - t_old) / h), SciPy's choice of
# the free parameter c_6 (Shampine 1986).
_P = np.array([
    [1, -8048581381 / 2820520608, 8663915743 / 2820520608, -12715105075 / 11282082432],
    [0, 0, 0, 0],
    [0, 131558114200 / 32700410799, -68118460800 / 10900136933, 87487479700 / 32700410799],
    [0, -1754552775 / 470086768, 14199869525 / 1410260304, -10690763975 / 1880347072],
    [0, 127303824393 / 49829197408, -318862633887 / 49829197408,
     701980252875 / 199316789632],
    [0, -282668133 / 205662961, 2019193451 / 616988883, -1453857185 / 822651844],
    [0, 40617522 / 29380423, -110615467 / 29380423, 69997945 / 29380423],
])


@dataclass(frozen=True)
class StepperResult:
    """Accepted steps of :func:`solve_ivp` and their dense output.

    ``t`` holds the accepted times (the start included) and ``y`` the
    states there; row ``i`` of ``q`` holds the quartic coefficients of step
    ``t[i] -> t[i + 1]``.  ``nfev`` counts right-hand-side evaluations:
    2 for the initial step and 6 per attempted step.
    """

    t: np.ndarray
    y: np.ndarray
    q: np.ndarray
    nfev: int

    def sample(self, times) -> np.ndarray:
        """Dense output at ``times`` within ``[t[0], t[-1]]``.

        A time on a step boundary takes the earlier step, as SciPy's
        ``OdeSolution`` does.
        """
        times = np.asarray(times, dtype=float)
        step = np.clip(np.searchsorted(self.t, times, side="left") - 1, 0, self.q.shape[0] - 1)
        start = self.t[step]
        h = self.t[step + 1] - start
        x = (times - start) / h
        q = self.q[step]
        return self.y[step] + h * x * (q[:, 0] + x * (q[:, 1] + x * (q[:, 2] + x * q[:, 3])))


def _stepper(rhs: ScalarRHS):
    """:data:`_DOPRI5` with ``rhs``'s statements in each stage, compiled once per text."""

    def stage(match):
        # the statements at the placeholder's indent, with its name for the result
        return indent(re.sub(r"\bK\b", match[2], rhs.body), match[1]).rstrip("\n")

    source = ("from math import inf\n\nfrom wfl.errors import SolverError\n\n\n"
              "def dopri5(t, t_end, y, rtol, atol, max_step, min_step, max_steps, times, states, "
              f"stages{''.join(', ' + name for name in rhs.constants)}):\n"
              f"{_STAGE.sub(stage, _DOPRI5)}")
    return compiled(source, "dopri5")


def solve_ivp(fun, t_span, y0, *, rtol, atol, max_step) -> StepperResult:
    """Integrate the scalar ODE ``y' = fun(t, y)`` over ``t_span`` by DOPRI5.

    ``fun`` takes and returns Python floats.  The loop is compiled from one
    source template, ``_DOPRI5``, once per distinct right-hand-side text and
    on first use: a :class:`ScalarRHS` (such as :func:`scalar_rhs`'s) is
    spliced into each stage, so a stage makes no Python call, and any other
    callable is called there.  The first step, the error norm and the
    controller (safety 0.9, step factor in [0.2, 10], no growth right after
    a rejection) are those of SciPy's RK45.  The minimum step is 10 ulp of
    the end time, where SciPy takes 10 ulp(t): near t = 0 that would be a
    subnormal step, so a stiff run would crawl instead of failing.  A step
    forced below it raises :class:`SolverError`, and so does a run that
    takes ``MAX_STEPS`` steps without reaching the end.
    """
    t, t_end = float(t_span[0]), float(t_span[1])
    y = float(y0)
    rhs = fun if isinstance(fun, ScalarRHS) else ScalarRHS("K = fun(T, Y)", {"fun": fun})
    # flat buffers, read back without a copy: 72 B a step (a tuple a step took 377 B)
    times, states, stages = array("d", (t,)), array("d", (y,)), array("d")
    nfev = _stepper(rhs)(t, t_end, y, rtol, atol, max_step, 10.0 * math.ulp(t_end), MAX_STEPS,
                         times, states, stages, **rhs.constants)
    return StepperResult(
        t=np.frombuffer(times), y=np.frombuffer(states),
        q=np.frombuffer(stages).reshape(-1, 7) @ _P, nfev=nfev,
    )


@dataclass(frozen=True)
class ViscousTrajectory(Trajectory):
    """Viscous run sampled on a grid, with velocity, force and strip diagnostics.

    ``velocities`` is the root velocity zdot, ``xi`` the total configurational
    force (equal to eps^gamma * zdot along exact solutions), ``delta`` the
    distance to the quasistatic elastic strip, and ``power_integral`` the
    accumulated external power term ``int dE/dt dt = -int ell' z dt`` over the
    whole run.
    """

    velocities: np.ndarray
    xi: np.ndarray
    delta: np.ndarray
    power_integral: float


def step_cap(system: WigglySystem, horizon: float) -> float:
    """The run's largest step, eps^gamma / 2.

    Raises :class:`ConfigError` when that cap alone needs more than
    ``MAX_STEPS`` steps to reach ``horizon``, so such a run is refused
    before it starts.
    """
    max_step = 0.5 * system.time_scale
    if horizon / max_step > MAX_STEPS:
        raise ConfigError(f"the step cap {max_step:.3g} needs more than {MAX_STEPS} steps "
                          f"to reach t = {horizon:.6g}")
    return max_step


def integrate(
    system: WigglySystem,
    z0: float,
    config: Optional[IntegratorConfig] = None,
    grid=None,
) -> ViscousTrajectory:
    """Integrate the viscous flow from ``z0`` to the end of ``grid`` and sample it there.

    ``grid`` is a :func:`~wfl.limit_solver.time_grid` of the loading.  The
    stepper advances :func:`scalar_rhs`, built once here, from the contact
    point of ``z0``; the samples, the dissipation and the power integral
    come from the dense output and :meth:`WigglySystem.at_contact` on the
    quadrature mesh, one block of ``_BLOCK`` segments at a time: only the
    mesh, its per-segment dissipation and power terms and the grid samples
    outlive a block.  A run whose :func:`step_cap` needs more than
    ``MAX_STEPS`` steps is refused with :class:`ConfigError`.  Raises
    :class:`SolverError` when the adaptive integrator drives its step below
    the floating-point spacing (the problem is stiffer than the explicit pair
    can handle at these tolerances) or takes ``MAX_STEPS`` steps, or when the
    state runs away so that the force, or any post-processed quantity,
    overflows.
    """
    if config is None:
        config = IntegratorConfig()
    grid = time_grid(system.base.loading, grid)
    if not math.isfinite(z0):
        raise ConfigError(f"initial state must be finite, got {z0}")
    tau = system.time_scale
    max_step = step_cap(system, grid[-1])
    sol = solve_ivp(
        scalar_rhs(system),
        (0.0, float(grid[-1])),
        contact_point(system.model, system.profile, system.epsilon, float(z0)),
        rtol=config.rtol,
        atol=config.atol,
        max_step=max_step,
    )
    with overflow_raises("post-processing"):
        # accepted steps refined by the output grid: the dense output fills in the rest
        nodes = sorted_distinct(np.concatenate((sol.t, grid)))
        grid_idx = np.searchsorted(nodes, grid)
        m = 2 * (TILTED_SPLIT if system.model.shift else 1)
        # per mesh segment, the dissipation int eps^gamma zdot^2 dt and the power
        # int dE/dt = -int ell'(t) z dt: composite Simpson, m / 2 panels a segment
        # (TILTED_SPLIT for a tip with a shift), interior points weighted 4, 2, ..., 4
        # and taken one at a time
        diss_terms, power_terms = np.empty(nodes.size - 1), np.empty(nodes.size - 1)
        states, velocities, energies, xi = (np.empty(grid.size) for _ in range(4))
        for a in range(0, nodes.size - 1, _BLOCK):
            b = min(a + _BLOCK, nodes.size - 1)
            t = nodes[a:b + 1]
            p = sol.sample(t)
            # at an accepted time the earlier step's dense output is off by rounding
            steps = slice(np.searchsorted(sol.t, t[0]), np.searchsorted(sol.t, t[-1], "right"))
            p[np.searchsorted(t, sol.t[steps])] = sol.y[steps]
            z, xi_t, e, _ = system.at_contact(t, p)
            if a == 0:
                # the run starts at z0 exactly; g(p0) meets it to the contact tolerance
                z[0] = z0
            zdot = xi_t / tau
            g = tau * np.square(zdot)
            power = -system.base.ell_rate(t) * z
            diss_steps, power_steps = g[:-1], power[:-1]
            for j in range(1, m):
                at = (1.0 - j / m) * t[:-1] + (j / m) * t[1:]
                z_at, xi_at, _, _ = system.at_contact(at, sol.sample(at))
                weight = 4.0 if j % 2 else 2.0
                diss_steps = diss_steps + weight * (tau * np.square(xi_at / tau))
                power_steps = power_steps + weight * (-system.base.ell_rate(at) * z_at)
            weights = np.diff(t) / (3.0 * m)
            diss_terms[a:b] = weights * (diss_steps + g[1:])
            power_terms[a:b] = weights * (power_steps + power[1:])
            # the grid points among this block's nodes, its end node included
            out = slice(np.searchsorted(grid_idx, a), np.searchsorted(grid_idx, b, "right"))
            local = grid_idx[out] - a
            states[out], velocities[out], energies[out], xi[out] = (
                z[local], zdot[local], e[local], xi_t[local])
        # the dissipation at node k + 1 is the sum of the terms of segments 0..k
        diss_cum = np.cumsum(diss_terms, out=diss_terms)
        power_integral = float(np.sum(power_terms))

        lower, upper = elastic_strip(system.base, grid)
        delta = np.maximum(np.maximum(states - upper, lower - states), 0.0)

        return ViscousTrajectory(
            times=grid,
            states=states,
            velocities=velocities,
            energies=energies,
            dissipation=np.concatenate(([0.0], diss_cum[grid_idx[1:] - 1])),
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
