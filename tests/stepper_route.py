"""The interpreted DOPRI5 stepper and its right-hand side, as a test oracle.

``viscous_solver.solve_ivp`` compiles its loop from a source template and
splices :func:`wfl.viscous_solver.scalar_rhs`'s statements into each stage.
This module keeps the route it replaced: the loop over a callable, the
right-hand side as closures, and the geometry's force on one float as a
closure over ``formula_route.formulas``.  The tests compare the two routes' accepted
times, states and dense-output coefficients byte for byte, their
evaluation counts, and the type and message of each error they raise.
"""

import math
from array import array

import numpy as np

from formula_route import formulas, scalar_q, scalar_terms
from wfl.errors import SolverError
from wfl.models import BristleModel, _require_valid_epsilon
from wfl.profiles import SurfaceProfile
from wfl.viscous_solver import StepperResult, WigglySystem

#: the step budget; the tests patch it together with ``viscous_solver.MAX_STEPS``
MAX_STEPS = 10**6


def scalar_force(model: BristleModel, profile: SurfaceProfile, epsilon: float):
    """:func:`~wfl.models.at_contact`'s ``(z, V_eps'(z), g'(p))`` on one Python float ``p``.

    The viscous integrator's, built once per run from ``formulas`` on
    ``math``: no NumPy call, w and w' summed as :func:`eval_profile` sums
    them, so bitwise :func:`at_contact`; ``V_eps'(z)`` alone for a tip under
    its root (``z = p``).  ``epsilon`` is checked here, once.  A non-finite
    ``p`` may raise ``ValueError`` from ``math``.
    """
    _require_valid_epsilon(model, profile, epsilon)
    shift, force, _ = formulas(model, math.sqrt, math.acos)
    terms = scalar_terms(profile)
    sin, cos = math.sin, math.cos

    def at(p: float):
        x = p / epsilon
        w = wp = 0.0
        for rate, phase, amplitude, slope, _ in terms:
            u = rate * x + phase
            w += amplitude * sin(u)
            wp += slope * cos(u)
        if shift is None:
            return force(epsilon * w, wp)
        y = epsilon * w
        s, ds = shift(y)
        return p + s, force(y, wp), 1.0 + ds * wp

    return at


def scalar_rhs(system: WigglySystem):
    """pdot = (ell(t) - Phi'(z) - V_eps'(z)) / (eps^gamma g'(p)) as one function of two floats.

    Built once per run over plain floats, the loading's ``scalar_source`` and
    :func:`scalar_force`, with Phi'(z) = k_h z inlined: no attribute
    lookup, NumPy call or contact Newton per call (``p = z``, g' = 1 for a tip
    under its root).  A math error or a non-finite result (the state ran
    away) and a fold, g' <= 0, raise :class:`SolverError`.
    """
    base = system.base
    q = scalar_q(base.loading)
    k_h, rest, tau = base.k_h, base.L_h_rest, system.time_scale
    contact = scalar_force(system.model, system.profile, system.epsilon)
    isfinite, nan = math.isfinite, math.nan

    def failure(t: float, p: float, slope: float = 1.0):
        if slope <= 0.0:
            return SolverError(f"the contact map folds at t = {t:.6g}, p = {p:.6g}")
        return SolverError(f"force evaluation overflowed at t = {t:.6g}, p = {p:.6g}; "
                           f"the state has left the integrable range")

    def fun(t: float, z: float) -> float:
        try:
            f = contact(z)
        except (ArithmeticError, ValueError):  # math raises where NumPy gives nan
            f = nan
        v = (k_h * (q(t) - rest) - k_h * z - f) / tau
        if not isfinite(v):
            raise failure(t, z)
        return v

    def tilted(t: float, p: float) -> float:
        try:
            z, f, slope = contact(p)
        except (ArithmeticError, ValueError):
            z = f = slope = nan
        v = (k_h * (q(t) - rest) - k_h * z - f) / (tau * slope)
        if not (isfinite(v) and slope > 0.0):
            raise failure(t, p, slope)
        return v

    return tilted if formulas(system.model, math.sqrt, math.acos)[0] else fun


# Dormand-Prince 5(4) tableau: nodes C, stages A, 5th-order weights B and
# the error weights E over the six stages plus the FSAL stage, as in SciPy's
# RK45 (zero entries dropped).
_C2, _C3, _C4, _C5 = 1 / 5, 3 / 10, 4 / 5, 8 / 9
_A21 = 1 / 5
_A31, _A32 = 3 / 40, 9 / 40
_A41, _A42, _A43 = 44 / 45, -56 / 15, 32 / 9
_A51, _A52, _A53, _A54 = 19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729
_A61, _A62, _A63, _A64, _A65 = (
    9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656,
)
_B1, _B3, _B4, _B5, _B6 = 35 / 384, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84
_E1, _E3, _E4, _E5, _E6, _E7 = (
    -71 / 57600, 71 / 16695, -71 / 1920, 17253 / 339200, -22 / 525, 1 / 40,
)
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
_SAFETY, _MIN_FACTOR, _MAX_FACTOR = 0.9, 0.2, 10.0


def solve_ivp(fun, t_span, y0, *, rtol, atol, max_step) -> StepperResult:
    """Integrate the scalar ODE ``y' = fun(t, y)`` over ``t_span`` by DOPRI5.

    ``fun`` takes and returns Python floats.  The first step, the error
    norm and the controller (safety 0.9, step factor in [0.2, 10], no growth
    right after a rejection) are those of SciPy's RK45.  The minimum step is
    10 ulp of the end time, where SciPy takes 10 ulp(t): near t = 0 that
    would be a subnormal step, so a stiff run would crawl instead of
    failing.  A step forced below it raises :class:`SolverError`, and so
    does a run that takes ``MAX_STEPS`` steps without reaching the end.
    """
    t, t_end = float(t_span[0]), float(t_span[1])
    y = float(y0)
    k1 = fun(t, y)
    # SciPy's select_initial_step for one component
    span = t_end - t
    scale = atol + abs(y) * rtol
    d0, d1 = abs(y) / scale, abs(k1) / scale
    h0 = min(1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1, span)
    # h0 is 0 where d1 overflowed; the first step then starts at the floor
    d2 = abs(fun(t + h0, y + h0 * k1) - k1) / scale / h0 if h0 > 0.0 else math.inf
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** 0.2
    h_abs = min(100 * h0, h1, span, max_step)
    nfev = 2

    min_step = 10.0 * math.ulp(t_end)
    # flat buffers, read back without a copy: 72 B a step (a tuple a step took 377 B)
    times, states, stages = array("d", (t,)), array("d", (y,)), array("d")
    while t < t_end:
        h = max_step if h_abs > max_step else max(h_abs, min_step)
        rejected = False
        while True:
            if h < min_step:
                raise SolverError(
                    f"viscous integration stalled at t = {t:.6g}: the step size "
                    f"fell below the floating-point spacing"
                )
            t_new = min(t + h, t_end)
            h = t_new - t
            t_h = t + h  # SciPy's time for the last two stages, maybe 1 ulp off t_new
            k2 = fun(t + _C2 * h, y + h * (_A21 * k1))
            k3 = fun(t + _C3 * h, y + h * (_A31 * k1 + _A32 * k2))
            k4 = fun(t + _C4 * h, y + h * (_A41 * k1 + _A42 * k2 + _A43 * k3))
            k5 = fun(t + _C5 * h, y + h * (_A51 * k1 + _A52 * k2 + _A53 * k3 + _A54 * k4))
            k6 = fun(t_h, y + h * (
                _A61 * k1 + _A62 * k2 + _A63 * k3 + _A64 * k4 + _A65 * k5
            ))
            y_new = y + h * (_B1 * k1 + _B3 * k3 + _B4 * k4 + _B5 * k5 + _B6 * k6)
            k7 = fun(t_h, y_new)
            nfev += 6
            error = h * (_E1 * k1 + _E3 * k3 + _E4 * k4 + _E5 * k5 + _E6 * k6 + _E7 * k7)
            error_norm = abs(error) / (atol + max(abs(y), abs(y_new)) * rtol)
            if error_norm < 1.0:
                if error_norm == 0.0:
                    factor = _MAX_FACTOR
                else:
                    factor = min(_MAX_FACTOR, _SAFETY * error_norm ** -0.2)
                if rejected:
                    factor = min(1.0, factor)
                h_abs = h * factor
                break
            h *= max(_MIN_FACTOR, _SAFETY * error_norm ** -0.2)
            rejected = True
        stages.extend((k1, k2, k3, k4, k5, k6, k7))
        t, y, k1 = t_new, y_new, k7
        times.append(t)
        states.append(y)
        if len(times) > MAX_STEPS and t < t_end:
            raise SolverError(
                f"viscous integration took {MAX_STEPS} steps to reach t = {t:.6g} of {t_end:.6g}"
            )

    return StepperResult(
        t=np.frombuffer(times), y=np.frombuffer(states),
        q=np.frombuffer(stages).reshape(-1, 7) @ _P, nfev=nfev,
    )
