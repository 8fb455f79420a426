"""The compiled DOPRI5 stepper against the interpreted one it replaced.

``viscous_solver.solve_ivp`` compiles its loop from a source template, with
the right-hand side's statements spliced into each stage;
``stepper_route`` keeps the loop over a callable and the closures.  The
accepted times, states and dense-output coefficients must agree byte for
byte, the evaluation counts exactly, and a failed run must fail with the
same error type and message.
"""

import math
import re
import traceback

import numpy as np
import pytest

import stepper_route
from wfl import codegen, viscous_solver
from wfl.convergence import run_sweep
from wfl.errors import ConfigError, SolverError
from wfl.limit_solver import (
    LimitSystem,
    LoadingProgram,
    Ramp,
    SinusoidLoading,
    SmoothedPiecewiseLinear,
)
from wfl.models import AngularBristle, SlantedBristle, VerticalBristle, coefficients, contact_point
from wfl.profiles import FourierTerm, SurfaceProfile
from wfl.viscous_solver import WigglySystem, scalar_rhs, step_cap

GEOMETRIES = {
    "vertical": VerticalBristle(k=1.0, L_rest=2.0, h=1.0),
    "slanted": SlantedBristle(k=1.0, L_rest=1.0, h=0.05, theta=0.5),
    "angular": AngularBristle(k=1.0, L=1.0, h=math.cos(0.6), theta_rest=0.0),
}
PROFILES = {
    "1-term": SurfaceProfile.sinusoid(slope=0.1),
    "2-term": SurfaceProfile((FourierTerm(0.1 / (2.0 * math.pi), 1, 3.2158701122134374),
                              FourierTerm(0.03 / (6.0 * math.pi), 3, 5.971939531762716))),
    "3-term": SurfaceProfile((FourierTerm(0.08 / (2.0 * math.pi), 1, 0.3),
                              FourierTerm(0.02 / (4.0 * math.pi), 2, 1.1),
                              FourierTerm(0.01 / (10.0 * math.pi), 5, 2.5))),
}


class QuadraticPull(LoadingProgram):
    """A user loading, q(t) = 0.2 t + 0.6 t^2, through the default ``scalar_q``."""

    horizon = 0.5
    max_rate = 0.8

    def q(self, t):
        return 0.2 * np.asarray(t) + 0.6 * np.square(t)

    def qdot(self, t):
        return 0.2 + 1.2 * np.asarray(t)


LOADINGS = {
    "ramp": Ramp(q0=0.1, rate=1.0, duration=0.5),
    "sinusoid": SinusoidLoading(q0=0.2, amplitude=0.5, frequency=1.3, duration=0.5, phase=0.4),
    "piecewise": SmoothedPiecewiseLinear(times=(0.0, 0.2, 0.35, 0.5),
                                         values=(0.0, 0.2, 0.05, 0.3), blend=0.02),
    "custom": QuadraticPull(),
}


def system(geometry, loading, profile, epsilon):
    model, surface = GEOMETRIES[geometry], PROFILES[profile]
    c = coefficients(model, surface)
    base = LimitSystem(k_h=1.5, L_h_rest=0.3, loading=LOADINGS[loading],
                       rho_plus=c.rho_plus, rho_minus=c.rho_minus)
    return WigglySystem(base=base, model=model, profile=surface, epsilon=epsilon)


def both_routes(wiggly, p0=0.0, horizon=0.5, **kwargs):
    """(ours, oracle): each route's stepper result, or the error it raised."""
    kwargs = {"rtol": 1e-9, "atol": 1e-11, "max_step": step_cap(wiggly, horizon), **kwargs}
    results = []
    for route in (viscous_solver, stepper_route):
        try:
            results.append(route.solve_ivp(route.scalar_rhs(wiggly), (0.0, horizon), p0,
                                           **kwargs))
        except Exception as exc:  # compared below, type and message
            results.append(exc)
    return results


def assert_same_run(ours, oracle):
    if isinstance(oracle, Exception):
        assert (type(ours), str(ours)) == (type(oracle), str(oracle))
        return
    assert not isinstance(ours, Exception), ours
    for field in ("t", "y", "q"):
        assert getattr(ours, field).tobytes() == getattr(oracle, field).tobytes(), field
    assert ours.nfev == oracle.nfev


@pytest.mark.parametrize("epsilon", [0.1, 0.02])
@pytest.mark.parametrize("profile", list(PROFILES))
@pytest.mark.parametrize("loading", list(LOADINGS))
@pytest.mark.parametrize("geometry", list(GEOMETRIES))
def test_matches_the_interpreted_stepper_bytewise(geometry, loading, profile, epsilon):
    wiggly = system(geometry, loading, profile, epsilon)
    p0 = contact_point(wiggly.model, wiggly.profile, epsilon, 0.02)
    ours, oracle = both_routes(wiggly, p0)
    assert not isinstance(oracle, Exception)
    assert_same_run(ours, oracle)


def test_a_plain_callable_matches_the_interpreted_stepper():
    # the template with a call in each stage
    kwargs = {"rtol": 1e-10, "atol": 1e-12, "max_step": 0.5}
    runs = [route.solve_ivp(lambda t, y: math.cos(t) - 0.3 * y, (0.0, 3.0), 0.2, **kwargs)
            for route in (viscous_solver, stepper_route)]
    assert_same_run(*runs)


class CountingNan(LoadingProgram):
    """q(t) = t, except nan at the ``bad``-th evaluation of a ``scalar_q``."""

    horizon = 0.5
    max_rate = 1.0

    def __init__(self, bad):
        self.bad = bad

    def q(self, t):
        return t

    def qdot(self, t):
        return np.ones_like(t)

    def scalar_q(self):
        calls = []

        def q(t):
            calls.append(t)
            return math.nan if len(calls) == self.bad else t

        return q


class TestFailures:
    """Each failure raises the same error, with the same message, on both routes."""

    @pytest.mark.parametrize("geometry", list(GEOMETRIES))
    def test_a_nan_at_each_evaluation_in_turn(self, geometry):
        # k1, the initial-step probe, then k2..k7 of the first two attempts:
        # each stage's own finiteness check names its own time and state
        model, surface = GEOMETRIES[geometry], PROFILES["2-term"]
        for bad in range(1, 15):
            base = LimitSystem(k_h=1.0, L_h_rest=0.0, loading=CountingNan(bad),
                               rho_plus=0.1, rho_minus=-0.1)
            wiggly = WigglySystem(base=base, model=model, profile=surface, epsilon=0.05)
            ours, oracle = both_routes(wiggly)
            assert isinstance(oracle, SolverError) and "overflowed" in str(oracle)
            assert_same_run(ours, oracle)

    def test_runaway_stiff_bristle(self):
        # k = 1e300 on the piecewise loading, as the CI's stiff run
        model = VerticalBristle(k=1e300, L_rest=2.0, h=1.0)
        loading = SmoothedPiecewiseLinear(times=(0.0, 0.8, 1.4, 2.0),
                                          values=(0.0, 0.8, 0.3, 0.9), blend=0.05)
        surface = PROFILES["1-term"]
        c = coefficients(model, surface)
        base = LimitSystem(k_h=1.0, L_h_rest=0.0, loading=loading,
                           rho_plus=c.rho_plus, rho_minus=c.rho_minus)
        for epsilon in (0.1, 0.05):
            ours, oracle = both_routes(WigglySystem(base=base, model=model, profile=surface,
                                                    epsilon=epsilon), horizon=2.0)
            assert isinstance(oracle, SolverError)
            assert_same_run(ours, oracle)

    @pytest.mark.parametrize("p0", [0.0, 1e308])
    def test_runaway_start(self, p0):
        for geometry in GEOMETRIES:
            ours, oracle = both_routes(system(geometry, "ramp", "2-term", 0.1), p0)
            assert isinstance(oracle, SolverError) == (p0 != 0.0)
            assert_same_run(ours, oracle)

    @staticmethod
    def folding_system(slope=0.68, epsilon=0.5):
        # below tan(theta_lim) = tan(0.6) = 0.684, the slope is admissible at flat
        # contact, but under a trough (y < 0) the map folds: g' < 0 near x = 0.53
        base = LimitSystem(k_h=1.0, L_h_rest=0.0, loading=Ramp(rate=4.0, duration=0.5),
                           rho_plus=0.1, rho_minus=-0.1)
        return WigglySystem(base=base, model=GEOMETRIES["angular"],
                            profile=SurfaceProfile.sinusoid(slope=slope), epsilon=epsilon)

    def test_an_inadmissible_profile_is_refused_before_the_run(self):
        # steeper than tan(theta_lim), the map folds at flat contact: the system is
        # refused as coefficients refuses it, instead of stalling at t = 0.474
        message = "-tan(theta_lim) < omega_minus (margin -3.159e-01)"
        for build in (lambda: self.folding_system(1.0, 0.05),
                      lambda: coefficients(GEOMETRIES["angular"], SurfaceProfile.sinusoid(1.0))):
            with pytest.raises(ConfigError, match=re.escape(message)):
                build()

    def test_a_fold_met_during_the_run(self):
        ours, oracle = both_routes(self.folding_system(), rtol=1e-6, atol=1e-8)
        assert isinstance(oracle, SolverError) and "folds at t = 0.347" in str(oracle)
        assert_same_run(ours, oracle)

    def test_a_stall_below_the_minimum_step(self):
        # near the fold g' -> 0+, pdot grows without bound, and at the default
        # tolerances the step shrinks to the floor before a stage crosses it
        ours, oracle = both_routes(self.folding_system())
        assert isinstance(oracle, SolverError) and "stalled at t = 0.347" in str(oracle)
        assert_same_run(ours, oracle)
        # y' = 1 / (1 - t) blows up at t = 1; a stiff linear decay overflows the
        # initial-step estimate and stalls at once
        kwargs = {"rtol": 1e-9, "atol": 1e-11, "max_step": 0.1}
        for fun in (lambda t, y: 1.0 / (1.0 - t), lambda t, y: -1e300 * y):
            runs = []
            for route in (viscous_solver, stepper_route):
                with pytest.raises(SolverError, match="stalled") as error:
                    route.solve_ivp(fun, (0.0, 2.0), 1.0, **kwargs)
                runs.append(error.value)
            assert_same_run(*runs)

    def test_the_step_budget(self, monkeypatch):
        monkeypatch.setattr(viscous_solver, "MAX_STEPS", 50)
        monkeypatch.setattr(stepper_route, "MAX_STEPS", 50)
        ours, oracle = both_routes(system("slanted", "sinusoid", "2-term", 0.02))
        assert isinstance(oracle, SolverError) and "took 50 steps" in str(oracle)
        assert_same_run(ours, oracle)


def test_a_sweep_compiles_the_stepper_once():
    # keyed on the source text, with the numbers bound by name: three compiles
    # for four scales (the stepper, the ramp's array q and the vertical bristle's
    # array force and energy), and none for a second sweep
    base = LimitSystem(k_h=1.0, L_h_rest=0.0, loading=Ramp(rate=1.0, duration=0.5),
                       rho_plus=0.1, rho_minus=-0.1)
    model, surface = GEOMETRIES["vertical"], PROFILES["1-term"]
    codegen.compiled.cache_clear()
    run_sweep(base, surface, model, epsilons=[0.1, 0.08, 0.06, 0.05])
    first = codegen.compiled.cache_info()
    run_sweep(base, surface, model, epsilons=[0.1, 0.08, 0.06, 0.05])
    second = codegen.compiled.cache_info()
    assert first.misses == 3
    assert second.misses == 3


def test_a_traceback_shows_the_compiled_line():
    # the generated source is registered with linecache
    wiggly = system("slanted", "ramp", "1-term", 0.1)
    with pytest.raises(SolverError, match="overflowed") as error:
        viscous_solver.solve_ivp(scalar_rhs(wiggly), (0.0, 0.5), 1e308, rtol=1e-9, atol=1e-11,
                                 max_step=0.05)
    frames = traceback.extract_tb(error.tb)
    assert frames[-1].filename.startswith("<wfl dopri5 #")
    assert frames[-1].line == "raise failure(T, Y, G)"
    assert "raise failure(T, Y, G)" in "".join(traceback.format_tb(error.tb))

