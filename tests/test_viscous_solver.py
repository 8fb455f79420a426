"""Tests for the singularly perturbed viscous flow and its diagnostics."""

import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import solve_ivp

import viscous_route
import z_route
from wfl import limit_solver, models, profiles, viscous_solver
from wfl.errors import ConfigError, SolverError
from wfl.limit_solver import (
    LimitSystem,
    LoadingProgram,
    Ramp,
    SinusoidLoading,
    SmoothedPiecewiseLinear,
    elastic_strip,
    solve_limit,
)
from wfl.models import (
    AngularBristle,
    SlantedBristle,
    VerticalBristle,
    at_contact,
    coefficients,
    contact_point,
    epsilon_limit,
)
from wfl.profiles import FourierTerm, SurfaceProfile, sorted_distinct
from wfl.variational import de_giorgi_certificate, limit_density
from wfl.viscous_solver import (
    IntegratorConfig,
    ViscousTrajectory,
    WigglySystem,
    energy_balance_residual,
    integrate,
    scalar_rhs,
    step_cap,
)

CANONICAL = SurfaceProfile.sinusoid(slope=0.1)
MODEL = VerticalBristle(k=1.0, L_rest=2.0, h=1.0)
GEOMETRIES = {
    "vertical": MODEL,
    "slanted": SlantedBristle(k=1.0, L_rest=1.0, h=0.05, theta=0.5),
    "angular": AngularBristle(k=1.0, L=1.0, h=math.cos(0.6), theta_rest=0.0),
}


def canonical_base(duration=2.0):
    """Unit hauling spring pulled at unit rate: ell(t) = t."""
    return LimitSystem(
        k_h=1.0,
        L_h_rest=0.0,
        loading=Ramp(q0=0.0, rate=1.0, duration=duration),
        rho_plus=0.1,
        rho_minus=-0.1,
    )


def canonical_system(epsilon, gamma=1.0, duration=2.0):
    return WigglySystem(
        base=canonical_base(duration),
        model=MODEL,
        profile=CANONICAL,
        epsilon=epsilon,
        gamma=gamma,
    )


@pytest.fixture(scope="module")
def canonical_run():
    """Memoized canonical integrations shared across the module."""
    cache = {}

    def run(epsilon, config=None):
        key = (epsilon, config)
        if key not in cache:
            cache[key] = integrate(canonical_system(epsilon), 0.0, config=config)
        return cache[key]

    return run


@pytest.fixture
def recorded_steps(monkeypatch):
    """(result, call times) of each ``viscous_solver.solve_ivp`` run, integrate's included."""
    runs = []
    stepper = viscous_solver.solve_ivp

    def recording_solve_ivp(fun, *args, **kwargs):
        times = []

        def counted(t, z):
            times.append(t)
            return fun(t, z)

        runs.append((stepper(counted, *args, **kwargs), times))
        return runs[-1][0]

    monkeypatch.setattr(viscous_solver, "solve_ivp", recording_solve_ivp)
    return runs


class TestRightHandSide:
    def test_force_balance_at_origin(self):
        # at t = z = 0 only the corrugation force k*(L_rest - h)*w'(0) = 0.1
        # acts, so zdot = -0.1 / eps
        system = canonical_system(0.1)
        assert scalar_rhs(system)(0.0, 0.0) == pytest.approx(-1.0, rel=1e-13)

    def test_doubling_time_scale_halves_velocity(self):
        # eps = 1/4: gamma 1 vs 1/2 gives time scales 0.25 and 0.5 exactly,
        # and the force does not depend on gamma
        fast = canonical_system(0.25, gamma=1.0)
        slow = canonical_system(0.25, gamma=0.5)
        assert fast.time_scale == 0.25
        assert slow.time_scale == 0.5
        for t, z in [(0.0, 0.0), (0.7, 0.3), (1.9, 1.6)]:
            assert scalar_rhs(slow)(t, z) == 0.5 * scalar_rhs(fast)(t, z)

    def test_force_is_minus_energy_gradient(self):
        system = canonical_system(0.1)
        h, energy = 1e-6, z_route.energy
        for t, z in [(0.5, 0.2), (1.5, 1.3)]:
            fd = -(energy(system, t, z + h) - energy(system, t, z - h)) / (2.0 * h)
            assert z_route.force(system, t, z) == pytest.approx(fd, rel=1e-7, abs=1e-8)


LOADINGS = {
    "ramp": Ramp(q0=0.1, rate=1.0, duration=2.0),
    "sinusoid": SinusoidLoading(q0=0.2, amplitude=0.5, frequency=1.3, duration=2.0, phase=0.4),
    # blend is half the shortest segment, so neighbouring blend zones touch
    "piecewise": SmoothedPiecewiseLinear(
        times=(0.0, 0.5, 1.0, 1.5, 2.0), values=(0.0, 0.1, 0.7, 0.3, 0.9), blend=0.25
    ),
}


def dressed_system(name, loading):
    """Geometry ``name`` on the canonical sinusoid at eps 0.05, with its own thresholds."""
    model = GEOMETRIES[name]
    c = coefficients(model, CANONICAL)
    base = LimitSystem(
        k_h=1.5, L_h_rest=0.3, loading=LOADINGS[loading],
        rho_plus=c.rho_plus, rho_minus=c.rho_minus,
    )
    return WigglySystem(base=base, model=model, profile=CANONICAL, epsilon=0.05)


def rhs_sample(system):
    """2000 random (t, z), both strip boundaries, and each knot +- blend with its neighbours."""
    rng = np.random.default_rng(17)
    loading = system.base.loading
    ts = rng.uniform(0.0, loading.horizon, 2000)
    points = list(zip(ts.tolist(), rng.uniform(-1.5, 2.5, ts.size).tolist()))
    edge_ts = np.linspace(0.0, loading.horizon, 25)
    for bound in elastic_strip(system.base, edge_ts):
        points.extend(zip(edge_ts.tolist(), bound.tolist()))
    if isinstance(loading, SmoothedPiecewiseLinear):
        for knot in loading.times:
            for edge in (knot - loading.blend, knot + loading.blend):
                for t in (np.nextafter(edge, -np.inf), edge, np.nextafter(edge, np.inf)):
                    points.append((float(t), float(rng.uniform(-1.5, 2.5))))
    return points


class FailingRamp(LoadingProgram):
    """A user loading: q(t) = t on [0, 2], raising ``error`` once t passes 0.3."""

    horizon = 2.0
    max_rate = 1.0

    def __init__(self, error):
        self.error = error

    def q(self, t):
        if np.max(t) > 0.3:
            raise self.error
        return t

    def qdot(self, t):
        return np.ones_like(t)


def custom_loading_system(error):
    base = LimitSystem(
        k_h=1.0, L_h_rest=0.0, loading=FailingRamp(error), rho_plus=0.1, rho_minus=-0.1,
    )
    return WigglySystem(base=base, model=MODEL, profile=CANONICAL, epsilon=0.1)


class TestScalarRightHandSide:
    """``scalar_rhs``, the fused float form of ``rhs`` that ``integrate`` steps."""

    @pytest.mark.parametrize("loading", list(LOADINGS))
    @pytest.mark.parametrize("name", list(GEOMETRIES))
    def test_matches_the_array_route_bitwise(self, name, loading):
        # pdot = xi / (eps^gamma g'(p)) from the explicit array route at the
        # contact point p; a tip under its root has p = z and g' = 1, so
        # there it is also rhs, the array route in z
        system = dressed_system(name, loading)
        fun = scalar_rhs(system)
        ts, ps = np.array(rhs_sample(system)).T
        got = [fun(t, p) for t, p in zip(ts.tolist(), ps.tolist())]
        assert all(type(v) is float for v in got)
        _, xi, _, slope = system.at_contact(ts, ps)
        np.testing.assert_array_equal(got, xi / (system.time_scale * slope))
        if name == "vertical":
            np.testing.assert_array_equal(got, z_route.rhs(system, ts, ps))

    @pytest.mark.parametrize("name", list(GEOMETRIES))
    def test_runaway_state_raises_stiffness_error(self, name):
        fun = scalar_rhs(dressed_system(name, "ramp"))
        for t, z in [(0.5, 1e308), (0.5, math.inf), (1e308, 0.0)]:
            with pytest.raises(SolverError, match="overflowed"):
                fun(t, z)

    def test_error_in_a_custom_loading_propagates_as_itself(self):
        # only the microscale force's math errors mean the state ran away
        fun = scalar_rhs(custom_loading_system(ZeroDivisionError("bad q")))
        assert type(fun(0.2, 0.1)) is float
        with pytest.raises(ZeroDivisionError, match="bad q"):
            fun(0.5, 0.2)

    def test_no_array_route_on_the_per_call_path(self, monkeypatch):
        # building and calling the right-hand side must not reach NumPy's
        # profile sum, the loadings' array conversion or the array contact
        systems = [dressed_system(name, loading) for name in GEOMETRIES for loading in LOADINGS]

        def refuse(*args, **kwargs):
            raise AssertionError("array route on the per-call path")

        for owner, attr in [
            (profiles, "eval_profile"),
            (profiles, "fourier_sums"),
            (models, "eval_profile"),
            (models, "fourier_sums"),
            (limit_solver, "_as_array"),
            (models, "_contact"),
        ]:
            monkeypatch.setattr(owner, attr, refuse)
        for system in systems:
            fun = scalar_rhs(system)
            for t, z in [(0.0, 0.0), (0.5, 0.3), (0.74, 0.41), (1.25, 1.1), (1.9, 1.6)]:
                assert type(fun(t, z)) is float


class TestIntegration:
    def test_tracks_limit_solution(self, canonical_run):
        traj = canonical_run(0.05)
        limit = solve_limit(canonical_base(), 0.0)
        sup = float(np.max(np.abs(traj.states - limit.states)))
        assert 0.01 < sup < 0.03

    def test_dissipation_near_limit_value(self, canonical_run):
        # the quasistatic ramp dissipates 0.1 * 1.9 = 0.19; the viscous run
        # adds an O(eps) excess
        traj = canonical_run(0.05)
        assert 0.19 < traj.dissipation[-1] < 0.25

    def test_dissipation_window_additivity(self, canonical_run):
        traj = canonical_run(0.05)
        whole = traj.dissipated(0.2, 1.7)
        split = traj.dissipated(0.2, 0.9) + traj.dissipated(0.9, 1.7)
        assert whole == pytest.approx(split, abs=1e-14)

    def test_velocity_column_is_time_scaled_force(self, canonical_run):
        traj = canonical_run(0.05)
        system = canonical_system(0.05)
        np.testing.assert_allclose(
            traj.xi, system.time_scale * traj.velocities, rtol=0.0, atol=1e-13
        )

    def test_grid_sampling_matches_request(self, canonical_run):
        traj = canonical_run(0.05)
        assert traj.times[0] == 0.0
        assert traj.times[-1] == 2.0
        assert traj.states[0] == 0.0
        assert traj.dissipation[0] == 0.0
        assert np.all(np.diff(traj.dissipation) >= 0.0)

    def test_custom_grid_and_horizon(self):
        grid = np.linspace(0.0, 0.5, 301)
        traj = integrate(canonical_system(0.1), 0.0, grid=grid)
        np.testing.assert_array_equal(traj.times, grid)

    @pytest.mark.parametrize("name", ["vertical", "slanted"])
    def test_matches_the_array_route_through_the_same_stepper(self, name, recorded_steps):
        # the old right-hand side, the z route's array force, in the stepper
        # integrate uses.  For the vertical bristle p = z, so
        # the same steps and states to 1e-12; for the slanted one the states
        # agree to the integration tolerance, 1e-7 (measured 1.2e-8), and the
        # accepted step counts within 2 % (measured 649 and 658)
        base = LimitSystem(
            k_h=1.0, L_h_rest=0.0, rho_plus=0.1, rho_minus=-0.1,
            loading=SinusoidLoading(amplitude=0.5, frequency=1.0, duration=0.5),
        )
        system = WigglySystem(base=base, model=GEOMETRIES[name], profile=CANONICAL, epsilon=0.05)
        tau = system.time_scale
        traj = integrate(system, 0.0)
        ((scalar, _),) = recorded_steps
        sol = viscous_solver.solve_ivp(
            lambda t, z: float(z_route.force(system, t, z)) / tau,
            (0.0, 0.5), 0.0, rtol=1e-9, atol=1e-11,
            max_step=step_cap(system, 0.5),
        )
        if name == "vertical":
            np.testing.assert_allclose(traj.states, sol.sample(traj.times), rtol=0.0, atol=1e-12)
            assert scalar.nfev == sol.nfev
            np.testing.assert_array_equal(scalar.t, sol.t)
        else:
            np.testing.assert_allclose(traj.states, sol.sample(traj.times), rtol=0.0, atol=1e-7)
            assert abs(scalar.t.size - sol.t.size) <= 0.02 * sol.t.size


class TestStepper:
    """The DOPRI5 stepper against SciPy's RK45, its counts and its stall exit."""

    @pytest.mark.parametrize("name", list(GEOMETRIES))
    def test_matches_scipy_rk45(self, name, recorded_steps):
        # differential oracle: SciPy's RK45 on the same scalar right-hand
        # side in p.  The controllers are the same, so the step sequences
        # agree up to rounding in the stage sums: sampled states within 1e-7
        # (measured <= 3e-8 here, and 7e-8 at eps = 0.01), accepted step
        # counts within 0.1 % (measured: equal, or one apart)
        system = WigglySystem(
            base=canonical_base(), model=GEOMETRIES[name], profile=CANONICAL, epsilon=0.05
        )
        traj = integrate(system, 0.0)
        ((ours, _),) = recorded_steps
        fun = scalar_rhs(system)
        sol = solve_ivp(
            lambda t, y: (fun(float(t), float(y[0])),),
            (0.0, 2.0), [0.0], method="RK45", rtol=1e-9, atol=1e-11,
            max_step=step_cap(system, 2.0), dense_output=True,
        )
        assert sol.status == 0
        states = system.at_contact(traj.times, sol.sol(traj.times)[0])[0]
        states[0] = 0.0  # integrate reports z0 itself, which g(p0) meets to 1e-13
        np.testing.assert_allclose(traj.states, states, rtol=0.0, atol=1e-7)
        assert abs(ours.t.size - sol.t.size) <= max(1, 1e-3 * sol.t.size)
        assert ours.t[-1] == sol.t[-1] == 2.0

    def test_counts_two_start_evaluations_and_six_per_attempt(self, recorded_steps):
        # the counting contract the benchmark relies on: t starts at 0 and
        # nfev = 2 + 6 * (accepted + rejected).  Rejections are counted
        # independently: an attempt's stage times never decrease, a retry
        # restarts below the rejected attempt's end, and an accepted step's
        # successor starts beyond it
        traj = integrate(canonical_system(0.05), 0.0)
        ((result, times),) = recorded_steps
        accepted = result.t.size - 1
        rejected = int(np.sum(np.diff(times[2:]) < 0.0))
        assert result.t[0] == 0.0
        assert result.nfev == len(times) == 2 + 6 * (accepted + rejected)
        assert rejected > 0
        # both ends are accepted steps: the trajectory takes their stored states
        np.testing.assert_array_equal(traj.states[[0, -1]], result.y[[0, -1]])

    def test_dense_output_interpolates_between_stored_states(self):
        # y' = cos t: the quartic dense output reproduces every stored state
        # at both ends of its step and stays within 1e-9 of sin t inside
        sol = viscous_solver.solve_ivp(
            lambda t, y: math.cos(t), (0.0, 3.0), 0.0, rtol=1e-10, atol=1e-12, max_step=0.5
        )
        assert sol.q.shape == (sol.t.size - 1, 4)
        np.testing.assert_allclose(sol.sample(sol.t), sol.y, rtol=0.0, atol=1e-15)
        fine = np.linspace(0.0, 3.0, 1001)
        np.testing.assert_allclose(sol.sample(fine), np.sin(fine), rtol=0.0, atol=1e-9)

    def test_step_below_ten_ulp_raises_stiffness_error(self):
        # y' = 1/(1 - t) blows up at t = 1; SciPy's RK45 stops there with
        # status -1 ("required step size is less than spacing between
        # numbers"), and the stepper raises at the same place
        def blow_up(t, y):
            return 1.0 / (1.0 - t)

        kwargs = {"rtol": 1e-9, "atol": 1e-11, "max_step": 0.1}
        scipy_run = solve_ivp(blow_up, (0.0, 2.0), [0.0], **kwargs)
        assert scipy_run.status == -1
        assert scipy_run.t[-1] == pytest.approx(1.0, abs=1e-9)
        with pytest.raises(SolverError, match=r"stalled at t = 1\b"):
            viscous_solver.solve_ivp(blow_up, (0.0, 2.0), 0.0, **kwargs)
        # the floor is 10 ulp of the end time: 10 ulp(t) near t = 0 is
        # subnormal, and at rate 1e290 a stiff run would crawl there instead
        # of failing; at 1e300 the initial-step estimate |y'| / tolerance overflows
        for rate in (1e290, 1e300):
            with pytest.raises(SolverError, match=r"stalled at t = 0\b"):
                viscous_solver.solve_ivp(lambda t, y: -rate * y, (0.0, 2.0), 1.0, **kwargs)


# a two-harmonic profile under a sinusoid loading, as in the simulate-slanted
# benchmark workload (its seed-1 phases)
TWO_TERM = SurfaceProfile((
    FourierTerm(0.1 / (2.0 * math.pi), 1, 3.2158701122134374),
    FourierTerm(0.03 / (6.0 * math.pi), 3, 5.971939531762716),
))


def tilted_system(name, epsilon):
    model = GEOMETRIES[name]
    c = coefficients(model, TWO_TERM)
    base = LimitSystem(
        k_h=1.0, L_h_rest=0.0, rho_plus=c.rho_plus, rho_minus=c.rho_minus,
        loading=SinusoidLoading(amplitude=0.5, frequency=1.0, duration=2.0),
    )
    return WigglySystem(base=base, model=model, profile=TWO_TERM, epsilon=epsilon)


class TestContactCoordinate:
    """The tilted bristles stepped in p against the z route they replaced."""

    @pytest.mark.parametrize("name, epsilon, tol", [("slanted", 0.05, 1e-7),
                                                    ("angular", 0.01, 2e-7)])
    def test_matches_the_z_route_oracle(self, name, epsilon, tol, recorded_steps):
        # the z route, a contact Newton per call, through the same stepper:
        # grid states within the stated tolerance (measured 5.4e-9 and
        # 3.7e-8), accepted step counts within 2 %
        system = tilted_system(name, epsilon)
        traj = integrate(system, 0.0)
        ((ours, _),) = recorded_steps
        oracle = viscous_solver.solve_ivp(
            z_route.scalar_rhs(system), (0.0, 2.0), 0.0, rtol=1e-9, atol=1e-11,
            max_step=step_cap(system, 2.0),
        )
        np.testing.assert_allclose(traj.states, oracle.sample(traj.times), rtol=0.0, atol=tol)
        assert abs(ours.t.size - oracle.t.size) <= 0.02 * oracle.t.size

    @pytest.mark.parametrize("epsilon", ["0.05", "0.01", "limit"])
    @pytest.mark.parametrize("name", ["slanted", "angular"])
    def test_energy_balance(self, name, epsilon):
        # the acceptance guarantee's bound; at the eps limit g'(p) is smallest
        if epsilon == "limit":
            epsilon = epsilon_limit(GEOMETRIES[name], TWO_TERM)
        system = tilted_system(name, float(epsilon))
        traj = integrate(system, 0.0)
        scale = max(1.0, float(np.max(np.abs(traj.energies))))
        assert energy_balance_residual(system, traj) <= 1e-6 * scale

    @pytest.mark.parametrize("name", ["slanted", "angular"])
    def test_post_processing_matches_the_z_route(self, name):
        # xi and the energy come from p with no Newton; the z route solves
        # for the contact at the reported states: equal to its tolerance
        # (measured 8.8e-14 and 1.1e-15 at most over a whole run)
        system = tilted_system(name, 0.05)
        traj = integrate(system, 0.0, grid=np.linspace(0.0, 0.5, 513))
        xi = z_route.force(system, traj.times, traj.states)
        energies = z_route.energy(system, traj.times, traj.states)
        np.testing.assert_allclose(traj.xi, xi, rtol=0.0, atol=1e-11)
        np.testing.assert_allclose(traj.energies, energies, rtol=0.0, atol=1e-13)

    def test_one_contact_newton_per_run(self, monkeypatch):
        # the start's contact point is the only root-tip solve in a run
        calls = []
        contact = models._contact

        def once(*args, **kwargs):
            calls.append(args)
            if len(calls) > 1:
                raise AssertionError("a second contact Newton")
            return contact(*args, **kwargs)

        monkeypatch.setattr(models, "_contact", once)
        for model in GEOMETRIES.values():
            calls.clear()
            integrate(WigglySystem(base=canonical_base(0.5), model=model, profile=CANONICAL,
                                   epsilon=0.05), 0.1)
            assert len(calls) == 1

    def test_a_folding_contact_map_raises(self):
        # a slope of 0.68 is below tan(theta_lim) = tan(0.6) = 0.684, so the map
        # does not fold at flat contact; at eps = 0.5 the trough lowers the tip
        # (y < 0), and near x = 0.533, where w' = -0.665, g' = -0.016 < 0
        system = WigglySystem(base=canonical_base(), model=GEOMETRIES["angular"],
                              profile=SurfaceProfile.sinusoid(slope=0.68), epsilon=0.5)
        assert at_contact(system.model, system.profile, 0.5, 0.2665)[3] < 0.0
        with pytest.raises(SolverError, match="contact map folds"):
            scalar_rhs(system)(0.0, 0.2665)


# half-second loadings: each stepped once, post-processed many times
SHORT_LOADINGS = {
    "ramp": Ramp(q0=0.0, rate=1.0, duration=0.5),
    "sinusoid": SinusoidLoading(amplitude=0.5, frequency=1.0, duration=0.5),
    "piecewise": SmoothedPiecewiseLinear(times=(0.0, 0.2, 0.35, 0.5),
                                         values=(0.0, 0.2, 0.05, 0.3), blend=0.02),
}
TRAJECTORY_FIELDS = ("times", "states", "velocities", "energies", "dissipation", "xi", "delta")
# inside the strip, and for a tilted bristle g(contact_point(Z0)) is not Z0 to the bit
Z0 = 0.02


@pytest.fixture(scope="module")
def stepped():
    """(system, stepper result) per geometry and loading, each stepped once."""
    cache = {}

    def run(name, loading):
        if (name, loading) not in cache:
            base = LimitSystem(k_h=1.0, L_h_rest=0.0, rho_plus=0.1, rho_minus=-0.1,
                               loading=SHORT_LOADINGS[loading])
            system = WigglySystem(base=base, model=GEOMETRIES[name], profile=TWO_TERM,
                                  epsilon=0.05)
            sol = viscous_solver.solve_ivp(
                scalar_rhs(system), (0.0, 0.5),
                contact_point(system.model, system.profile, system.epsilon, Z0),
                rtol=1e-9, atol=1e-11, max_step=step_cap(system, 0.5),
            )
            cache[name, loading] = system, sol
        return cache[name, loading]

    return run


def assert_same_trajectory(ours, oracle):
    for field in TRAJECTORY_FIELDS:
        assert getattr(ours, field).tobytes() == getattr(oracle, field).tobytes(), field
    assert ours.power_integral.hex() == oracle.power_integral.hex()


class TestBlockRoute:
    """Post-processing in blocks of mesh segments against the whole-mesh route."""

    @staticmethod
    def run(monkeypatch, system, sol, grid, block):
        # integrate on a given stepper result, ``block`` segments at a time
        monkeypatch.setattr(viscous_solver, "solve_ivp", lambda *args, **kwargs: sol)
        monkeypatch.setattr(viscous_solver, "_BLOCK", block)
        return integrate(system, Z0, grid=grid)

    @pytest.mark.parametrize("loading", list(SHORT_LOADINGS))
    @pytest.mark.parametrize("name", list(GEOMETRIES))
    def test_matches_the_whole_mesh_route_bitwise(self, name, loading, stepped, monkeypatch):
        system, sol = stepped(name, loading)
        grid = np.linspace(0.0, 0.5, 257)
        segments = sorted_distinct(np.concatenate((sol.t, grid))).size - 1
        oracle = viscous_route.post_process(system, sol, Z0, grid)
        # fewer segments than one block, exactly one, one full block and a
        # one-segment block, and many blocks with a short last one
        assert segments < viscous_solver._BLOCK
        for block in (viscous_solver._BLOCK, segments + 1, segments, segments - 1, 7):
            assert_same_trajectory(self.run(monkeypatch, system, sol, grid, block), oracle)

    @pytest.mark.parametrize("loading", list(SHORT_LOADINGS))
    @pytest.mark.parametrize("name", list(GEOMETRIES))
    def test_exactly_k_blocks(self, name, loading, stepped, monkeypatch):
        # drop grid points that are not accepted steps until the mesh holds
        # exactly k blocks of 64 segments
        system, sol = stepped(name, loading)
        grid = np.linspace(0.0, 0.5, 257)
        segments = sorted_distinct(np.concatenate((sol.t, grid))).size - 1
        free = np.flatnonzero(~np.isin(grid[1:-1], sol.t)) + 1
        grid = np.delete(grid, free[:segments % 64])
        mesh = sorted_distinct(np.concatenate((sol.t, grid)))
        assert (mesh.size - 1) % 64 == 0 and mesh.size - 1 >= 128
        assert_same_trajectory(self.run(monkeypatch, system, sol, grid, 64),
                               viscous_route.post_process(system, sol, Z0, grid))

    @pytest.mark.parametrize("loading", list(SHORT_LOADINGS))
    @pytest.mark.parametrize("name", list(GEOMETRIES))
    def test_grid_on_accepted_steps_and_block_edges(self, name, loading, stepped, monkeypatch):
        # the mesh itself as the grid: every accepted step and every block
        # edge is a grid time, and each block's end node is output twice
        system, sol = stepped(name, loading)
        grid = sorted_distinct(np.concatenate((sol.t, np.linspace(0.0, 0.5, 33))))
        oracle = viscous_route.post_process(system, sol, Z0, grid)
        for block in (5, 64):
            assert_same_trajectory(self.run(monkeypatch, system, sol, grid, block), oracle)

    @pytest.mark.parametrize("name", list(GEOMETRIES))
    def test_accepted_states_are_put_back_at_block_edges(self, name, stepped, monkeypatch):
        # a stepper result whose dense output is constant on each step misses
        # every accepted state but the first, so the state each block puts back
        # at its edges shows in the dissipation and the power integral
        system, _ = stepped(name, "sinusoid")
        t = np.linspace(0.0, 0.5, 41)
        sol = viscous_solver.StepperResult(t=t, y=Z0 + 0.01 * np.sin(7.0 * t),
                                           q=np.zeros((40, 4)), nfev=0)
        grid = np.linspace(0.0, 0.5, 97)
        oracle = viscous_route.post_process(system, sol, Z0, grid)
        for block in (1, 2, 3, 64, viscous_solver._BLOCK):
            assert_same_trajectory(self.run(monkeypatch, system, sol, grid, block), oracle)

    def test_many_blocks_in_half_the_memory(self, monkeypatch):
        # the README config at eps = 0.005, 8 blocks of the default size: the
        # traced peak of integrate's post-processing against the whole-mesh
        # route, both on one stepper result (measured 1.7 MB against 4.9 MB)
        model = VerticalBristle(k=1.0, L_rest=2.0, h=1.0)
        profile = SurfaceProfile.sinusoid(slope=0.1)
        c = coefficients(model, profile)
        base = LimitSystem(k_h=1.0, L_h_rest=0.0, loading=Ramp(rate=1.0, duration=2.0),
                           rho_plus=c.rho_plus, rho_minus=c.rho_minus)
        system = WigglySystem(base=base, model=model, profile=profile, epsilon=0.005)
        grid = limit_solver.default_grid(2.0)
        sol = viscous_solver.solve_ivp(scalar_rhs(system), (0.0, 2.0), 0.0, rtol=1e-9,
                                       atol=1e-11, max_step=step_cap(system, 2.0))
        monkeypatch.setattr(viscous_solver, "solve_ivp", lambda *args, **kwargs: sol)
        segments = sorted_distinct(np.concatenate((sol.t, grid))).size - 1
        assert segments > 4 * viscous_solver._BLOCK

        def traced(route):
            tracemalloc.start()
            try:
                return route(), tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        ours, peak = traced(lambda: integrate(system, 0.0, grid=grid))
        oracle, oracle_peak = traced(lambda: viscous_route.post_process(system, sol, 0.0, grid))
        assert_same_trajectory(ours, oracle)
        assert peak <= 0.5 * oracle_peak, (peak, oracle_peak)


class TestEnergyBalance:
    def test_residual_small_at_default_tolerances(self, canonical_run):
        traj = canonical_run(0.05)
        system = canonical_system(0.05)
        scale = max(1.0, float(np.max(np.abs(traj.energies))))
        residual = energy_balance_residual(system, traj)
        assert 0.0 <= residual <= 1e-6 * scale

    def test_residual_small_at_tight_tolerances(self, canonical_run):
        config = IntegratorConfig(rtol=1e-10, atol=1e-12)
        traj = canonical_run(0.05, config)
        system = canonical_system(0.05)
        scale = max(1.0, float(np.max(np.abs(traj.energies))))
        assert energy_balance_residual(system, traj) <= 1e-6 * scale

    def test_tolerance_drop_improves_residual(self, canonical_run):
        # RK45 residuals scale like tol^(4/5), so a 100x tolerance drop
        # should buy well over a factor of two
        system = canonical_system(0.1)
        loose = canonical_run(0.1, IntegratorConfig(rtol=1e-7, atol=1e-9))
        tight = canonical_run(0.1, IntegratorConfig(rtol=1e-9, atol=1e-11))
        r_loose = energy_balance_residual(system, loose)
        r_tight = energy_balance_residual(system, tight)
        assert r_loose >= 2.0 * r_tight

    def test_fenchel_residual_vanishes_along_solution(self, canonical_run):
        # M_eps(zdot, xi) - zdot*xi = (sqrt(tau) zdot - xi/sqrt(tau))^2 / 2
        # is the square of the local force defect, so it collapses to
        # rounding noise along an accurately computed solution
        traj = canonical_run(0.05)
        tau = canonical_system(0.05).time_scale
        root = math.sqrt(tau)
        residual = 0.5 * np.square(root * traj.velocities - traj.xi / root)
        force_scale = max(1.0, float(np.max(np.abs(traj.xi))))
        assert float(np.max(residual)) <= 1e-8 * force_scale**2

    def test_power_integral_matches_trapezoid(self, canonical_run):
        traj = canonical_run(0.1)
        system = canonical_system(0.1)
        crude = np.trapezoid(
            -system.base.ell_rate(traj.times) * traj.states, traj.times
        )
        assert traj.power_integral == pytest.approx(crude, abs=1e-4)


class TestStripAttraction:
    def test_delta_zero_when_started_inside(self, canonical_run):
        traj = canonical_run(0.05)
        assert traj.delta[0] == 0.0
        assert np.all(traj.delta >= 0.0)

    def test_delta_decays_from_outside_strip(self):
        # start two units above the strip: the boundary layer contracts the
        # excess at rate k_h / eps^gamma before the O(eps) regime takes over
        system = canonical_system(0.1)
        _, upper = elastic_strip(system.base, 0.0)
        traj = integrate(system, upper + 2.0)
        assert traj.delta[0] == pytest.approx(2.0, rel=1e-12)
        layer = traj.delta > 10.0 * system.epsilon ** min(1.0, system.gamma)
        assert np.all(np.diff(traj.delta)[layer[:-1]] < 0.0)
        assert traj.delta[traj.times >= 0.5].max() < 0.15
        assert traj.delta[-1] < 0.1

    def test_states_remain_bounded_by_envelopes(self, canonical_run):
        traj = canonical_run(0.05)
        system = canonical_system(0.05)
        lower, upper = elastic_strip(system.base, traj.times)
        slack = 10.0 * system.epsilon ** min(1.0, system.gamma)
        assert np.all(traj.states <= upper + slack)
        assert np.all(traj.states >= lower - slack)


def readme_base(model):
    """The README system: unit spring, unit ramp over 2, thresholds of ``model``."""
    coeffs = coefficients(model, CANONICAL)
    return LimitSystem(
        k_h=1.0, L_h_rest=0.0, loading=Ramp(duration=2.0),
        rho_plus=coeffs.rho_plus, rho_minus=coeffs.rho_minus,
    )


class TestEdgeCases:
    """A start exactly on the elastic strip and eps exactly at its limit,
    for each geometry on the README sinusoid and ramp."""

    @pytest.mark.parametrize("name", list(GEOMETRIES))
    @pytest.mark.parametrize("case", ["lower", "upper", "eps-limit"])
    def test_integrate(self, name, case):
        model = GEOMETRIES[name]
        base = readme_base(model)
        lower, upper = elastic_strip(base, 0.0)
        z0 = {"lower": lower, "upper": upper, "eps-limit": 0.0}[case]
        epsilon = epsilon_limit(model, CANONICAL) if case == "eps-limit" else 0.05
        system = WigglySystem(base=base, model=model, profile=CANONICAL, epsilon=epsilon)
        traj = integrate(system, z0)
        assert np.all(np.isfinite(traj.states))
        assert traj.states[0] == z0
        # the acceptance guarantee's bound
        scale = max(1.0, float(np.max(np.abs(traj.energies))))
        assert energy_balance_residual(system, traj) <= 1e-6 * scale

    @pytest.mark.parametrize("name", list(GEOMETRIES))
    def test_solve_limit_from_either_strip_boundary(self, name):
        # the limit's energy balance is the de Giorgi certificate
        model = GEOMETRIES[name]
        base = readme_base(model)
        density = limit_density(model, CANONICAL)
        for z0 in elastic_strip(base, 0.0):
            limit = solve_limit(base, z0)
            assert np.all(np.isfinite(limit.states))
            assert limit.states[0] == z0
            assert de_giorgi_certificate(base, limit, density).passed


class TestGammaExponent:
    def test_gamma_two_run_stays_near_limit(self):
        system = canonical_system(0.2, gamma=2.0, duration=0.5)
        traj = integrate(system, 0.0)
        limit = solve_limit(canonical_base(0.5), 0.0)
        sup = float(np.max(np.abs(traj.states - limit.states)))
        assert sup < 0.25


class TestFailureModes:
    def test_runaway_initial_state_raises_stiffness_error(self):
        # math raises on sin(inf) where NumPy returned nan: still a stiffness error
        for model in GEOMETRIES.values():
            system = WigglySystem(
                base=canonical_base(), model=model, profile=CANONICAL, epsilon=0.1
            )
            with np.errstate(over="ignore", invalid="ignore"):
                with pytest.raises(SolverError, match="force evaluation overflowed"):
                    integrate(system, 1e308)

    def test_overflow_in_post_processing_is_a_stiffness_error(self):
        # the state reaches ~1e300, so the energy squares it past the float range
        fast = LimitSystem(k_h=1.0, L_h_rest=0.0, loading=Ramp(rate=1e300, duration=2.0),
                           rho_plus=0.1, rho_minus=-0.1)
        system = WigglySystem(base=fast, model=MODEL, profile=CANONICAL, epsilon=0.1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SolverError, match="post-processing overflowed"):
                integrate(system, 0.0)

    def test_run_beyond_a_million_steps_is_refused_or_stopped(self, monkeypatch):
        system = canonical_system(0.1)
        # eps 1e-9 caps the step at 5e-10: 4e9 steps to t = 2, refused before the first step
        with pytest.raises(ConfigError, match="needs more than 1000000 steps"):
            integrate(canonical_system(1e-9), 0.0)
        assert 2.0 / step_cap(system, 2.0) <= viscous_solver.MAX_STEPS
        # a run that takes the whole budget without reaching its end stops there
        monkeypatch.setattr(viscous_solver, "MAX_STEPS", 50)
        kwargs = {"rtol": 1e-10, "atol": 1e-12}
        assert viscous_solver.solve_ivp(lambda t, y: math.cos(t), (0.0, 3.0), 0.0,
                                        max_step=0.1, **kwargs).t.size <= 51
        with pytest.raises(SolverError, match=r"took 50 steps to reach t = 0\.\d+ of 3"):
            viscous_solver.solve_ivp(lambda t, y: math.cos(t), (0.0, 3.0), 0.0,
                                     max_step=0.01, **kwargs)

    def test_a_run_at_the_step_budget_keeps_under_150_bytes_a_step(self):
        # the stepper keeps seven stages, a time and a state per accepted step
        # in flat float buffers, 72 B a step (measured 72 B of peak RSS here);
        # a tuple of seven floats a step peaked at 377 B.  A subprocess,
        # so that the peak is this run's, at a budget patched down to 10^5
        script = (
            "import math, resource\n"
            "from wfl import viscous_solver\n"
            "from wfl.errors import SolverError\n"
            "viscous_solver.MAX_STEPS = 10**5\n"
            "before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
            "try:\n"
            "    viscous_solver.solve_ivp(lambda t, y: math.cos(t), (0.0, 2.0), 0.0,\n"
            "                             rtol=1e-10, atol=1e-12, max_step=1e-5)\n"
            "except SolverError as exc:\n"
            "    assert 'took 100000 steps' in str(exc), exc\n"
            "after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
            "print((after - before) * 1024 / 10**5)\n"
        )
        src = Path(viscous_solver.__file__).resolve().parents[1]
        done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              env=dict(os.environ, PYTHONPATH=str(src)), timeout=120, check=False)
        assert done.returncode == 0, done.stderr
        assert float(done.stdout) < 150.0

    def test_error_in_a_custom_loading_is_not_a_stiffness_error(self):
        with pytest.raises(ValueError, match="bad q"):
            integrate(custom_loading_system(ValueError("bad q")), 0.0)

    def test_epsilon_outside_validity_rejected(self):
        with pytest.raises(ConfigError, match="epsilon must be positive and finite"):
            canonical_system(0.0)
        with pytest.raises(ConfigError, match="exceeds the geometric validity limit"):
            canonical_system(1e9)

    @pytest.mark.parametrize("name", GEOMETRIES)
    def test_epsilon_range_is_the_force_route_check(self, name):
        # one check and one message for the system and the microscale force
        model = GEOMETRIES[name]
        limit = epsilon_limit(model, CANONICAL)
        WigglySystem(base=canonical_base(), model=model, profile=CANONICAL, epsilon=limit)
        above = math.nextafter(limit, math.inf)
        cause = "exceeds the geometric validity limit"
        with pytest.raises(ConfigError, match=cause) as system_error:
            WigglySystem(base=canonical_base(), model=model, profile=CANONICAL, epsilon=above)
        with pytest.raises(ConfigError, match=cause) as force_error:
            models.wiggly_force(model, CANONICAL, above, 0.0)
        assert str(system_error.value) == str(force_error.value)

    def test_gamma_must_be_positive(self):
        with pytest.raises(ConfigError):
            canonical_system(0.1, gamma=0.0)
        with pytest.raises(ConfigError):
            canonical_system(0.1, gamma=-1.0)
        # eps^gamma must be a normal float: 0.1^400 underflows
        for gamma in (400.0, 1e300):
            with pytest.raises(ConfigError, match="not a normal float"):
                canonical_system(0.1, gamma=gamma)

    def test_integrator_config_validation(self):
        with pytest.raises(ConfigError):
            IntegratorConfig(rtol=0.0)
        with pytest.raises(ConfigError):
            IntegratorConfig(atol=-1e-9)
        # nan passes x <= 0 and inf turns error control off
        for bad in ({"rtol": math.nan}, {"rtol": math.inf}, {"atol": math.nan}, {"atol": math.inf}):
            with pytest.raises(ConfigError, match="integrator tolerances must be positive"):
                IntegratorConfig(**bad)

    def test_step_cap_caps_at_half_time_scale(self):
        system = canonical_system(0.1)
        assert step_cap(system, 2.0) == 0.05

    def test_grid_and_horizon_validation(self):
        system = canonical_system(0.1)
        with pytest.raises(ConfigError):
            integrate(system, 0.0, grid=np.linspace(0.0, 3.0, 31))
        with pytest.raises(ConfigError):
            integrate(system, 0.0, grid=np.array([0.5, 1.0]))
        with pytest.raises(ConfigError):
            integrate(system, 0.0, grid=np.array([0.0, 0.0, 1.0]))
        with pytest.raises(ConfigError):
            integrate(system, float("nan"))

    def test_trajectory_requires_diagnostic_columns(self):
        t = np.linspace(0.0, 1.0, 5)
        z = np.zeros_like(t)
        with pytest.raises(TypeError):
            ViscousTrajectory(
                times=t,
                states=z,
                velocities=z,
                energies=z,
                dissipation=z,
            )
