"""Tests for the scale-sweep harness."""

import pytest

import viscous_route
import wfl.convergence as convergence
from wfl import viscous_solver
from wfl.convergence import run_sweep
from wfl.errors import ConfigError, SolverError
from wfl.limit_solver import LimitSystem, Ramp, solve_limit, time_grid
from wfl.models import SlantedBristle, VerticalBristle
from wfl.profiles import SurfaceProfile
from wfl.viscous_solver import WigglySystem

PROFILE = SurfaceProfile.sinusoid(slope=0.1)
MODEL = VerticalBristle(k=1.0, L_rest=2.0, h=1.0)


def canonical_system(duration=2.0):
    return LimitSystem(
        k_h=1.0,
        L_h_rest=0.0,
        loading=Ramp(q0=0.0, rate=1.0, duration=duration),
        rho_plus=0.1,
        rho_minus=-0.1,
    )


class TestRunSweep:
    def test_two_scale_sweep_improves(self):
        report = run_sweep(canonical_system(), PROFILE, MODEL, epsilons=[0.1, 0.05])
        assert report.epsilons == (0.1, 0.05)
        assert report.sup_errors[1] < report.sup_errors[0]
        assert 0.03 < report.sup_errors[0] < 0.08
        assert 0.01 < report.sup_errors[1] < 0.03
        assert report.limit_dissipation[0] == pytest.approx(0.19, rel=1e-12)
        assert report.dissipation_gaps[1][0] < report.dissipation_gaps[0][0]
        assert 0.8 < report.fitted_order < 1.9
        assert all(r > 0.0 for r in report.runtimes)

    def test_scales_sorted_downward(self):
        report = run_sweep(canonical_system(0.5), PROFILE, MODEL, epsilons=[0.05, 0.1])
        assert report.epsilons == (0.1, 0.05)

    def test_single_scale_has_no_fit(self):
        report = run_sweep(canonical_system(0.5), PROFILE, MODEL, epsilons=[0.1])
        assert report.fitted_order is None
        assert len(report.rows) == 1

    def test_window_columns(self):
        report = run_sweep(
            canonical_system(),
            PROFILE,
            MODEL,
            epsilons=[0.1],
            windows=((0.0, 1.0), (1.0, 2.0)),
        )
        assert report.windows == ((0.0, 1.0), (1.0, 2.0))
        assert report.limit_dissipation[0] == pytest.approx(0.09, rel=1e-10)
        assert report.limit_dissipation[1] == pytest.approx(0.10, rel=1e-10)
        assert len(report.dissipation_gaps[0]) == 2

    @pytest.mark.parametrize("model, epsilons", [
        (MODEL, [0.1, 0.05, 0.02]),
        (SlantedBristle(k=1.0, L_rest=1.0, h=0.05, theta=0.5), [0.1, 0.05]),
    ], ids=["vertical", "slanted"])
    def test_rows_match_the_whole_mesh_route(self, model, epsilons, monkeypatch):
        # the sweep's stepper results post-processed on the whole mesh, every
        # trajectory kept to the end: the same rows, runtime_s masked
        sols = []
        stepper = viscous_solver.solve_ivp
        monkeypatch.setattr(viscous_solver, "solve_ivp",
                            lambda *args, **kwargs: sols.append(stepper(*args, **kwargs)) or sols[-1])
        system, windows = canonical_system(), ((0.0, 0.7), (0.7, 2.0))
        report = run_sweep(system, PROFILE, model, epsilons, windows=windows, z0=0.02)
        grid = time_grid(system.loading, None)
        systems = [WigglySystem(base=system, model=model, profile=PROFILE, epsilon=e)
                   for e in report.epsilons]
        oracle = viscous_route.sweep_rows(solve_limit(system, 0.02, grid=grid), systems, sols,
                                          0.02, grid, windows)
        assert [row[:-1] for row in report.rows] == oracle

    def test_input_validation(self):
        with pytest.raises(ConfigError):
            run_sweep(canonical_system(), PROFILE, MODEL, epsilons=[])
        with pytest.raises(ConfigError):
            run_sweep(canonical_system(), PROFILE, MODEL, epsilons=[0.1, 0.1])
        with pytest.raises(ConfigError):
            run_sweep(
                canonical_system(), PROFILE, MODEL, epsilons=[0.1], windows=((1.0, 0.5),)
            )

    def test_inadmissible_scale_aborts_before_any_run(self):
        with pytest.raises(ConfigError, match="exceeds the geometric validity limit"):
            run_sweep(canonical_system(), PROFILE, MODEL, epsilons=[0.1, 1e9])

    def test_step_budget_is_checked_before_any_run(self, monkeypatch):
        # eps 1e-9 caps the step at 5e-10: 4e9 steps to t = 2, refused before eps 0.1 runs
        calls = []
        monkeypatch.setattr(convergence, "integrate", lambda *args, **kwargs: calls.append(args))
        with pytest.raises(ConfigError, match="needs more than 1000000 steps"):
            run_sweep(canonical_system(), PROFILE, MODEL, epsilons=[0.1, 1e-9])
        assert calls == []

    def test_midway_failure_names_its_scale_and_stops_the_sweep(self, monkeypatch):
        # a stiffness failure in the middle of a sweep aborts it at that scale
        real_integrate = convergence.integrate
        calls = []

        def flaky(system, z0, config=None, grid=None):
            calls.append(system.epsilon)
            if system.epsilon == 0.07:
                raise SolverError("synthetic failure for testing")
            return real_integrate(system, z0, config=config, grid=grid)

        monkeypatch.setattr(convergence, "integrate", flaky)
        with pytest.raises(SolverError, match="sweep aborted at eps = 0.07: synthetic") as exc_info:
            run_sweep(
                canonical_system(0.5),
                PROFILE,
                MODEL,
                epsilons=[0.1, 0.07, 0.05],
            )
        cause = exc_info.value.__cause__
        assert isinstance(cause, SolverError)
        assert str(cause) == "synthetic failure for testing"
        assert calls == [0.1, 0.07]
