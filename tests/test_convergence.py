"""Tests for the scale-sweep harness and strip diagnostics."""

from dataclasses import fields

import numpy as np
import pytest

import wfl.convergence as convergence
from wfl.convergence import StripDiagnostics, SweepReport, run_sweep, strip_diagnostics
from wfl.errors import ConfigError, ScaleValidityError, StiffnessFailureError, SweepError
from wfl.limit_solver import LimitSystem, Ramp, elastic_strip
from wfl.models import VerticalBristle
from wfl.profiles import SurfaceProfile
from wfl.viscous_solver import WigglySystem, integrate

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
        report = run_sweep(
            canonical_system(), PROFILE, MODEL, epsilons=[0.1, 0.05], workers=1
        )
        assert report.epsilons == (0.1, 0.05)
        assert report.sup_errors[1] < report.sup_errors[0]
        assert 0.03 < report.sup_errors[0] < 0.08
        assert 0.01 < report.sup_errors[1] < 0.03
        assert report.limit_dissipation[0] == pytest.approx(0.19, rel=1e-12)
        assert report.dissipation_gaps[1][0] < report.dissipation_gaps[0][0]
        assert 0.8 < report.fitted_order < 1.9
        assert all(r > 0.0 for r in report.runtimes)

    def test_parallel_matches_serial_bitwise(self):
        serial = run_sweep(
            canonical_system(), PROFILE, MODEL, epsilons=[0.1, 0.07], workers=1
        )
        parallel = run_sweep(
            canonical_system(), PROFILE, MODEL, epsilons=[0.1, 0.07], workers=2
        )
        assert serial.epsilons == parallel.epsilons
        assert serial.sup_errors == parallel.sup_errors
        assert serial.dissipation_gaps == parallel.dissipation_gaps
        assert serial.limit_dissipation == parallel.limit_dissipation
        assert serial.fitted_order == parallel.fitted_order
        # every field but the wall times equals the serial report's
        for field in fields(SweepReport):
            if field.name != "runtimes":
                assert getattr(parallel, field.name) == getattr(serial, field.name)

    def test_scales_sorted_downward(self):
        report = run_sweep(
            canonical_system(0.5), PROFILE, MODEL, epsilons=[0.05, 0.1], workers=1
        )
        assert report.epsilons == (0.1, 0.05)

    def test_single_scale_has_no_fit(self):
        report = run_sweep(
            canonical_system(0.5), PROFILE, MODEL, epsilons=[0.1], workers=1
        )
        assert report.fitted_order is None
        assert len(report.rows) == 1

    def test_window_columns(self):
        report = run_sweep(
            canonical_system(),
            PROFILE,
            MODEL,
            epsilons=[0.1],
            windows=((0.0, 1.0), (1.0, 2.0)),
            workers=1,
        )
        assert report.windows == ((0.0, 1.0), (1.0, 2.0))
        assert report.limit_dissipation[0] == pytest.approx(0.09, rel=1e-10)
        assert report.limit_dissipation[1] == pytest.approx(0.10, rel=1e-10)
        assert len(report.dissipation_gaps[0]) == 2

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
        with pytest.raises(ScaleValidityError):
            run_sweep(canonical_system(), PROFILE, MODEL, epsilons=[0.1, 1e9])

    def test_midway_failure_carries_partial_report(self, monkeypatch):
        real_integrate = convergence.integrate

        def flaky(system, z0, config=None, grid=None):
            if system.epsilon == 0.05:
                raise StiffnessFailureError("synthetic failure for testing")
            return real_integrate(system, z0, config=config, grid=grid)

        monkeypatch.setattr(convergence, "integrate", flaky)
        with pytest.raises(SweepError) as exc_info:
            run_sweep(
                canonical_system(0.5),
                PROFILE,
                MODEL,
                epsilons=[0.1, 0.05],
                workers=1,
            )
        partial = exc_info.value.partial
        assert isinstance(partial, SweepReport)
        assert partial.epsilons == (0.1,)
        assert partial.fitted_order is None

    @pytest.mark.parametrize("workers", [1, 2])
    def test_partial_report_stops_at_the_first_failure(self, monkeypatch, workers):
        # a stiffness failure in the middle of a sweep: the pool (whose forked
        # workers see the patch) reports the same rows as the serial loop
        monkeypatch.delenv("WFL_THREADS", raising=False)
        real_integrate = convergence.integrate

        def flaky(system, z0, config=None, grid=None):
            if system.epsilon == 0.07:
                raise StiffnessFailureError("synthetic failure for testing")
            return real_integrate(system, z0, config=config, grid=grid)

        monkeypatch.setattr(convergence, "integrate", flaky)
        with pytest.raises(SweepError) as exc_info:
            run_sweep(
                canonical_system(0.5),
                PROFILE,
                MODEL,
                epsilons=[0.1, 0.07, 0.05],
                workers=workers,
            )
        assert isinstance(exc_info.value.__cause__, StiffnessFailureError)
        partial = exc_info.value.partial
        assert partial.epsilons == (0.1,)
        assert len(partial.sup_errors) == len(partial.runtimes) == 1
        assert partial.fitted_order is None

    def test_thread_cap_env_is_validated(self, monkeypatch):
        monkeypatch.setenv("WFL_THREADS", "not-a-number")
        with pytest.raises(ConfigError):
            run_sweep(canonical_system(0.5), PROFILE, MODEL, epsilons=[0.1])

    def test_empty_thread_cap_env_means_unset(self, monkeypatch):
        monkeypatch.delenv("WFL_THREADS", raising=False)
        unset = convergence._pool_size(None, 8)
        monkeypatch.setenv("WFL_THREADS", "")
        assert convergence._pool_size(None, 8) == unset

    def test_thread_cap_env_limits_pool(self, monkeypatch):
        monkeypatch.setenv("WFL_THREADS", "1")
        report = run_sweep(canonical_system(0.5), PROFILE, MODEL, epsilons=[0.1])
        assert len(report.rows) == 1


class TestStripDiagnostics:
    def test_started_inside_strip(self):
        system = WigglySystem(
            base=canonical_system(0.5), model=MODEL, profile=PROFILE, epsilon=0.1
        )
        trajectory = integrate(system, 0.0)
        diag = strip_diagnostics(system, trajectory)
        assert isinstance(diag, StripDiagnostics)
        assert diag.delta[0] == 0.0
        assert np.all(diag.delta >= 0.0)
        np.testing.assert_array_equal(diag.delta, trajectory.delta)

    def test_boundary_layer_decay(self):
        base = canonical_system()
        system = WigglySystem(base=base, model=MODEL, profile=PROFILE, epsilon=0.1)
        _, upper = elastic_strip(base, 0.0)
        trajectory = integrate(system, upper + 1.0)
        diag = strip_diagnostics(system, trajectory)
        assert diag.delta[0] == pytest.approx(1.0, rel=1e-12)
        assert diag.decay_rate == pytest.approx(base.k_h / system.time_scale)
        # the fitted envelope bounds the whole run, and past the boundary
        # layer the distance has collapsed from 1.0 to the eps scale
        band = diag.fitted_constant * system.epsilon**system.beta
        envelope = diag.delta[0] * np.exp(-diag.decay_rate * diag.times)
        assert np.all(diag.delta <= envelope + band + 1e-12)
        after_layer = diag.times >= 5.0 * system.time_scale / base.k_h
        assert float(np.max(diag.delta[after_layer])) < 0.08
        assert 0.0 <= diag.fitted_constant < 10.0
