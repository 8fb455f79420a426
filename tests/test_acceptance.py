"""Acceptance run: one test per advertised guarantee, at the stated tolerance.

Each test prints a single ``ACCEPTANCE PASS`` line with the measured
numbers when its guarantee holds; a failed guarantee surfaces as an
ordinary test failure, so the verbose test log carries exactly one
pass/fail verdict per guarantee.
"""

import csv
import json
import math
import time
from dataclasses import dataclass, replace

import numpy as np
import pytest

from wfl import cli
from wfl.convergence import run_sweep
from wfl.limit_solver import (
    LimitSystem,
    LoadingProgram,
    Ramp,
    default_grid,
    solve_limit,
)
from wfl.models import SlantedBristle, VerticalBristle, coefficients, nap_coefficients
from wfl.profiles import SurfaceProfile
from wfl.variational import (
    ViscousQuadratic,
    de_giorgi_certificate,
    k_of_xi,
    limit_density,
)
from wfl.viscous_solver import WigglySystem, energy_balance_residual, integrate

PROFILE = SurfaceProfile.sinusoid(slope=0.1)
MODEL = VerticalBristle(k=1.0, L_rest=2.0, h=1.0)


def _read_csv(path):
    with open(path, newline="", encoding="utf-8") as handle:
        rows = list(csv.reader(handle))
    return rows[0], rows[1:]


def _run_cli(tmp_path, command, payload):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(payload), encoding="utf-8")
    start = time.perf_counter()
    code = cli.main([command, "--config", str(config), "--out", str(tmp_path)])
    return code, time.perf_counter() - start


def ramp_system(duration: float = 2.0) -> LimitSystem:
    return LimitSystem(
        k_h=1.0,
        L_h_rest=0.0,
        loading=Ramp(duration=duration),
        rho_plus=0.1,
        rho_minus=-0.1,
    )


@dataclass(frozen=True)
class QuadraticPull(LoadingProgram):
    """Anchor path q(u) = u^2/2: the unit ramp's track on a slowed-down clock."""

    duration: float = 2.0

    def q(self, t):
        ts = np.atleast_1d(np.asarray(t, dtype=float))
        out = 0.5 * ts * ts
        if np.isscalar(t) or (isinstance(t, np.ndarray) and t.ndim == 0):
            return float(out[0])
        return out

    def qdot(self, t):
        ts = np.atleast_1d(np.asarray(t, dtype=float))
        if np.isscalar(t) or (isinstance(t, np.ndarray) and t.ndim == 0):
            return float(ts[0])
        return ts.copy()

    @property
    def horizon(self) -> float:
        return self.duration

    @property
    def max_rate(self) -> float:
        return self.duration


@pytest.fixture(scope="module")
def ramp_run():
    system = ramp_system()
    return system, solve_limit(system, 0.0)


@pytest.fixture(scope="module")
def reparametrized_runs():
    clock = default_grid(2.0)
    warped = 0.5 * clock * clock
    original = solve_limit(ramp_system(), 0.0, grid=warped)
    slowed_system = LimitSystem(
        k_h=1.0,
        L_h_rest=0.0,
        loading=QuadraticPull(duration=2.0),
        rho_plus=0.1,
        rho_minus=-0.1,
    )
    slowed = solve_limit(slowed_system, 0.0, grid=clock)
    return original, slowed_system, slowed


@pytest.fixture(scope="module")
def density():
    return limit_density(MODEL, PROFILE)


def test_slanted_tilt_sweep_matches_closed_form_and_oracle(tmp_path, verdict):
    code, elapsed = _run_cli(
        tmp_path, "sweep-theta", {"sweep_theta": {"model": "slanted", "count": 50}}
    )
    assert code == 0
    _, rows = _read_csv(tmp_path / "sweep_theta.csv")
    assert len(rows) == 50
    worst_rel = 0.0
    worst_oracle = 0.0
    for row in rows:
        theta = float(row[0])
        assert 0.01 < theta < math.atan(10.0) - 0.01
        tan = math.tan(theta)
        mu_plus, mu_minus = float(row[3]), float(row[4])
        expect_plus = 0.1 / (1.0 - 0.1 * tan)
        expect_minus = -0.1 / (1.0 + 0.1 * tan)
        worst_rel = max(
            worst_rel,
            abs(mu_plus - expect_plus) / expect_plus,
            abs(mu_minus - expect_minus) / abs(expect_minus),
        )
        worst_oracle = max(
            worst_oracle,
            abs(float(row[7]) - mu_plus),
            abs(float(row[8]) - mu_minus),
        )
    assert worst_rel <= 1e-13
    assert worst_oracle <= 1e-8
    assert elapsed < 10.0
    verdict(
        f"slanted tilt sweep: 50 angles, closed-form rel err {worst_rel:.2e}, "
        f"oracle gap {worst_oracle:.2e}, {elapsed:.2f}s"
    )


def test_angular_tilt_sweep_matches_closed_form_and_oracle(tmp_path, verdict):
    code, elapsed = _run_cli(
        tmp_path, "sweep-theta", {"sweep_theta": {"model": "angular", "count": 50}}
    )
    assert code == 0
    _, rows = _read_csv(tmp_path / "sweep_theta.csv")
    assert len(rows) == 50
    worst_rel = 0.0
    worst_oracle = 0.0
    for row in rows:
        theta = float(row[0])
        assert math.atan(0.1) + 0.01 < theta < math.atan(10.0) - 0.01
        cot = 1.0 / math.tan(theta)
        mu_plus, mu_minus = float(row[3]), float(row[4])
        expect_plus = 0.1 / (1.0 + 0.1 * cot)
        expect_minus = -0.1 / (1.0 - 0.1 * cot)
        worst_rel = max(
            worst_rel,
            abs(mu_plus - expect_plus) / expect_plus,
            abs(mu_minus - expect_minus) / abs(expect_minus),
        )
        worst_oracle = max(
            worst_oracle,
            abs(float(row[7]) - mu_plus),
            abs(float(row[8]) - mu_minus),
        )
    assert worst_rel <= 1e-13
    assert worst_oracle <= 1e-8
    assert elapsed < 10.0
    verdict(
        f"angular tilt sweep: 50 angles, closed-form rel err {worst_rel:.2e}, "
        f"oracle gap {worst_oracle:.2e}, {elapsed:.2f}s"
    )


def test_vanishing_corrugation_scale_converges_to_the_limit_flow(verdict):
    coeffs = coefficients(MODEL, PROFILE)
    base = LimitSystem(
        k_h=1.0,
        L_h_rest=0.0,
        loading=Ramp(duration=2.0),
        rho_plus=coeffs.rho_plus,
        rho_minus=coeffs.rho_minus,
    )
    start = time.perf_counter()
    report = run_sweep(
        base,
        PROFILE,
        MODEL,
        epsilons=(0.1, 0.05, 0.02, 0.01, 0.005),
        windows=((0.0, 2.0),),
    )
    elapsed = time.perf_counter() - start

    sup = np.asarray(report.sup_errors)
    assert np.all(np.diff(sup) < 0.0)
    assert report.fitted_order is not None and report.fitted_order >= 0.8
    assert sup[-1] <= 0.01
    assert report.limit_dissipation[0] == pytest.approx(0.19, rel=1e-12)
    assert report.dissipation_gaps[-1][0] <= 0.1 * 0.19
    assert elapsed <= 300.0
    verdict(
        "trajectory convergence: sup errors "
        + " > ".join(f"{e:.4f}" for e in sup)
        + f", fitted order {report.fitted_order:.2f}, "
        f"finest dissipation gap {report.dissipation_gaps[-1][0]:.4f} "
        f"(limit 0.019), {elapsed:.1f}s"
    )


def test_clamp_recursion_reproduces_the_play_operator(ramp_run, reparametrized_runs, verdict):
    system, trajectory = ramp_run
    step = trajectory.times[1] - trajectory.times[0]
    closed_form = np.maximum(0.0, trajectory.times - 0.1)
    ramp_error = float(np.max(np.abs(trajectory.states - closed_form)))
    assert ramp_error <= step

    original, _, slowed = reparametrized_runs
    reparam_gap = float(np.max(np.abs(original.states - slowed.states)))
    assert reparam_gap <= 1e-12
    verdict(
        f"play-operator exactness: ramp max error {ramp_error:.2e} <= {step:.2e}, "
        f"reparametrization gap {reparam_gap:.2e}"
    )


def test_energy_certificates_accept_solutions_and_reject_perturbations(
    ramp_run, reparametrized_runs, density, verdict
):
    system, trajectory = ramp_run
    report = de_giorgi_certificate(system, trajectory, density)
    steps = np.diff(trajectory.times)
    expected_tol = (
        10.0
        * system.ell_lipschitz
        * float(np.max(np.abs(trajectory.states)))
        * float(np.max(steps))
    )
    assert report.tolerance == pytest.approx(expected_tol, rel=1e-12)
    assert report.passed and abs(report.residual) <= report.tolerance

    _, slowed_system, slowed = reparametrized_runs
    slow_report = de_giorgi_certificate(slowed_system, slowed, density)
    assert slow_report.passed

    mask = (trajectory.times >= 0.5) & (trajectory.times <= 1.5)
    fake = replace(trajectory, states=trajectory.states + 0.05 * mask)
    fake_report = de_giorgi_certificate(system, fake, density)
    assert not fake_report.passed

    wiggly = WigglySystem(base=system, model=MODEL, profile=PROFILE, epsilon=0.05)
    viscous = integrate(wiggly, 0.0)
    scale = max(1.0, float(np.max(np.abs(viscous.energies))))
    balance = energy_balance_residual(wiggly, viscous)
    assert balance <= 1e-6 * scale
    verdict(
        f"energy certificates: ramp residual {report.residual:.2e} "
        f"(tol {report.tolerance:.2e}), reparametrized residual "
        f"{slow_report.residual:.2e}, perturbed residual {fake_report.residual:.2e} "
        f"rejected, viscous balance {balance:.2e} <= {1e-6 * scale:.2e}"
    )


def test_mean_force_gap_matches_analytic_sinusoid_values(verdict):
    def wprime(y):
        return 0.1 * np.sin(2.0 * np.pi * np.asarray(y))

    k_zero = k_of_xi(0.0, wprime)
    gap_at_zero = abs(k_zero - 2.0 * 0.1 / math.pi)
    assert gap_at_zero <= 1e-9

    worst_edge = 0.0
    for xi in (0.1, 0.2, 1.0, -0.1, -0.2, -1.0):
        worst_edge = max(worst_edge, abs(k_of_xi(xi, wprime) - abs(xi)))
    assert worst_edge <= 1e-9

    interior = np.linspace(-0.09, 0.09, 20)
    margins = [k_of_xi(float(xi), wprime) - abs(xi) for xi in interior]
    assert min(margins) > 1e-12
    verdict(
        f"mean force gap: K(0) err {gap_at_zero:.2e}, boundary/exterior err "
        f"{worst_edge:.2e}, interior strictness margin {min(margins):.2e}"
    )


def test_directional_asymmetry_signs_and_exact_threshold_ratio(verdict):
    thetas = np.linspace(0.01, math.atan(10.0) - 0.01, 52)[1:-1]
    for theta in thetas:
        model = SlantedBristle(k=1.0, L_rest=1.0, h=0.05, theta=float(theta))
        coeffs = coefficients(model, PROFILE)
        assert coeffs.rho_plus > -coeffs.rho_minus

    for theta_lim, theta_with, expected in ((0.75, 0.25, 2.0), (1.0, 0.5, 3.0)):
        rho_with, rho_against = nap_coefficients(0.1, theta_lim, theta_with)
        ratio = rho_against / rho_with
        assert ratio == (theta_lim + theta_with) / (theta_lim - theta_with)
        assert ratio == expected
    rho_with, rho_against = nap_coefficients(0.1, 0.9, 0.0)
    assert rho_against / rho_with == 1.0

    for theta_with in np.linspace(0.05, 0.7, 14):
        rho_with, rho_against = nap_coefficients(0.1, 0.75, float(theta_with))
        ratio = rho_against / rho_with
        assert ratio > 1.0
        assert ratio == pytest.approx(
            (0.75 + theta_with) / (0.75 - theta_with), rel=2e-15
        )
    verdict(
        "directional asymmetry: rho_plus > -rho_minus on 50 slanted angles, "
        "threshold ratio exact at binary-exact tilts and within 2e-15 on a "
        "14-point tilt grid"
    )


def test_duality_defects_nonnegative_with_vanishing_contact_cases(density, verdict):
    rng = np.random.default_rng(20260826)
    pairs = 100_000

    viscous = ViscousQuadratic(0.1, 1.0)
    v = rng.uniform(-2.0, 2.0, pairs)
    xi = rng.uniform(-1.0, 1.0, pairs)
    viscous_min = float(np.min(viscous.residual(v, xi)))
    assert viscous_min >= -1e-12

    v = rng.uniform(-2.0, 2.0, pairs)
    xi = rng.uniform(density.interval.lower, density.interval.upper, pairs)
    limit_min = float(np.min(density.residual(v, xi)))
    assert limit_min >= -1e-12

    worst_equality = 0.0
    for v0 in (-1.3, 0.2, 2.0):
        worst_equality = max(
            worst_equality, viscous.residual(v0, viscous.time_scale * v0)
        )
    for xi0 in (-0.09, 0.0, 0.07):
        worst_equality = max(worst_equality, density.residual(0.0, xi0))
    worst_equality = max(worst_equality, density.residual(1.0, density.interval.upper))
    worst_equality = max(worst_equality, density.residual(-1.0, density.interval.lower))
    assert worst_equality <= 1e-12
    verdict(
        f"duality defects: min over 1e5 viscous pairs {viscous_min:.1e}, min over "
        f"1e5 threshold pairs {limit_min:.1e}, worst contact-case defect "
        f"{worst_equality:.1e}"
    )
