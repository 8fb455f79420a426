"""Tests for bristle models: coefficients, perceived slopes, microscale forces."""

import dataclasses
import inspect
import math
import pickle
import warnings

import numpy as np
import pytest
from scipy.optimize import brentq, minimize_scalar

import formula_route
import z_route

from wfl import (
    AngularBristle,
    FourierTerm,
    ConfigError,
    FrictionCoefficients,
    SlantedBristle,
    SolverError,
    SurfaceProfile,
    VerticalBristle,
    axial_tension,
    coefficients,
    epsilon_limit,
    eval_profile,
    invert_contact_map,
    mu_from_omega,
    nap_coefficients,
    perceived_extrema,
    perceived_profile,
    wiggly_energy,
    wiggly_force,
)
from wfl import codegen, models
from wfl.limit_solver import LimitSystem, Ramp, default_grid, elastic_strip, solve_limit
from wfl.models import at_contact, contact_point
from wfl.profiles import derivative_extrema

TWO_PI = 2.0 * math.pi

CANONICAL = SurfaceProfile.sinusoid(0.1)
TWO_MODE = SurfaceProfile((
    FourierTerm(0.1 / TWO_PI, 1),
    FourierTerm(0.05 / (2 * TWO_PI), 2),
))  # slopes in [-0.075, 0.15]


# ---------------------------------------------------------------------------
# perceived slopes, closed form
# ---------------------------------------------------------------------------

def test_mu_identity_when_factor_vanishes():
    assert mu_from_omega(0.1, -0.1, 0.0) == (0.1, -0.1)


def test_mu_slanted_quarter_turn():
    # a = -tan(pi/4) = -1: mu+ = 0.1/0.9, mu- = -0.1/1.1
    mu_plus, mu_minus = mu_from_omega(0.1, -0.1, -1.0)
    assert mu_plus == 0.1 / 0.9
    assert mu_minus == -0.1 / 1.1


def test_mu_angular_quarter_turn():
    # a = cot(pi/4) = 1: mu+ = 0.1/1.1, mu- = -0.1/0.9
    mu_plus, mu_minus = mu_from_omega(0.1, -0.1, 1.0)
    assert mu_plus == 0.1 / 1.1
    assert mu_minus == -0.1 / 0.9


def test_mu_rejects_nonstraddling_slopes():
    with pytest.raises(ConfigError, match="extreme slopes must straddle zero"):
        mu_from_omega(-0.1, -0.2, 0.0)
    with pytest.raises(ConfigError, match="extreme slopes must straddle zero"):
        mu_from_omega(0.2, 0.1, 0.0)


def test_mu_rejects_noninvertible_factor():
    with pytest.raises(ConfigError, match="contact map not invertible"):
        mu_from_omega(0.1, -0.1, -10.0)  # 1 + a*omega+ = 0
    with pytest.raises(ConfigError, match="contact map not invertible"):
        mu_from_omega(0.1, -0.1, 12.0)  # 1 + a*omega- < 0


def test_mu_sign_pattern_random():
    rng = np.random.default_rng(3)
    for _ in range(100):
        omega_plus = rng.uniform(0.01, 0.5)
        omega_minus = -rng.uniform(0.01, 0.5)
        a = rng.uniform(-0.9 / omega_plus, -0.9 / omega_minus)
        mu_plus, mu_minus = mu_from_omega(omega_plus, omega_minus, a)
        assert mu_plus > 0.0 > mu_minus


# ---------------------------------------------------------------------------
# admissibility
# ---------------------------------------------------------------------------

def test_vertical_always_admissible():
    assert VerticalBristle(1.0, 2.0, 1.0).conditions(derivative_extrema(CANONICAL)) == ()


def test_slanted_admissibility_margin():
    ex = derivative_extrema(CANONICAL)
    (cond,) = SlantedBristle(1.0, 20.0, 1.0, 0.5).conditions(ex)
    assert cond.margin > 0.0
    assert cond.margin == pytest.approx(1.0 / math.tan(0.5) - 0.1, rel=1e-12)
    # steep mounting angle: cot(theta) < omega_plus
    (steep,) = SlantedBristle(1.0, 20.0, 1.0, math.atan(1.0 / 0.05)).conditions(ex)
    assert steep.margin < 0.0


def test_angular_admissibility_two_sided():
    ex = derivative_extrema(CANONICAL)
    good = AngularBristle(1.0, math.sqrt(2.0), 1.0, 0.0).conditions(ex)
    assert all(c.margin > 0.0 for c in good)
    assert len(good) == 2
    # nearly flat rod: theta_lim close to 0, cot(theta_lim) huge, tan tiny
    flat = AngularBristle(1.0, 1.0005, 1.0, -0.5)
    labels = [c for c in flat.conditions(ex) if not c.margin > 0.0]
    assert labels
    assert any("omega_minus" in c.label for c in labels)


def test_coefficients_raises_on_inadmissible():
    with pytest.raises(ConfigError, match="model inadmissible for this profile"):
        coefficients(SlantedBristle(1.0, 20.0, 1.0, math.atan(20.0)), CANONICAL)


# ---------------------------------------------------------------------------
# friction coefficients per model
# ---------------------------------------------------------------------------

def test_vertical_canonical_coefficients():
    c = coefficients(VerticalBristle(1.0, 2.0, 1.0), CANONICAL)
    assert c.alpha == 1.0
    assert c.mu_plus == pytest.approx(0.1, rel=1e-15)
    assert c.rho_plus == pytest.approx(0.1, rel=1e-15)
    assert c.rho_minus == pytest.approx(-0.1, rel=1e-15)
    assert c.rho_plus + c.rho_minus == pytest.approx(0.0, abs=1e-16)


def test_vertical_negative_tension_swaps_thresholds():
    # stretched spring, alpha = 2*(0.5-1) = -1, asymmetric profile:
    # thresholds swap magnitudes relative to the compressed case
    c = coefficients(VerticalBristle(2.0, 0.5, 1.0), TWO_MODE)
    assert c.alpha == -1.0
    assert c.rho_plus == pytest.approx(0.075, rel=1e-12)
    assert c.rho_minus == pytest.approx(-0.15, rel=1e-12)


def test_zero_tension_rejected():
    with pytest.raises(ConfigError, match="rest length equals stand-off"):
        VerticalBristle(1.0, 1.0, 1.0)
    with pytest.raises(ConfigError, match="spring is exactly at rest length on the flat"):
        SlantedBristle(1.0, 2.0, 2.0 * math.cos(0.3), 0.3)


def test_slanted_coefficients_closed_form():
    theta = math.pi / 4
    m = SlantedBristle(1.0, 20.0, 1.0, theta)
    c = coefficients(m, CANONICAL)
    cos_t = math.cos(theta)
    assert c.alpha == pytest.approx((1.0 / cos_t) * (20.0 - 1.0 / cos_t), rel=1e-14)
    assert c.mu_plus == pytest.approx(0.1 / (1.0 - 0.1 * math.tan(theta)), rel=1e-13)
    assert c.mu_minus == pytest.approx(-0.1 / (1.0 + 0.1 * math.tan(theta)), rel=1e-13)
    # compressed spring drags more when pushed against the skew direction
    assert c.rho_plus > -c.rho_minus


def test_slanted_reduces_to_vertical_at_tiny_angle():
    v = coefficients(VerticalBristle(1.2, 2.0, 1.0), CANONICAL)
    s = coefficients(SlantedBristle(1.2, 2.0, 1.0, 1e-9), CANONICAL)
    assert s.alpha == pytest.approx(v.alpha, rel=1e-6)
    assert s.mu_plus == pytest.approx(v.mu_plus, rel=1e-6)
    assert s.rho_plus == pytest.approx(v.rho_plus, rel=1e-6)
    assert s.rho_minus == pytest.approx(v.rho_minus, rel=1e-6)


def test_angular_coefficients_closed_form():
    m = AngularBristle(1.0, math.sqrt(2.0), 1.0, 0.0)
    assert m.theta_lim == pytest.approx(math.pi / 4, rel=1e-15)
    c = coefficients(m, CANONICAL)
    assert c.alpha == pytest.approx(math.pi / 4, rel=1e-14)
    assert c.mu_plus == pytest.approx(0.1 / 1.1, rel=1e-13)
    assert c.mu_minus == pytest.approx(-0.1 / 0.9, rel=1e-13)
    # rod leaning forward digs in when pushed backward
    assert c.rho_plus < -c.rho_minus


def test_angular_mu_decreases_with_cot_theta_lim():
    ex = derivative_extrema(CANONICAL)
    theta_lims = np.linspace(math.atan(0.1) + 0.01, math.atan(1.0 / 0.1) - 0.01, 50)
    cots = 1.0 / np.tan(theta_lims)
    order = np.argsort(cots)
    mu_plus_list = []
    mu_minus_list = []
    for theta_lim in theta_lims[order]:
        model = AngularBristle(1.0, 1.0, math.cos(theta_lim), -1.0)
        mp, mm = mu_from_omega(ex.omega_plus, ex.omega_minus, model.slope_factor)
        mu_plus_list.append(mp)
        mu_minus_list.append(mm)
    assert all(b < a for a, b in zip(mu_plus_list, mu_plus_list[1:]))
    assert all(b < a for a, b in zip(mu_minus_list, mu_minus_list[1:]))


def test_coefficient_invariant_enforced():
    with pytest.raises(ConfigError, match="friction thresholds must straddle zero"):
        FrictionCoefficients(1.0, 0.1, -0.1, -0.2, -0.3)
    # k = L_rest = 1e308 overflows alpha, and with it both thresholds, to inf
    with pytest.raises(ConfigError, match="be finite: alpha=inf, rho_minus=-inf, rho_plus=inf"):
        coefficients(VerticalBristle(1e308, 1e308, 1.0), SurfaceProfile.sinusoid(slope=0.1))


def test_geometry_validation():
    with pytest.raises(ConfigError, match="stiffness must be positive"):
        VerticalBristle(-1.0, 2.0, 1.0)
    with pytest.raises(ConfigError, match="stand-off height must be positive"):
        VerticalBristle(1.0, 2.0, 0.0)
    with pytest.raises(ConfigError, match=r"mounting angle must lie in \(0, pi/2\)"):
        SlantedBristle(1.0, 2.0, 1.0, 2.0)  # angle beyond pi/2
    with pytest.raises(ConfigError, match="need 0 < h < L"):
        AngularBristle(1.0, 1.0, 1.5, 0.0)  # rod shorter than stand-off
    with pytest.raises(ConfigError, match="rest angle must lie in"):
        AngularBristle(1.0, math.sqrt(2.0), 1.0, 1.0)  # rest angle above theta_lim
    with pytest.raises(ConfigError, match="rest angle must lie in"):
        AngularBristle(1.0, math.sqrt(2.0), 1.0, -1.6)  # below -pi/2
    for L in (1e-300, 1e300):  # L^2 - h^2 would under- or overflow to 0 or inf
        with pytest.raises(ConfigError, match=r"finite L\^2 - h\^2 > 0"):
            AngularBristle(1.0, L, L * math.cos(1.0), 0.0)


# ---------------------------------------------------------------------------
# contact map inversion and the perceived profile
# ---------------------------------------------------------------------------

def test_invert_contact_map_roundtrip():
    rng = np.random.default_rng(5)
    for a in (-1.0, -0.3, 0.7, 3.0):
        zs = rng.uniform(-2.0, 2.0, size=64)
        ps = invert_contact_map(CANONICAL, a, zs)
        back = ps + a * eval_profile(CANONICAL, ps, 0)
        np.testing.assert_allclose(back, zs, rtol=0.0, atol=1e-12)


def test_invert_contact_map_scalar():
    p = invert_contact_map(CANONICAL, -1.0, 0.37)
    assert isinstance(p, float)
    assert p + (-1.0) * eval_profile(CANONICAL, p, 0) == pytest.approx(0.37, abs=1e-12)


def test_invert_rejects_noninvertible_factor():
    with pytest.raises(ConfigError, match="contact map not invertible"):
        invert_contact_map(CANONICAL, -10.5, 0.5)
    with pytest.raises(ConfigError, match="contact map not invertible"):
        invert_contact_map(CANONICAL, 10.5, 0.5)


def test_perceived_extrema_match_closed_form():
    ex = derivative_extrema(CANONICAL)
    for a in (-5.0, -1.0, -0.2, 0.0, 0.4, 2.0, 7.0):
        mu_oracle = perceived_extrema(CANONICAL, a)
        mu_closed = mu_from_omega(ex.omega_plus, ex.omega_minus, a)
        assert mu_oracle[0] == pytest.approx(mu_closed[0], abs=1e-8)
        assert mu_oracle[1] == pytest.approx(mu_closed[1], abs=1e-8)


def test_perceived_extrema_match_closed_form_asymmetric():
    ex = derivative_extrema(TWO_MODE)
    for a in (-3.0, -0.5, 1.0, 8.0):
        mu_oracle = perceived_extrema(TWO_MODE, a)
        mu_closed = mu_from_omega(ex.omega_plus, ex.omega_minus, a)
        assert mu_oracle[0] == pytest.approx(mu_closed[0], abs=1e-8)
        assert mu_oracle[1] == pytest.approx(mu_closed[1], abs=1e-8)


def test_perceived_profile_periodic_and_consistent():
    grid, heights, slopes = perceived_profile(CANONICAL, -1.0, samples=512)
    assert grid.size == heights.size == slopes.size == 512

    def height(z):
        # W(z) = w(g^{-1}(z)), evaluated pointwise
        return eval_profile(CANONICAL, invert_contact_map(CANONICAL, -1.0, z), 0)

    def slope(z):
        # W'(z) = w'(p) / (1 + a w'(p)) at p = g^{-1}(z), evaluated pointwise
        wp = eval_profile(CANONICAL, invert_contact_map(CANONICAL, -1.0, z), 1)
        return wp / (1.0 - wp)

    # height and slope by tabulation agree with pointwise evaluation
    for idx in (0, 100, 350):
        z = float(grid[idx])
        assert height(z) == pytest.approx(heights[idx], abs=1e-12)
        assert slope(z) == pytest.approx(slopes[idx], abs=1e-12)
    assert height(1.25) == pytest.approx(height(0.25), abs=1e-11)


def test_perceived_near_admissibility_boundary():
    # factor close to the invertibility limit 1/omega+ = 10: steep but valid
    mu_oracle = perceived_extrema(CANONICAL, -9.5)
    mu_closed = mu_from_omega(0.1, -0.1, -9.5)
    assert mu_oracle[0] == pytest.approx(mu_closed[0], rel=1e-7)


# ---------------------------------------------------------------------------
# the contact Newton's bisection sweep: reached only when Newton stalls
# ---------------------------------------------------------------------------

SWEEP_Z = np.random.default_rng(7).uniform(-0.5, 0.5, 32)
SWEEP_CASES = {
    "invert": lambda: invert_contact_map(CANONICAL, -1.0, SWEEP_Z),
    "slanted-energy": lambda: wiggly_energy(
        SlantedBristle(1.0, 3.0, 1.0, math.pi / 6), CANONICAL, 0.05, SWEEP_Z
    ),
}


def patch_profile(monkeypatch, height=None, slope=None):
    """Replace w (order 0) or w' (order 1) in the models' view of the profile;
    return the list of the orders evaluated."""
    exact, orders = models.eval_profile, []

    def patched(profile, x, order=0):
        orders.append(order)
        value = exact(profile, x, order)
        replace = {0: height, 1: slope}[order]
        return value if replace is None else replace(x, value)

    monkeypatch.setattr(models, "eval_profile", patched)
    return orders


@pytest.mark.parametrize("case", list(SWEEP_CASES))
def test_bisection_sweep_recovers_the_root_when_newton_stalls(case, monkeypatch):
    # w' inflated a billionfold: each Newton step moves p by ~1e-9 of the
    # residual, so 100 steps leave it unsolved and the sweep must finish
    want = SWEEP_CASES[case]()
    orders = patch_profile(monkeypatch, slope=lambda x, wp: 1e9 * np.sign(wp))
    got = SWEEP_CASES[case]()
    assert orders.count(0) >= 100 + 80  # Newton ran out, then the sweep ran
    # Newton and the sweep both land on the root to rounding (measured <= 6e-17 apart)
    np.testing.assert_allclose(got, want, rtol=0.0, atol=2e-12 * np.max(np.abs(want)))


@pytest.mark.parametrize("case", ["invert", "angular-force"])
def test_bisection_sweep_raises_when_no_root_exists(case, monkeypatch):
    # w jumps up at 0 and w' reads 0: p + shift(eps w(p / eps)) jumps over
    # z = 0, Newton cycles across the jump, and the sweep closes in on it
    # with the jump as its residual
    patch_profile(
        monkeypatch,
        height=lambda x, w: np.where(x < 0.0, -0.01, 0.01),
        slope=lambda x, wp: np.zeros_like(wp),
    )
    with pytest.raises(SolverError, match="stalled at residual"):
        if case == "invert":
            invert_contact_map(CANONICAL, 1.0, np.array([0.0, 0.2]))
        else:
            wiggly_force(SCALAR_MODELS[2], CANONICAL, 0.05, np.array([0.0, 0.2]))


# two minima of w' 3e-5 apart: the oracle must refine every local extremum of
# its table, not only its sampled argmin, which sits at the other one
NEAR_TIE = SurfaceProfile((
    FourierTerm(-1.088e-4, 55, 5.0108),
    FourierTerm(5.694e-4, 42, 1.5478),
))


def test_perceived_extrema_match_closed_form_on_nearly_tied_extrema():
    model = VerticalBristle(1.0, 2.0, 1.0)
    coeffs = coefficients(model, NEAR_TIE)
    mu_oracle = perceived_extrema(NEAR_TIE, model.slope_factor)
    assert mu_oracle[0] == pytest.approx(coeffs.mu_plus, abs=1e-8)
    assert mu_oracle[1] == pytest.approx(coeffs.mu_minus, abs=1e-8)
    # the minimum of a 2^22-point scan, not the local one at -0.1877693721
    assert mu_oracle[1] == pytest.approx(-0.1878011394, abs=1e-9)


# ---------------------------------------------------------------------------
# the oracle's search: the math-only Brent port against SciPy's bounded method
# ---------------------------------------------------------------------------

def refine_objective(profile, slope_factor, sign):
    """The objective ``perceived_extrema`` hands the search: -sign * W'(z)."""
    def objective(z):
        wp = eval_profile(profile, invert_contact_map(profile, slope_factor, z), 1)
        return -sign * (wp / (1.0 + slope_factor * wp))
    return objective


def brent_draws(count=240):
    """Seeded (profile, slope factor, sign, lower bound, upper bound) of refine
    objectives on random profiles (1-4 modes up to harmonic 16), each on a
    bracket two table steps wide: half of them near the perceived extremum
    g(p*), with the minimum inside, and half at a random z, with the minimum
    mostly at a bound."""
    rng = np.random.default_rng(23)
    step = 1.0 / 4096
    cases = []
    while len(cases) < count:
        terms = tuple(FourierTerm(float(rng.uniform(-0.02, 0.02)), int(rng.integers(1, 17)),
                                  float(rng.uniform(0.0, TWO_PI)))
                      for _ in range(int(rng.integers(1, 5))))
        profile, a = SurfaceProfile(terms), float(rng.choice([-0.5, 0.0, 0.3, 1.0]))
        ex = derivative_extrema(profile)
        try:
            mu_from_omega(ex.omega_plus, ex.omega_minus, a)
        except ConfigError:
            continue
        sign = float(rng.choice([1.0, -1.0]))
        p = ex.location_plus if sign > 0.0 else ex.location_minus
        z0 = p + a * eval_profile(profile, p) if len(cases) % 2 else float(rng.uniform(0.0, 1.0))
        z0 += float(rng.uniform(-step, step))
        cases.append((profile, a, sign, z0 - step, z0 + step))
    return cases


def brent_cases(count=240):
    """The refine objectives of :func:`brent_draws` on their brackets."""
    return [(refine_objective(profile, a, sign), lo, hi)
            for profile, a, sign, lo, hi in brent_draws(count)]


def traced(func):
    """``func`` and the list of the points it is called at."""
    points = []

    def wrapped(x):
        points.append(float(x).hex())
        return func(x)
    return wrapped, points


BRENT_CASES = brent_cases() + [
    (lambda z: 0.0, 0.2, 0.7),  # flat: every parabola degenerates
    (lambda z: z, 0.0, 1.0),  # minimum at the lower bound
    (lambda z: -z, -1.0, 3.0),  # at the upper bound
    (lambda z: np.float64((z - 0.3) ** 2), 0.0, 1.0),  # NumPy float64 values
    (lambda z: np.float64(math.cos(7.0 * z)), 0.0, 2.0),  # several local minima
    (lambda z: abs(z - 0.3), 0.0, 1.0),  # a kink, where parabolas keep failing
]


def test_bounded_brent_matches_scipy_bitwise():
    for func, lo, hi in BRENT_CASES:
        ours, our_points = traced(func)
        theirs, their_points = traced(func)
        least = models._bounded_brent(ours, lo, hi, 1e-12)
        res = minimize_scalar(theirs, bounds=(lo, hi), method="bounded",
                              options={"xatol": 1e-12})
        assert float(least).hex() == float(res.fun).hex()
        assert len(our_points) == res.nfev
        assert our_points == their_points


def test_float_slope_equals_the_array_route_at_every_search_point():
    # perceived_extrema's float Newton against refine_objective's invert_contact_map,
    # at each point the search evaluates
    points = 0
    for profile, a, sign, lo, hi in brent_draws():
        objective, seen = refine_objective(profile, a, sign), []
        models._bounded_brent(lambda z: seen.append((z, objective(z))) or seen[-1][1],
                              lo, hi, 1e-12)
        slope = models._perceived_slope(profile, a)
        assert [(-sign * slope(z)).hex() for z, _ in seen] == [v.hex() for _, v in seen]
        points += len(seen)
    assert points > 3000


def test_float_slope_equals_the_loop_it_replaced_at_every_search_point():
    # the template spliced from fourier_source against the hand-written float loop
    points = 0
    for profile, a, sign, lo, hi in brent_draws():
        slope, loop = models._perceived_slope(profile, a), formula_route.perceived_slope(profile, a)
        seen = []
        models._bounded_brent(lambda z: seen.append(z) or -sign * slope(z), lo, hi, 1e-12)
        assert [slope(z).hex() for z in seen] == [loop(z).hex() for z in seen]
        points += len(seen)
    assert points == 3581


def test_float_slope_hands_an_unsolved_point_to_the_array_route(monkeypatch):
    want = models._perceived_slope(CANONICAL, -1.0)(0.37)
    calls, exact = [], models.invert_contact_map
    monkeypatch.setattr(models, "invert_contact_map",
                        lambda *args: calls.append(args) or exact(*args))
    monkeypatch.setattr(models, "_SLOPE_STEPS", 0)
    assert models._perceived_slope(CANONICAL, -1.0)(0.37).hex() == want.hex()
    assert calls == [(CANONICAL, -1.0, 0.37)]
    # the array route's error reaches the search: w jumps over z = 0 (see
    # test_bisection_sweep_raises_when_no_root_exists)
    patch_profile(monkeypatch, height=lambda x, w: np.where(x < 0.0, -0.01, 0.01),
                  slope=lambda x, wp: np.zeros_like(wp))
    with pytest.raises(SolverError, match="stalled at residual"):
        models._perceived_slope(CANONICAL, 1.0)(0.0)
    assert len(calls) == 2


# ---------------------------------------------------------------------------
# microscale forces
# ---------------------------------------------------------------------------

def test_vertical_force_closed_form():
    m = VerticalBristle(1.0, 2.0, 1.0)
    assert wiggly_force(m, CANONICAL, 0.1, 0.0) == pytest.approx(0.1, rel=1e-14)
    zs = np.linspace(-0.5, 0.5, 101)
    forces = wiggly_force(m, CANONICAL, 0.05, zs)
    w = eval_profile(CANONICAL, zs / 0.05, 0)
    wp = eval_profile(CANONICAL, zs / 0.05, 1)
    np.testing.assert_allclose(forces, (1.0 + 0.05 * w) * wp, rtol=1e-13)


@pytest.mark.parametrize(
    "model",
    [
        VerticalBristle(1.0, 2.0, 1.0),
        SlantedBristle(1.0, 3.0, 1.0, math.pi / 6),
        AngularBristle(1.0, math.sqrt(2.0), 1.0, 0.0),
    ],
    ids=["vertical", "slanted", "angular"],
)
def test_force_is_energy_gradient(model):
    eps = 0.05
    h = 1e-5
    zs = np.linspace(-0.4, 0.6, 41)
    force = wiggly_force(model, CANONICAL, eps, zs)
    e_plus = wiggly_energy(model, CANONICAL, eps, zs + h)
    e_minus = wiggly_energy(model, CANONICAL, eps, zs - h)
    fd = (e_plus - e_minus) / (2.0 * h)
    np.testing.assert_allclose(force, fd, atol=2e-5 * max(1.0, np.max(np.abs(force))))


@pytest.mark.parametrize(
    "model",
    [
        SlantedBristle(1.0, 3.0, 1.0, math.pi / 6),
        AngularBristle(1.0, math.sqrt(2.0), 1.0, 0.0),
    ],
    ids=["slanted", "angular"],
)
def test_force_sup_exact_when_height_vanishes_at_steepest_point(model):
    # a pure sinusoid has zero height exactly where its slope peaks, so the
    # first-order epsilon correction to the force maximum vanishes and
    # sup_z V_eps'(z) equals rho_plus at machine precision for any valid eps
    c = coefficients(model, CANONICAL)
    for eps in (0.02, 0.005):
        zs = np.linspace(0.0, eps, 2001)
        sup_force = float(np.max(wiggly_force(model, CANONICAL, eps, zs)))
        assert sup_force == pytest.approx(c.rho_plus, rel=1e-12)


@pytest.mark.parametrize(
    "model",
    [
        SlantedBristle(1.0, 3.0, 1.0, math.pi / 6),
        AngularBristle(1.0, math.sqrt(2.0), 1.0, 0.0),
    ],
    ids=["slanted", "angular"],
)
def test_force_range_approaches_thresholds(model):
    # when the profile height does not vanish at the steepest point, the
    # force supremum misses rho_plus by O(eps) and the gap shrinks with eps
    phased = SurfaceProfile((
        FourierTerm(0.1 / TWO_PI, 1),
        FourierTerm(0.05 / (2 * TWO_PI), 2, 1.0),
    ))
    c = coefficients(model, phased)
    gaps = []
    for eps in (0.02, 0.005):
        zs = np.linspace(0.0, eps, 4001)
        sup_force = float(np.max(wiggly_force(model, phased, eps, zs)))
        gaps.append(abs(sup_force - c.rho_plus))
    assert gaps[0] < 0.1 * c.rho_plus
    assert gaps[1] < 0.5 * gaps[0]


def test_force_scalar_matches_vector():
    m = SlantedBristle(1.0, 3.0, 1.0, math.pi / 6)
    zs = np.linspace(-0.2, 0.2, 7)
    vec = wiggly_force(m, CANONICAL, 0.05, zs)
    scal = np.array([wiggly_force(m, CANONICAL, 0.05, float(z)) for z in zs])
    np.testing.assert_array_equal(vec, scal)


def test_energy_zero_reference():
    # on the flat (w = 0 at x=0) the stored energy offset vanishes
    for model in (
        VerticalBristle(1.0, 2.0, 1.0),
        SlantedBristle(1.0, 3.0, 1.0, math.pi / 6),
        AngularBristle(1.0, math.sqrt(2.0), 1.0, 0.0),
    ):
        assert wiggly_energy(model, CANONICAL, 0.05, 0.0) == pytest.approx(0.0, abs=1e-12)


def test_epsilon_validity_enforced():
    m = VerticalBristle(1.0, 2.0, 1.0)
    limit = epsilon_limit(m, CANONICAL)
    assert limit == pytest.approx(0.5 / CANONICAL.amplitude_bound, rel=1e-12)
    with pytest.raises(ConfigError, match="exceeds the geometric validity limit"):
        wiggly_force(m, CANONICAL, 2.0 * limit, 0.0)
    with pytest.raises(ConfigError, match="epsilon must be positive and finite"):
        wiggly_force(m, CANONICAL, -0.1, 0.0)


def test_epsilon_limit_orders():
    # tighter clearance for the angular rod than for the vertical spring
    v = epsilon_limit(VerticalBristle(1.0, 2.0, 1.0), CANONICAL)
    a = epsilon_limit(AngularBristle(1.0, math.sqrt(2.0), 1.0, 0.0), CANONICAL)
    assert 0.0 < a < v


# ---------------------------------------------------------------------------
# differential oracle: the per-geometry formulas, written out in full
# ---------------------------------------------------------------------------

ORACLE_MODELS = [
    VerticalBristle(1.0, 2.0, 1.0),
    SlantedBristle(1.0, 3.0, 1.0, math.pi / 6),
    AngularBristle(1.0, math.sqrt(2.0), 1.0, 0.1),
]
ORACLE_IDS = ["vertical", "slanted", "angular"]
ORACLE_EPS = 0.5
ORACLE_Z = np.linspace(-0.3, 0.7, 41)


def oracle_contact(model, profile, eps, z):
    """Tip height and surface slope from the root-tip relation, solved by brentq."""
    def height(p):
        return eps * eval_profile(profile, p / eps, 0)

    if isinstance(model, SlantedBristle):
        def relation(p):
            return p - math.tan(model.theta) * height(p) - z
    elif isinstance(model, AngularBristle):
        L, h = model.L, model.h

        def relation(p):
            return p + math.sqrt(L ** 2 - (h - height(p)) ** 2) - math.sqrt(L ** 2 - h ** 2) - z
    else:
        return height(z), eval_profile(profile, z / eps, 1)
    p = brentq(relation, z - eps, z + eps, xtol=1e-16, rtol=4 * np.finfo(float).eps)
    return height(p), eval_profile(profile, p / eps, 1)


def oracle_force_energy(model, y, wp):
    if isinstance(model, VerticalBristle):
        rest = model.L_rest - model.h
        force = model.k * (rest + y) * wp
        energy = 0.5 * model.k * ((rest + y) ** 2 - rest ** 2)
    elif isinstance(model, SlantedBristle):
        cos_t, tan_t = math.cos(model.theta), math.tan(model.theta)
        rest = model.L_rest - model.h / cos_t
        force = (model.k / cos_t) * (model.L_rest - (model.h - y) / cos_t) * wp / (1.0 - tan_t * wp)
        energy = 0.5 * model.k * ((rest + y / cos_t) ** 2 - rest ** 2)
    else:
        s = math.sqrt(model.L ** 2 - (model.h - y) ** 2)
        theta = math.acos((model.h - y) / model.L)
        force = model.k * (theta - model.theta_rest) * wp / (s * (1.0 + (model.h - y) / s * wp))
        energy = 0.5 * model.k * (
            (theta - model.theta_rest) ** 2 - (model.theta_lim - model.theta_rest) ** 2
        )
    return force, energy


@pytest.mark.parametrize("scalar", [False, True], ids=["array", "scalar"])
@pytest.mark.parametrize("model", ORACLE_MODELS, ids=ORACLE_IDS)
def test_force_and_energy_match_the_written_out_formulas(model, scalar):
    # tolerance: 1e-12 relative to the largest oracle magnitude on the sample
    oracle = np.array([
        oracle_force_energy(model, *oracle_contact(model, TWO_MODE, ORACLE_EPS, float(z)))
        for z in ORACLE_Z
    ])
    if scalar:
        force = np.array([wiggly_force(model, TWO_MODE, ORACLE_EPS, float(z)) for z in ORACLE_Z])
        energy = np.array([wiggly_energy(model, TWO_MODE, ORACLE_EPS, float(z)) for z in ORACLE_Z])
    else:
        force = wiggly_force(model, TWO_MODE, ORACLE_EPS, ORACLE_Z)
        energy = wiggly_energy(model, TWO_MODE, ORACLE_EPS, ORACLE_Z)
    for got, want in ((force, oracle[:, 0]), (energy, oracle[:, 1])):
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * np.max(np.abs(want)))


@pytest.mark.parametrize("model", ORACLE_MODELS, ids=ORACLE_IDS)
def test_shift_vanishes_on_the_flat_with_the_slope_factor_as_its_rate(model):
    # the contact Newton divides by 1 + ds * w': ds must be the y-derivative
    # of the tip shift, and at y = 0 it is the slope factor of mu_from_omega
    shift, _, _ = formula_route.formulas(model, math.sqrt, math.acos)
    if isinstance(model, VerticalBristle):
        assert shift is None
        return
    s0, ds0 = shift(0.0)
    assert s0 == 0.0
    assert ds0 == pytest.approx(model.slope_factor, rel=1e-15)
    step = 1e-6
    for y in (-0.2, -0.05, 0.05, 0.2):
        numeric = (shift(y + step)[0] - shift(y - step)[0]) / (2.0 * step)
        assert shift(y)[1] == pytest.approx(numeric, rel=1e-8)


@pytest.mark.parametrize("model", ORACLE_MODELS, ids=ORACLE_IDS)
def test_margins_and_epsilon_limit_match_the_written_out_formulas(model):
    extrema = derivative_extrema(TWO_MODE)
    bound = TWO_MODE.amplitude_bound
    if isinstance(model, SlantedBristle):
        margins = [1.0 / math.tan(model.theta) - extrema.omega_plus]
        limit = 0.25 * model.h * (1.0 - math.tan(model.theta) * extrema.omega_plus) / bound
    elif isinstance(model, AngularBristle):
        cot_lim = model.h / math.sqrt(model.L ** 2 - model.h ** 2)
        margins = [extrema.omega_minus + math.tan(model.theta_lim), cot_lim - extrema.omega_plus]
        limit = 0.5 * min(model.h, model.L - model.h) / bound
    else:
        margins = []
        limit = 0.5 * model.h / bound
    conditions = model.conditions(extrema)
    assert [c.margin for c in conditions] == margins
    assert all(c.margin > 0.0 for c in conditions)
    assert epsilon_limit(model, TWO_MODE) == limit


# ---------------------------------------------------------------------------
# differential oracle: the integrator's scalar force against the array route
# ---------------------------------------------------------------------------

README_PROFILE = SurfaceProfile.sinusoid(0.1)
TWO_HARMONIC = SurfaceProfile((
    FourierTerm(0.1 / TWO_PI, 1, 0.4),
    FourierTerm(0.03 / (3 * TWO_PI), 3, 1.1),
))
SCALAR_MODELS = [
    VerticalBristle(1.0, 2.0, 1.0),
    SlantedBristle(1.0, 1.0, 0.05, 0.5),
    AngularBristle(1.0, 1.0, math.cos(0.6), 0.0),
]


@pytest.mark.parametrize("route", ["vertical", "slanted", "angular", "invert"])
def test_empty_array_gives_an_empty_array(route):
    # the contact solve reduces over the points: none is no error
    empty = np.array([])
    if route == "invert":
        results = [invert_contact_map(CANONICAL, 0.7, empty)]
    else:
        model = {m.name: m for m in SCALAR_MODELS}[route]
        results = [wiggly_force(model, CANONICAL, 0.05, empty),
                   wiggly_energy(model, CANONICAL, 0.05, empty)]
    for result in results:
        assert isinstance(result, np.ndarray) and result.shape == (0,)


def strip_boundaries(model, profile):
    """Both elastic-strip boundaries of a unit ramp over this contact, at nine times."""
    c = coefficients(model, profile)
    system = LimitSystem(1.0, 0.0, Ramp(duration=2.0), c.rho_plus, c.rho_minus)
    lower, upper = elastic_strip(system, np.linspace(0.0, 2.0, 9))
    return [*lower.tolist(), *upper.tolist()]


def scalar_force(model, profile, epsilon):
    """The geometry's ``shift`` and ``force`` on one float ``p`` with ``math``: (z, V_eps', g'),
    or V_eps' alone for a tip under its root, with w and w' summed as ``eval_profile`` sums
    them."""
    constants = {**model.constants, "sqrt": math.sqrt, "acos": math.acos}
    code = compile(model.shift + model.force, "<shift and force>", "exec")
    terms = formula_route.scalar_terms(profile)

    def at(p):
        x = p / epsilon
        w = wp = 0.0
        for rate, phase, amplitude, slope, _ in terms:
            u = rate * x + phase
            w += amplitude * math.sin(u)
            wp += slope * math.cos(u)
        names = dict(constants, y=epsilon * w, wp=wp)
        exec(code, names)
        if "s" not in names:
            return names["f"]
        return p + names["s"], names["f"], 1.0 + names["ds"] * wp

    return at


@pytest.mark.parametrize("limit", [False, True], ids=["eps0.05", "eps-limit"])
@pytest.mark.parametrize("profile", [README_PROFILE, TWO_HARMONIC], ids=["sinusoid", "two-harmonic"])
@pytest.mark.parametrize("model", SCALAR_MODELS, ids=ORACLE_IDS)
def test_scalar_force_matches_the_array_route(model, profile, limit):
    # the integrator's force in the contact coordinate p, the source text the
    # stepper splices: the array route's text on floats, libm's acos on both
    # routes, so z = g(p), V_eps' and g' bitwise
    eps = epsilon_limit(model, profile) if limit else 0.05
    rng = np.random.default_rng(11)
    ps = [*rng.uniform(-2.0, 3.0, 300).tolist(), *strip_boundaries(model, profile)]
    force = scalar_force(model, profile, eps)
    z, f, _, slope = at_contact(model, profile, eps, np.array(ps))
    # the z route at g(p): its contact Newton recovers p, so the same force,
    # bitwise for a tip under its root (z = p) and otherwise up to the Newton
    # tolerance 1e-13 max(1, |z|) times dV'/dp (measured 3.4e-12 at most here)
    want = np.array([wiggly_force(model, profile, eps, np.array([zi]))[0] for zi in z])
    if model.name == "vertical":
        # there the scalar route returns the force alone, and g' = 1
        assert type(force(ps[0])) is float
        np.testing.assert_array_equal([force(p) for p in ps], f)
        np.testing.assert_array_equal(z, ps)
        np.testing.assert_array_equal(f, want)
        assert slope == 1.0
        return
    got = np.array([force(p) for p in ps])
    assert all(type(v) is float for v in force(ps[0]))
    np.testing.assert_array_equal(got, np.column_stack([z, f, slope]))
    np.testing.assert_allclose(f, want, rtol=0.0, atol=1e-11)
    # g' is the slope of the contact map, and positive at the eps limit too
    step = 1e-7
    central = (at_contact(model, profile, eps, np.array(ps) + step)[0]
               - at_contact(model, profile, eps, np.array(ps) - step)[0]) / (2.0 * step)
    np.testing.assert_allclose(slope, central, rtol=1e-6)
    assert np.min(slope) > 0.0


@pytest.mark.parametrize("model", ORACLE_MODELS + SCALAR_MODELS,
                         ids=[f"{name}-{set_}" for set_ in ("oracle", "scalar") for name in ORACLE_IDS])
def test_formula_text_on_arrays_matches_the_closures_bitwise(model):
    # the text the stepper splices, compiled for arrays with np.sqrt and libm's acos,
    # against the closures it replaced: s, ds, f and e bit for bit
    rng = np.random.default_rng(13)
    y = rng.uniform(-1.0, 1.0, 10_000) * model.clearance(CANONICAL)
    wp = rng.uniform(-0.5, 0.5, 10_000)
    shift, force, energy = formula_route.formulas(model, np.sqrt, models._libm_acos)
    text = model.shift + model.force + model.energy
    if shift is None:
        assert model.shift == ""
        got, want = models._on_arrays(model, text, "y, wp", "f, e")(y, wp), ()
    else:
        got, want = models._on_arrays(model, text, "y, wp", "s, ds, f, e")(y, wp), shift(y)
    want = (*want, force(y, wp), energy(y))
    assert len(got) == len(want)
    for a, b in zip(got, want):
        np.testing.assert_array_equal(np.broadcast_to(a, y.shape).view(np.int64),
                                      np.broadcast_to(b, y.shape).view(np.int64))


def test_at_contact_compiles_once_per_geometry_text():
    # the numbers enter the compiled text as arguments: a second slanted bristle reuses it
    codegen.compiled.cache_clear()
    ps = np.linspace(-0.5, 0.5, 17)
    for model in (SlantedBristle(1.0, 1.0, 0.05, 0.5), SlantedBristle(2.0, 1.5, 0.1, 0.3)):
        at_contact(model, CANONICAL, 0.05, ps)
    assert codegen.compiled.cache_info().misses == 1


@pytest.mark.parametrize("model", SCALAR_MODELS, ids=ORACLE_IDS)
def test_a_second_call_on_the_same_model_builds_no_closure(model, monkeypatch):
    # the compiled functions are built on the first call, once per model instance
    builds = []
    build = models.closure
    monkeypatch.setattr(models, "closure", lambda *args: builds.append(args) or build(*args))
    model = dataclasses.replace(model)
    ps = np.linspace(-0.5, 0.5, 17)
    at_contact(model, CANONICAL, 0.05, ps)
    contact_point(model, CANONICAL, 0.05, ps)
    first = len(builds)
    assert first == (2 if model.shift else 1)
    at_contact(model, CANONICAL, 0.05, ps)
    contact_point(model, CANONICAL, 0.05, ps)
    wiggly_force(model, CANONICAL, 0.05, 0.3)
    assert len(builds) == first


def test_equal_models_with_zeros_of_two_signs_keep_their_own_numbers():
    # 0.0 == -0.0 and the two hash alike, so equal models share no compiled function
    plus, minus = AngularBristle(1.0, 1.0, 0.8, 0.0), AngularBristle(1.0, 1.0, 0.8, -0.0)
    assert plus == minus and hash(plus) == hash(minus)
    ps = np.linspace(-0.5, 0.5, 17)
    at_contact(plus, CANONICAL, 0.05, ps)
    at_contact(minus, CANONICAL, 0.05, ps)
    signs = [math.copysign(1.0, inspect.getclosurevars(m._contact_on_arrays).nonlocals["theta_rest"])
             for m in (plus, minus)]
    assert signs == [1.0, -1.0]


@pytest.mark.parametrize("model", SCALAR_MODELS, ids=ORACLE_IDS)
def test_a_model_pickles_after_its_compiled_functions_are_built(model):
    # the compiled functions stay out of the pickle, and are rebuilt after it
    model = dataclasses.replace(model)
    ps = np.linspace(-0.5, 0.5, 17)
    want = at_contact(model, CANONICAL, 0.05, contact_point(model, CANONICAL, 0.05, ps))
    copy = pickle.loads(pickle.dumps(model))
    assert copy == model
    got = at_contact(copy, CANONICAL, 0.05, contact_point(copy, CANONICAL, 0.05, ps))
    for a, b in zip(got, want):
        np.testing.assert_array_equal(a, b)


@pytest.mark.parametrize("model", SCALAR_MODELS, ids=ORACLE_IDS)
def test_array_route_never_calls_numpy_arccos(model, monkeypatch):
    # NumPy's SIMD arccos can be an ulp off libm's acos, which the scalar route
    # calls; the array route takes libm's acos elementwise instead
    def refuse(*args, **kwargs):
        raise AssertionError("np.arccos on the array route")

    monkeypatch.setattr(np, "arccos", refuse)
    zs = np.linspace(-1.0, 1.0, 257)
    assert np.all(np.isfinite(wiggly_force(model, CANONICAL, 0.05, zs)))
    assert np.all(np.isfinite(wiggly_energy(model, CANONICAL, 0.05, zs)))


def test_scalar_force_hands_a_stalled_newton_to_the_array_route(monkeypatch):
    # the z-route oracle keeps the Newton that the integrator no longer
    # runs: a NaN root never meets its tolerance, so it takes the fallback
    calls = []
    monkeypatch.setattr(models, "wiggly_force", lambda *args: calls.append(args) or 7.0)
    force = z_route.scalar_force(SlantedBristle(1.0, 3.0, 1.0, math.pi / 6), CANONICAL, 0.05)
    assert force(0.3) != 7.0 and not calls
    assert force(math.nan) == 7.0
    assert len(calls) == 1 and math.isnan(calls[0][3])


@pytest.mark.parametrize("limit", [False, True], ids=["eps0.05", "eps-limit"])
@pytest.mark.parametrize("model", SCALAR_MODELS, ids=ORACLE_IDS)
def test_z_route_oracle_matches_the_array_route(model, limit):
    # the oracle's Newton is wiggly_force's, point by point: bitwise
    eps = epsilon_limit(model, TWO_HARMONIC) if limit else 0.05
    zs = [*np.random.default_rng(12).uniform(-2.0, 3.0, 100).tolist(),
          *strip_boundaries(model, TWO_HARMONIC)]
    force = z_route.scalar_force(model, TWO_HARMONIC, eps)
    want = [wiggly_force(model, TWO_HARMONIC, eps, np.array([z]))[0] for z in zs]
    np.testing.assert_array_equal([force(z) for z in zs], want)


@pytest.mark.parametrize("model", SCALAR_MODELS, ids=ORACLE_IDS)
def test_contact_point_inverts_the_contact_map(model):
    zs = np.linspace(-1.0, 2.0, 301)
    ps = contact_point(model, TWO_HARMONIC, 0.05, zs)
    z, _, energy, _ = at_contact(model, TWO_HARMONIC, 0.05, ps)
    np.testing.assert_allclose(z, zs, rtol=0.0, atol=2e-13)
    np.testing.assert_allclose(energy, wiggly_energy(model, TWO_HARMONIC, 0.05, zs),
                               rtol=0.0, atol=1e-13)
    if model.name == "vertical":
        np.testing.assert_array_equal(ps, zs)
    assert type(contact_point(model, TWO_HARMONIC, 0.05, 0.3)) is float


# ---------------------------------------------------------------------------
# napped contacts
# ---------------------------------------------------------------------------

def test_nap_coefficients_example():
    rho_with, rho_against = nap_coefficients(1.0 / 11.0, math.pi / 4, math.pi / 8)
    factor = (1.0 / 11.0) / math.tan(math.pi / 4)
    assert rho_with == pytest.approx(factor * (math.pi / 4 - math.pi / 8), rel=1e-14)
    assert rho_against == pytest.approx(factor * (math.pi / 4 + math.pi / 8), rel=1e-14)
    assert rho_against > rho_with > 0.0


def test_nap_ratio_exact():
    # theta_with = theta_lim / 2 makes the ratio exactly 3
    theta_lim = 0.9
    rho_with, rho_against = nap_coefficients(0.08, theta_lim, theta_lim / 2.0)
    assert rho_against / rho_with == pytest.approx(3.0, rel=1e-14)


def test_nap_domain_errors():
    with pytest.raises(ConfigError, match="need 0 <= theta_with < theta_lim < pi/2"):
        nap_coefficients(0.1, 0.5, 0.6)  # theta_with > theta_lim
    with pytest.raises(ConfigError, match="need 0 <= theta_with < theta_lim < pi/2"):
        nap_coefficients(0.1, 1.8, 0.5)  # theta_lim beyond pi/2
    with pytest.raises(ConfigError, match="mu_plus must be positive"):
        nap_coefficients(-0.1, 0.8, 0.4)
    with pytest.raises(ConfigError, match="need 0 <= theta_with < theta_lim < pi/2"):
        nap_coefficients(0.1, 0.8, -0.1)
    for mu_plus in (math.nan, math.inf):  # would give (nan, nan) or (inf, inf)
        with pytest.raises(ConfigError, match="mu_plus must be positive"):
            nap_coefficients(mu_plus, 1.0, 0.5)


def test_nap_zero_tilt_is_symmetric():
    rho_with, rho_against = nap_coefficients(0.1, 0.8, 0.0)
    assert rho_with == rho_against > 0.0


def test_axial_tension_example():
    m = AngularBristle(1.0, math.sqrt(2.0), 1.0, 0.0)
    c = coefficients(m, CANONICAL)
    t_plus = axial_tension(m, c.rho_plus)
    expected = -(1.0 / math.sqrt(2.0)) * (math.pi / 4.0) + c.rho_plus * math.sqrt(2.0)
    assert t_plus == pytest.approx(expected, rel=1e-12)
    # sliding leftward puts the rod in compression
    t_minus = axial_tension(m, c.rho_minus)
    assert t_minus < t_plus < 0.0


def test_axial_tension_requires_angular():
    with pytest.raises(ConfigError, match="defined for angular bristles only"):
        axial_tension(VerticalBristle(1.0, 2.0, 1.0), 0.1)


# ---------------------------------------------------------------------------
# the library contract: a scalar argument out of range is a ConfigError
# ---------------------------------------------------------------------------

def ramp_trajectory():
    loading = Ramp(q0=0.0, rate=1.0, duration=2.0)
    system = LimitSystem(k_h=1.0, L_h_rest=0.0, loading=loading, rho_plus=0.1, rho_minus=-0.1)
    return solve_limit(system, 0.0)


NAP_MODEL = AngularBristle(k=1.0, L=1.0, h=math.cos(1.0), theta_rest=0.5)

# each of these returned nan, inf, a one-point grid, empty or two-point tables,
# or raised a bare ValueError
CONTRACT_HOLES = {
    "mu_from_omega-nan-factor": (lambda: mu_from_omega(0.1, -0.1, math.nan),
                                 "contact map not invertible"),
    "default_grid-nan-horizon": (lambda: default_grid(math.nan), "horizon must be positive"),
    "default_grid-zero-steps": (lambda: default_grid(1.0, 0), "positive integer number of steps"),
    "dissipated-nan-window": (lambda: ramp_trajectory().dissipated(math.nan, 1.0),
                              "window must have t1 <= t2"),
    "eval_profile-order-4": (lambda: eval_profile(CANONICAL, np.zeros(3), 4),
                             "order must be 0, 1, 2 or 3"),
    **{f"axial_tension-{rho}": (lambda rho=rho: axial_tension(NAP_MODEL, rho), "rho must be finite")
       for rho in (math.nan, math.inf)},
    **{f"perceived_profile-samples-{samples}": (
        lambda samples=samples: perceived_profile(CANONICAL, -0.5, samples=samples),
        "samples must be a positive integer") for samples in (math.nan, 0, -3, 1.5)},
}


@pytest.mark.parametrize("case", list(CONTRACT_HOLES))
def test_out_of_range_argument_is_a_config_error(case):
    call, message = CONTRACT_HOLES[case]
    with pytest.raises(ConfigError, match=message):
        call()


NONFINITE = np.array([math.inf, -math.inf, math.nan])
ELEMENTWISE = {
    "eval_profile": lambda: eval_profile(CANONICAL, NONFINITE, 1),
    "invert_contact_map": lambda: invert_contact_map(CANONICAL, 0.5, NONFINITE),
    **{f"wiggly_force-{model.name}": (lambda model=model: wiggly_force(model, CANONICAL, 0.05,
                                                                        NONFINITE))
       for model in (VerticalBristle(k=1.0, L_rest=2.0, h=1.0),
                     SlantedBristle(k=1.0, L_rest=1.0, h=0.05, theta=0.5),
                     AngularBristle(k=1.0, L=1.0, h=math.cos(0.6), theta_rest=0.0))},
}


@pytest.mark.parametrize("case", list(ELEMENTWISE))
def test_nonfinite_points_give_nan_without_a_warning(case):
    # an elementwise array function propagates nan, and sin or cos of +-inf warned
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        values = ELEMENTWISE[case]()
    assert values.shape == (3,) and np.all(np.isnan(values))
