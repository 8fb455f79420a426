"""Tests for the convex duality layer: K, densities, contact set, certificate."""

import math
import pickle
import sys
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import limit_route
from wfl import codegen
from wfl.errors import ConfigError
from wfl.limit_solver import LimitSystem, Ramp, SinusoidLoading, elastic_strip, solve_limit
from wfl.models import (
    AngularBristle, VerticalBristle, SlantedBristle, coefficients, invert_contact_map,
)
from wfl.profiles import TWO_PI, FourierTerm, SurfaceProfile, eval_profile, fourier_sums
from wfl.variational import (
    CertificateReport,
    ElasticInterval,
    ViscousQuadratic,
    de_giorgi_certificate,
    k_of_xi,
    limit_density,
)

RHO = 0.1
OMEGA = ElasticInterval(lower=-RHO, upper=RHO)


def sin_force(y):
    """Symmetric one-period force profile with range [-0.1, 0.1]."""
    return RHO * np.sin(TWO_PI * np.asarray(y, dtype=float))


def sampled_wprime(density):
    """W'(y) of ``density`` through the contact-map inversion: the sampled route, for oracles."""

    def wprime(y):
        p = invert_contact_map(density.profile, density.slope_factor, y)
        wp = eval_profile(density.profile, p, 1)
        return density.alpha * wp / (1.0 + density.slope_factor * wp)

    return wprime


def sinusoid_density(slope=RHO):
    """Density of W'(y) = slope * cos(2 pi y): a vertical bristle with alpha = 1, a = 0."""
    return limit_density(VerticalBristle(k=1.0, L_rest=2.0, h=1.0), SurfaceProfile.sinusoid(slope))


def canonical_ramp_system(rate=1.0, q0=0.0, duration=2.0):
    return LimitSystem(
        k_h=1.0,
        L_h_rest=0.0,
        loading=Ramp(q0=q0, rate=rate, duration=duration),
        rho_plus=RHO,
        rho_minus=-RHO,
    )


class TestElasticInterval:
    def test_requires_straddling_zero(self):
        with pytest.raises(ConfigError):
            ElasticInterval(lower=0.1, upper=0.2)
        with pytest.raises(ConfigError):
            ElasticInterval(lower=-0.1, upper=0.0)
        with pytest.raises(ConfigError):
            ElasticInterval(lower=-math.inf, upper=0.1)

    def test_membership_and_clip(self):
        # clip fixes the members, boundary included, and moves the rest onto it
        members = np.array([-RHO, 0.0, RHO])
        np.testing.assert_array_equal(OMEGA.clip(members), members)
        assert OMEGA.clip(RHO + 1e-12) == RHO
        np.testing.assert_allclose(
            OMEGA.clip(np.array([-1.0, 0.05, 1.0])), [-RHO, 0.05, RHO]
        )


class TestIndicatorConjugate:
    """The indicator part of ``LimitWithK.value``: zero cost at rest on the
    closed interval, +inf off it."""

    def test_interior_and_boundary_are_free(self):
        density = sinusoid_density()
        lo, hi = density.interval.lower, density.interval.upper
        for xi in (0.0, lo, hi):
            assert density.value(0.0, xi) == 0.0
        np.testing.assert_array_equal(density.value(0.0, np.array([lo, 0.0, hi])), 0.0)

    def test_exterior_hits_the_sentinel(self):
        density = sinusoid_density()
        assert density.value(0.0, RHO + 1e-9) == math.inf
        assert density.value(0.0, -RHO - 1e-9) == math.inf
        np.testing.assert_array_equal(
            density.value(0.0, np.array([-RHO - 1e-9, RHO + 1e-9])), math.inf
        )


class TestKOfXi:
    def test_symmetric_profile_at_zero(self):
        # int_0^1 |0.1 sin(2 pi y)| dy = 2 * 0.1 / pi
        assert k_of_xi(0.0, sin_force) == pytest.approx(2.0 * RHO / math.pi, abs=1e-12)

    def test_collapses_to_abs_outside_force_range(self):
        assert k_of_xi(0.2, sin_force) == 0.2
        assert k_of_xi(-0.2, sin_force) == 0.2
        assert k_of_xi(1.0, sin_force) == 1.0
        assert k_of_xi(RHO, sin_force) == pytest.approx(RHO, abs=1e-12)
        assert k_of_xi(-RHO, sin_force) == pytest.approx(RHO, abs=1e-12)

    def test_strictly_dominates_abs_inside(self):
        delta = 0.05 * (OMEGA.upper - OMEGA.lower)
        for xi in np.linspace(OMEGA.lower + delta, OMEGA.upper - delta, 20):
            assert k_of_xi(float(xi), sin_force) > abs(xi) + 1e-12

    def test_matches_brute_force_oracle(self):
        def skewed(y):
            y = np.asarray(y, dtype=float)
            return 0.07 * np.sin(TWO_PI * y) + 0.03 * np.sin(2.0 * TWO_PI * y + 0.8)

        ys = np.linspace(0.0, 1.0, 2**20 + 1)
        for xi in (-0.04, 0.0, 0.013, 0.06):
            brute = float(np.trapezoid(np.abs(xi - skewed(ys)), ys))
            assert k_of_xi(xi, skewed) == pytest.approx(brute, abs=1e-8)

    def test_even_in_xi_for_odd_profile(self):
        for xi in (0.01, 0.04, 0.09):
            assert k_of_xi(xi, sin_force) == pytest.approx(
                k_of_xi(-xi, sin_force), abs=1e-12
            )

    def test_two_crossings_in_one_scan_cell(self):
        # phase 0.3 puts the extrema of W' inside scan cells; a level within
        # ~1e-5 relative of a threshold crosses W' twice inside one cell
        model = VerticalBristle(k=1.0, L_rest=2.0, h=1.0)
        density = limit_density(model, SurfaceProfile.sinusoid(RHO, phase=0.3))
        wprime = sampled_wprime(density)
        for k in range(3, 10):
            for xi in (RHO * (1.0 - 10.0**-k), -RHO * (1.0 - 10.0**-k)):
                closed = (2.0 / math.pi) * (math.sqrt(RHO**2 - xi**2) + xi * math.asin(xi / RHO))
                assert k_of_xi(xi, wprime) == pytest.approx(closed, rel=0.0, abs=2e-13)
                assert density.k(xi) == pytest.approx(closed, rel=0.0, abs=2e-13)

    def test_without_scipy_is_a_one_line_config_error(self, monkeypatch):
        # the product depends on NumPy alone; SciPy comes with the 'test' extra
        for name in ["scipy", *(m for m in sys.modules if m.startswith("scipy."))]:
            monkeypatch.setitem(sys.modules, name, None)
        with pytest.raises(ConfigError, match=r"needs SciPy, from the 'test' extra") as caught:
            k_of_xi(0.0, sin_force)
        assert "\n" not in str(caught.value)


class TestViscousQuadratic:
    def test_scale_validation(self):
        with pytest.raises(ConfigError):
            ViscousQuadratic(epsilon=0.0)
        with pytest.raises(ConfigError):
            ViscousQuadratic(epsilon=0.1, gamma=-1.0)

    def test_equality_case_on_the_flow_rule(self):
        density = ViscousQuadratic(epsilon=0.05, gamma=1.3)
        for v in (-2.0, -0.3, 0.0, 1.7):
            xi = density.time_scale * v
            assert density.residual(v, xi) <= 1e-12

    def test_residual_equals_direct_defect(self):
        density = ViscousQuadratic(epsilon=0.1)
        rng = np.random.default_rng(7)
        v = rng.uniform(-2.0, 2.0, 500)
        xi = rng.uniform(-0.5, 0.5, 500)
        direct = density.value(v, xi) - v * xi
        np.testing.assert_allclose(density.residual(v, xi), direct, atol=1e-14)

    def test_random_pairs_nonnegative(self):
        density = ViscousQuadratic(epsilon=0.05)
        rng = np.random.default_rng(11)
        v = rng.uniform(-3.0, 3.0, 20000)
        xi = rng.uniform(-0.3, 0.3, 20000)
        direct = density.value(v, xi) - v * xi
        assert float(np.min(direct)) >= -1e-12
        assert float(np.min(density.residual(v, xi))) >= 0.0


class TestLimitWithK:
    # the thresholds of sinusoid_density() are 0.1 rounded down by one ulp
    def test_sticking_contact_is_exact(self):
        density = sinusoid_density()
        rho = density.interval.upper
        for xi in (-rho, -0.03, 0.0, 0.08, rho):
            assert density.residual(0.0, xi) == 0.0

    def test_sliding_contact_is_exact(self):
        density = sinusoid_density()
        rho = density.interval.upper
        assert density.residual(1.0, rho) <= 1e-12
        assert density.residual(-1.0, -rho) <= 1e-12
        assert density.residual(3.5, rho) <= 1e-12

    def test_indicator_fires_outside(self):
        density = sinusoid_density()
        assert density.value(1.0, RHO + 1e-9) == math.inf
        assert density.residual(-2.0, RHO + 1e-9) == math.inf

    def test_random_pairs_nonnegative(self):
        density = sinusoid_density()
        rng = np.random.default_rng(23)
        v = rng.uniform(-2.0, 2.0, 20000)
        xi = rng.uniform(-0.2, 0.2, 20000)
        assert float(np.min(density.residual(v, xi))) >= -1e-12

    def test_array_calls_equal_scalar_calls_bitwise(self):
        density = sinusoid_density()
        lo, hi = density.interval.lower, density.interval.upper
        xi = np.array([
            [lo, 0.5 * lo, -0.03, 0.0, 0.02, 0.07, hi],
            [np.nextafter(lo, -1.0), np.nextafter(hi, 1.0), 2.0 * lo, 2.0 * hi, hi, lo, 0.01],
        ])
        v = np.array([[0.0, 1.3, -0.4, 0.0, 2.0, -1.7, 1.0],
                      [0.0, 0.0, 1.0, -1.0, -2.5, 0.0, 0.3]])
        for method in (density.value, density.residual):
            table = method(v, xi)
            assert table.shape == xi.shape
            scalars = [method(float(a), float(b)) for a, b in zip(v.ravel(), xi.ravel())]
            assert all(type(s) is float for s in scalars)
            assert np.array_equal(table.ravel(), scalars)
        # just outside either threshold the indicator fires, even at rest
        assert np.all(np.isinf(density.value(v, xi)[1, :4]))
        # broadcasting: one velocity against a row of forces, and the reverse
        assert np.array_equal(density.residual(1.3, xi[0]), density.residual(np.full(7, 1.3), xi[0]))
        assert np.array_equal(density.value(v[0], 0.02), density.value(v[0], np.full(7, 0.02)))


# W' = 0.1 cos(2 pi y) + 0.06 cos(6 pi y + 0.4) crosses levels near zero six times
MULTI_CROSSING = SurfaceProfile((
    FourierTerm(0.1 / TWO_PI, 1),
    FourierTerm(0.06 / (3 * TWO_PI), 3, 0.4),
))
ORACLE_MODELS = {
    "vertical": VerticalBristle(k=1.0, L_rest=2.0, h=1.0),
    "slanted": SlantedBristle(k=1.0, L_rest=2.0, h=1.0, theta=0.3),
    "angular": AngularBristle(k=1.0, L=1.0, h=0.5, theta_rest=0.1),
    "stretched": VerticalBristle(k=2.0, L_rest=0.5, h=1.0),  # alpha = -1
}
# harmonics 1 and 5: w'' has ten roots, so the w' table has eleven monotone pieces
ELEVEN_PIECES = SurfaceProfile((
    FourierTerm(0.1 / TWO_PI, 1),
    FourierTerm(0.05 / (5 * TWO_PI), 5, 0.7),
))


class TestExactK:
    """``LimitWithK.k`` against the quadrature oracle on the sampled W'."""

    TOL = 1e-12

    @pytest.mark.parametrize("profile", [SurfaceProfile.sinusoid(0.1), MULTI_CROSSING],
                             ids=["sinusoid", "multi-crossing"])
    @pytest.mark.parametrize("name", sorted(ORACLE_MODELS))
    def test_matches_quadrature_oracle(self, name, profile):
        density = limit_density(ORACLE_MODELS[name], profile)
        lo, hi = density.interval.lower, density.interval.upper
        xis = np.concatenate((
            np.linspace(lo, hi, 9)[1:-1],
            [0.0, lo * (1.0 - 1e-9), hi * (1.0 - 1e-9), lo, hi, 2.0 * lo, 2.0 * hi],
        ))
        exact = density.k(xis)
        oracle = np.array([k_of_xi(x, sampled_wprime(density)) for x in xis])
        np.testing.assert_allclose(exact, oracle, rtol=0.0, atol=self.TOL)
        assert np.array_equal(exact, [density.k(float(x)) for x in xis])

    def test_profile_crosses_levels_more_than_twice(self):
        density = limit_density(ORACLE_MODELS["vertical"], MULTI_CROSSING)
        signs = np.sign(sampled_wprime(density)(np.linspace(0.0, 1.0, 4097)))
        assert np.count_nonzero(signs[1:] != signs[:-1]) == 6

    def test_sinusoid_closed_form_near_thresholds(self):
        # K of rho cos(2 pi y + phase) is (2/pi)(sqrt(rho^2 - xi^2) + xi asin(xi/rho)) for
        # any phase; phase 0.3 puts the extrema of w' inside grid cells, where a
        # level just below an extremum crosses twice within one cell
        density = limit_density(ORACLE_MODELS["vertical"], SurfaceProfile.sinusoid(RHO, phase=0.3))
        near = RHO * (1.0 - np.logspace(-9, -3, 13))
        xis = np.concatenate((near, -near, np.linspace(-0.09, 0.09, 19)))
        closed = (2.0 / math.pi) * (np.sqrt(RHO**2 - xis**2) + xis * np.arcsin(xis / RHO))
        np.testing.assert_allclose(density.k(xis), closed, rtol=0.0, atol=self.TOL)

    def test_level_on_a_table_node(self):
        # alpha = 1 and a = 0 make the level w' = xi exact, and p = 5/1024 is
        # a node of the w' table
        density = sinusoid_density()
        xi = eval_profile(density.profile, 5.0 / 1024.0, 1)
        oracle = k_of_xi(xi, sampled_wprime(density))
        assert density.k(xi) == pytest.approx(oracle, abs=self.TOL)

    def test_array_shape_is_kept(self):
        density = sinusoid_density()
        xis = np.array([[0.0, 0.05], [-0.2, 0.03]])
        table = density.k(xis)
        assert table.shape == (2, 2)
        assert table[1, 0] == 0.2
        assert table[0, 0] == pytest.approx(2.0 * RHO / math.pi, abs=self.TOL)


class TestScalarRoute:
    """A Python float takes ``math`` only; the array route is its oracle, bit for bit."""

    @staticmethod
    def edge_xis(density, count, seed):
        lo, hi = density.interval.lower, density.interval.upper
        edges = [lo, hi, 0.0, -0.0, math.inf, -math.inf, math.nan]
        edges += [np.nextafter(t, side) for t in (lo, hi) for side in (-math.inf, math.inf)]
        inside = np.random.default_rng(seed).uniform(lo, hi, count)
        return np.concatenate((inside, edges))

    @pytest.mark.parametrize("profile", [SurfaceProfile.sinusoid(0.1), MULTI_CROSSING,
                                         ELEVEN_PIECES],
                             ids=["sinusoid", "multi-crossing", "eleven-pieces"])
    @pytest.mark.parametrize("name", sorted(ORACLE_MODELS))
    def test_k_equals_array_route_bitwise(self, name, profile):
        density = limit_density(ORACLE_MODELS[name], profile)
        xis = self.edge_xis(density, 2000, seed=31)
        scalars = [density.k(x) for x in xis.tolist()]
        assert all(type(s) is float for s in scalars)
        assert np.array_equal(density.k(xis), scalars, equal_nan=True)

    # 1-4 terms up to harmonic 16, each of slope amplitude 0.005-0.1: admissible for
    # all three geometries (|w'| <= 0.4 < cot(theta_lim) = 0.577 for the angular one)
    TERMS = st.lists(st.builds(
        lambda slope, harmonic, phase: FourierTerm(slope / (TWO_PI * harmonic), harmonic, phase),
        st.floats(0.005, 0.1) | st.floats(-0.1, -0.005), st.integers(1, 16),
        st.floats(0.0, TWO_PI)), min_size=1, max_size=4)

    @settings(max_examples=80, deadline=None, derandomize=True, database=None)
    @given(terms=TERMS, name=st.sampled_from(["vertical", "slanted", "angular"]), data=st.data())
    def test_compiled_k_equals_the_loop_route_bitwise(self, terms, name, data):
        try:
            density = limit_density(ORACLE_MODELS[name], SurfaceProfile(tuple(terms)))
        except ConfigError:  # terms that cancel
            assume(False)
        lo, hi = density.interval.lower, density.interval.upper
        edges = [lo, hi, math.nextafter(lo, 0.0), math.nextafter(hi, 0.0), 0.0, -0.0,
                 math.nan, math.inf, -math.inf, 5e-324]
        for xi in edges + data.draw(st.lists(st.floats(lo, hi), max_size=40)):
            assert density.k(xi).hex() == limit_route.scalar_k(density, xi).hex()

    def test_fresh_densities_share_one_compile_per_term_count(self):
        # the numbers enter as arguments, so the text depends on the number of terms alone
        first = SurfaceProfile((FourierTerm(0.01, 1), FourierTerm(0.002, 3, 0.4),
                                FourierTerm(-0.001, 4, 1.1), FourierTerm(0.0005, 7, 2.0)))
        second = SurfaceProfile((FourierTerm(0.012, 2, 0.3), FourierTerm(-0.001, 5),
                                 FourierTerm(0.0008, 6, 0.9), FourierTerm(0.0004, 9, 2.5)))
        # the profile's sums (eval_profile's and curvature_roots') compile once per term
        # count too, and bind once per profile: warmed on both, they leave K's compiles
        for profile in (first, second):
            limit_density(ORACLE_MODELS["slanted"], profile)._table
        codegen.compiled.cache_clear()
        limit_density(ORACLE_MODELS["slanted"], first)
        assert codegen.compiled.cache_info().misses == 0
        for profile in (first, second):
            for _ in range(20):
                limit_density(ORACLE_MODELS["slanted"], profile).k(0.01)
            assert codegen.compiled.cache_info().misses == 1

    def test_an_equal_profile_compiles_nothing(self):
        # equal by value: a zero phase of the other sign, a NumPy integer harmonic
        first = SurfaceProfile((FourierTerm(0.012, 2, 0.0), FourierTerm(-0.001, 5, 0.7)))
        second = SurfaceProfile((FourierTerm(0.012, np.int64(2), -0.0), FourierTerm(-0.001, 5, 0.7)))

        def misses(profile):
            density = limit_density(ORACLE_MODELS["angular"], profile)
            density.k(0.01), density.k(np.linspace(-0.02, 0.02, 9))
            for order in range(4):
                eval_profile(profile, 0.25, order)
            return codegen.compiled.cache_info().misses

        assert misses(first) == misses(second)
        assert fourier_sums(first, "W, WP") is fourier_sums(second, "W, WP")

    def test_density_pickles_after_a_float_k(self):
        density = limit_density(ORACLE_MODELS["angular"], MULTI_CROSSING)
        k = density.k(0.01)
        copy = pickle.loads(pickle.dumps(density))
        assert copy == density and "_scalar_k" not in copy.__dict__
        assert copy.k(0.01).hex() == k.hex()

    def test_eleven_pieces_profile_has_eight_or_more(self):
        # eight or more summed columns is where NumPy's pairwise sum reorders
        density = limit_density(ORACLE_MODELS["vertical"], ELEVEN_PIECES)
        assert density._table[2].size >= 8

    @pytest.mark.parametrize("name", sorted(ORACLE_MODELS))
    def test_value_and_residual_of_two_floats_match_broadcast_call(self, name):
        density = limit_density(ORACLE_MODELS[name], MULTI_CROSSING)
        xi = self.edge_xis(density, 300, seed=37)
        v = np.random.default_rng(41).uniform(-2.0, 2.0, xi.size)
        v[:4] = (0.0, -0.0, math.inf, math.nan)
        for method in (density.value, density.residual):
            scalars = [method(a, b) for a, b in zip(v.tolist(), xi.tolist())]
            assert all(type(s) is float for s in scalars)
            table, row = method(v, xi), method(1.3, xi)
            assert np.array_equal(table, scalars, equal_nan=True)
            # one float against an array, broadcast
            assert np.array_equal(row, [method(1.3, b) for b in xi.tolist()], equal_nan=True)

    def test_nan_level_gives_nan_and_infinite_pairs_warn_nothing(self):
        # value(v, nan) was +inf on both routes, and the array route warned on
        # 0 * K(inf) in value and on inf - inf in residual (warnings are errors here)
        density = sinusoid_density()
        v = [1.0, 0.0, math.inf, 0.0, 1.0, math.inf]
        xi = [math.nan, math.nan, math.nan, math.inf, math.inf, 0.05]
        values = [math.nan, math.nan, math.nan, math.inf, math.inf, math.inf]
        for route in (density.value(np.array(v), np.array(xi)), list(map(density.value, v, xi))):
            assert np.array_equal(route, values, equal_nan=True)
        for route in (density.residual(np.array(v), np.array(xi)),
                      list(map(density.residual, v, xi))):
            assert np.all(np.isnan(route))


class TestLimitDensityFactory:
    def test_vertical_model_reproduces_analytic_density(self):
        # unit tension scale and a = 0 make the one-period force profile a
        # pure 0.1-sinusoid up to a phase, which K cannot see
        model = VerticalBristle(k=1.0, L_rest=2.0, h=1.0)
        profile = SurfaceProfile.sinusoid(slope=0.1)
        density = limit_density(model, profile)
        coeffs = coefficients(model, profile)
        assert density.interval.lower == coeffs.rho_minus
        assert density.interval.upper == coeffs.rho_plus
        assert density.k(0.0) == pytest.approx(2.0 * RHO / math.pi, abs=1e-12)
        assert density.k(density.interval.upper) == abs(density.interval.upper)

    def test_slanted_model_density_is_consistent(self):
        model = SlantedBristle(k=1.0, L_rest=2.0, h=1.0, theta=0.3)
        profile = SurfaceProfile.sinusoid(slope=0.1)
        density = limit_density(model, profile)
        coeffs = coefficients(model, profile)
        assert density.interval.lower < 0.0 < density.interval.upper
        assert density.k(coeffs.rho_plus) == pytest.approx(coeffs.rho_plus, abs=1e-12)
        assert density.k(0.0) > 0.0
        # sampler range must match the thresholds it claims
        ys = np.linspace(0.0, 1.0, 4097)
        forces = sampled_wprime(density)(ys)
        assert float(np.max(forces)) == pytest.approx(coeffs.rho_plus, abs=1e-9)
        assert float(np.min(forces)) == pytest.approx(coeffs.rho_minus, abs=1e-9)


class TestCertificate:
    def setup_method(self):
        self.system = canonical_ramp_system()
        self.trajectory = solve_limit(self.system, 0.0)
        self.density = sinusoid_density()

    def test_ramp_solution_passes(self):
        report = de_giorgi_certificate(self.system, self.trajectory, self.density)
        assert isinstance(report, CertificateReport)
        assert report.passed
        assert report.chi_time is None
        assert abs(report.residual) <= report.tolerance
        scale = max(1.0, float(np.max(np.abs(self.trajectory.energies))))
        assert abs(report.residual) <= 1e-6 * scale

    def test_tolerance_follows_grid_and_load(self):
        report = de_giorgi_certificate(self.system, self.trajectory, self.density)
        dt = float(np.max(np.diff(self.trajectory.times)))
        zmax = float(np.max(np.abs(self.trajectory.states)))
        assert report.tolerance == pytest.approx(
            10.0 * self.system.ell_lipschitz * zmax * dt
        )

    def test_sticking_under_constant_load_is_exact(self):
        system = canonical_ramp_system(rate=0.0, q0=0.05, duration=1.0)
        trajectory = solve_limit(system, 0.03)
        report = de_giorgi_certificate(system, trajectory, self.density)
        assert report.residual == 0.0
        assert report.tolerance == 0.0
        assert report.passed

    def test_perturbed_trajectory_fails_without_indicator(self):
        states = self.trajectory.states.copy()
        window = (self.trajectory.times >= 0.5) & (self.trajectory.times <= 1.5)
        states[window] += 0.05
        perturbed = replace(self.trajectory, states=states)
        report = de_giorgi_certificate(self.system, perturbed, self.density)
        assert not report.passed
        assert report.chi_time is None
        assert report.residual > report.tolerance

    def test_confinement_violation_fires_indicator(self):
        states = self.trajectory.states.copy()
        window = self.trajectory.times >= 0.5
        states[window] += 0.3
        violating = replace(self.trajectory, states=states)
        report = de_giorgi_certificate(self.system, violating, self.density)
        assert not report.passed
        assert report.residual == math.inf
        assert report.chi_time == pytest.approx(0.5, abs=1e-3)

    def test_threshold_mismatch_rejected(self):
        wrong = sinusoid_density(0.2)
        with pytest.raises(ConfigError):
            de_giorgi_certificate(self.system, self.trajectory, wrong)


class RecordingK:
    """Stands in for a :class:`LimitWithK` in the certificate and records every array K receives."""

    def __init__(self, density):
        self.interval = density.interval
        self._k = density.k
        self.calls = []

    def k(self, xi):
        self.calls.append(np.array(xi))
        return self._k(xi)


CERTIFICATE_LOADINGS = {
    "ramp": Ramp(rate=1.0, duration=2.0),
    "sinusoid": SinusoidLoading(amplitude=0.5, frequency=1.0, duration=2.0),
    # the load never reaches a threshold: the state never moves
    "pinned": SinusoidLoading(amplitude=0.02, frequency=1.0, duration=2.0),
}


class TestCertificateRoute:
    """The certificate, which calls K only where z moves, against the all-midpoint route."""

    @staticmethod
    def setting(geometry, loading):
        model = ORACLE_MODELS[geometry]
        density = limit_density(model, SurfaceProfile.sinusoid(slope=0.1))
        system = LimitSystem(
            k_h=1.0, L_h_rest=0.0, loading=CERTIFICATE_LOADINGS[loading],
            rho_plus=density.interval.upper, rho_minus=density.interval.lower,
        )
        return system, solve_limit(system, 0.0), density

    @staticmethod
    def assert_matches_route(system, trajectory, density):
        """Bitwise equal residuals, and K called once, on the moving midpoints only."""
        recorded, every = RecordingK(density), RecordingK(density)
        report = de_giorgi_certificate(system, trajectory, recorded)
        oracle = limit_route.certificate_residual(system, trajectory, every)
        assert report.residual.hex() == oracle.hex()
        moving = np.flatnonzero(np.diff(trajectory.states))
        if moving.size:
            assert len(recorded.calls) == 1
            assert np.array_equal(recorded.calls[0], every.calls[0][moving])
        else:
            assert recorded.calls == []
        return report

    @pytest.mark.parametrize("geometry", ["vertical", "slanted", "angular"])
    @pytest.mark.parametrize("loading", ["ramp", "sinusoid"])
    def test_solutions_match_the_all_midpoint_route(self, geometry, loading):
        system, trajectory, density = self.setting(geometry, loading)
        stuck = np.count_nonzero(np.diff(trajectory.states) == 0.0)
        assert 0 < stuck < trajectory.states.size - 1
        assert self.assert_matches_route(system, trajectory, density).passed

    def test_perturbed_trajectory_inside_the_strip_matches(self):
        system, trajectory, density = self.setting("slanted", "sinusoid")
        lower, upper = elastic_strip(system, trajectory.times)
        rng = np.random.default_rng(26)
        kick = 0.3 * (upper - lower) * rng.uniform(-1.0, 1.0, lower.size)
        window = (trajectory.times >= 0.5) & (trajectory.times <= 1.2)
        states = np.clip(trajectory.states + np.where(window, kick, 0.0), lower, upper)
        report = self.assert_matches_route(system, replace(trajectory, states=states), density)
        assert report.chi_time is None and not report.passed

    def test_trajectory_that_never_moves_calls_no_k(self):
        system, trajectory, density = self.setting("vertical", "pinned")
        assert np.all(trajectory.states == 0.0)
        assert self.assert_matches_route(system, trajectory, density).passed
