"""Tests for periodic profiles: evaluation, scaling, slope extrema.

Expected values come from independent routes: central finite differences
for derivatives and a brute-force million-point scan for extrema.
"""

import math

import numpy as np
import pytest

from wfl import (
    DegenerateProfileError,
    FourierTerm,
    InvalidScaleError,
    SurfaceProfile,
    derivative_extrema,
    eval_profile,
)

TWO_PI = 2.0 * math.pi


def random_profile(rng):
    n_terms = rng.integers(1, 5)
    terms = []
    for _ in range(n_terms):
        amp = rng.uniform(0.001, 0.02) * rng.choice([-1.0, 1.0])
        harmonic = int(rng.integers(1, 9))
        phase = rng.uniform(0.0, TWO_PI)
        terms.append(FourierTerm(amp, harmonic, phase))
    return SurfaceProfile(tuple(terms))


# ---------------------------------------------------------------------------
# construction and validation
# ---------------------------------------------------------------------------

def test_sinusoid_constructor_slope_amplitude():
    p = SurfaceProfile.sinusoid(0.1)
    assert len(p.terms) == 1
    assert p.terms[0].harmonic == 1
    # derivative amplitude recovers the requested slope up to 1 ulp
    assert eval_profile(p, 0.0, 1) == pytest.approx(0.1, rel=1e-15)


def test_sinusoid_rejects_nonpositive_slope():
    with pytest.raises(InvalidScaleError):
        SurfaceProfile.sinusoid(0.0)
    with pytest.raises(InvalidScaleError):
        SurfaceProfile.sinusoid(-0.1)


@pytest.mark.parametrize("harmonic", [0, -1, 65, 1.5, True])
def test_bad_harmonics_rejected(harmonic):
    with pytest.raises(InvalidScaleError):
        FourierTerm(0.01, harmonic)


def test_zero_profile_rejected():
    with pytest.raises(InvalidScaleError):
        SurfaceProfile((FourierTerm(0.0, 1), FourierTerm(0.0, 2)))
    with pytest.raises(InvalidScaleError):
        SurfaceProfile(())


def test_nonfinite_amplitude_rejected():
    with pytest.raises(InvalidScaleError):
        FourierTerm(math.nan, 1)
    with pytest.raises(InvalidScaleError):
        FourierTerm(math.inf, 2)


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

def test_eval_matches_hand_series():
    # w(x) = (0.1/2pi) sin(2pi x) + (0.05/4pi) sin(4pi x), so
    # w'(x) = 0.1 cos(2pi x) + 0.05 cos(4pi x) and w'(0) = 0.15.
    p = SurfaceProfile((
        FourierTerm(0.1 / TWO_PI, 1),
        FourierTerm(0.05 / (2 * TWO_PI), 2),
    ))
    assert eval_profile(p, 0.0, 1) == pytest.approx(0.15, rel=1e-14)
    assert eval_profile(p, 0.0, 0) == 0.0
    x = 0.3
    expected = (0.1 / TWO_PI) * math.sin(TWO_PI * x) + (0.05 / (2 * TWO_PI)) * math.sin(2 * TWO_PI * x)
    assert eval_profile(p, x, 0) == pytest.approx(expected, rel=1e-14)


def test_eval_vectorized_matches_scalar():
    rng = np.random.default_rng(7)
    p = random_profile(rng)
    xs = rng.uniform(-3.0, 3.0, size=20)
    for order in (0, 1, 2):
        vec = eval_profile(p, xs, order)
        scal = np.array([eval_profile(p, float(x), order) for x in xs])
        np.testing.assert_array_equal(vec, scal)


def test_derivatives_against_finite_differences():
    rng = np.random.default_rng(11)
    h = 1e-5
    for _ in range(10):
        p = random_profile(rng)
        xs = rng.uniform(0.0, 1.0, size=16)
        w_plus = eval_profile(p, xs + h, 0)
        w_minus = eval_profile(p, xs - h, 0)
        fd1 = (w_plus - w_minus) / (2 * h)
        np.testing.assert_allclose(eval_profile(p, xs, 1), fd1, atol=1e-5)
        s_plus = eval_profile(p, xs + h, 1)
        s_minus = eval_profile(p, xs - h, 1)
        fd2 = (s_plus - s_minus) / (2 * h)
        np.testing.assert_allclose(eval_profile(p, xs, 2), fd2, atol=1e-3)


def test_periodicity():
    rng = np.random.default_rng(13)
    p = random_profile(rng)
    xs = rng.uniform(0.0, 1.0, size=32)
    for order in (0, 1, 2):
        np.testing.assert_allclose(
            eval_profile(p, xs + 1.0, order),
            eval_profile(p, xs, order),
            rtol=0.0,
            atol=1e-12,
        )


def test_eval_rejects_bad_order():
    p = SurfaceProfile.sinusoid()
    with pytest.raises(ValueError):
        eval_profile(p, 0.0, 3)


def test_bounds_dominate_samples():
    rng = np.random.default_rng(17)
    xs = np.linspace(0.0, 1.0, 4001)
    for _ in range(5):
        p = random_profile(rng)
        assert np.max(np.abs(eval_profile(p, xs, 0))) <= p.amplitude_bound + 1e-15


# ---------------------------------------------------------------------------
# slope extrema
# ---------------------------------------------------------------------------

def test_extrema_canonical_sinusoid():
    p = SurfaceProfile.sinusoid(0.1)
    ex = derivative_extrema(p)
    assert ex.omega_plus == pytest.approx(0.1, rel=1e-15)
    assert ex.omega_minus == pytest.approx(-0.1, rel=1e-15)
    assert ex.location_plus == pytest.approx(0.0, abs=1e-9)
    assert ex.location_minus == pytest.approx(0.5, abs=1e-9)


def test_extrema_two_mode_series():
    # w' = 0.1 cos(u) + 0.05 cos(2u) with u = 2 pi x: maximum 0.15 at u=0;
    # minimum at cos(u) = -1/2 (u = 2pi/3) with value -0.05 - 0.025 = -0.075.
    p = SurfaceProfile((
        FourierTerm(0.1 / TWO_PI, 1),
        FourierTerm(0.05 / (2 * TWO_PI), 2),
    ))
    ex = derivative_extrema(p)
    assert ex.omega_plus == pytest.approx(0.15, rel=1e-13)
    assert ex.omega_minus == pytest.approx(-0.075, rel=1e-13)
    assert ex.location_plus == pytest.approx(0.0, abs=1e-9)
    assert ex.location_minus == pytest.approx(1.0 / 3.0, abs=1e-9)


def test_extrema_against_brute_force():
    rng = np.random.default_rng(23)
    xs = np.arange(1_000_000) / 1_000_000.0
    for _ in range(6):
        p = random_profile(rng)
        slopes = eval_profile(p, xs, 1)
        brute_max = float(np.max(slopes))
        brute_min = float(np.min(slopes))
        ex = derivative_extrema(p)
        # refinement must do at least as well as the dense scan
        assert ex.omega_plus >= brute_max - 1e-12
        assert ex.omega_minus <= brute_min + 1e-12
        # and cannot beat the true extremum by more than the scan gap
        assert ex.omega_plus <= brute_max + 1e-8
        assert ex.omega_minus >= brute_min - 1e-8


def test_extrema_locations_consistent():
    rng = np.random.default_rng(29)
    for _ in range(6):
        p = random_profile(rng)
        ex = derivative_extrema(p)
        assert abs(eval_profile(p, ex.location_plus, 1) - ex.omega_plus) <= 1e-12
        assert abs(eval_profile(p, ex.location_minus, 1) - ex.omega_minus) <= 1e-12
        assert 0.0 <= ex.location_plus < 1.0
        assert 0.0 <= ex.location_minus < 1.0


def test_phase_shift_moves_locations_not_values():
    base = SurfaceProfile.sinusoid(0.1)
    shifted = SurfaceProfile.sinusoid(0.1, phase=1.0)
    ex_b = derivative_extrema(base)
    ex_s = derivative_extrema(shifted)
    assert ex_s.omega_plus == pytest.approx(ex_b.omega_plus, rel=1e-12)
    assert ex_s.omega_minus == pytest.approx(ex_b.omega_minus, rel=1e-12)
    expected_loc = (-1.0 / TWO_PI) % 1.0
    assert ex_s.location_plus == pytest.approx(expected_loc, abs=1e-9)
