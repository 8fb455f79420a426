"""Tests for periodic profiles: evaluation, scaling, slope extrema.

Expected values come from independent routes: central finite differences
for derivatives, and for extrema a brute-force million-point scan and the
slow route below (a dense scan refined with SciPy).
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq, minimize_scalar

import formula_route

from wfl import (
    ConfigError,
    FourierTerm,
    SurfaceProfile,
    derivative_extrema,
    eval_profile,
)
from wfl import profiles
from wfl.codegen import closure
from wfl.profiles import MAX_HARMONIC, curvature_roots, sorted_distinct

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
    with pytest.raises(ConfigError, match="slope amplitude must be positive"):
        SurfaceProfile.sinusoid(0.0)
    with pytest.raises(ConfigError, match="slope amplitude must be positive"):
        SurfaceProfile.sinusoid(-0.1)


@pytest.mark.parametrize("harmonic", [0, -1, 65, 1.5, True])
def test_bad_harmonics_rejected(harmonic):
    with pytest.raises(ConfigError, match="harmonic must"):
        FourierTerm(0.01, harmonic)
    # the sinusoid checks the harmonic before it divides by it
    with pytest.raises(ConfigError, match="harmonic must"):
        SurfaceProfile.sinusoid(0.1, harmonic)


def test_zero_profile_rejected():
    with pytest.raises(ConfigError, match="at least one nonzero amplitude"):
        SurfaceProfile((FourierTerm(0.0, 1), FourierTerm(0.0, 2)))
    with pytest.raises(ConfigError, match="at least one Fourier term"):
        SurfaceProfile(())


@pytest.mark.parametrize("amplitude", [1e308, 1e300])
def test_curvature_bound_overflow_rejected(amplitude):
    # curvature_roots bounds w''' by sum |A| (2 pi n)^4; at inf its monotone test
    # never fires, and NumPy warned on the way
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConfigError, match="profile curvature overflows"):
            SurfaceProfile((FourierTerm(amplitude, 64),))


def test_nonfinite_amplitude_rejected():
    with pytest.raises(ConfigError, match="amplitude and phase must be finite"):
        FourierTerm(math.nan, 1)
    with pytest.raises(ConfigError, match="amplitude and phase must be finite"):
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


# the sums compiled from fourier_source against the loop they replaced, bit for bit
ZERO = st.sampled_from([0.0, -0.0])
HARMONIC = st.tuples(st.integers(1, MAX_HARMONIC), st.sampled_from([int, np.int64, np.int32]))
TERMS = st.lists(st.tuples(ZERO | st.floats(-1.0, 1.0), HARMONIC, ZERO | st.floats(-10.0, 10.0)),
                 min_size=1, max_size=4)
POINTS = [0.0, -0.0, 5e-324, -5e-324, 1e16, -1e16, math.inf, -math.inf, math.nan]


def flip_zeros(profile):
    """An equal profile: each zero amplitude and phase of the other sign, each harmonic an int."""
    def flip(value):
        return -value if value == 0.0 else value
    return SurfaceProfile(tuple(FourierTerm(flip(t.amplitude), int(t.harmonic), flip(t.phase))
                                for t in profile.terms))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(terms=TERMS, drawn=st.lists(st.floats(-100.0, 100.0), max_size=8))
def test_compiled_sums_equal_the_loop_bitwise(terms, drawn):
    terms = [FourierTerm(a, kind(n), phase) for a, (n, kind), phase in terms]
    assume(any(t.amplitude != 0.0 for t in terms))
    points = np.array(POINTS + drawn)
    inputs = [*points.tolist(), *points, points[3:4].reshape(()), points, points.reshape(-1, 1),
              np.tile(points, (2, 1))]
    first = SurfaceProfile(tuple(terms))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        # an equal profile takes the first one's binding, which its zeros' signs must not change
        for profile in (first, flip_zeros(first)):
            for order in range(4):
                for x in inputs:
                    got = eval_profile(profile, x, order)
                    want = formula_route.eval_profile(profile, x, order)
                    if np.ndim(x) == 0:
                        assert type(got) is float and got.hex() == want.hex()
                    else:
                        assert got.shape == want.shape and got.tobytes() == want.tobytes()
            for names, orders in (("W, WP", (0, 1)), ("WP, WPP", (1, 2)), ("WPP, WPPP", (2, 3))):
                for order, got in zip(orders, profiles.fourier_sums(profile, names)(points)):
                    assert got.tobytes() == formula_route.eval_profile(profile, points, order).tobytes()


def test_float_sums_equal_eval_profile_bitwise():
    # the math-only routes (the stepper, the float K, the oracle's W') run this text on floats
    rng = np.random.default_rng(17)
    for _ in range(10):
        p = random_profile(rng)
        body, values = profiles.fourier_source(p, "W, WP, WPP, WPPP = sums(x)")
        assert all(type(value) is float for value in values.values())
        sums = closure(f"{body}\nreturn W, WP, WPP, WPPP\n", "x",
                       {**values, "sin": math.sin, "cos": math.cos})
        for x in rng.uniform(-3.0, 3.0, size=20).tolist():
            want = [eval_profile(p, x, order).hex() for order in range(4)]
            assert [value.hex() for value in sums(x)] == want


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
        c_plus = eval_profile(p, xs + h, 2)
        c_minus = eval_profile(p, xs - h, 2)
        fd3 = (c_plus - c_minus) / (2 * h)
        np.testing.assert_allclose(eval_profile(p, xs, 3), fd3, atol=1e-3)


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
    for order in (-1, 1.5, "1"):
        with pytest.raises(ConfigError, match="order must be 0, 1, 2 or 3"):
            eval_profile(p, 0.0, order)


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


def test_extrema_of_a_flat_extremum():
    # w' = cos u + cos(2u)/4 with u = 2 pi x: w'' = -2 pi sin u (1 + cos u) has a
    # triple root at u = pi, where w' bottoms out at -3/4 like (u - pi)^4
    p = SurfaceProfile((FourierTerm(1.0 / TWO_PI, 1), FourierTerm(0.25 / (2 * TWO_PI), 2)))
    ex = derivative_extrema(p)
    assert ex.omega_plus == pytest.approx(1.25, rel=1e-15)
    assert ex.omega_minus == pytest.approx(-0.75, rel=1e-15)
    assert ex.location_minus == pytest.approx(0.5, abs=1e-4)


# ---------------------------------------------------------------------------
# roots of w''
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("harmonic", [1, 7, MAX_HARMONIC])
def test_curvature_roots_of_a_single_mode(harmonic):
    # w'' of sin(2 pi n x + 0.3) vanishes at x = (k pi - 0.3) / (2 pi n), k = 1..2n
    roots = curvature_roots(SurfaceProfile.sinusoid(0.1, harmonic, phase=0.3))
    k = np.arange(1, 2 * harmonic + 1)
    expected = np.sort((k * math.pi - 0.3) / (TWO_PI * harmonic) % 1.0)
    np.testing.assert_allclose(roots, expected, rtol=0.0, atol=1e-15)
    assert not roots.flags.writeable


def test_curvature_roots_are_every_root():
    rng = np.random.default_rng(31)
    xs = np.linspace(0.0, 1.0, 2**16 + 1)
    for _ in range(20):
        p = wide_random_profile(rng)
        roots = curvature_roots(p)
        scale = sum(abs(t.amplitude) * (TWO_PI * t.harmonic) ** 2 for t in p.terms)
        assert np.all((0.0 <= roots) & (roots < 1.0))
        assert np.max(np.abs(eval_profile(p, roots, 2))) <= 1e-13 * scale
        # every sign change of w'' on a fine grid has a root in its cell
        curv = eval_profile(p, xs, 2)
        flips = np.flatnonzero(curv[:-1] * curv[1:] < 0.0)
        cells = np.searchsorted(xs, roots, side="right") - 1
        assert set(flips) <= set(cells)


def companion_curvature_roots(profile):
    """Every root of w'' from the companion matrix of ``z^H w''`` (Boyd, J. Eng.
    Math. 56, 2006), a polynomial of degree 2H in ``z = exp(2 pi i x)``, or of
    degree 2H/g in ``z^g`` when every harmonic left is a multiple of g: the
    oracle for the cell search of :func:`curvature_roots`.

    A root within 1e-4 of the unit circle counts, since a triple root of w''
    leaves the eigenvalue solver some 1e-5 off it; three Newton steps polish
    each angle as :func:`curvature_roots` polishes its candidates.
    """
    spectrum = np.zeros(MAX_HARMONIC + 1, dtype=complex)
    for term in profile.terms:
        rate = TWO_PI * term.harmonic
        spectrum[term.harmonic] -= term.amplitude * rate * rate * np.exp(1j * term.phase)
    size = np.abs(spectrum)
    present = np.flatnonzero(size > 1e-14 * size.max())
    if present.size == 0:
        return np.empty(0)
    g = math.gcd(*present.tolist())
    reduced = spectrum[::g]
    top = int(present[-1]) // g
    # zeta^top w'' has coefficient c_n at zeta^(top + n) and -conj(c_n) at zeta^(top - n)
    zeta = np.roots(np.concatenate((reduced[top:0:-1], [0.0], -np.conj(reduced[1:top + 1]))))
    turn = np.angle(zeta[np.abs(np.abs(zeta) - 1.0) <= 1e-4]) / TWO_PI
    # z^g = zeta at the g angles (turn + k) / g, k = 0 .. g - 1
    x = ((turn[:, None] + np.arange(g)) / g).ravel()
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(3):
            step = eval_profile(profile, x, 2) / eval_profile(profile, x, 3)
            x = np.where(np.isfinite(step), x - step, x)
    x %= 1.0
    return np.unique(np.where(x < 1.0, x, 0.0))


def unreduced_curvature_roots(profile):
    """The full degree-2H companion route, with no reduction by the harmonics'
    common divisor: the oracle for :func:`companion_curvature_roots`."""
    spectrum = np.zeros(MAX_HARMONIC + 1, dtype=complex)
    for term in profile.terms:
        rate = TWO_PI * term.harmonic
        spectrum[term.harmonic] -= term.amplitude * rate * rate * np.exp(1j * term.phase)
    size = np.abs(spectrum)
    top = int(np.flatnonzero(size > 1e-14 * size.max())[-1])
    z = np.roots(np.concatenate((spectrum[top:0:-1], [0.0], -np.conj(spectrum[1:top + 1]))))
    x = np.angle(z[np.abs(np.abs(z) - 1.0) <= 1e-4]) / TWO_PI
    for _ in range(3):
        third = sum(-t.amplitude * (TWO_PI * t.harmonic) ** 3
                    * np.cos(TWO_PI * t.harmonic * x + t.phase) for t in profile.terms)
        x = x - eval_profile(profile, x, 2) / third
    x %= 1.0
    return np.unique(np.where(x < 1.0, x, 0.0))


@pytest.mark.parametrize("profile", [
    SurfaceProfile((FourierTerm(0.01, 2, 0.3), FourierTerm(-0.004, 6, 1.1))),
    SurfaceProfile((FourierTerm(0.01, 3, 0.2), FourierTerm(0.002, 9, -0.5),
                    FourierTerm(0.001, 12, 2.0))),
    SurfaceProfile.sinusoid(0.1, 64),
], ids=["g2", "g3", "g64"])
def test_common_divisor_reduction_matches_the_full_polynomial(profile):
    roots = curvature_roots(profile)
    expected = unreduced_curvature_roots(profile)
    assert roots.shape == expected.shape
    np.testing.assert_allclose(roots, expected, rtol=0.0, atol=1e-12)
    slopes = eval_profile(profile, expected, 1)
    top, bottom = int(np.argmax(slopes)), int(np.argmin(slopes))
    ex = derivative_extrema(profile)
    np.testing.assert_allclose(
        [ex.omega_plus, ex.omega_minus, ex.location_plus, ex.location_minus],
        [slopes[top], slopes[bottom], expected[top], expected[bottom]], rtol=0.0, atol=1e-12)
    # the oracle's reduction to z^g
    reduced = companion_curvature_roots(profile)
    assert reduced.shape == expected.shape
    np.testing.assert_allclose(reduced, expected, rtol=0.0, atol=1e-12)


def circular_gap(found, roots):
    """Distance on the period from each of ``roots`` to the nearest of ``found``."""
    gap = np.abs(roots[:, None] - found[None, :])
    return np.minimum(gap, 1.0 - gap).min(axis=1)


def test_curvature_roots_find_every_companion_root():
    rng = np.random.default_rng(2006)  # the profiles of the differential test below
    for _ in range(200):
        p = wide_random_profile(rng)
        expected = companion_curvature_roots(p)
        assert circular_gap(curvature_roots(p), expected).max() <= 1e-9


# w'' = -2 pi sin u (1 + cos u) at u = 2 pi x, as in test_extrema_of_a_flat_extremum
TRIPLE_ROOT = SurfaceProfile((FourierTerm(1.0 / TWO_PI, 1), FourierTerm(0.25 / (2 * TWO_PI), 2)))
WORK_BOUND_CASES = {
    # (profile, most roots, most points where w'' is evaluated, oracle
    # tolerance): the companion route leaves the triple root's three copies up
    # to 4e-7 apart; at a width floor of 1e-13 it gives over 2e6 candidates
    "triple root": (TRIPLE_ROOT, 4, 200_000, 1e-6),
    "terms that nearly cancel": (
        SurfaceProfile((FourierTerm(1e-3, 3, 0.2), FourierTerm(-1e-3 * (1.0 - 2**-40), 3, 0.2))),
        6, 200, 1e-9),
    "a nearly cancelled top harmonic": (
        SurfaceProfile((FourierTerm(1e-3, 64, 0.2), FourierTerm(-1e-3 * (1.0 - 1e-12), 64, 0.2),
                        FourierTerm(0.1 / TWO_PI, 1))), 2, 2_000, 1e-9),
    # the harmonic-64 terms cancel to rounding noise, 1e-15 of harmonic 1's:
    # only harmonic 1 may set the cells
    "a top harmonic cancelled to rounding": (
        SurfaceProfile((FourierTerm(1e-3, 64, 0.2), FourierTerm(1e-3, 64, 0.2 + math.pi),
                        FourierTerm(1.0 / TWO_PI, 1))), 2, 100, 1e-9),
    "harmonic 64": (SurfaceProfile.sinusoid(0.1, MAX_HARMONIC), 2 * MAX_HARMONIC, 2_500, 1e-9),
}


@pytest.mark.parametrize("profile, most, points, tolerance", list(WORK_BOUND_CASES.values()),
                         ids=list(WORK_BOUND_CASES))
def test_curvature_roots_bound_their_work(profile, most, points, tolerance, monkeypatch):
    # a multiple root must not split cells down to rounding, nor noise lead the spectrum
    evaluated = []
    curvature = profiles._curvature
    monkeypatch.setattr(profiles, "_curvature",
                        lambda x, c, rate: (evaluated.append(x.size), curvature(x, c, rate))[1])
    roots = curvature_roots.__wrapped__(profile)
    # one evaluation per level of cells (8 to 1e-8 wide: 27 levels) and per Newton step
    assert len(evaluated) <= 40 and sum(evaluated) <= points
    assert 0 < roots.size <= most
    assert circular_gap(roots, companion_curvature_roots(profile)).max() <= tolerance


# ---------------------------------------------------------------------------
# terms that cancel
# ---------------------------------------------------------------------------

CANCELLING = (FourierTerm(1e-3, 3, 0.2), FourierTerm(-1e-3, 3, 0.2))


def test_cancelling_terms_are_degenerate():
    p = SurfaceProfile(CANCELLING)
    assert curvature_roots(p).size == 0
    with pytest.raises(ConfigError, match="profile terms cancel"):
        derivative_extrema(p)


def test_cancelling_highest_harmonic_leaves_the_lower_one():
    ex = derivative_extrema(SurfaceProfile((*CANCELLING, FourierTerm(0.1 / TWO_PI, 1))))
    assert ex == derivative_extrema(SurfaceProfile.sinusoid(0.1))


# the sort and neighbour mask that stand in for np.unique, which imports numpy.ma
DISTINCT_CASES = {
    "root at -0.0": np.array([0.5, -0.0, 0.25]),
    "-0.0 and 0.0": np.array([0.25, 0.0, -0.0, 0.5, -0.0]),
    "duplicate roots": np.array([0.75, 0.25, 0.75, 0.5, 0.25, 0.75]),
    "one root": np.array([0.5]),
    "no root": np.empty(0),
    "piece bounds": np.array([0, 3, 3, 9, 1024, 1027]),
    "seeded draws": np.random.default_rng(5).choice([-0.0, 0.0, 1e-300, 0.5, 1.0 - 2**-53], 200),
}


@pytest.mark.parametrize("values", list(DISTINCT_CASES.values()), ids=list(DISTINCT_CASES))
def test_sorted_distinct_is_np_unique_bitwise(values):
    got, want = sorted_distinct(values), np.unique(values)
    assert got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


# ---------------------------------------------------------------------------
# differential oracle: the slow route, a dense scan refined with SciPy
# ---------------------------------------------------------------------------

def wide_random_profile(rng):
    """Like :func:`random_profile`, with one to five modes and harmonics up to
    MAX_HARMONIC, so that high modes with nearly tied extrema often dominate w'."""
    terms = []
    for _ in range(rng.integers(1, 6)):
        amp = rng.uniform(0.001, 0.02) * rng.choice([-1.0, 1.0])
        harmonic = int(rng.integers(1, MAX_HARMONIC + 1))
        terms.append(FourierTerm(amp, harmonic, rng.uniform(0.0, TWO_PI)))
    return SurfaceProfile(tuple(terms))


def dense_slopes(profile, points):
    """w' on ``points`` equispaced nodes of [0, 1); ``points`` is a square.

    With node ``(j s + k) / points``, each mode is the real part of a product
    of a coarse and a fine table, so the scan is one small matrix product
    instead of one cosine per node and mode.
    """
    side = math.isqrt(points)
    n = np.array([t.harmonic for t in profile.terms])
    c = np.array([t.amplitude * TWO_PI * t.harmonic * np.exp(1j * t.phase) for t in profile.terms])
    coarse = c * np.exp(1j * TWO_PI * np.outer(np.arange(side) * side / points, n))
    fine = np.exp(1j * TWO_PI * np.outer(n, np.arange(side) / points))
    # Re(a b) = Re a Re b - Im a Im b
    return (np.hstack((coarse.real, -coarse.imag)) @ np.vstack((fine.real, fine.imag))).ravel()


def slow_extrema(profile, points=2**20):
    """Extreme slopes from a dense scan, each local extremum of the scan that
    could still be the global one refined with SciPy.

    Some node lies within h/2 of every extremum, and w' there is off by at most
    max|w'''| h^2 / 8, so a sampled local extremum further than twice that from
    the sampled global one cannot beat it.  Returns the refined max, the scan
    max, the refined min and the scan min, all evaluated by ``eval_profile``.
    """
    h = 1.0 / points
    slopes = dense_slopes(profile, points)
    bound = sum(abs(t.amplitude) * (TWO_PI * t.harmonic) ** 3 for t in profile.terms) * h * h / 8
    out = []
    for sign in (1.0, -1.0):
        s = sign * slopes
        near = np.flatnonzero(s >= s.max() - 2.0 * bound)
        near = near[(s[near] >= s[near - 1]) & (s[near] >= s[(near + 1) % points])]
        best = scan = -math.inf
        for x in near * h:
            lo, hi = x - h, x + h
            if eval_profile(profile, lo, 2) * eval_profile(profile, hi, 2) < 0.0:
                loc = brentq(lambda t: eval_profile(profile, t, 2), lo, hi, xtol=1e-15)
            else:
                loc = minimize_scalar(lambda t: -sign * eval_profile(profile, t, 1),
                                      bounds=(lo, hi), method="bounded",
                                      options={"xatol": 1e-14}).x
            best = max(best, sign * eval_profile(profile, loc, 1))
            scan = max(scan, sign * eval_profile(profile, x, 1))
        out += [sign * best, sign * scan]
    return out


def test_extrema_match_the_slow_route_on_random_profiles():
    rng = np.random.default_rng(2006)
    for _ in range(200):
        p = wide_random_profile(rng)
        ex = derivative_extrema(p)
        slow_plus, scan_plus, slow_minus, scan_minus = slow_extrema(p)
        assert ex.omega_plus == pytest.approx(slow_plus, rel=1e-12, abs=0.0)
        assert ex.omega_minus == pytest.approx(slow_minus, rel=1e-12, abs=0.0)
        # never worse than the dense scan, up to rounding in w'
        assert ex.omega_plus >= scan_plus - 4.0 * np.spacing(scan_plus)
        assert ex.omega_minus <= scan_minus + 4.0 * np.spacing(-scan_minus)


# two nearly tied minima of w', 3e-5 apart: a 4096-point scan refines the wrong one
NEAR_TIE = SurfaceProfile((FourierTerm(-1.088e-4, 55, 5.0108), FourierTerm(5.694e-4, 42, 1.5478)))


def test_nearly_tied_extrema_pick_the_global_one():
    dense_min = float(dense_slopes(NEAR_TIE, 2**22).min())
    assert dense_min == pytest.approx(-0.1878011394, abs=1e-10)
    # at least as low as the scan, and lower by no more than its error bound
    omega_minus = derivative_extrema(NEAR_TIE).omega_minus
    assert dense_min - 1e-9 <= omega_minus <= dense_min
