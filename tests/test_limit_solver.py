"""Tests for the quasistatic play-process solver and loading programs."""

import itertools
import math
import pickle

import numpy as np
import pytest

import formula_route
import limit_route
import piecewise_route
from wfl.errors import ConfigError, SolverError
from wfl.limit_solver import (
    LimitSystem,
    LoadingProgram,
    Ramp,
    SinusoidLoading,
    SmoothedPiecewiseLinear,
    default_grid,
    _play,
    elastic_strip,
    overflow_raises,
    solve_limit,
)


def canonical_system(duration=2.0):
    """Unit hauling spring pulled at unit rate, thresholds +-0.1."""
    return LimitSystem(
        k_h=1.0,
        L_h_rest=0.0,
        loading=Ramp(q0=0.0, rate=1.0, duration=duration),
        rho_plus=0.1,
        rho_minus=-0.1,
    )


# ---------------------------------------------------------------------------
# loading programs
# ---------------------------------------------------------------------------

def test_ramp_basics():
    r = Ramp(q0=1.0, rate=-2.0, duration=3.0)
    assert r.q(0.0) == 1.0
    assert r.q(1.5) == -2.0
    assert r.qdot(0.7) == -2.0
    assert r.max_rate == 2.0
    assert r.horizon == 3.0


def test_sinusoid_loading_rate_bound():
    s = SinusoidLoading(q0=0.5, amplitude=0.2, frequency=2.0, duration=1.0)
    ts = np.linspace(0.0, 1.0, 1001)
    assert np.max(np.abs(s.qdot(ts))) <= s.max_rate + 1e-12
    assert s.max_rate == pytest.approx(0.2 * 2 * math.pi * 2.0, rel=1e-15)
    # derivative check against finite differences
    h = 1e-7
    mid = 0.3
    fd = (s.q(mid + h) - s.q(mid - h)) / (2 * h)
    assert s.qdot(mid) == pytest.approx(fd, abs=1e-6)


def test_smoothed_pwl_matches_linear_away_from_knots():
    pwl = SmoothedPiecewiseLinear(times=(0.0, 1.0, 2.0), values=(0.0, 1.0, 0.5), blend=0.1)
    assert pwl.q(0.5) == pytest.approx(0.5, abs=1e-15)
    assert pwl.q(1.5) == pytest.approx(0.75, abs=1e-15)
    assert pwl.q(0.0) == 0.0
    assert pwl.q(2.0) == 0.5
    assert pwl.qdot(0.5) == 1.0
    assert pwl.qdot(1.5) == -0.5
    assert pwl.max_rate == 1.0
    assert pwl.horizon == 2.0


def test_smoothed_pwl_is_c1():
    pwl = SmoothedPiecewiseLinear(times=(0.0, 1.0, 2.0), values=(0.0, 1.0, 0.5), blend=0.1)
    # position continuous and velocity continuous across the blend edges
    for edge in (0.9, 1.1):
        left = pwl.q(edge - 1e-9)
        right = pwl.q(edge + 1e-9)
        assert right == pytest.approx(left, abs=1e-8)
        dleft = pwl.qdot(edge - 1e-9)
        dright = pwl.qdot(edge + 1e-9)
        assert dright == pytest.approx(dleft, abs=1e-7)
    # velocity inside the zone interpolates the two slopes
    assert pwl.qdot(1.0) == pytest.approx(0.25, abs=1e-12)
    # position agrees with finite differences of itself
    ts = np.linspace(0.85, 1.15, 61)
    h = 1e-7
    fd = (pwl.q(ts + h) - pwl.q(ts - h)) / (2 * h)
    np.testing.assert_allclose(pwl.qdot(ts), fd, atol=1e-6)


@pytest.mark.parametrize(
    "loading",
    [
        Ramp(q0=0.3, rate=-1.7, duration=2.0),
        SinusoidLoading(q0=0.1, amplitude=0.5, frequency=1.3, duration=2.0, phase=0.4),
        SmoothedPiecewiseLinear(times=(0.0, 0.7, 1.3, 2.0), values=(0.0, 0.7, 0.2, 0.9), blend=0.05),
        # blend is half the shortest segment: neighbouring blend zones touch
        SmoothedPiecewiseLinear(
            times=(0.0, 0.5, 1.0, 1.5, 2.0), values=(0.0, 0.1, 0.7, 0.3, 0.9), blend=0.25
        ),
        # equal slopes on both sides of knot 0.5: a blend zone that does not bend
        SmoothedPiecewiseLinear(
            times=(0.0, 0.5, 1.0, 2.0), values=(0.0, 0.25, 0.5, -0.1), blend=0.1
        ),
    ],
    ids=["ramp", "sinusoid", "piecewise", "piecewise-touching", "piecewise-equal-slopes"],
)
def test_float_branch_of_q_matches_the_array_route_bitwise(loading):
    rng = np.random.default_rng(5)
    edges = []
    for knot in getattr(loading, "times", ()):
        for edge in (knot - loading.blend, knot, knot + loading.blend):
            edges.extend((np.nextafter(edge, -np.inf), edge, np.nextafter(edge, np.inf)))
    ts = np.concatenate((
        rng.uniform(-0.5, 2.5, 500),
        [0.0, 0.25, 0.5, 0.75, 1.0, 1.25, 2.0, 0.25 - 1e-12, 2.0 + 1e-9],
        edges,
    ))
    scalar_q = formula_route.scalar_q(loading)
    scalar = np.array([scalar_q(float(t)) for t in ts])
    assert all(type(loading.q(float(t))) is float for t in ts[:5])
    np.testing.assert_array_equal(scalar, loading.q(ts))
    np.testing.assert_array_equal(scalar, [loading.q(float(t)) for t in ts])
    np.testing.assert_array_equal(scalar, [loading.q(np.array([t]))[0] for t in ts])


@pytest.mark.parametrize("loading", [Ramp(rate=2.0), SinusoidLoading(phase=0.5)],
                         ids=["ramp", "sinusoid"])
def test_a_loading_pickles_after_its_compiled_q_is_built(loading):
    # the array q compiled on first use stays out of the pickle, and is rebuilt after it
    want = loading.q(np.linspace(0.0, 1.0, 5))
    copy = pickle.loads(pickle.dumps(loading))
    assert copy == loading
    np.testing.assert_array_equal(copy.q(np.linspace(0.0, 1.0, 5)), want)


NONFINITE_TIMES = np.array([math.inf, -math.inf, math.nan])
SINUSOID = SinusoidLoading(amplitude=0.5, frequency=1.0, duration=2.0)
# flat after t = 1: its q at +inf is q(1) + 0 * inf
FLAT_END = SmoothedPiecewiseLinear(times=(0.0, 1.0, 2.0), values=(0.0, 1.0, 1.0), blend=0.1)
NAN3 = [math.nan] * 3

# each of these warned "invalid value encountered" (NumPy) or raised a bare
# ValueError (math.sin), or gave a finite slope at a nan time
NONFINITE_LOADING_CASES = {
    "sinusoid-q": (lambda: SINUSOID.q(NONFINITE_TIMES), NAN3),
    "sinusoid-q-float": (lambda: SINUSOID.q(math.inf), math.nan),
    "sinusoid-qdot": (lambda: SINUSOID.qdot(NONFINITE_TIMES), NAN3),
    "sinusoid-qdot-float": (lambda: SINUSOID.qdot(math.inf), math.nan),
    "sinusoid-elastic_strip": (
        lambda: elastic_strip(LimitSystem(k_h=1.0, L_h_rest=0.0, loading=SINUSOID, rho_plus=0.1,
                                          rho_minus=-0.1), math.inf), (math.nan, math.nan)),
    "ramp-q-rate-zero": (lambda: Ramp(rate=0.0).q(NONFINITE_TIMES), NAN3),
    "ramp-qdot": (lambda: Ramp(rate=2.0).qdot(NONFINITE_TIMES), [2.0, 2.0, math.nan]),
    "ramp-qdot-nan": (lambda: Ramp(rate=2.0).qdot(math.nan), math.nan),
    "piecewise-q-flat-end": (lambda: FLAT_END.q(NONFINITE_TIMES), [math.nan, -math.inf, math.nan]),
    "piecewise-qdot": (lambda: FLAT_END.qdot(NONFINITE_TIMES), [0.0, 1.0, math.nan]),
    "piecewise-qdot-nan": (lambda: FLAT_END.qdot(math.nan), math.nan),
}


@pytest.mark.parametrize("case", list(NONFINITE_LOADING_CASES))
def test_nonfinite_times_give_nan_without_a_warning(case):
    # RuntimeWarnings are errors in this suite (pyproject.toml)
    call, expected = NONFINITE_LOADING_CASES[case]
    np.testing.assert_array_equal(call(), expected)


def test_touching_blend_zones_take_the_later_zone():
    # blend 0.25 is half of each segment, so t = 0.75 ends the zone of knot
    # 0.5 and starts the zone of knot 1.0.  The two quadratics agree in exact
    # arithmetic but round apart here; both routes take the later zone's
    q = SmoothedPiecewiseLinear(
        times=(0.0, 0.5, 1.0, 1.5), values=(0.0, 0.1, 0.7, 0.3), blend=0.25
    ).q
    s0, s1 = 0.1 / 0.5, (0.7 - 0.1) / 0.5
    earlier = (0.1 - s0 * 0.25) + s0 * 0.5 + (s1 - s0) * 0.5 * 0.5 / 1.0
    later = 0.7 - s1 * 0.25
    assert earlier != later
    assert q(0.75) == q(np.array([0.75]))[0] == later


def _random_loading(rng):
    n = int(rng.integers(2, 9))
    steps = np.full(n - 1, 0.5) if rng.random() < 0.3 else rng.uniform(0.05, 1.0, n - 1)
    # signed zeros and repeated values give equal neighbouring slopes
    values = rng.choice([0.0, -0.0, 0.5, -0.5], n) if rng.random() < 0.3 else rng.normal(0, 1, n)
    times = np.concatenate(([0.0], np.cumsum(steps)))
    half = 0.5 * float(np.min(np.diff(times)))
    blend = half if rng.random() < 0.3 else half * rng.uniform(1e-3, 1.0)
    return SmoothedPiecewiseLinear(times=tuple(times), values=tuple(values), blend=blend)


def _bits(x):
    return np.asarray(x, dtype=float).view(np.uint64)


def test_piece_table_matches_the_masked_loop_route_bitwise():
    # the masked loops and the two-bisect scalar q that the piece table
    # replaced, on random loadings, at every zone edge and knot +-1 ulp
    rng = np.random.default_rng(20)
    for _ in range(200):
        loading = _random_loading(rng)
        edges = np.array([e for k in loading.times
                          for e in (k - loading.blend, k, k + loading.blend)])
        horizon = loading.horizon
        ts = np.concatenate((
            np.nextafter(edges, -np.inf), edges, np.nextafter(edges, np.inf),
            np.linspace(0.0, horizon, 4097), [-1.0, -1e-300, horizon + 1e-9, 2.0 * horizon + 1.0],
        ))
        np.testing.assert_array_equal(_bits(loading.q(ts)), _bits(piecewise_route.q(loading, ts)))
        np.testing.assert_array_equal(
            _bits(loading.qdot(ts)), _bits(piecewise_route.qdot(loading, ts))
        )
        table, oracle = loading.scalar_q(), piecewise_route.scalar_q(loading)
        np.testing.assert_array_equal(
            _bits([table(t) for t in ts.tolist()]), _bits([oracle(t) for t in ts.tolist()])
        )
        assert _bits(loading.max_rate) == _bits(piecewise_route.max_rate(loading))


def test_smoothed_pwl_validation():
    with pytest.raises(ConfigError):
        SmoothedPiecewiseLinear(times=(0.0, 1.0), values=(0.0,), blend=0.1)
    with pytest.raises(ConfigError):
        SmoothedPiecewiseLinear(times=(0.0, 1.0, 1.0), values=(0.0, 1.0, 2.0), blend=0.1)
    with pytest.raises(ConfigError):
        SmoothedPiecewiseLinear(times=(0.0, 1.0, 2.0), values=(0.0, 1.0, 0.0), blend=0.6)
    with pytest.raises(ConfigError):
        SmoothedPiecewiseLinear(times=(0.5, 1.0, 2.0), values=(0.0, 1.0, 0.0), blend=0.1)


def test_ramp_validation():
    with pytest.raises(ConfigError):
        Ramp(duration=0.0)
    with pytest.raises(ConfigError):
        SinusoidLoading(frequency=-1.0)


@pytest.mark.parametrize(
    "build, named",
    [
        (lambda: SinusoidLoading(frequency=math.nan), "frequency must be positive and finite"),
        (lambda: SinusoidLoading(frequency=math.inf), "frequency must be positive and finite"),
        (lambda: SmoothedPiecewiseLinear(times=(0.0, 1.0, 2.0), values=(0.0, math.nan, 0.0),
                                         blend=0.1), "knot times and values must be finite"),
        (lambda: SmoothedPiecewiseLinear(times=(0.0, 1.0, 2.0), values=(0.0, math.inf, 0.0),
                                         blend=0.1), "knot times and values must be finite"),
        (lambda: SmoothedPiecewiseLinear(times=(0.0, 1.0, math.inf), values=(0.0, 1.0, 0.0),
                                         blend=0.1), "knot times and values must be finite"),
        (lambda: SmoothedPiecewiseLinear(times=(0.0, 1e-300, 1.0), values=(0.0, 1e300, 0.0),
                                         blend=1e-301), "a loading slope overflows"),
    ],
    ids=["sinusoid-frequency-nan", "sinusoid-frequency-inf", "piecewise-value-nan",
         "piecewise-value-inf", "piecewise-time-inf", "piecewise-slope-overflow"],
)
def test_non_finite_loading_parameter_is_refused_when_built(build, named):
    # accepted, these once gave nan loads, a bare math domain error, or a
    # failure far from the cause (a "[nan, nan]" strip, an infinite horizon)
    with pytest.raises(ConfigError, match=named):
        build()


# ---------------------------------------------------------------------------
# elastic strip
# ---------------------------------------------------------------------------

def test_strip_at_initial_time():
    lo, hi = elastic_strip(canonical_system(), 0.0)
    assert lo == pytest.approx(-0.1, abs=1e-15)
    assert hi == pytest.approx(0.1, abs=1e-15)


def test_strip_width_constant_for_quadratic():
    system = canonical_system()
    ts = np.linspace(0.0, 2.0, 101)
    lo, hi = elastic_strip(system, ts)
    np.testing.assert_allclose(hi - lo, 0.2, rtol=1e-14)
    assert np.all(lo < hi)


def test_strip_rejects_bad_thresholds():
    with pytest.raises(ConfigError):
        LimitSystem(1.0, 0.0, Ramp(), rho_plus=-0.1, rho_minus=-0.2)
    with pytest.raises(ConfigError):
        LimitSystem(-1.0, 0.0, Ramp(), rho_plus=0.1, rho_minus=-0.1)
    # an infinite threshold is a config error, not a failed limit solution
    for rho_plus, rho_minus in ((math.inf, -0.1), (0.1, -math.inf), (math.nan, -0.1)):
        with pytest.raises(ConfigError, match="rho_minus < 0 < rho_plus"):
            LimitSystem(1.0, 0.0, Ramp(), rho_plus=rho_plus, rho_minus=rho_minus)


# ---------------------------------------------------------------------------
# play process on a ramp: stick then slide
# ---------------------------------------------------------------------------

def test_ramp_stick_slip_exact():
    system = canonical_system()
    traj = solve_limit(system, 0.0)
    expected = np.maximum(0.0, traj.times - 0.1)
    np.testing.assert_allclose(traj.states, expected, rtol=0.0, atol=1e-14)


def test_ramp_dissipation_value():
    system = canonical_system()
    traj = solve_limit(system, 0.0)
    # slides from 0 to 1.9 at threshold 0.1
    assert traj.dissipation[-1] == pytest.approx(0.19, rel=1e-12)
    assert traj.dissipated(0.0, 2.0) == pytest.approx(0.19, rel=1e-12)
    # nothing dissipates while stuck
    assert traj.dissipated(0.0, 0.05) == 0.0


def test_dissipation_window_additivity():
    system = canonical_system()
    traj = solve_limit(system, 0.0)
    rng = np.random.default_rng(31)
    for _ in range(20):
        t1, t2, t3 = np.sort(rng.uniform(0.0, 2.0, size=3))
        d_full = traj.dissipated(t1, t3)
        d_split = traj.dissipated(t1, t2) + traj.dissipated(t2, t3)
        assert d_split == pytest.approx(d_full, abs=2e-15)


def test_dissipated_window_validation():
    traj = solve_limit(canonical_system(), 0.0)
    with pytest.raises(ConfigError):
        traj.dissipated(1.0, 0.5)
    with pytest.raises(ConfigError):
        traj.dissipated(0.0, 5.0)


def test_initial_state_outside_strip_rejected():
    system = canonical_system()
    with pytest.raises(ConfigError, match="outside the elastic strip"):
        solve_limit(system, 0.11)
    with pytest.raises(ConfigError, match="outside the elastic strip"):
        solve_limit(system, -0.11)
    # boundary is admissible
    traj = solve_limit(system, 0.1)
    assert traj.states[0] == 0.1


@pytest.mark.parametrize("z0", [math.inf, -math.inf, math.nan])
def test_non_finite_initial_state_rejected(z0):
    # an infinite z0 made the 1e-12 slack infinite, and the run started at a strip edge
    with pytest.raises(ConfigError, match="initial state must be finite"):
        solve_limit(canonical_system(), z0)


def _random_limit_system(rng, kind):
    duration = float(rng.uniform(0.5, 3.0))
    if kind == "ramp":
        loading = Ramp(q0=float(rng.normal()), rate=float(rng.normal()), duration=duration)
    elif kind == "sinusoid":
        loading = SinusoidLoading(
            q0=float(rng.normal()), amplitude=float(rng.uniform(0.0, 1.0)),
            frequency=float(rng.uniform(0.2, 3.0)), duration=duration,
            phase=float(rng.uniform(0.0, 2.0 * math.pi)),
        )
    else:
        loading = _random_loading(rng)
    return LimitSystem(
        k_h=float(rng.uniform(0.5, 3.0)), L_h_rest=float(rng.normal(0.0, 0.5)),
        loading=loading, rho_plus=float(rng.uniform(0.01, 0.5)),
        rho_minus=-float(rng.uniform(0.01, 0.5)),
    )


@pytest.mark.parametrize("kind", ["ramp", "sinusoid", "piecewise"])
def test_play_matches_the_index_loop_route_bytewise(kind):
    rng = np.random.default_rng(26)
    for _ in range(20):
        system = _random_limit_system(rng, kind)
        grid = default_grid(system.loading.horizon, int(rng.integers(1, 3000)))
        lower, upper = elastic_strip(system, grid)
        # inside the strip, or exactly on one of its edges
        z0 = float(rng.choice([lower[0], upper[0], rng.uniform(lower[0], upper[0])]))
        states = solve_limit(system, z0, grid).states
        assert states.tobytes() == limit_route.play(lower, upper, z0).tobytes()


def test_play_takes_ties_and_signed_zeros_as_min_and_max_do():
    # every three-step strip over {-1, -0, 0, 1}, edges equal or crossing
    # zero, from every start in that set: each tie picks the same operand
    values = (-1.0, -0.0, 0.0, 1.0)
    pairs = [(lo, hi) for lo in values for hi in values if lo <= hi]
    for z0 in values:
        for strip in itertools.product(pairs, repeat=3):
            lower, upper = np.array(strip).T
            expected = limit_route.play(lower, upper, z0)
            assert _play(lower, upper, z0).tobytes() == expected.tobytes(), (z0, strip)
    # -0.0 stays -0.0 while it is inside the strip
    assert np.all(np.signbit(_play(np.array([0.0, -1.0]), np.array([1.0, 1.0]), -0.0)))


@pytest.mark.parametrize("rate", [1.0, 0.0, -1.0])
def test_negative_zero_start_on_a_zero_lower_edge(rate):
    # L_h_rest = -rho_plus / k_h puts the lower edge at exactly 0.0 at t = 0
    system = LimitSystem(k_h=2.0, L_h_rest=-0.1 / 2.0, loading=Ramp(rate=rate, duration=1.0),
                         rho_plus=0.1, rho_minus=-0.1)
    grid = default_grid(1.0, 64)
    lower, upper = elastic_strip(system, grid)
    assert lower[0] == 0.0 and not np.signbit(lower[0])
    states = solve_limit(system, -0.0, grid).states
    assert np.signbit(states[0])
    assert states.tobytes() == limit_route.play(lower, upper, -0.0).tobytes()


def test_solution_stays_in_strip():
    system = LimitSystem(
        k_h=2.0,
        L_h_rest=0.5,
        loading=SinusoidLoading(q0=0.5, amplitude=0.4, frequency=1.0, duration=3.0),
        rho_plus=0.15,
        rho_minus=-0.25,
    )
    traj = solve_limit(system, 0.0)
    lo, hi = elastic_strip(system, traj.times)
    assert np.all(traj.states >= lo - 1e-14)
    assert np.all(traj.states <= hi + 1e-14)


def test_small_oscillation_pins_state():
    # oscillation amplitude below half the strip width: after the first
    # transient the state never moves again
    system = LimitSystem(
        k_h=1.0,
        L_h_rest=0.0,
        loading=SinusoidLoading(q0=0.0, amplitude=0.05, frequency=1.0, duration=4.0),
        rho_plus=0.1,
        rho_minus=-0.1,
    )
    traj = solve_limit(system, 0.08)
    tail = traj.states[traj.times >= 1.0]
    assert np.all(tail == tail[0])


def test_rate_independence_under_reparametrisation():
    # solving on a distorted clock and sampling the original on the
    # distorted grid produce identical states
    system = canonical_system()
    t_nodes = np.linspace(0.0, 2.0, 1501)
    s_nodes = 0.25 * t_nodes ** 2 + 0.5 * t_nodes  # increasing, s(2) = 2

    class Reparametrised(LoadingProgram):
        def __init__(self, inner):
            self.inner = inner

        def q(self, t):
            s = 0.25 * np.asarray(t) ** 2 + 0.5 * np.asarray(t)
            return self.inner.q(s)

        def qdot(self, t):
            s = 0.25 * np.asarray(t) ** 2 + 0.5 * np.asarray(t)
            return self.inner.qdot(s) * (0.5 * np.asarray(t) + 0.5)

        @property
        def horizon(self):
            return 2.0

        @property
        def max_rate(self):
            return 1.5 * self.inner.max_rate

    warped = LimitSystem(
        k_h=1.0,
        L_h_rest=0.0,
        loading=Reparametrised(system.loading),
        rho_plus=0.1,
        rho_minus=-0.1,
    )
    direct = solve_limit(system, 0.0, grid=s_nodes)
    rescaled = solve_limit(warped, 0.0, grid=t_nodes)
    np.testing.assert_array_equal(direct.states, rescaled.states)
    assert rescaled.dissipation[-1] == pytest.approx(direct.dissipation[-1], rel=1e-14)


def test_hysteresis_loop_dissipation():
    # triangle pull: up 1.5, down to 0.5; sliding spans are travel minus the
    # strip crossings
    loading = SmoothedPiecewiseLinear(
        times=(0.0, 1.5, 2.5),
        values=(0.0, 1.5, 0.5),
        blend=0.01,
    )
    system = LimitSystem(1.0, 0.0, loading, rho_plus=0.1, rho_minus=-0.1)
    traj = solve_limit(system, 0.0, grid=np.linspace(0.0, 2.5, 8001))
    up_travel = np.max(traj.states) - traj.states[0]
    down_travel = np.max(traj.states) - traj.states[-1]
    expected = 0.1 * up_travel + 0.1 * down_travel
    assert traj.dissipation[-1] == pytest.approx(expected, rel=1e-12)
    # travels from the play geometry: the blend caps the peak at
    # q = 1.5 - blend/2 = 1.495, and reversal consumes 2 rho / k_h
    assert up_travel == pytest.approx(1.395, abs=1e-3)
    assert down_travel == pytest.approx(0.795, abs=1e-3)


def test_energies_column():
    system = canonical_system()
    traj = solve_limit(system, 0.0)
    idx = 3000
    t, z = traj.times[idx], traj.states[idx]
    assert traj.energies[idx] == pytest.approx(0.5 * z * z - t * z, rel=1e-12)


def test_default_grid_density():
    grid = default_grid(2.0)
    assert grid.size == 4097
    assert grid[0] == 0.0 and grid[-1] == 2.0


def test_bad_grid_rejected():
    system = canonical_system()
    with pytest.raises(ConfigError):
        solve_limit(system, 0.0, grid=np.array([0.0, 0.5, 0.4]))
    with pytest.raises(ConfigError):
        solve_limit(system, 0.0, grid=np.array([0.0, 3.0]))
    # the one grid rule also asks for a start at 0 and ordered numbers
    with pytest.raises(ConfigError):
        solve_limit(system, 0.0, grid=np.array([0.1, 1.0]))
    with pytest.raises(ConfigError):
        solve_limit(system, 0.0, grid=np.array([0.0, math.nan]))


@pytest.mark.parametrize("compute, kind", [
    (lambda: np.array([1e300]) * 1e300, "overflowed"),
    (lambda: np.array([1.0]) / 0.0, "divided by zero"),
    (lambda: np.array([0.0]) / 0.0, "gave an invalid value"),
])
def test_float_error_message_names_its_kind(compute, kind):
    with pytest.raises(SolverError, match=rf"^post-processing {kind} \(\w"):
        with overflow_raises("post-processing"):
            compute()


def test_tiny_grid_spacing_solves():
    # a 1e-300 horizon over 4096 steps: the clamp recursion never divides by
    # the spacing, so the run stays at rest inside the strip
    system = LimitSystem(1.0, 0.0, Ramp(duration=1e-300), 0.1, -0.1)
    traj = solve_limit(system, 0.0)
    assert not np.any(traj.states) and not np.any(traj.dissipation)
