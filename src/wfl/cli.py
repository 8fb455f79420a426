"""Command line surface: JSON config in, CSV (and optional SVG) out.

One JSON file describes the experiment.  Every subcommand builds, and so
checks, every block the config holds, read or not, from one table of
builders (:data:`_BLOCKS`), validating them strictly (here: unknown keys,
types, finite numbers, the integer cap; every range and cross-field
admissibility in the library class or function that takes the value,
before any computation); it then computes in memory and returns its
tables and plots without writing.  :func:`main` draws every requested
plot, and only then creates ``--out`` and writes the files.  A config
problem, a plot that cannot be drawn among them, therefore never leaves
partial results behind.

Exit codes: 0 success, 1 configuration or usage error, 2 solver failure.
"""

from __future__ import annotations

import argparse
import json
import math
import reprlib
import sys
from dataclasses import MISSING, astuple, fields
from itertools import islice
from pathlib import Path

import numpy as np

from .convergence import run_sweep
from .errors import ConfigError, SolverError
from .limit_solver import (
    LimitSystem,
    Ramp,
    SinusoidLoading,
    SmoothedPiecewiseLinear,
    DEFAULT_GRID_POINTS,
    default_grid,
    elastic_strip,
    solve_limit,
)
from .models import (
    AngularBristle,
    FrictionCoefficients,
    SlantedBristle,
    VerticalBristle,
    axial_tension,
    coefficients,
    nap_coefficients,
    perceived_extrema,
    perceived_profile,
)
from .profiles import FourierTerm, SurfaceProfile
from .svg import line_plot
from .variational import limit_density
from .viscous_solver import IntegratorConfig, WigglySystem, integrate

# ---------------------------------------------------------------------------
# schema checking
# ---------------------------------------------------------------------------


def _fail(path: str, message: str):
    raise ConfigError(f"config {path}: {message}")


def _check_keys(obj, path, required=(), optional=()):
    if not isinstance(obj, dict):
        _fail(path, f"expected an object, got {type(obj).__name__}")
    unknown = sorted(set(obj) - set(required) - set(optional))
    if unknown:
        _fail(path, f"unknown keys {reprlib.repr(unknown)}")
    missing = sorted(set(required) - set(obj))
    if missing:
        _fail(path, f"missing required keys {missing}")


def _number(obj, key, path, default=None):
    """A finite float; its range is checked by the class or function that takes it."""
    if key not in obj:
        return default
    value = obj[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        _fail(path, f"{key} must be a number")
    try:
        value = float(value)
    except OverflowError:  # an integer literal beyond the float range
        value = math.inf
    if not math.isfinite(value):
        _fail(path, f"{key} must be finite")
    return value


def _integer(obj, key, path, default=None, minimum=None):
    """An integer of at most 10^6; ``minimum`` for the counts the CLI itself uses."""
    if key not in obj:
        return default
    value = obj[key]
    if isinstance(value, bool) or not isinstance(value, int):
        _fail(path, f"{key} must be an integer")
    if minimum is not None and value < minimum:
        _fail(path, f"{key} must be >= {minimum}")
    if value > 10**6:  # integers size arrays: a larger one would exhaust memory
        _fail(path, f"{key} must be <= {10**6}")
    return value


def _number_list(obj, key, path, default=None):
    if key not in obj:
        return default
    values = obj[key]
    if not isinstance(values, list) or not values:
        _fail(path, f"{key} must be a non-empty array of numbers")
    return [_number({f"{key}[{i}]": v}, f"{key}[{i}]", path) for i, v in enumerate(values)]


# ---------------------------------------------------------------------------
# block builders
# ---------------------------------------------------------------------------


def build_profile(block) -> SurfaceProfile:
    path = "profile"
    _check_keys(block, path, optional=("sinusoid", "terms"))
    if ("sinusoid" in block) == ("terms" in block):
        _fail(path, "give exactly one of 'sinusoid' or 'terms'")
    if "sinusoid" in block:
        sub = block["sinusoid"]
        _check_keys(sub, path + ".sinusoid", optional=("slope", "harmonic", "phase"))
        return SurfaceProfile.sinusoid(
            slope=_number(sub, "slope", path, default=0.1),
            harmonic=_integer(sub, "harmonic", path, default=1),
            phase=_number(sub, "phase", path, default=0.0),
        )
    if not isinstance(block["terms"], list):
        _fail(path, "terms must be an array of term objects")
    terms = []
    for i, raw in enumerate(block["terms"]):
        term_path = f"{path}.terms[{i}]"
        _check_keys(raw, term_path, required=("amplitude",), optional=("harmonic", "phase"))
        terms.append(
            FourierTerm(
                amplitude=_number(raw, "amplitude", term_path),
                harmonic=_integer(raw, "harmonic", term_path, default=1),
                phase=_number(raw, "phase", term_path, default=0.0),
            )
        )
    return SurfaceProfile(terms=tuple(terms))


_KINDS = {
    "model": {cls.name: cls for cls in (VerticalBristle, SlantedBristle, AngularBristle)},
    "loading": {"ramp": Ramp, "sinusoid": SinusoidLoading, "piecewise": SmoothedPiecewiseLinear},
}


def _build_kind(block, path):
    """The class that ``block["kind"]`` names in ``_KINDS[path]``, built from its fields.

    A dataclass field without a default is a required key; a ``tuple``
    field takes a list of numbers, any other field a number.
    """
    table = _KINDS[path]
    if not isinstance(block, dict) or "kind" not in block:
        _fail(path, f"needs a 'kind' of {', '.join(table)}")
    kind = block["kind"]
    if not isinstance(kind, str) or kind not in table:
        _fail(path, f"unknown {path} kind {reprlib.repr(kind)}")
    names = {f.name: f for f in fields(table[kind])}
    required = [n for n, f in names.items() if f.default is MISSING]
    _check_keys(block, path, required=("kind", *required), optional=names)
    return table[kind](**{
        n: tuple(_number_list(block, n, path)) if "tuple" in str(names[n].type)
        else _number(block, n, path)
        for n in block if n != "kind"
    })


def build_model(block):
    return _build_kind(block, "model")


def build_loading(block):
    return _build_kind(block, "loading")


def build_system(block, loading, coeffs) -> LimitSystem:
    path = "system"
    _check_keys(
        block, path, required=("k_h",), optional=("L_h_rest", "rho_plus", "rho_minus")
    )
    return LimitSystem(
        k_h=_number(block, "k_h", path),
        L_h_rest=_number(block, "L_h_rest", path, default=0.0),
        loading=loading,
        rho_plus=_number(block, "rho_plus", path, default=coeffs.rho_plus),
        rho_minus=_number(block, "rho_minus", path, default=coeffs.rho_minus),
    )


def build_simulation(block):
    path = "simulation"
    _check_keys(
        block,
        path,
        optional=("epsilons", "gamma", "z0", "grid_points", "tolerances", "windows"),
    )
    tolerances = block.get("tolerances", {})
    names = [f.name for f in fields(IntegratorConfig)]
    _check_keys(tolerances, path + ".tolerances", optional=names)
    config = IntegratorConfig(**{n: _number(tolerances, n, path) for n in tolerances})
    windows = block.get("windows")
    if windows is not None:
        if not isinstance(windows, list) or not windows:
            _fail(path, "windows must be a non-empty array of [t1, t2] pairs")
        parsed = []
        for i, pair in enumerate(windows):
            if not isinstance(pair, list) or len(pair) != 2:
                _fail(path, f"windows[{i}] must be a [t1, t2] pair")
            key = f"windows[{i}]"
            parsed.append(tuple(_number_list({key: pair}, key, path)))
        windows = tuple(parsed)
    return {
        "epsilons": _number_list(block, "epsilons", path, default=None),
        "gamma": _number(block, "gamma", path, default=1.0),
        "z0": _number(block, "z0", path, default=0.0),
        "grid_points": _integer(block, "grid_points", path, DEFAULT_GRID_POINTS, minimum=2),
        "config": config,
        "windows": windows,
    }


def _system(block, profile, model, loading) -> LimitSystem:
    return build_system(block, loading, coefficients(model, profile))


def _sweep_theta(block) -> tuple:
    """The bristle kind, the sinusoid and the tilt angles of the sweep."""
    path = "sweep_theta"
    _check_keys(block, path, required=("model",),
                optional=("count", "slope", "theta_min", "theta_max"))
    kind = block["model"]
    if kind not in ("slanted", "angular"):
        _fail(path, f"model must be 'slanted' or 'angular', got {reprlib.repr(kind)}")
    count = _integer(block, "count", path, default=50, minimum=1)
    # the profile checks the slope before the default bounds divide by it
    slope = _number(block, "slope", path, default=0.1)
    profile = SurfaceProfile.sinusoid(slope=slope)
    lo = _number(block, "theta_min", path,
                 default=0.01 if kind == "slanted" else math.atan(slope) + 0.01)
    hi = _number(block, "theta_max", path, default=math.atan(1.0 / slope) - 0.01)
    if not 0.0 < lo < hi:
        _fail(path, f"need 0 < theta_min < theta_max, got ({lo}, {hi})")
    return kind, profile, np.linspace(lo, hi, count + 2)[1:-1]


def _nap(block) -> tuple:
    path = "nap"
    _check_keys(block, path, required=("theta_lim", "theta_with"), optional=("mu_plus", "k", "L"))
    return (
        _number(block, "theta_lim", path),
        _number(block, "theta_with", path),
        _number(block, "mu_plus", path, default=0.1),
        _number(block, "k", path, default=1.0),
        _number(block, "L", path, default=1.0),
    )


def _perceived(block) -> int:
    _check_keys(block, "perceived", optional=("samples",))
    return _integer(block, "samples", "perceived", default=512, minimum=8)


def _k_table(block) -> tuple:
    """``xi_min`` and ``xi_max``, None where the density sets them, and ``count``."""
    path = "k_table"
    _check_keys(block, path, optional=("xi_min", "xi_max", "count"))
    xi_min, xi_max = _number(block, "xi_min", path), _number(block, "xi_max", path)
    return xi_min, xi_max, _integer(block, "count", path, default=201, minimum=2)


#: Every top-level block in build order: its builder, the built blocks the
#: builder takes after the block, and whether a command that reads the block
#: needs it in the config (if not, a missing block is built from ``{}``).
_BLOCKS = {
    "profile": (build_profile, (), True),
    "model": (build_model, (), True),
    "loading": (build_loading, (), True),
    "system": (_system, ("profile", "model", "loading"), True),
    "simulation": (build_simulation, (), False),
    "sweep_theta": (_sweep_theta, (), False),
    "nap": (_nap, (), False),
    "perceived": (_perceived, (), False),
    "k_table": (_k_table, (), False),
}


def load_config(path) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            raw = json.load(handle)
    except ValueError as exc:  # malformed JSON, bad UTF-8, an integer over 4300 digits
        raise ConfigError(f"config {path}: invalid JSON ({exc})") from exc
    _check_keys(raw, "top level", optional=_BLOCKS)
    return raw


def _experiment(raw: dict, *blocks: str) -> tuple:
    """The named blocks, once every block the config holds is built.

    Building checks a block, so a bad block fails every subcommand, read or
    not.  A named block the config lacks is built from ``{}`` unless the
    command needs it; a block that is built needs its builder's inputs.
    Every missing block is named in one message before anything is built.
    """
    wanted = {*blocks, *raw}
    needs = {name for name in blocks if _BLOCKS[name][2]}
    needs.update(i for name in wanted for i in _BLOCKS[name][1])
    missing = sorted(needs - set(raw))
    if missing:
        _fail("top level", f"this command needs the blocks {missing}")
    built = {}
    for name, (build, inputs, _) in _BLOCKS.items():
        if name in wanted:
            built[name] = build(raw.get(name, {}), *(built[i] for i in inputs))
    return tuple(built[name] for name in blocks)


# ---------------------------------------------------------------------------
# output helpers
# ---------------------------------------------------------------------------


def _write_csv(path: Path, header, rows):
    """``header``, then ``rows`` (tuples as long as it), as ``csv.writer`` writes them.

    Each field goes through ``str``, as ``csv`` puts every field that is not a
    string, and the header and the identifiers the package writes need none of
    its quoting, so one ``%s`` template per row gives the same bytes.  The text
    goes out 1,024 rows at a time, each row formatted as it comes: a list of the
    rows, or one join of the whole table, raises the peak memory.
    """
    format_row = (",".join(["%s"] * len(header)) + "\r\n").__mod__
    rows = iter(rows)
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write(format_row(tuple(header)))
        while text := "".join(map(format_row, islice(rows, 1024))):
            handle.write(text)


def _columns(*columns):
    """Rows of Python floats from equal-length array columns, made as they are written.

    ``str`` gives a NumPy scalar the same text as a float, but slower, so the
    columns go through ``tolist``.
    """
    yield from zip(*(np.asarray(column).tolist() for column in columns))


#: The ``coeffs`` and ``sweep-theta`` columns: the coefficients, then the oracle's extreme slopes.
_COEFFICIENT_COLUMNS = (
    *(f.name for f in fields(FrictionCoefficients)), "mu_plus_oracle", "mu_minus_oracle"
)


def _coefficient_row(model, profile) -> tuple:
    """The :data:`_COEFFICIENT_COLUMNS` of ``model`` on ``profile``."""
    coeffs = astuple(coefficients(model, profile))
    return (*coeffs, *perceived_extrema(profile, model.slope_factor))


# ---------------------------------------------------------------------------
# subcommands: each returns its tables (filename, header, rows) and its plots
# (filename, series, line_plot keywords); main writes them
# ---------------------------------------------------------------------------


def cmd_coeffs(raw: dict, args) -> tuple:
    profile, model = _experiment(raw, "profile", "model")
    row = (model.name, *_coefficient_row(model, profile))
    return [("coeffs.csv", ("model", *_COEFFICIENT_COLUMNS), [row])], []


def cmd_sweep_theta(raw: dict, args) -> tuple:
    ((kind, profile, thetas),) = _experiment(raw, "sweep_theta")
    rows = []
    for theta in thetas:
        theta = float(theta)
        if kind == "slanted":
            model = SlantedBristle(k=1.0, L_rest=1.0, h=0.05, theta=theta)
        else:
            model = AngularBristle(k=1.0, L=1.0, h=math.cos(theta), theta_rest=0.0)
        rows.append((theta, model.slope_factor, *_coefficient_row(model, profile)))

    header = ("theta", "a", *_COEFFICIENT_COLUMNS)
    series = [
        (thetas, [r[3] for r in rows], "mu_plus"),
        (thetas, [-r[4] for r in rows], "-mu_minus"),
    ]
    plot = dict(title=f"perceived slope extremes, {kind} model", xlabel="theta", ylabel="mu")
    return [("sweep_theta.csv", header, rows)], [("sweep_theta.svg", series, plot)]


def cmd_simulate(raw: dict, args) -> tuple:
    profile, model, system, sim = _experiment(raw, "profile", "model", "system", "simulation")
    wiggly = WigglySystem(
        base=system, model=model, profile=profile, epsilon=args.epsilon, gamma=sim["gamma"]
    )
    grid = default_grid(system.loading.horizon, sim["grid_points"] - 1)
    trajectory = integrate(wiggly, sim["z0"], config=sim["config"], grid=grid)
    tables = [(
        "viscous.csv",
        ("t", "z", "zdot", "xi", "energy", "dissipation_cum", "delta_eps"),
        _columns(
            trajectory.times,
            trajectory.states,
            trajectory.velocities,
            trajectory.xi,
            trajectory.energies,
            trajectory.dissipation,
            trajectory.delta,
        ),
    )]
    series = [(trajectory.times, trajectory.states, f"z_eps (eps={args.epsilon:g})")]
    bands = None
    if args.limit:
        limit = solve_limit(system, sim["z0"], grid=grid)
        lower, upper = elastic_strip(system, limit.times)
        tables.append((
            "limit.csv",
            ("t", "z", "z_tilde_minus", "z_tilde_plus", "dissipation_cum", "energy"),
            _columns(
                limit.times,
                limit.states,
                lower,
                upper,
                limit.dissipation,
                limit.energies,
            ),
        ))
        series.append((limit.times, limit.states, "z limit"))
        bands = [(limit.times, lower, upper, "elastic strip")]
    plot = dict(title="driven state vs time", xlabel="t", ylabel="z", bands=bands)
    return tables, [("overlay.svg", series, plot)]


def cmd_converge(raw: dict, args) -> tuple:
    profile, model, system, sim = _experiment(raw, "profile", "model", "system", "simulation")
    if not sim["epsilons"]:
        _fail("simulation", "converge needs a non-empty 'epsilons' list")

    grid = default_grid(system.loading.horizon, sim["grid_points"] - 1)
    report = run_sweep(
        system,
        profile,
        model,
        epsilons=sim["epsilons"],
        windows=sim["windows"],
        z0=sim["z0"],
        gamma=sim["gamma"],
        config=sim["config"],
        grid=grid,
    )

    gap_names = [f"diss_gap_w{j + 1}" for j in range(len(report.windows))]
    order = "" if report.fitted_order is None else report.fitted_order
    table = (
        "convergence.csv",
        ("epsilon", "sup_error", *gap_names, "runtime_s", "fitted_order"),
        [(*row, order) for row in report.rows],
    )
    series = [(report.epsilons, report.sup_errors, "sup |z_eps - z|")]
    plot = dict(title="state convergence", xlabel="epsilon", ylabel="sup error", loglog=True)
    return [table], [("convergence.svg", series, plot)]


def cmd_nap(raw: dict, args) -> tuple:
    ((theta_lim, theta_with, mu_plus, k, L),) = _experiment(raw, "nap")
    rho_with, rho_against = nap_coefficients(mu_plus, theta_lim, theta_with)
    rows = []
    for direction, tilt, rho in (("with", theta_with, rho_with),
                                 ("against", -theta_with, rho_against)):
        # The rest configuration flips relative to the direction of motion;
        # that flip is what makes the two thresholds differ.
        model = AngularBristle(k=k, L=L, h=L * math.cos(theta_lim), theta_rest=tilt)
        tension = axial_tension(model, rho)
        rows.append((direction, tilt, rho, tension, "true" if tension < 0.0 else "false"))
    return [("nap.csv", ("direction", "rest_tilt", "rho", "tension", "compressed"), rows)], []


def cmd_perceived(raw: dict, args) -> tuple:
    profile, model, samples = _experiment(raw, "profile", "model", "perceived")
    grid, heights, slopes = perceived_profile(profile, model.slope_factor, samples=samples)
    table = ("perceived.csv", ("z", "height", "slope"), _columns(grid, heights, slopes))
    series = [(grid, heights, "height"), (grid, slopes, "slope")]
    plot = dict(title="perceived corrugation over one period", xlabel="z", ylabel="value")
    return [table], [("perceived.svg", series, plot)]


def cmd_k_table(raw: dict, args) -> tuple:
    profile, model, (xi_min, xi_max, count) = _experiment(raw, "profile", "model", "k_table")
    density = limit_density(model, profile)
    xi_min = 2.0 * density.interval.lower if xi_min is None else xi_min
    xi_max = 2.0 * density.interval.upper if xi_max is None else xi_max
    if xi_min >= xi_max:
        _fail("k_table", f"need xi_min < xi_max, got ({xi_min}, {xi_max})")
    if not math.isfinite(xi_max - xi_min):  # linspace would write nan with warnings
        _fail("k_table", f"xi_max - xi_min overflows, got ({xi_min}, {xi_max})")
    xis = np.linspace(xi_min, xi_max, count)
    values = density.k(xis)
    series = [(xis, values, "K(xi)"), (xis, np.abs(xis), "|xi|")]
    plot = dict(title="mean absolute force gap", xlabel="xi", ylabel="K")
    return [("k_table.csv", ("xi", "K"), _columns(xis, values))], [("k_table.svg", series, plot)]


_COMMANDS = {
    "coeffs": (cmd_coeffs, "friction coefficient table"),
    "sweep-theta": (cmd_sweep_theta, "coefficient sweep over tilt angles"),
    "simulate": (cmd_simulate, "integrate trajectories"),
    "converge": (cmd_converge, "epsilon convergence sweep"),
    "nap": (cmd_nap, "direction-dependent thresholds"),
    "perceived": (cmd_perceived, "perceived corrugation table"),
    "k-table": (cmd_k_table, "dissipation density table"),
}


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors are configuration errors.

    argparse would print a usage block and exit 2, the code of a solver
    failure; raising lets :func:`main` report one line and exit 1.
    Subcommand parsers inherit the class.
    """

    def error(self, message):
        raise ConfigError(f"{self.prog}: {message}")


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", required=True, help="path to the JSON experiment file")
    common.add_argument("--out", default=".",
                        help="output directory (created once every result and plot is ready)")
    common.add_argument("--svg", action="store_true", help="also write SVG plots")

    parser = _Parser(
        prog="wfl",
        description="Friction-from-corrugation toolkit: coefficients, trajectories, "
        "convergence sweeps and duality tables.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, summary) in _COMMANDS.items():
        sub.add_parser(name, parents=[common], help=summary)
    simulate = sub.choices["simulate"]
    simulate.add_argument("--epsilon", type=float, required=True, help="corrugation scale")
    simulate.add_argument(
        "--limit", action="store_true", help="also solve the quasistatic limit"
    )
    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        tables, plots = _COMMANDS[args.command][0](load_config(args.config), args)
        # a plot that cannot be drawn is a config error, raised before any file exists
        drawn = [(name, line_plot(series, **kw)) for name, series, kw in plots if args.svg]
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        for name, header, rows in tables:
            _write_csv(out / name, header, rows)
        for name, text in drawn:
            (out / name).write_text(text, encoding="utf-8")
    except (ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except SolverError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
