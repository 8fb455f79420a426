"""End-to-end checks of the command line: exit codes, CSV content, SVG output."""

import contextlib
import copy
import csv
import functools
import io
import json
import math
import os
import signal
import subprocess
import sys
import tempfile
import warnings
import xml.etree.ElementTree as ET
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import output_route
import wfl
from wfl import cli, svg
from wfl.errors import ConfigError, SolverError, WflError
from wfl.limit_solver import LimitSystem, Ramp
from wfl.models import VerticalBristle, coefficients, epsilon_limit, perceived_extrema
from wfl.profiles import SurfaceProfile
from wfl.viscous_solver import IntegratorConfig, WigglySystem, integrate

LONG = "x" * 5000

CANONICAL = {
    "profile": {"sinusoid": {"slope": 0.1}},
    "model": {"kind": "vertical", "k": 1.0, "L_rest": 2.0, "h": 1.0},
    "loading": {"kind": "ramp", "duration": 0.5},
    "system": {"k_h": 1.0},
}


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as handle:
        rows = list(csv.reader(handle))
    return rows[0], rows[1:]


def run(tmp_path, command, payload, *extra):
    config = write_config(tmp_path, payload)
    out = tmp_path / "out"
    code = cli.main([command, "--config", config, "--out", str(out), *extra])
    return code, out


def test_float_columns_write_the_bytes_of_numpy_scalars(tmp_path):
    # the CSV writer gets Python floats from the array columns; csv.writer
    # writes the NumPy scalars the columns hold as the same text
    column = np.array([-0.0, 5e-324, 1e16, 1e22, np.inf, np.nan, 0.1, -1.0 / 3.0, 2.5e15])
    columns = (column, -column, column[::-1])
    cli._write_csv(tmp_path / "floats.csv", ("a", "b", "c"), cli._columns(*columns))
    output_route.write_csv(tmp_path / "scalars.csv", ("a", "b", "c"), zip(*columns))
    assert type(next(cli._columns(*columns))[0]) is float
    assert (tmp_path / "floats.csv").read_bytes() == (tmp_path / "scalars.csv").read_bytes()


def _and_neighbours(*values):
    return [float(v) for x in values for v in (np.nextafter(x, -np.inf), x, np.nextafter(x, np.inf))]


# every kind of field the package writes: floats where repr changes notation
# or is subnormal, signed zeros, infinities, nan, ints, NumPy scalars, and the
# identifiers (model names, nap directions and flags, an empty fitted order)
_EDGE_FLOATS = _and_neighbours(-0.0, 0.0, 5e-324, 1e16, -1e16, 1e-5, -1e-5) + [
    math.inf, -math.inf, math.nan]
CSV_FIELDS = st.one_of(
    st.sampled_from(_EDGE_FLOATS),
    st.floats(),
    st.integers(),
    st.floats().map(np.float64),
    st.sampled_from(["vertical", "slanted", "angular", "with", "against", "true", "false", ""]),
)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(columns=st.integers(2, 8), count=st.sampled_from([0, 1, 1024, 1025]),
       fields=st.lists(CSV_FIELDS, min_size=1, max_size=40), start=st.integers(0, 100))
def test_csv_template_writes_the_bytes_of_csv_writer(tmp_path_factory, columns, count, fields, start):
    # every table has at least two columns, so no row is one empty field, which
    # csv alone would quote; 1,024 and 1,025 rows fill one block and cross into a second
    header = tuple(f"c{j}" for j in range(columns))
    rows = [tuple(fields[(start + r * columns + c) % len(fields)] for c in range(columns))
            for r in range(count)]
    directory = tmp_path_factory.getbasetemp()
    cli._write_csv(directory / "template.csv", header, iter(rows))
    output_route.write_csv(directory / "csv.csv", header, rows)
    assert (directory / "template.csv").read_bytes() == (directory / "csv.csv").read_bytes()


@pytest.mark.parametrize("log", [False, True], ids=["linear", "loglog"])
def test_polyline_points_are_the_per_point_text(log):
    # the canvas maps whole arrays and the text comes from one template over
    # Python floats: the same bytes as formatting each NumPy point on its own,
    # and as the per-point str.format route
    rng = np.random.default_rng(5)
    xs = np.sort(rng.uniform(1e-3, 2.0, 4097))
    ys = rng.standard_normal(4097) * 10.0 ** rng.integers(-8, 8, 4097)
    if log:
        xs, ys = np.log10(xs), np.log10(np.abs(ys))
    canvas = svg._Canvas(float(xs.min()), float(xs.max()), float(ys.min()), float(ys.max()))
    per_point = " ".join(f"{canvas.x(x):.2f},{canvas.y(y):.2f}" for x, y in zip(xs, ys))
    assert svg._polyline_points(canvas, xs, ys) == per_point
    assert svg._polyline_points(canvas, xs, ys) == output_route.polyline_points(canvas, xs, ys)


class _Unscaled:
    """A canvas that puts each value where it is, so the formatter sees exactly the test's floats."""

    def x(self, values):
        return values

    y = x


@pytest.mark.parametrize("size", [0, 1, 2, 17])
def test_polyline_points_round_ties_and_specials_as_str_format(size):
    # exact binary ties round half to even, -0.001 keeps its sign, nan and inf print as words
    ties = [k + f for k in (0.0, 1.0, -3.0, 250.0) for f in (0.125, 0.375, 0.625, 0.875)]
    values = np.array(ties + [-0.001, -0.0, 0.0, 0.005, math.nan, math.inf, -math.inf, 5e-324])
    for xs in (values, values[::-1], np.roll(values, 7)):
        xs, ys = xs[:size], values[:size][::-1]
        text = svg._polyline_points(_Unscaled(), xs, ys)
        assert text == output_route.polyline_points(_Unscaled(), xs, ys)
        assert text.count(",") == size
    full = svg._polyline_points(_Unscaled(), values, values)
    assert full.startswith("0.12,0.12 0.38,0.38 0.62,0.62 0.88,0.88 1.12,1.12")
    assert "-0.00,-0.00 -0.00,-0.00 0.00,0.00 0.01,0.01 nan,nan inf,inf -inf,-inf 0.00,0.00" in full
    assert full == output_route.polyline_points(_Unscaled(), values, values)


@pytest.mark.parametrize("label", [
    "a & b", "x < y > z", "<&>", 'say "K" or \'K\'', "ξ → K(ξ), µ±", "&amp; &lt;", "", "plain",
])
def test_escape_is_saxutils_escape(label):
    from xml.sax.saxutils import escape

    assert svg.escape(label) == escape(label)


class TestCoeffs:
    def test_row_matches_library_bitwise(self, tmp_path):
        code, out = run(tmp_path, "coeffs", CANONICAL)
        assert code == 0
        header, rows = read_csv(out / "coeffs.csv")
        assert header[:2] == ["model", "alpha"]
        assert len(rows) == 1
        row = rows[0]
        assert row[0] == "vertical"

        profile = SurfaceProfile.sinusoid(slope=0.1)
        model = VerticalBristle(k=1.0, L_rest=2.0, h=1.0)
        coeffs = coefficients(model, profile)
        assert float(row[1]) == coeffs.alpha
        assert float(row[2]) == coeffs.mu_plus
        assert float(row[3]) == coeffs.mu_minus
        assert float(row[4]) == coeffs.rho_plus
        assert float(row[5]) == coeffs.rho_minus

    def test_oracle_columns_close_to_closed_form(self, tmp_path):
        code, out = run(tmp_path, "coeffs", CANONICAL)
        assert code == 0
        _, rows = read_csv(out / "coeffs.csv")
        row = rows[0]
        assert float(row[6]) == pytest.approx(float(row[2]), abs=1e-8)
        assert float(row[7]) == pytest.approx(float(row[3]), abs=1e-8)


class TestSweepTheta:
    def test_slanted_matches_closed_form(self, tmp_path):
        payload = {"sweep_theta": {"model": "slanted", "count": 5}}
        code, out = run(tmp_path, "sweep-theta", payload)
        assert code == 0
        header, rows = read_csv(out / "sweep_theta.csv")
        assert header[0] == "theta"
        assert len(rows) == 5
        for row in rows:
            theta = float(row[0])
            assert 0.01 < theta < math.atan(10.0) - 0.01
            assert float(row[1]) == pytest.approx(-math.tan(theta), rel=1e-14)
            mu_plus = 0.1 / (1.0 - 0.1 * math.tan(theta))
            mu_minus = -0.1 / (1.0 + 0.1 * math.tan(theta))
            assert float(row[3]) == pytest.approx(mu_plus, rel=1e-13)
            assert float(row[4]) == pytest.approx(mu_minus, rel=1e-13)
            assert float(row[7]) == pytest.approx(float(row[3]), abs=1e-8)
            assert float(row[8]) == pytest.approx(float(row[4]), abs=1e-8)

    def test_angular_matches_closed_form(self, tmp_path):
        payload = {"sweep_theta": {"model": "angular", "count": 3}}
        code, out = run(tmp_path, "sweep-theta", payload)
        assert code == 0
        _, rows = read_csv(out / "sweep_theta.csv")
        assert len(rows) == 3
        for row in rows:
            theta = float(row[0])
            cot = 1.0 / math.tan(theta)
            assert float(row[3]) == pytest.approx(0.1 / (1.0 + 0.1 * cot), rel=1e-13)
            assert float(row[4]) == pytest.approx(-0.1 / (1.0 - 0.1 * cot), rel=1e-13)

    def test_svg_written_and_parses(self, tmp_path):
        payload = {"sweep_theta": {"model": "slanted", "count": 3}}
        code, out = run(tmp_path, "sweep-theta", payload, "--svg")
        assert code == 0
        root = ET.parse(out / "sweep_theta.svg").getroot()
        assert root.tag.endswith("svg")

    def test_rejects_unknown_model(self, tmp_path):
        payload = {"sweep_theta": {"model": "diagonal"}}
        code, _ = run(tmp_path, "sweep-theta", payload)
        assert code == 1


class TestSimulate:
    def payload(self):
        payload = dict(CANONICAL)
        payload["simulation"] = {"grid_points": 201}
        return payload

    def test_writes_viscous_limit_and_svg(self, tmp_path):
        code, out = run(
            tmp_path, "simulate", self.payload(), "--epsilon", "0.1", "--limit", "--svg"
        )
        assert code == 0
        assert (out / "viscous.csv").exists()
        assert (out / "limit.csv").exists()
        root = ET.parse(out / "overlay.svg").getroot()
        assert root.tag.endswith("svg")
        labels = [el.text for el in root.iter() if el.tag.endswith("title")]
        assert any("z_eps" in (text or "") for text in labels)

    def test_viscous_csv_round_trips_bitwise(self, tmp_path):
        code, out = run(tmp_path, "simulate", self.payload(), "--epsilon", "0.1")
        assert code == 0
        header, rows = read_csv(out / "viscous.csv")
        assert header == ["t", "z", "zdot", "xi", "energy", "dissipation_cum", "delta_eps"]

        profile = SurfaceProfile.sinusoid(slope=0.1)
        model = VerticalBristle(k=1.0, L_rest=2.0, h=1.0)
        coeffs = coefficients(model, profile)
        base = LimitSystem(
            k_h=1.0,
            L_h_rest=0.0,
            loading=Ramp(duration=0.5),
            rho_plus=coeffs.rho_plus,
            rho_minus=coeffs.rho_minus,
        )
        system = WigglySystem(base=base, model=model, profile=profile, epsilon=0.1)
        grid = np.linspace(0.0, 0.5, 201)
        trajectory = integrate(system, 0.0, config=IntegratorConfig(), grid=grid)

        assert len(rows) == 201
        for i in (0, 57, 200):
            assert float(rows[i][0]) == trajectory.times[i]
            assert float(rows[i][1]) == trajectory.states[i]
            assert float(rows[i][3]) == trajectory.xi[i]
            assert float(rows[i][6]) == trajectory.delta[i]

    def test_limit_csv_contains_strip_envelopes(self, tmp_path):
        code, out = run(tmp_path, "simulate", self.payload(), "--epsilon", "0.1", "--limit")
        assert code == 0
        header, rows = read_csv(out / "limit.csv")
        assert header == ["t", "z", "z_tilde_minus", "z_tilde_plus", "dissipation_cum", "energy"]
        for row in rows:
            lower, z, upper = float(row[2]), float(row[1]), float(row[3])
            assert lower <= z <= upper + 1e-12

    def test_epsilon_zero_rejected_without_output(self, tmp_path):
        code, out = run(tmp_path, "simulate", self.payload(), "--epsilon", "0")
        assert code == 1
        assert not (out / "viscous.csv").exists()

    def test_missing_epsilon_rejected(self, tmp_path, capsys):
        # eps comes only from --epsilon; there is no config key for it
        code, out = run(tmp_path, "simulate", self.payload())
        assert code == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "required: --epsilon" in err
        assert not out.exists()

    def test_runaway_initial_state_is_solver_failure(self, tmp_path):
        payload = self.payload()
        payload["simulation"]["z0"] = 1e308
        with np.errstate(over="ignore", invalid="ignore"):
            code, out = run(tmp_path, "simulate", payload, "--epsilon", "0.1")
        assert code == 2
        assert not (out / "viscous.csv").exists()


class TestConverge:
    def payload(self, epsilons):
        payload = dict(CANONICAL)
        payload["simulation"] = {"grid_points": 201, "epsilons": epsilons}
        return payload

    def test_two_epsilons_fill_order_column(self, tmp_path):
        code, out = run(tmp_path, "converge", self.payload([0.1, 0.05]))
        assert code == 0
        header, rows = read_csv(out / "convergence.csv")
        assert header == ["epsilon", "sup_error", "diss_gap_w1", "runtime_s", "fitted_order"]
        assert len(rows) == 2
        assert float(rows[0][0]) == 0.1
        assert float(rows[1][0]) == 0.05
        assert float(rows[1][1]) < float(rows[0][1])
        orders = {row[4] for row in rows}
        assert len(orders) == 1
        assert float(orders.pop()) > 0.0

    def test_single_epsilon_leaves_order_empty(self, tmp_path):
        code, out = run(tmp_path, "converge", self.payload([0.1]))
        assert code == 0
        _, rows = read_csv(out / "convergence.csv")
        assert len(rows) == 1
        assert rows[0][4] == ""

    def test_inadmissible_epsilon_aborts_without_output(self, tmp_path):
        code, out = run(tmp_path, "converge", self.payload([0.1, 1e9]))
        assert code == 1
        assert not (out / "convergence.csv").exists()

    def test_svg_log_log_plot(self, tmp_path):
        code, out = run(tmp_path, "converge", self.payload([0.1, 0.05]), "--svg")
        assert code == 0
        root = ET.parse(out / "convergence.svg").getroot()
        assert root.tag.endswith("svg")


class TestNap:
    def test_half_tilt_gives_ratio_three(self, tmp_path):
        payload = {"nap": {"theta_lim": 1.0, "theta_with": 0.5}}
        code, out = run(tmp_path, "nap", payload)
        assert code == 0
        header, rows = read_csv(out / "nap.csv")
        assert header == ["direction", "rest_tilt", "rho", "tension", "compressed"]
        table = {row[0]: row for row in rows}
        rho_with = float(table["with"][2])
        rho_against = float(table["against"][2])
        assert rho_against / rho_with == 3.0
        assert table["with"][4] == "true"
        assert table["against"][4] == "true"
        assert float(table["with"][3]) < 0.0
        assert float(table["against"][3]) < 0.0

    def test_zero_tilt_gives_ratio_one(self, tmp_path):
        payload = {"nap": {"theta_lim": 1.0, "theta_with": 0.0}}
        code, out = run(tmp_path, "nap", payload)
        assert code == 0
        _, rows = read_csv(out / "nap.csv")
        table = {row[0]: row for row in rows}
        assert float(table["against"][2]) / float(table["with"][2]) == 1.0

    def test_domain_error_maps_to_config_exit(self, tmp_path):
        payload = {"nap": {"theta_lim": 0.5, "theta_with": 0.9}}
        code, _ = run(tmp_path, "nap", payload)
        assert code == 1


class TestPerceived:
    def test_slope_extremes_match_mu(self, tmp_path):
        payload = {
            "profile": {"sinusoid": {"slope": 0.1}},
            "model": {"kind": "slanted", "k": 1.0, "L_rest": 1.0, "h": 0.05, "theta": 0.6},
            "perceived": {"samples": 2048},
        }
        code, out = run(tmp_path, "perceived", payload)
        assert code == 0
        _, rows = read_csv(out / "perceived.csv")
        assert len(rows) == 2048
        slopes = np.array([float(row[2]) for row in rows])
        profile = SurfaceProfile.sinusoid(slope=0.1)
        mu_plus, mu_minus = perceived_extrema(profile, -math.tan(0.6))
        assert slopes.max() == pytest.approx(mu_plus, abs=1e-5)
        assert slopes.min() == pytest.approx(mu_minus, abs=1e-5)


class TestKTable:
    def test_table_hits_analytic_midpoint(self, tmp_path):
        payload = {
            "profile": CANONICAL["profile"],
            "model": CANONICAL["model"],
            "k_table": {"xi_min": -0.2, "xi_max": 0.2, "count": 5},
        }
        code, out = run(tmp_path, "k-table", payload)
        assert code == 0
        header, rows = read_csv(out / "k_table.csv")
        assert header == ["xi", "K"]
        assert len(rows) == 5
        table = {float(row[0]): float(row[1]) for row in rows}
        assert table[0.0] == pytest.approx(2.0 * 0.1 / math.pi, abs=1e-9)
        assert table[-0.2] == pytest.approx(0.2, abs=1e-12)
        assert table[0.2] == pytest.approx(0.2, abs=1e-12)


class TestErrorReporting:
    def test_one_error_kind_per_exit_code(self):
        # exit 1 is a ConfigError, exit 2 a SolverError; the message names the cause
        exported = {value for value in vars(wfl).values()
                    if isinstance(value, type) and issubclass(value, BaseException)}
        assert exported == {WflError, ConfigError, SolverError}

    def test_missing_config_file(self, tmp_path, capsys):
        code = cli.main(
            ["coeffs", "--config", str(tmp_path / "absent.json"), "--out", str(tmp_path)]
        )
        assert code == 1
        assert "absent.json" in capsys.readouterr().err

    def test_invalid_json(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        code = cli.main(["coeffs", "--config", str(path), "--out", str(tmp_path)])
        assert code == 1
        assert "invalid JSON" in capsys.readouterr().err

    def test_integer_literal_beyond_parser_limit_is_invalid_json(self, tmp_path, capsys):
        # Python's json refuses integers over 4300 digits with a plain ValueError
        path = tmp_path / "huge.json"
        path.write_text('{"profile": {"sinusoid": {"slope": ' + "1" * 5000 + "}}}")
        out = tmp_path / "out"
        code = cli.main(["coeffs", "--config", str(path), "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert "invalid JSON" in err and err.count("\n") == 1
        assert not out.exists()

    def test_unknown_top_level_key_is_named(self, tmp_path, capsys):
        payload = dict(CANONICAL)
        payload["bogus_key"] = 1
        code, _ = run(tmp_path, "coeffs", payload)
        assert code == 1
        assert "bogus_key" in capsys.readouterr().err

    def test_unknown_nested_key_is_named(self, tmp_path, capsys):
        payload = {
            "profile": {"sinusoid": {"slope": 0.1, "wavelength": 2.0}},
            "model": CANONICAL["model"],
        }
        code, _ = run(tmp_path, "coeffs", payload)
        assert code == 1
        assert "wavelength" in capsys.readouterr().err

    def test_missing_required_block_is_named(self, tmp_path, capsys):
        payload = {"profile": CANONICAL["profile"]}
        code, _ = run(tmp_path, "coeffs", payload)
        assert code == 1
        assert "model" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["simulate", "converge"])
    def test_every_missing_block_is_named_on_one_line(self, tmp_path, capsys, command):
        extra = ("--epsilon", "0.1") if command == "simulate" else ()
        code, out = run(tmp_path, command, {"profile": CANONICAL["profile"]}, *extra)
        assert code == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "['loading', 'model', 'system']" in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv, named",
        [
            (["bogus"], "invalid choice: 'bogus'"),
            (["simulate", "--config", "x", "--epsilon", "abc"], "invalid float value: 'abc'"),
            (["simulate", "--epsilon", "0.1"], "required: --config"),
        ],
        ids=["unknown-command", "bad-epsilon", "missing-config"],
    )
    def test_usage_error_is_one_line_exit_one(self, capsys, argv, named):
        # argparse alone exits 2, the solver-failure code, with a usage block
        assert cli.main(argv) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: wfl") and captured.err.count("\n") == 1
        assert named in captured.err and "usage:" not in captured.err
        assert captured.out == ""

    def test_help_still_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as done:
            cli.main(["simulate", "--help"])
        assert done.value.code == 0
        assert "--epsilon" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "command, block, value, named",
        [
            ("coeffs", "model", {"kind": ["a"], "k": 1.0, "L_rest": 2.0, "h": 1.0},
             "config model"),
            ("coeffs", "profile", {"terms": 3}, "config profile"),
            ("converge", "simulation", {"epsilons": [0.1], "windows": [["a", 1.0]]},
             "windows[0]"),
            ("k-table", "k_table", {"xi_min": 10**400}, "xi_min must be finite"),
            ("coeffs", "profile", {"terms": [{"amplitude": 10**400}]},
             "amplitude must be finite"),
            ("simulate", "loading",
             {"kind": "piecewise", "times": [0.0, 0.5, 1.0], "values": [0.0, math.inf, 0.0],
              "blend": 0.1},
             "values[1] must be finite"),
            ("converge", "simulation", {"epsilons": [0.1], "windows": [[math.nan, 1.0]]},
             "windows[0][0] must be finite"),
            ("perceived", "perceived", {"samples": 10**400}, "samples must be <= 1000000"),
            ("k-table", "k_table", {"count": -(10**400)}, "count must be >= 2"),
            # a rejected string is echoed in part, never at its full length
            ("coeffs", "model", dict(CANONICAL["model"], kind=LONG), "unknown model kind"),
            ("coeffs", "model", dict(CANONICAL["model"], **{LONG: 1.0}),
             "config model: unknown keys"),
            ("coeffs", LONG, 1.0, "config top level: unknown keys"),
            ("simulate", "loading", {"kind": LONG, "duration": 0.5}, "unknown loading kind"),
            ("sweep-theta", "sweep_theta", {"model": LONG},
             "model must be 'slanted' or 'angular'"),
            # w = 0 once the terms are summed
            ("coeffs", "profile",
             {"terms": [{"amplitude": 1e-3, "harmonic": 3, "phase": 0.2},
                        {"amplitude": -1e-3, "harmonic": 3, "phase": 0.2}]},
             "profile terms cancel"),
        ],
        ids=["model-kind-list", "profile-terms-int", "simulation-window-string",
             "k-table-huge-integer", "profile-amplitude-huge-integer",
             "loading-values-infinity", "simulation-window-nan", "perceived-samples-huge",
             "k-table-count-huge-negative", "model-kind-long", "model-key-long",
             "top-level-key-long", "loading-kind-long", "sweep-theta-model-long",
             "profile-terms-cancel"],
    )
    def test_malformed_block_is_one_line_exit_one(
        self, tmp_path, capsys, command, block, value, named
    ):
        extra = ("--epsilon", "0.1") if command == "simulate" else ()
        code, out = run(tmp_path, command, dict(CANONICAL, **{block: value}), *extra)
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and len(err) < 200
        assert named in err
        # nothing is written, not even the --out directory
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, payload",
        [
            ("converge", dict(CANONICAL, simulation={"grid_points": 51, "epsilons": [0.1]})),
            ("sweep-theta", {"sweep_theta": {"model": "slanted", "count": 1}}),
        ],
        ids=["converge-one-epsilon", "sweep-theta-count-one"],
    )
    def test_plot_of_one_point_fails_before_any_file(self, tmp_path, capsys, command, payload):
        # a line plot needs two points; the CSV alone would have been valid
        code, out = run(tmp_path, command, payload, "--svg")
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not out.exists()

    def test_out_naming_a_file_is_one_line_exit_one(self, tmp_path, capsys):
        config = write_config(tmp_path, CANONICAL)
        taken = tmp_path / "taken"
        taken.write_text("keep", encoding="utf-8")
        code = cli.main(["coeffs", "--config", config, "--out", str(taken)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert taken.read_text(encoding="utf-8") == "keep"

    @pytest.mark.parametrize(
        "command, block, key, value",
        [
            ("simulate", "simulation", "epsilon", 0.1),
            ("simulate", "simulation", "horizon", 0.25),
            ("sweep-theta", "sweep_theta", "oracle", False),
        ],
        ids=["simulation.epsilon", "simulation.horizon", "sweep_theta.oracle"],
    )
    def test_removed_key_is_an_unknown_key(self, tmp_path, capsys, command, block, key, value):
        # eps comes only from --epsilon, a run spans its loading's horizon, and
        # sweep-theta always writes the oracle columns
        base = {**CANONICAL, "simulation": {}, "sweep_theta": {"model": "slanted", "count": 3}}
        payload = dict(base, **{block: dict(base[block], **{key: value})})
        extra = ("--epsilon", "0.1") if command == "simulate" else ()
        code, out = run(tmp_path, command, payload, *extra)
        assert code == 1
        err = capsys.readouterr().err
        assert err == f"error: config {block}: unknown keys ['{key}']\n"
        assert not out.exists()

    def test_max_step_is_an_unknown_key(self, tmp_path, capsys):
        # the step cap is eps^gamma / 2, worked out from the inputs alone
        payload = dict(CANONICAL, simulation={"tolerances": {"max_step": 0.1}})
        code, out = run(tmp_path, "simulate", payload, "--epsilon", "0.1")
        assert code == 1
        assert capsys.readouterr().err == (
            "error: config simulation.tolerances: unknown keys ['max_step']\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize("command", ["coeffs", "k-table", "perceived"])
    @pytest.mark.parametrize(
        "changes, named",
        [
            ({"loading": "garbage"}, "config loading: needs a 'kind'"),
            ({"loading": dict(CANONICAL["loading"], extra=1.0)},
             "config loading: unknown keys ['extra']"),
            ({"system": dict(CANONICAL["system"], extra=1.0)},
             "config system: unknown keys ['extra']"),
            ({"loading": None}, "this command needs the blocks ['loading']"),
        ],
        ids=["loading-garbage", "loading-extra-key", "system-extra-key", "system-no-loading"],
    )
    def test_a_shared_block_the_command_does_not_read_is_checked(
        self, tmp_path, capsys, command, changes, named
    ):
        payload = {key: value for key, value in dict(CANONICAL, **changes).items()
                   if value is not None}
        code, out = run(tmp_path, command, payload)
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert named in err
        assert not out.exists()


class _Overtime(BaseException):
    """Raised by the alarm; a BaseException, so ``cli.main`` cannot report it."""


def _overtime(signum, frame):
    raise _Overtime()


def _edge(block, key, value):
    return dict(CANONICAL, **{block: dict(CANONICAL[block], **{key: value})})


NAP = {"theta_lim": 1.0, "theta_with": 0.5}
# alpha overflows to inf; with no system block only the coefficients check it
ALPHA_OVERFLOW = {"profile": CANONICAL["profile"],
                  "model": dict(CANONICAL["model"], k=1e308, L_rest=1e308)}

# extreme values that once hung, overflowed into inf output with warnings, or
# raised a traceback; each must now end within seconds on the exit contract
EDGE_CASES = [
    ("simulate", _edge("model", "k", 1e300), (), 2),
    ("simulate", _edge("model", "h", 1e300), (), 2),
    ("simulate", _edge("model", "L_rest", 1e300), (), 2),
    ("simulate", CANONICAL, ("--epsilon", "1e-9"), 1),
    ("simulate", _edge("loading", "duration", 1e300), (), 1),
    # grid steps of ~2e-304: the limit run has no velocity column to divide by them
    ("simulate", _edge("loading", "duration", 1e-300), ("--epsilon", "0.05", "--limit"), 0),
    ("converge", dict(_edge("loading", "duration", 1e-300), simulation={"epsilons": [0.1, 0.05]}),
     (), 0),
    ("simulate", dict(CANONICAL, simulation={"gamma": 1e300}), (), 1),
    ("simulate", _edge("loading", "rate", 1e300), (), 2),
    ("simulate", dict(CANONICAL, simulation={"z0": 1e300}), (), 2),
    ("nap", {"nap": dict(NAP, L=1e-300)}, (), 1),
    ("nap", {"nap": dict(NAP, L=1e300)}, (), 1),
    ("k-table", dict(CANONICAL, k_table={"xi_min": -1e308, "xi_max": 1e308}), ("--svg",), 1),
    ("coeffs", ALPHA_OVERFLOW, (), 1),
    ("k-table", ALPHA_OVERFLOW, (), 1),
    # sum |A| (2 pi n)^4 overflows: once "terms cancel", or exit 0 with an overflow warning
    ("coeffs", dict(CANONICAL, profile={"terms": [{"amplitude": 1e308, "harmonic": 64}]}), (), 1),
    ("coeffs", dict(CANONICAL, profile={"terms": [{"amplitude": 1e300, "harmonic": 64}]}), (), 1),
]


@pytest.mark.parametrize(
    "command, payload, extra, expected",
    EDGE_CASES,
    ids=["k-huge", "h-huge", "L_rest-huge", "epsilon-tiny", "duration-huge", "duration-tiny",
         "duration-tiny-converge", "gamma-huge", "rate-huge", "z0-huge", "nap-L-tiny",
         "nap-L-huge", "k-table-span-huge", "alpha-overflow-coeffs", "alpha-overflow-k-table",
         "curvature-overflow-1e308", "curvature-overflow-1e300"],
)
def test_extreme_value_keeps_the_exit_contract_within_seconds(
    tmp_path, capsys, command, payload, extra, expected
):
    if command == "simulate" and not extra:
        extra = ("--epsilon", "0.05")
    previous = signal.signal(signal.SIGALRM, _overtime)
    signal.alarm(20)
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out = run(tmp_path, command, payload, *extra)
    except _Overtime:
        pytest.fail(f"wfl {command} still running after 20 s")
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert code == expected
    assert not caught, [str(w.message) for w in caught]
    err = capsys.readouterr().err
    assert err.count("\n") == (1 if code else 0) and len(err) < 200, err
    if code == 1:
        assert not out.exists()


def modules_loaded_by(tmp_path, runs, modules, blocked=()):
    """Run ``cli.main`` on each ``(command, payload, *extra)`` in one fresh process.

    Returns, after ``import wfl`` and after each run, the exit code (None after
    the import) and whether each of ``modules`` is in ``sys.modules``.  Each
    of ``blocked`` is set to None in ``sys.modules`` first, so importing it
    raises ``ModuleNotFoundError``, as if it were not installed.
    """
    argvs = []
    for i, (command, payload, *extra) in enumerate(runs):
        config = write_config(tmp_path, payload, name=f"config{i}.json")
        argvs.append([command, "--config", config, "--out", str(tmp_path / f"out{i}"), *extra])
    script = (
        "import json, sys\n"
        f"sys.modules.update(dict.fromkeys({list(blocked)!r}))\n"
        "import wfl\n"
        "from wfl import cli\n"
        f"modules = {modules!r}\n"
        "seen = [[None] + [m in sys.modules for m in modules]]\n"
        f"for argv in {argvs!r}:\n"
        "    seen.append([cli.main(argv)] + [m in sys.modules for m in modules])\n"
        "print(json.dumps(seen))\n"
    )
    src = Path(cli.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=120, check=False)
    assert done.returncode == 0, done.stderr
    return [tuple(row) for row in json.loads(done.stdout)]


def test_import_and_simulate_leave_scipy_unloaded(tmp_path):
    # only the test-only quadrature oracle k_of_xi imports SciPy, inside the function;
    # coeffs and sweep-theta run the perceived_extrema oracle, which does not
    runs = [("simulate", dict(CANONICAL, simulation={"grid_points": 21}),
             "--epsilon", "0.1", "--limit", "--svg")]
    runs += [(c, cfg, *CONTRACT_ARGS.get(c, [])) for c, cfg in CONTRACT_CONFIGS.items()]
    loaded = modules_loaded_by(tmp_path, runs, ["scipy"])
    assert loaded == [(None, False)] + [(0, False)] * len(runs)
    assert (tmp_path / "out0" / "overlay.svg").exists()
    # NumPy is the one runtime dependency: all seven subcommands run without SciPy
    svg_runs = [(command, config, *CONTRACT_ARGS.get(command, []), "--svg")
                for command, config in CONTRACT_CONFIGS.items()]
    (tmp_path / "blocked").mkdir()
    blocked = modules_loaded_by(tmp_path / "blocked", svg_runs, [], blocked=["scipy"])
    assert blocked == [(None,)] + [(0,)] * len(svg_runs) and len(svg_runs) == 7


def test_svg_runs_leave_the_xml_and_network_modules_unloaded(tmp_path):
    # xml.sax.saxutils would load urllib.request, http.client, email and ssl
    runs = [("simulate", dict(CANONICAL, simulation={"grid_points": 21}),
             "--epsilon", "0.1", "--limit", "--svg"),
            ("k-table", CONTRACT_CONFIGS["k-table"], "--svg"),
            ("converge", CONTRACT_CONFIGS["converge"])]
    modules = ["xml.sax", "urllib.request", "http.client", "email", "ssl"]
    loaded = modules_loaded_by(tmp_path, runs, modules)
    assert loaded == [(None, *[False] * 5)] + [(0, *[False] * 5)] * len(runs)
    assert (tmp_path / "out0" / "overlay.svg").exists()
    assert (tmp_path / "out1" / "k_table.svg").exists()


def test_converge_and_coeffs_leave_numpy_ma_unloaded(tmp_path):
    # np.unique and np.union1d import numpy.ma on first call; the package sorts instead
    runs = [("converge", CONTRACT_CONFIGS["converge"]), ("coeffs", CANONICAL)]
    assert modules_loaded_by(tmp_path, runs, ["numpy.ma"]) == [
        (None, False), (0, False), (0, False)]


# ---------------------------------------------------------------------------
# the CLI contract as a property: any one bad leaf, with or without --svg,
# exits 0, 1 or 2 with at most one stderr line, and exit 1 leaves no file behind
# ---------------------------------------------------------------------------

CONTRACT_CONFIGS = {
    "coeffs": {
        "profile": {"terms": [{"amplitude": 0.1 / (2.0 * math.pi), "harmonic": 1, "phase": 0.0}]},
        "model": {"kind": "slanted", "k": 1.0, "L_rest": 2.0, "h": 1.0, "theta": 0.3},
    },
    "k-table": dict(CANONICAL, k_table={"xi_min": -0.2, "xi_max": 0.2, "count": 5}),
    "perceived": dict(CANONICAL, perceived={"samples": 16}),
    "nap": {"nap": {"theta_lim": 1.0, "theta_with": 0.5, "mu_plus": 0.1, "k": 1.0, "L": 1.0}},
    "sweep-theta": {"sweep_theta": {"model": "slanted", "count": 3, "slope": 0.1,
                                    "theta_min": 0.1, "theta_max": 1.0}},
    # whole runs, kept short: a 0.2-s ramp on an 11-point grid
    "simulate": dict(CANONICAL, loading={"kind": "ramp", "q0": 0.0, "rate": 1.0, "duration": 0.2},
                     simulation={"gamma": 1.0, "z0": 0.0, "grid_points": 11,
                                 "tolerances": {"rtol": 1e-9, "atol": 1e-11}}),
    "converge": dict(CANONICAL, loading={"kind": "ramp", "rate": 1.0, "duration": 0.2},
                     simulation={"epsilons": [0.1, 0.05], "grid_points": 11,
                                 "windows": [[0.0, 0.2]]}),
}
CONTRACT_ARGS = {"simulate": ["--epsilon", "0.05", "--limit"]}

# each subcommand's own block: a valid value, and one bad leaf with its message
OWN_BLOCKS = {
    "sweep_theta": ({"model": "slanted", "count": 3}, ("count", True, "count must be an integer")),
    "nap": (NAP, ("theta_with", "half", "theta_with must be a number")),
    "perceived": ({"samples": 16}, ("samples", 1.5, "samples must be an integer")),
    "k_table": ({"count": 5}, ("xi_max", math.inf, "xi_max must be finite")),
}


@pytest.mark.parametrize("variant", ["float", "extra-key", "bad-leaf"])
@pytest.mark.parametrize("command, block", [
    (command, block) for command in CONTRACT_CONFIGS for block in OWN_BLOCKS
    if block not in CONTRACT_CONFIGS[command]
])
def test_another_commands_block_is_checked(tmp_path, capsys, command, block, variant):
    # every subcommand builds every block the config holds, its own or another's
    valid, (key, leaf, cause) = OWN_BLOCKS[block]
    value = {"float": 1.0, "extra-key": dict(valid, extra=1.0),
             "bad-leaf": dict(valid, **{key: leaf})}[variant]
    cause = {"float": "expected an object, got float",
             "extra-key": "unknown keys ['extra']", "bad-leaf": cause}[variant]
    payload = dict(CONTRACT_CONFIGS[command], **{block: value})
    code, out = run(tmp_path, command, payload, *CONTRACT_ARGS.get(command, ()))
    assert code == 1
    assert capsys.readouterr().err == f"error: config {block}: {cause}\n"
    assert not out.exists()


BLOCK_CASES = [
    (cli.build_loading, {"kind": "ramp", "duration": 1.0, "q0": 0.0, "rate": 1.0}),
    (cli.build_loading, {"kind": "sinusoid", "duration": 1.0, "q0": 0.0, "amplitude": 1.0,
                         "frequency": 1.0, "phase": 0.0}),
    (cli.build_loading, {"kind": "piecewise", "times": [0.0, 0.5, 1.0],
                         "values": [0.0, 0.1, 0.0], "blend": 0.1}),
    (cli.build_simulation, {"epsilons": [0.1, 0.05], "gamma": 1.0, "z0": 0.0,
                            "grid_points": 11, "windows": [[0.0, 1.0]],
                            "tolerances": {"rtol": 1e-9, "atol": 1e-11}}),
]

# the zeros, signs and extreme magnitudes reach the classes' own range checks
BAD_LEAVES = [0, -0.0, -1.0, 1e-300, 1e300, math.nan, math.inf, -math.inf, 10**400,
              -(10**400), 2**63, True, "1.0", None, [], [0.5], {}]


def _leaf_paths(tree, prefix=()):
    if isinstance(tree, (dict, list)):
        items = tree.items() if isinstance(tree, dict) else enumerate(tree)
        for key, value in items:
            yield from _leaf_paths(value, prefix + (key,))
    else:
        yield prefix


def _replaced(tree, path, leaf):
    tree = copy.deepcopy(tree)
    node = tree
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = leaf
    return tree


CLI_LEAVES = [(c, path) for c, cfg in CONTRACT_CONFIGS.items() for path in _leaf_paths(cfg)]
BLOCK_LEAVES = [(i, path) for i, (_, block) in enumerate(BLOCK_CASES)
                  for path in _leaf_paths(block)]
CONTRACT_SETTINGS = settings(max_examples=200, deadline=None, derandomize=True, database=None)


class TestContractProperty:
    # a base that failed by itself would make every drawn example fail for
    # the same reason, and the properties would pass without testing anything
    @pytest.mark.parametrize("command", list(CONTRACT_CONFIGS))
    def test_every_base_config_exits_zero(self, tmp_path, command):
        extra = (*CONTRACT_ARGS.get(command, ()), "--svg")
        code, out = run(tmp_path, command, CONTRACT_CONFIGS[command], *extra)
        assert code == 0
        assert any(out.glob("*.csv"))

    @pytest.mark.parametrize("index", range(len(BLOCK_CASES)))
    def test_every_base_block_parses(self, index):
        parse, block = BLOCK_CASES[index]
        parse(block)

    @CONTRACT_SETTINGS
    @given(case=st.sampled_from(CLI_LEAVES), leaf=st.sampled_from(BAD_LEAVES),
           svg=st.booleans())
    def test_one_bad_leaf_keeps_the_exit_contract(self, case, leaf, svg):
        command, path = case
        payload = _replaced(CONTRACT_CONFIGS[command], path, leaf)
        with tempfile.TemporaryDirectory() as tmp:
            config = Path(tmp) / "config.json"
            config.write_text(json.dumps(payload), encoding="utf-8")
            out = Path(tmp) / "out"
            argv = [command, "--config", str(config), "--out", str(out),
                    *CONTRACT_ARGS.get(command, ()), *["--svg"] * svg]
            err = io.StringIO()
            with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stderr(err):
                warnings.simplefilter("always")
                code = cli.main(argv)
            # a warning would reach stderr in a real run
            lines = err.getvalue().splitlines() + [str(w.message) for w in caught]
            assert code in (0, 1, 2)
            assert len(lines) == (1 if code else 0), lines
            if code == 1:
                assert not out.exists()

    @CONTRACT_SETTINGS
    @given(case=st.sampled_from(BLOCK_LEAVES), leaf=st.sampled_from(BAD_LEAVES))
    def test_one_bad_leaf_in_a_block_is_a_config_error(self, case, leaf):
        index, path = case
        parse, block = BLOCK_CASES[index]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                parse(_replaced(block, path, leaf))
            except ConfigError:
                pass


def _dict_paths(tree, prefix=()):
    if isinstance(tree, dict):
        yield prefix
    if isinstance(tree, (dict, list)):
        items = tree.items() if isinstance(tree, dict) else enumerate(tree)
        for key, value in items:
            yield from _dict_paths(value, prefix + (key,))


def _node(tree, path):
    for key in path:
        tree = tree[key]
    return tree


def _main(command, payload, *extra):
    """Exit code, stderr lines (warnings included) and whether ``--out`` exists."""
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "config.json"
        config.write_text(json.dumps(payload), encoding="utf-8")
        out = Path(tmp) / "out"
        err = io.StringIO()
        with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stderr(err):
            warnings.simplefilter("always")
            code = cli.main([command, "--config", str(config), "--out", str(out), *extra])
        return code, err.getvalue().splitlines() + [str(w.message) for w in caught], out.exists()


DICT_NODES = [(c, path) for c, cfg in CONTRACT_CONFIGS.items() for path in _dict_paths(cfg)]


@functools.cache
def accepted_keys(command):
    """The keys each block of ``command``'s contract config accepts, by the path
    ``cli`` names it with: what a clean run passes to ``cli._check_keys``."""
    accepted = {}
    check_keys = cli._check_keys

    def record(obj, path, required=(), optional=()):
        accepted[path] = {*required, *optional}
        check_keys(obj, path, required, optional)

    with mock.patch.object(cli, "_check_keys", record):
        code, lines, _ = _main(command, CONTRACT_CONFIGS[command], *CONTRACT_ARGS.get(command, ()))
    assert code == 0, lines
    return accepted


def _cli_path(path):
    """``("profile", "terms", 0)`` as ``cli`` names it: ``profile.terms[0]``."""
    if not path:
        return "top level"
    return path[0] + "".join(f"[{key}]" if isinstance(key, int) else f".{key}" for key in path[1:])


TILTED = {
    "slanted": {"kind": "slanted", "k": 1.0, "L_rest": 1.0, "h": 0.05, "theta": 0.5},
    "angular": {"kind": "angular", "k": 1.0, "L": 1.0, "h": math.cos(0.6), "theta_rest": 0.0},
}


class TestContractDraws:
    """Three more draws for the contract: an extra key, a harmonic above 64,
    and eps at the geometric limit or one ulp above it on a whole tilted run."""

    @settings(CONTRACT_SETTINGS, max_examples=100)
    @given(node=st.sampled_from(DICT_NODES), key=st.text(min_size=1, max_size=12),
           svg=st.booleans())
    def test_an_extra_key_in_any_block_is_an_unknown_key(self, node, key, svg):
        command, path = node
        payload = copy.deepcopy(CONTRACT_CONFIGS[command])
        block = _node(payload, path)
        # Hypothesis draws text from the package's string constants, so a drawn
        # key can be one this block accepts ("rho_plus" in "system")
        if key in block or key in accepted_keys(command).get(_cli_path(path), ()):
            return
        block[key] = 1.0
        code, lines, wrote = _main(command, payload, *CONTRACT_ARGS.get(command, ()),
                                   *["--svg"] * svg)
        assert code == 1 and not wrote
        assert len(lines) == 1 and "unknown keys" in lines[0], lines

    @settings(CONTRACT_SETTINGS, max_examples=50)
    @given(command=st.sampled_from(["simulate", "converge", "k-table", "perceived"]),
           harmonic=st.integers(65, 10**6), terms=st.booleans())
    def test_a_harmonic_above_64_is_a_config_error(self, command, harmonic, terms):
        profile = ({"terms": [{"amplitude": 0.001, "harmonic": harmonic}]} if terms
                   else {"sinusoid": {"slope": 0.1, "harmonic": harmonic}})
        payload = dict(CONTRACT_CONFIGS[command], profile=profile)
        code, lines, wrote = _main(command, payload, *CONTRACT_ARGS.get(command, ()))
        assert code == 1 and not wrote
        assert lines == ["error: harmonic must lie in [1, 64]"], lines

    @CONTRACT_SETTINGS
    @given(command=st.sampled_from(["simulate", "converge"]),
           kind=st.sampled_from(list(TILTED)), above=st.booleans(), svg=st.booleans())
    def test_eps_at_the_geometric_limit_runs_and_one_ulp_above_is_refused(
        self, command, kind, above, svg
    ):
        # at the limit g'(p) is smallest, so the run steps the tilted bristle
        # where its contact coordinate is least benign
        payload = dict(CONTRACT_CONFIGS[command], model=TILTED[kind])
        eps = epsilon_limit(cli.build_model(TILTED[kind]), cli.build_profile(payload["profile"]))
        if above:
            eps = math.nextafter(eps, math.inf)
        if command == "simulate":
            extra = ("--epsilon", repr(eps), "--limit")
        else:
            payload["simulation"] = dict(payload["simulation"], epsilons=[eps, 0.5 * eps])
            extra = ()
        code, lines, wrote = _main(command, payload, *extra, *["--svg"] * svg)
        if above:
            assert code == 1 and not wrote
            assert len(lines) == 1 and "exceeds the geometric validity limit" in lines[0], lines
        else:
            assert code == 0 and wrote and not lines, lines
