"""The benchmark's workloads: seeded inputs, one iteration, output checks.

Every workload drives the package only through its public entry points
(``wfl.cli.main`` and the library functions) and sees nothing of the seed
but the generated config or arrays.  Each iteration returns how many
operations it attempted and how many failed; an operation fails on a
non-zero exit or on an output check.  The bounds of the checks are those of
``tests/test_acceptance.py`` wherever a matching guarantee exists.
"""

from __future__ import annotations

import csv
import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

# Imported as modules, never as names, so that the tracer's wrappers on the
# module attributes see every call the benchmark makes.
from wfl import cli, limit_solver, models, profiles, variational, viscous_solver

TWO_PI = 2.0 * math.pi

SLANTED = {"kind": "slanted", "k": 1.0, "L_rest": 1.0, "h": 0.05, "theta": 0.5}
VERTICAL = {"kind": "vertical", "k": 1.0, "L_rest": 2.0, "h": 1.0}
ANGULAR = {"kind": "angular", "k": 1.0, "L": 1.0, "h": math.cos(0.6), "theta_rest": 0.0}
SINUSOID_LOADING = {"kind": "sinusoid", "amplitude": 0.5, "frequency": 1.0, "duration": 2.0}


@dataclass
class Outcome:
    """What one iteration did: operation counts, failures, and measured extras."""

    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    extras: dict = field(default_factory=dict)

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(what)


def _csv_rows(path: Path) -> list:
    with open(path, newline="", encoding="utf-8") as handle:
        return list(csv.reader(handle))[1:]


def _finite_table(path: Path, rows_expected: int) -> bool:
    if not path.exists():
        return False
    rows = _csv_rows(path)
    if len(rows) != rows_expected:
        return False
    values = np.array(rows, dtype=float)
    return bool(np.all(np.isfinite(values)))


class Workload:
    """One benchmark workload; subclasses fill in inputs, set-up and iteration."""

    name = ""

    def __init__(self, seed: int, workdir: Path, smoke: bool = False, sabotage: bool = False):
        self.seed = seed
        self.workdir = Path(workdir)
        self.smoke = smoke
        # sabotage corrupts the data the first check sees, to prove the
        # checks catch bad output
        self.sabotage = sabotage
        self.rng = np.random.default_rng(seed)
        self.make_inputs()

    def make_inputs(self) -> None:
        raise NotImplementedError

    def setup(self) -> None:
        """Build every object the workload needs, up to the first solver call."""
        raise NotImplementedError

    def iterate(self) -> Outcome:
        raise NotImplementedError

    def check_trace(self, metrics: dict, outcome: Outcome) -> None:
        """Checks that need the traced run's per-layer values; none by default."""

    def _corrupt(self) -> bool:
        if self.sabotage:
            self.sabotage = False
            return True
        return False


class _CliWorkload(Workload):
    """A workload that runs one ``wfl`` subcommand on a generated config."""

    command: list = []

    def write_config(self, config: dict) -> None:
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.config_path = self.workdir / "config.json"
        self.config_path.write_text(json.dumps(config), encoding="utf-8")
        self.out = self.workdir / "out"

    def setup(self) -> None:
        raw = cli.load_config(self.config_path)
        profile = cli.build_profile(raw["profile"])
        model = cli.build_model(raw["model"])
        loading = cli.build_loading(raw["loading"])
        coeffs = models.coefficients(model, profile)
        system = cli.build_system(raw["system"], loading, coeffs)
        sim = cli.build_simulation(raw.get("simulation", {}))
        epsilons = sim["epsilons"] or [self.epsilon]
        for eps in epsilons:
            viscous_solver.WigglySystem(base=system, model=model, profile=profile, epsilon=eps)

    def run_cli(self) -> int:
        argv = [*self.command, "--config", str(self.config_path), "--out", str(self.out)]
        return cli.main(argv)


class ConvergeVertical(_CliWorkload):
    """``wfl converge`` on the README config with a seeded sinusoid phase."""

    name = "converge-vertical"
    command = ["converge"]
    epsilon = None

    def make_inputs(self) -> None:
        self.epsilons = [0.1, 0.05] if self.smoke else [0.1, 0.05, 0.02, 0.01]
        self.write_config({
            "profile": {"sinusoid": {"slope": 0.1, "phase": float(self.rng.uniform(0.0, TWO_PI))}},
            "model": VERTICAL,
            "loading": {"kind": "ramp", "rate": 1.0, "duration": 2.0},
            "system": {"k_h": 1.0},
            "simulation": {
                "epsilons": self.epsilons,
                "windows": [[0.0, 1.0], [1.0, 2.0]],
                "tolerances": {"rtol": 1e-9, "atol": 1e-11},
            },
        })

    def iterate(self) -> Outcome:
        outcome = Outcome()
        code = self.run_cli()
        path = self.out / "convergence.csv"
        if code != 0 or not path.exists():
            outcome.check(False, f"wfl converge exited {code}")
            return outcome
        # columns: epsilon, sup_error, gaps per window, runtime_s, fitted_order
        rows = _csv_rows(path)
        sup = [float(row[1]) for row in rows]
        if self._corrupt():
            sup = sup[::-1]
        order = float(rows[0][-1]) if rows and rows[0][-1] else math.nan
        ok = (
            len(rows) == len(self.epsilons)
            and all(b < a for a, b in zip(sup, sup[1:]))
            and order >= 0.8
        )
        outcome.check(ok, f"convergence rows {len(rows)}, sup errors {sup}, order {order}")
        outcome.extras.update(fitted_order=order, sup_error_min=min(sup, default=math.nan),
                              runtimes=[float(row[-2]) for row in rows])
        return outcome


class SimulateSlanted(_CliWorkload):
    """``wfl simulate --limit --svg``: slanted bristle on a seeded two-term profile."""

    name = "simulate-slanted"

    def make_inputs(self) -> None:
        self.epsilon = 0.2 if self.smoke else 0.05
        self.grid_points = 257 if self.smoke else 4097
        self.command = ["simulate", "--epsilon", repr(self.epsilon), "--limit", "--svg"]
        phases = self.rng.uniform(0.0, TWO_PI, 2)
        self.write_config({
            "profile": {"terms": [
                {"amplitude": 0.1 / TWO_PI, "harmonic": 1, "phase": float(phases[0])},
                {"amplitude": 0.03 / (3 * TWO_PI), "harmonic": 3, "phase": float(phases[1])},
            ]},
            "model": SLANTED,
            "loading": SINUSOID_LOADING,
            "system": {"k_h": 1.0},
            "simulation": {"grid_points": self.grid_points},
        })

    def iterate(self) -> Outcome:
        outcome = Outcome()
        code = self.run_cli()
        viscous = self.out / ("missing.csv" if self._corrupt() else "viscous.csv")
        ok = (
            code == 0
            and _finite_table(viscous, self.grid_points)
            and _finite_table(self.out / "limit.csv", self.grid_points)
            and (self.out / "overlay.svg").exists()
        )
        outcome.check(ok, f"wfl simulate exited {code} or wrote incomplete output")
        return outcome

    def check_trace(self, metrics: dict, outcome: Outcome) -> None:
        # the acceptance bound on the energy balance, relative to max(1, max|E|)
        balance = metrics["viscous_solver.energy_balance"]
        outcome.check(balance is not None and balance <= 1e-6,
                      f"energy balance residual {balance} above 1e-6 max(1, max|E|)")


# The cost of a K(xi) quadrature swings by up to 10x with the profile's
# phase: it depends on whether the two roots of W'(y) = xi near a threshold
# share one cell of the root scan.  The certificates and the batch
# therefore run on the README profile (phase 0) in every run, so that seeds
# compare like with like; the seed draws what does not move that cost.
README_PROFILE = {"sinusoid": {"slope": 0.1}}


def geometries():
    return {
        "vertical": cli.build_model(VERTICAL),
        "slanted": cli.build_model(SLANTED),
        "angular": cli.build_model(ANGULAR),
    }


class CertifyMixed(Workload):
    """Certificates for three geometries, then a batch of duality residuals.

    The certificate phase, for each geometry: cross-check ``coefficients``
    against the ``perceived_extrema`` oracle on a profile whose phase the
    seed draws, solve the limit under the sinusoidal loading, and run the
    energy certificate.  It repeats near-threshold xi, so the K(xi) memo
    cache hits.  The batch phase evaluates residuals at seeded random
    (v, xi), xi strictly inside the thresholds, on the vertical density: no
    xi repeats, so every K(xi) is a fresh quadrature.  Each phase builds
    fresh densities, so every iteration starts with empty caches.
    """

    name = "certify-mixed"

    def make_inputs(self) -> None:
        self.oracle_phase = float(self.rng.uniform(0.0, TWO_PI))
        self.steps = 256 if self.smoke else 4096
        self.pairs = 50 if self.smoke else 2000

    def setup(self) -> None:
        self.profile = cli.build_profile(README_PROFILE)
        self.oracle_profile = profiles.SurfaceProfile.sinusoid(slope=0.1, phase=self.oracle_phase)
        self.models = geometries()
        self.loading = cli.build_loading(SINUSOID_LOADING)
        self.grid = limit_solver.default_grid(self.loading.horizon, self.steps)
        self.systems = {}
        for name, model in self.models.items():
            coeffs = models.coefficients(model, self.profile)
            self.systems[name] = limit_solver.LimitSystem(
                k_h=1.0, L_h_rest=0.0, loading=self.loading,
                rho_plus=coeffs.rho_plus, rho_minus=coeffs.rho_minus,
            )
        interval = variational.limit_density(self.models["vertical"], self.profile).interval
        self.v = self.rng.uniform(-2.0, 2.0, self.pairs)
        # numpy draws from [lower, upper): drop an exact lower threshold
        xi = self.rng.uniform(interval.lower, interval.upper, self.pairs)
        self.xi = xi[xi > interval.lower]

    def iterate(self) -> Outcome:
        outcome = Outcome()
        start = time.perf_counter()
        self.certificates(outcome)
        middle = time.perf_counter()
        self.batch(outcome)
        outcome.extras.update(certify_s=middle - start, kbatch_s=time.perf_counter() - middle)
        return outcome

    def certificates(self, outcome: Outcome) -> None:
        cert_s, cert_residual = {}, {}
        for name, model in self.models.items():
            coeffs = models.coefficients(model, self.oracle_profile)
            mu_plus, mu_minus = models.perceived_extrema(self.oracle_profile, model.slope_factor)
            if self._corrupt():
                mu_plus += 1e-6
            gap = max(abs(mu_plus - coeffs.mu_plus), abs(mu_minus - coeffs.mu_minus))
            outcome.check(gap <= 1e-8, f"{name}: oracle gap {gap:.3e}")

            limit = limit_solver.solve_limit(self.systems[name], 0.0, grid=self.grid)
            density = variational.limit_density(model, self.profile)
            start = time.perf_counter()
            report = variational.de_giorgi_certificate(self.systems[name], limit, density)
            cert_s[name] = time.perf_counter() - start
            cert_residual[name] = report.residual
            outcome.check(report.passed, f"{name}: certificate residual {report.residual:.3e} "
                                         f"above {report.tolerance:.3e}")
        outcome.extras.update(certificate_s=cert_s, certificate_residual=cert_residual)

    def batch(self, outcome: Outcome) -> None:
        density = variational.limit_density(self.models["vertical"], self.profile)
        residuals = [density.residual(float(v), float(x)) for v, x in zip(self.v, self.xi)]
        failed = [r for r in residuals if not r >= -1e-12]
        outcome.attempted += len(residuals)
        outcome.failed += len(failed)
        if failed:
            outcome.problems.append(f"{len(failed)} duality residuals below -1e-12, min {min(failed):.3e}")


WORKLOADS = {w.name: w for w in (ConvergeVertical, SimulateSlanted, CertifyMixed)}
