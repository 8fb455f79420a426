"""Traced runs: spans and counts around each layer's public functions.

The tracer replaces a function at the module attribute its caller looks up
(for example ``wfl.viscous_solver.wiggly_force``, which ``integrate``
calls) with a wrapper that records a span: name, start, end and parent.
Nothing in the package changes.  Self time is a span's duration minus the
time its child spans cover, accumulated online with a stack, so hot leaf
functions cost one counter update per call and are not stored span by
span.  Spans made inside pool workers are lost, which is why the traced
convergence sweep runs serially.
"""

from __future__ import annotations

import functools
import statistics
import time
from collections import Counter, defaultdict

import numpy as np

from wfl import cli, convergence, limit_solver, models, profiles, variational, viscous_solver

import workloads

# Called tens of thousands of times per iteration: counted, not stored as spans.
HOT = {
    "profiles.eval_profile",
    "models.wiggly_force",
    "models.wiggly_energy",
    "models.epsilon_limit",
    "models.invert_contact_map",
    "variational.k",
    "variational.k_of_xi",
    "variational.residual",
}

# (owner, attribute, span name): every binding through which the package or
# the benchmark reaches a layer's public function.
BINDINGS = [
    (cli, "main", "cli.main"),
    (cli, "line_plot", "svg.line_plot"),
    (cli, "coefficients", "models.coefficients"),
    (cli, "run_sweep", "convergence.run_sweep"),
    (cli, "integrate", "viscous_solver.integrate"),
    (cli, "solve_limit", "limit_solver.solve_limit"),
    (convergence, "integrate", "viscous_solver.integrate"),
    (convergence, "solve_limit", "limit_solver.solve_limit"),
    (limit_solver, "solve_limit", "limit_solver.solve_limit"),
    (viscous_solver, "solve_ivp", "viscous_solver.solve_ivp"),
    (viscous_solver, "wiggly_force", "models.wiggly_force"),
    (viscous_solver, "wiggly_energy", "models.wiggly_energy"),
    (viscous_solver, "epsilon_limit", "models.epsilon_limit"),
    (models, "epsilon_limit", "models.epsilon_limit"),
    (models, "coefficients", "models.coefficients"),
    (models, "perceived_extrema", "models.perceived_extrema"),
    (models, "invert_contact_map", "models.invert_contact_map"),
    (models, "eval_profile", "profiles.eval_profile"),
    (profiles, "eval_profile", "profiles.eval_profile"),
    (variational, "eval_profile", "profiles.eval_profile"),
    (variational, "invert_contact_map", "models.invert_contact_map"),
    (variational, "coefficients", "models.coefficients"),
    (variational, "k_of_xi", "variational.k_of_xi"),
    (variational, "limit_density", "variational.limit_density"),
    (variational, "de_giorgi_certificate", "variational.de_giorgi_certificate"),
    (variational.LimitWithK, "k", "variational.k"),
    (variational.LimitWithK, "residual", "variational.residual"),
]


def _keep_stepper(args, kwargs, result, start, end):
    return {"nfev": int(result.nfev), "t": np.asarray(result.t), "end": end}


def _keep_integrate(args, kwargs, result, start, end):
    return {"system": args[0], "trajectory": result, "end": end}


# Return values the per-layer metrics read: the stepper result that
# ``integrate`` receives, and each viscous run.
KEEP = {
    "viscous_solver.solve_ivp": _keep_stepper,
    "viscous_solver.integrate": _keep_integrate,
}
DURATIONS = {"variational.residual"}
# The two uses of K in certify-mixed: near-threshold repeats in the
# certificates, fresh random xi in the batch.
PHASES = [
    (workloads.CertifyMixed, "certificates", "cert"),
    (workloads.CertifyMixed, "batch", "batch"),
]


class Tracer:
    """In-memory spans, call counts and self times for wrapped functions."""

    def __init__(self):
        self.calls = Counter()
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.spans = []  # (id, name, start, end, parent id)
        self.durations = defaultdict(list)
        self.kept = defaultdict(list)
        self.phase_calls = defaultdict(Counter)
        self._stack = []  # [span id, time covered by children]
        self._next_id = 0
        self._undo = []

    def wrap(self, owner, attr: str, name: str) -> None:
        original = getattr(owner, attr)
        keep = KEEP.get(name)
        record_span = name not in HOT
        record_duration = name in DURATIONS
        stack = self._stack

        @functools.wraps(original)
        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1][0] if stack else None
            frame = [span_id, 0.0]
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                self.calls[name] += 1
                self.total[name] += duration
                self.self_time[name] += duration - frame[1]
                if record_span:
                    self.spans.append((span_id, name, start, end, parent))
                if record_duration:
                    self.durations[name].append(duration)
            if keep is not None:
                self.kept[name].append(keep(args, kwargs, result, start, end))
            return result

        setattr(owner, attr, traced)
        self._undo.append((owner, attr, original))

    def wrap_phase(self, owner, attr: str, phase: str) -> None:
        """Attribute the calls made inside a benchmark phase to that phase."""
        original = getattr(owner, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            before = Counter(self.calls)
            try:
                return original(*args, **kwargs)
            finally:
                self.phase_calls[phase].update(self.calls - before)

        setattr(owner, attr, traced)
        self._undo.append((owner, attr, original))

    def __enter__(self):
        for owner, attr, name in BINDINGS:
            self.wrap(owner, attr, name)
        for owner, attr, phase in PHASES:
            self.wrap_phase(owner, attr, phase)
        return self

    def __exit__(self, *exc):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)
        return False


# ---------------------------------------------------------------------------
# kernel microbench: the force on fixed inputs, independent of the workload
# ---------------------------------------------------------------------------

KERNEL_EPSILON = 0.05


def kernel_microbench(rng, scalar_calls: int = 400, array_points: int = 100_000, repeats: int = 5):
    """Median cost of ``wiggly_force`` per scalar call (us) and per array point (ns)."""
    profile = profiles.SurfaceProfile.sinusoid(slope=0.1)
    zs = rng.uniform(0.0, 1.0, scalar_calls).tolist()
    za = rng.uniform(0.0, 1.0, array_points)
    out = {}
    for name, model in workloads.geometries().items():
        force = models.wiggly_force
        force(model, profile, KERNEL_EPSILON, 0.5)
        scalar, array = [], []
        for _ in range(repeats):
            start = time.perf_counter()
            for z in zs:
                force(model, profile, KERNEL_EPSILON, z)
            scalar.append((time.perf_counter() - start) / scalar_calls * 1e6)
            start = time.perf_counter()
            force(model, profile, KERNEL_EPSILON, za)
            array.append((time.perf_counter() - start) / array_points * 1e9)
        out[f"models.force_scalar_us.{name}"] = statistics.median(scalar)
        out[f"models.force_array_ns.{name}"] = statistics.median(array)
    return out


# ---------------------------------------------------------------------------
# per-layer metrics from a traced run
# ---------------------------------------------------------------------------

GEOMETRIES = ("vertical", "slanted", "angular")

UNITS = {
    "cli.self_s": "s",
    "svg.line_plot_s": "s",
    "profiles.eval_profile.calls": "count",
    "profiles.eval_profile.self_s": "s",
    "profiles.derivative_extrema.calls": "count",
    "models.wiggly_force.calls": "count",
    "models.wiggly_force.self_s": "s",
    "models.wiggly_force.us_per_call": "us",
    "models.epsilon_limit.calls": "count",
    "models.invert_contact_map.calls": "count",
    "models.invert_contact_map.self_s": "s",
    "models.perceived_extrema_s": "s",
    **{f"models.force_scalar_us.{g}": "us" for g in GEOMETRIES},
    **{f"models.force_array_ns.{g}": "ns" for g in GEOMETRIES},
    "viscous_solver.integrate_s": "s",
    "viscous_solver.rhs_evals": "count",
    "viscous_solver.steps_accepted": "count",
    "viscous_solver.steps_rejected": "count",
    "viscous_solver.min_step": "t",
    "viscous_solver.us_per_rhs": "us",
    "viscous_solver.post_s": "s",
    "viscous_solver.energy_balance": "1",
    "convergence.job_s.max": "s",
    "convergence.job_s.sum": "s",
    "convergence.pool_workers": "count",
    "convergence.pool_speedup": "x",
    "convergence.fitted_order": "1",
    "convergence.sup_error_min": "1",
    "limit_solver.solve_limit_s": "s",
    **{f"variational.k.calls.{p}": "count" for p in ("cert", "batch")},
    **{f"variational.k_of_xi.calls.{p}": "count" for p in ("cert", "batch")},
    **{f"variational.k_quad_ratio.{p}": "1" for p in ("cert", "batch")},
    "variational.k_of_xi_ms": "ms",
    "variational.residual_p50_us": "us",
    "variational.residual_p99_us": "us",
    **{f"variational.certificate_s.{g}": "s" for g in GEOMETRIES},
    **{f"variational.certificate_residual.{g}": "1" for g in GEOMETRIES},
    "certify_s": "s",
    "kbatch_s": "s",
    "trace.overhead_frac": "1",
}


def _ratio(num: float, den: float, scale: float = 1.0) -> float:
    return num / den * scale if den else 0.0


def _stepper_counts(tracer: Tracer, iterations: int) -> dict:
    """Step counts from the ``solve_ivp`` results that ``integrate`` received.

    Runs of ``integrate`` without a ``solve_ivp`` result under them mean the
    stepper changed, and the counts cannot be observed: they are reported
    as missing (None), never as zero.
    """
    runs = tracer.calls["viscous_solver.integrate"]
    results = tracer.kept["viscous_solver.solve_ivp"]
    if runs == 0:
        return {"viscous_solver.rhs_evals": 0, "viscous_solver.steps_accepted": 0,
                "viscous_solver.steps_rejected": 0, "viscous_solver.min_step": 0.0,
                "viscous_solver.us_per_rhs": 0.0, "viscous_solver.post_s": 0.0}
    if len(results) != runs:
        return dict.fromkeys(("viscous_solver.rhs_evals", "viscous_solver.steps_accepted",
                              "viscous_solver.steps_rejected", "viscous_solver.min_step",
                              "viscous_solver.us_per_rhs", "viscous_solver.post_s"))
    nfev = sum(r["nfev"] for r in results)
    accepted = sum(r["t"].size - 1 for r in results)
    # SciPy's RK45 spends 2 evaluations choosing the first step and 6 on
    # every attempted step (FSAL included); anything else is another stepper.
    attempts = [(r["nfev"] - 2) / 6 for r in results]
    rejected = None
    if all(a == int(a) for a in attempts):
        rejected = int(sum(attempts)) - accepted
    post = sum(run["end"] - r["end"] for run, r in zip(tracer.kept["viscous_solver.integrate"], results))
    return {
        "viscous_solver.rhs_evals": nfev / iterations,
        "viscous_solver.steps_accepted": accepted / iterations,
        "viscous_solver.steps_rejected": None if rejected is None else rejected / iterations,
        "viscous_solver.min_step": min(float(np.min(np.diff(r["t"]))) for r in results),
        "viscous_solver.us_per_rhs": _ratio(tracer.total["viscous_solver.solve_ivp"], nfev, 1e6),
        "viscous_solver.post_s": post / iterations,
    }


def _energy_balance(tracer: Tracer) -> float:
    """Largest energy-balance residual over the traced viscous runs, relative
    to max(1, max|E|) as in the acceptance guarantee."""
    worst = 0.0
    for run in tracer.kept["viscous_solver.integrate"]:
        trajectory = run["trajectory"]
        scale = max(1.0, float(np.max(np.abs(trajectory.energies))))
        worst = max(worst, viscous_solver.energy_balance_residual(run["system"], trajectory) / scale)
    return worst


def layer_metrics(tracer: Tracer, iterations: int, context: dict) -> dict:
    """Per-layer values per traced iteration.

    ``context`` carries what the run measured outside the tracer: untraced
    and traced wall times, the untraced sweep's report columns and pool
    measurements, certificate timings and the kernel microbench.  A layer
    the workload never enters reads 0; a counter that cannot be observed
    reads None.
    """
    n = iterations
    calls, self_time, total = tracer.calls, tracer.self_time, tracer.total
    residual_us = sorted(d * 1e6 for d in tracer.durations["variational.residual"])
    runtimes = context.get("runtimes", [])
    cache = getattr(profiles.derivative_extrema, "cache_info", None)
    metrics = {
        "cli.self_s": self_time["cli.main"] / n,
        "svg.line_plot_s": total["svg.line_plot"] / n,
        "profiles.eval_profile.calls": calls["profiles.eval_profile"] / n,
        "profiles.eval_profile.self_s": self_time["profiles.eval_profile"] / n,
        "profiles.derivative_extrema.calls": None if cache is None else cache().misses,
        "models.wiggly_force.calls": calls["models.wiggly_force"] / n,
        "models.wiggly_force.self_s": self_time["models.wiggly_force"] / n,
        "models.wiggly_force.us_per_call": _ratio(self_time["models.wiggly_force"],
                                                  calls["models.wiggly_force"], 1e6),
        "models.epsilon_limit.calls": calls["models.epsilon_limit"] / n,
        "models.invert_contact_map.calls": calls["models.invert_contact_map"] / n,
        "models.invert_contact_map.self_s": self_time["models.invert_contact_map"] / n,
        "models.perceived_extrema_s": total["models.perceived_extrema"] / n,
        "viscous_solver.integrate_s": total["viscous_solver.integrate"] / n,
        **_stepper_counts(tracer, n),
        "viscous_solver.energy_balance": _energy_balance(tracer),
        "convergence.job_s.max": max(runtimes, default=0.0),
        "convergence.job_s.sum": sum(runtimes),
        "convergence.pool_workers": context.get("pool_workers", 0),
        "convergence.pool_speedup": context.get("pool_speedup", 0.0),
        "convergence.fitted_order": context.get("fitted_order", 0.0),
        "convergence.sup_error_min": context.get("sup_error_min", 0.0),
        "limit_solver.solve_limit_s": _ratio(total["limit_solver.solve_limit"],
                                             calls["limit_solver.solve_limit"]),
        "variational.k_of_xi_ms": _ratio(total["variational.k_of_xi"],
                                         calls["variational.k_of_xi"], 1e3),
        "variational.residual_p50_us": float(np.percentile(residual_us, 50)) if residual_us else 0.0,
        "variational.residual_p99_us": float(np.percentile(residual_us, 99)) if residual_us else 0.0,
        "trace.overhead_frac": context["traced_s"] / context["untraced_s"] - 1.0,
    }
    for phase, counts in ((p, tracer.phase_calls[p]) for p in ("cert", "batch")):
        metrics[f"variational.k.calls.{phase}"] = counts["variational.k"] / n
        metrics[f"variational.k_of_xi.calls.{phase}"] = counts["variational.k_of_xi"] / n
        metrics[f"variational.k_quad_ratio.{phase}"] = _ratio(counts["variational.k_of_xi"],
                                                              counts["variational.k"])
    for key in ("certify_s", "kbatch_s"):
        metrics[key] = context.get(key, 0.0)
    for g in GEOMETRIES:
        metrics[f"variational.certificate_s.{g}"] = context.get("certificate_s", {}).get(g, 0.0)
        metrics[f"variational.certificate_residual.{g}"] = context.get(
            "certificate_residual", {}).get(g, 0.0)
    metrics.update(context["kernel"])
    return metrics
