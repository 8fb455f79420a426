"""Run one benchmark workload and print its metrics as one JSON line.

    python3 perfbench/run.py --workload converge-vertical --seed 1 --seconds 10 --trace 0

Run from the root of a checkout: the package is imported from ``src/``
there, never from an installed copy.  With ``--trace 0`` the run measures
the end-to-end metrics (set-up time, wall time per iteration, peak resident
memory); with ``--trace 1`` a separate traced run gives the per-layer
metrics.  Every iteration checks the program's outputs.  The last line of
standard output is ``{"correct", "attempted", "failed", "metrics"}``; the
full record, with the environment and the sample count behind each value,
goes to ``.perfbench/results/``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

ROOT = Path.cwd()
WORK_DIR = ROOT / ".perfbench"

# at least this many timed iterations, even if they overrun --seconds
MIN_ITERATIONS = 3
SETUP_PROBES = 3

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs and one timed iteration, for the benchmark's own tests")
    parser.add_argument("--sabotage", action="store_true",
                        help="corrupt the data one output check sees; the run must report it")
    parser.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def _import_package():
    """Import ``wfl`` from this checkout's ``src/``; None if it is not there."""
    src = ROOT / "src"
    if not (src / "wfl" / "__init__.py").is_file():
        return None
    sys.path.insert(0, str(src))
    import wfl

    if Path(wfl.__file__).resolve().parent != (src / "wfl").resolve():
        return None
    return wfl


# ---------------------------------------------------------------------------
# environment and provenance
# ---------------------------------------------------------------------------


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30, check=False)
    except OSError:
        return "unknown"
    return done.stdout.strip() or "unknown"


def environment() -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "WFL_THREADS": os.environ.get("WFL_THREADS"),
        "git_commit": _git_commit(),
    }


# ---------------------------------------------------------------------------
# resident memory of this process and its pool workers
# ---------------------------------------------------------------------------


def _children(pid: int) -> list:
    kids = []
    try:
        for task in os.listdir(f"/proc/{pid}/task"):
            with open(f"/proc/{pid}/task/{task}/children", encoding="utf-8") as handle:
                kids.extend(int(p) for p in handle.read().split())
    except OSError:
        pass
    return kids


def _hwm_kb(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/status", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


class PeakMemory:
    """Samples the summed peak RSS (VmHWM) of this process and its descendants.

    Pool workers exit before the run ends, so they are sampled while they
    live; the most processes seen at once is kept as well.
    """

    def __init__(self, interval: float = 0.05):
        self.interval = interval
        self.peak_kb = 0
        self.max_children = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _sample(self) -> None:
        pids, frontier = [], [os.getpid()]
        while frontier:
            pid = frontier.pop()
            pids.append(pid)
            frontier.extend(_children(pid))
        self.peak_kb = max(self.peak_kb, sum(_hwm_kb(p) for p in pids))
        self.max_children = max(self.max_children, len(pids) - 1)

    def _run(self) -> None:
        while not self._stop.is_set():
            self._sample()
            self._stop.wait(self.interval)

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()
        self._sample()
        return False


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------


class Tally:
    """Operations attempted and failed over a whole run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def add(self, outcome) -> None:
        self.attempted += outcome.attempted
        self.failed += outcome.failed
        self.problems.extend(outcome.problems)


def timed_iteration(workload, tally):
    import workloads
    from wfl.errors import WflError

    out = getattr(workload, "out", None)
    if out is not None and out.exists():
        shutil.rmtree(out)
    start = time.perf_counter()
    try:
        outcome = workload.iterate()
    except WflError as exc:
        outcome = workloads.Outcome()
        outcome.check(False, f"{type(exc).__name__}: {exc}")
    elapsed = time.perf_counter() - start
    tally.add(outcome)
    return elapsed, outcome


def warm_up(workload, tally) -> None:
    """One iteration at smoke size: lazy imports, caches and the pool's code
    paths warm up without spending a full iteration's time."""
    small = type(workload)(workload.seed, workload.workdir / "warm-up", smoke=True)
    small.setup()
    timed_iteration(small, tally)


def measure_setup(args) -> list:
    """Wall time of fresh interpreters that import wfl and build the workload."""
    times = []
    command = [sys.executable, str(Path(__file__).resolve()), "--probe", "--workload",
               args.workload, "--seed", str(args.seed)]
    if args.smoke:
        command.append("--smoke")
    for _ in range(1 if args.smoke else SETUP_PROBES):
        start = time.perf_counter()
        done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                              timeout=120, check=False)
        times.append(time.perf_counter() - start)
        if done.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {done.stderr.strip()}")
    return times


def run_untraced(args, workload, tally) -> tuple:
    setup = measure_setup(args)
    workload.setup()
    warm_up(workload, tally)
    walls = []
    with PeakMemory() as memory:
        start = time.perf_counter()
        minimum = 1 if args.smoke else MIN_ITERATIONS
        while len(walls) < minimum or time.perf_counter() - start < args.seconds:
            walls.append(timed_iteration(workload, tally)[0])
    metrics = {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(walls),
        "peak_rss_mb": memory.peak_kb / 1024.0,
    }
    samples = {"setup_s": setup, "wall_s": walls, "peak_rss_mb": [metrics["peak_rss_mb"]]}
    return metrics, samples, {}


def run_traced(args, workload, tally) -> tuple:
    import numpy as np
    import tracing
    import workloads

    workload.setup()
    context, samples = {}, {}
    warm_up(workload, tally)
    converge = workload.name == "converge-vertical"
    serial_env = os.environ.get("WFL_THREADS")
    if converge:
        # the untraced pooled sweep gives the pool's measurements; the
        # traced sweep must run serially because spans made inside pool
        # workers are lost
        with PeakMemory() as memory:
            samples["pooled_s"] = [timed_iteration(workload, tally)[0]]
        context["pool_workers"] = memory.max_children
        os.environ["WFL_THREADS"] = "1"
    untraced, traced, extras = [], [], []
    tracer = tracing.Tracer()
    try:
        start = time.perf_counter()
        while not traced or (time.perf_counter() - start < args.seconds and not args.smoke):
            elapsed, outcome = timed_iteration(workload, tally)
            untraced.append(elapsed)
            extras.append(outcome.extras)
            with tracer:
                traced.append(timed_iteration(workload, tally)[0])
    finally:
        if converge:
            if serial_env is None:
                os.environ.pop("WFL_THREADS", None)
            else:
                os.environ["WFL_THREADS"] = serial_env
    context["untraced_s"] = statistics.median(untraced)
    context["traced_s"] = statistics.median(traced)
    if converge:
        context["pool_speedup"] = context["untraced_s"] / samples["pooled_s"][0]
    # from the untraced iterations: the sweep's public report columns, and
    # phase and certificate times free of tracing overhead
    context.update(extras[-1])
    for key in ("certify_s", "kbatch_s"):
        if key in context:
            context[key] = statistics.median(e[key] for e in extras)
    if "certificate_s" in context:
        context["certificate_s"] = {g: statistics.median(e["certificate_s"][g] for e in extras)
                                    for g in context["certificate_s"]}
    rng = np.random.default_rng(args.seed)
    small = {"scalar_calls": 20, "array_points": 1000, "repeats": 1} if args.smoke else {}
    context["kernel"] = tracing.kernel_microbench(rng, **small)
    metrics = tracing.layer_metrics(tracer, len(traced), context)
    trace_outcome = workloads.Outcome()
    workload.check_trace(metrics, trace_outcome)
    tally.add(trace_outcome)
    samples.update(untraced_s=untraced, traced_s=traced)
    spans = [{"id": i, "name": n, "start": s, "end": e, "parent": p}
             for i, n, s, e, p in tracer.spans]
    return metrics, samples, {"spans": spans, "units": tracing.UNITS}


def main(argv=None) -> int:
    args = _parse(argv)
    if _import_package() is None:
        print(f"error: no wfl package under {ROOT / 'src'}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    cls = workloads.WORKLOADS[args.workload]
    workdir = WORK_DIR / "work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        workload = cls(args.seed, workdir, smoke=args.smoke, sabotage=args.sabotage)
        if args.probe:
            workload.setup()
            return 0
        tally = Tally()
        if args.trace:
            metrics, samples, extra = run_traced(args, workload, tally)
            units = extra.pop("units")
        else:
            metrics, samples, extra = run_untraced(args, workload, tally)
            units = END_TO_END_UNITS
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "environment": environment(),
        "attempted": tally.attempted,
        "failed": tally.failed,
        "fail_frac": tally.failed / max(1, tally.attempted),
        "problems": tally.problems[:20],
        # per-layer values are per traced iteration
        "metrics": {name: {"value": value, "unit": units[name],
                           "n": len(samples.get(name, samples.get("traced_s", [value])))}
                    for name, value in metrics.items()},
        "missing": sorted(name for name, value in metrics.items() if value is None),
        "samples": samples,
        **extra,
    }
    results = WORK_DIR / "results"
    results.mkdir(parents=True, exist_ok=True)
    path = results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1), encoding="utf-8")
    for problem in tally.problems[:5]:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
