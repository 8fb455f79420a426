"""Run every workload over several seeds and summarise each metric.

    python3 perfbench/suite.py --seeds 10 --serial-converge --trace --out perfbench/baseline/BENCH_0.json

Run from the root of a checkout.  Each run is one ``perfbench/run.py``
process with the settings of ``BENCHMARK.json``; runs go seed by seed, all
workloads per seed, so slow drift of the machine spreads evenly over the
workloads.  For every end-to-end metric the table gives the median, the
quartiles, the sample count and the quartile spread as a share of the
median, against the metric's regression bound.  ``--serial-converge``
adds ``converge-vertical`` under ``WFL_THREADS=1``; ``--trace`` adds one
traced run per workload for the per-layer metrics; ``--compare`` checks the
medians against an earlier output of this script.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path.cwd()
SERIAL = "converge-vertical@WFL_THREADS=1"


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--serial-converge", action="store_true")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--compare", default=None, help="earlier suite output to compare medians with")
    parser.add_argument("--out", default=None, help="write the summary and every run record here")
    return parser.parse_args(argv)


def run_once(spec: dict, workload: str, seed: int, trace: int, env: dict) -> dict:
    command = [sys.executable, *spec["command"][1:], "--workload", workload, "--seed", str(seed),
               "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
    start = time.perf_counter()
    done = subprocess.run(command, cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=900, check=False)
    elapsed = time.perf_counter() - start
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        return {"seed": seed, "exit": done.returncode, "elapsed_s": elapsed,
                "stderr": done.stderr.strip()[-2000:]}
    result = json.loads(lines[-1])
    record_path = ROOT / ".perfbench" / "results" / f"{workload}-seed{seed}-trace{trace}.json"
    record = json.loads(record_path.read_text(encoding="utf-8"))
    return {"seed": seed, "exit": 0, "elapsed_s": elapsed, **result, "record": record}


def quartiles(values: list) -> tuple:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def summarise(spec: dict, runs: list) -> dict:
    ok = [r for r in runs if r["exit"] == 0]
    attempted = sum(r["attempted"] for r in ok)
    failed = sum(r["failed"] for r in ok)
    summary = {
        "runs": len(runs),
        "crashed": len(runs) - len(ok),
        "attempted": attempted,
        "failed": failed,
        "fail_frac": failed / attempted if attempted else None,
        "run_elapsed_s_max": max((r["elapsed_s"] for r in runs), default=None),
        "metrics": {},
    }
    for metric in spec["end_to_end"]:
        values = [r["metrics"][metric["name"]]["value"] for r in ok]
        if not values:
            continue
        q1, median, q3 = quartiles(values)
        summary["metrics"][metric["name"]] = {
            "unit": metric["unit"], "median": median, "q1": q1, "q3": q3, "n": len(values),
            "spread": (q3 - q1) / median, "bound": metric["bound"], "values": values,
        }
    return summary


def print_table(summaries: dict) -> None:
    print(f"{'workload':36} {'metric':12} {'unit':5} {'median':>10} {'q1':>10} {'q3':>10} "
          f"{'n':>3} {'spread':>7} {'bound':>6}")
    for workload, summary in summaries.items():
        for name, m in summary["metrics"].items():
            flag = "" if m["spread"] <= m["bound"] / 3 else ("  > bound/3" if m["spread"] <= m["bound"]
                                                               else "  > bound")
            print(f"{workload:36} {name:12} {m['unit']:5} {m['median']:10.4f} {m['q1']:10.4f} "
                  f"{m['q3']:10.4f} {m['n']:3d} {m['spread']:7.4f} {m['bound']:6.3f}{flag}")
        print(f"{workload:36} {'fail_frac':12} {'1':5} {summary['fail_frac']!s:>10}  "
              f"({summary['failed']} of {summary['attempted']} operations, "
              f"{summary['crashed']} crashed runs)")


def compare(summaries: dict, earlier_path: str) -> bool:
    earlier = json.loads(Path(earlier_path).read_text(encoding="utf-8"))["summaries"]
    agree = True
    for workload, summary in summaries.items():
        for name, m in summary["metrics"].items():
            if name not in earlier.get(workload, {}).get("metrics", {}):
                continue
            before = earlier[workload]["metrics"][name]["median"]
            change = (m["median"] - before) / before
            worse = change > m["bound"]
            agree &= not worse
            print(f"compare {workload:36} {name:12} {before:10.4f} -> {m['median']:10.4f} "
                  f"({change:+.3f}, bound {m['bound']}){'  WORSE' if worse else ''}")
    return agree


def main(argv=None) -> int:
    args = _parse(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    seeds = list(range(1, args.seeds + 1))
    plan = [(n, n, dict(os.environ)) for n in names]
    if args.serial_converge and "converge-vertical" in names:
        plan.append((SERIAL, "converge-vertical", {**os.environ, "WFL_THREADS": "1"}))

    runs = {label: [] for label, _, _ in plan}
    for seed in seeds:
        for label, workload, env in plan:
            run = run_once(spec, workload, seed, 0, env)
            runs[label].append(run)
            print(f"# {label} seed {seed}: {run['elapsed_s']:.1f}s, exit {run['exit']}",
                  file=sys.stderr, flush=True)
    summaries = {label: summarise(spec, r) for label, r in runs.items()}
    print_table(summaries)

    traced = {}
    if args.trace:
        for workload in names:
            run = run_once(spec, workload, seeds[0], 1, dict(os.environ))
            traced[workload] = run
            print(f"# {workload} traced: {run['elapsed_s']:.1f}s, exit {run['exit']}",
                  file=sys.stderr, flush=True)

    agree = compare(summaries, args.compare) if args.compare else True
    if args.out:
        sys.path.insert(0, str(Path(__file__).resolve().parent))
        import run as bench

        if bench._import_package() is None:
            print("error: no wfl package under src/", file=sys.stderr)
            return 2
        output = {
            "benchmark": spec,
            "environment": bench.environment(),
            "seeds": seeds,
            "summaries": summaries,
            "runs": runs,
            "traced": traced,
        }
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(json.dumps(output, indent=1), encoding="utf-8")
    all_ok = all(s["crashed"] == 0 and s["failed"] == 0 for s in summaries.values())
    return 0 if all_ok and agree else 1


if __name__ == "__main__":
    sys.exit(main())
