"""The benchmark's own tests, on tiny inputs.

    python3 -m pytest perfbench -q

Run from the root of a checkout.  Each workload runs once in smoke mode,
traced and untraced; the printed metric names and units must match
``BENCHMARK.json``, and a deliberately corrupted output must show up as a
failed operation.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]


def _run(workload, trace, *extra, cwd=ROOT):
    command = [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
               "--seed", "3", "--seconds", "0", "--trace", str(trace), "--smoke", *extra]
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True, timeout=600,
                          check=False)


def _result(done):
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_metric_names_and_units_match_the_spec(workload, trace):
    result = _result(_run(workload, trace))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    assert printed == {m["name"]: m["unit"] for m in spec}
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float))
    if not trace:
        assert all(metric["value"] > 0 for metric in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_a_failed_check_raises_fail_frac(workload):
    result = _result(_run(workload, 0, "--sabotage"))
    assert not result["correct"]
    assert 1 <= result["failed"] < result["attempted"]


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = _run(WORKLOADS[0], 0, cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout == ""


def test_stepper_counts_read_missing_when_the_stepper_is_not_seen():
    import tracing

    tracer = tracing.Tracer()
    tracer.calls["viscous_solver.integrate"] = 2
    counts = tracing._stepper_counts(tracer, 1)
    assert counts and all(value is None for value in counts.values())
