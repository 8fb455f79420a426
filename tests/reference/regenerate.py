"""Regenerate the reference outputs that ``tests/test_reference.py`` checks.

Runs the seven subcommands with ``--svg`` on each config in this directory
(``readme.json``: the README physics; ``slanted.json``: the slanted bristle
under a sinusoid loading; ``angular.json``: the angular bristle with a
two-term profile and a piecewise loading) in-process through
``wfl.cli.main``.  It writes ``manifest.json``, which records per config,
subcommand and file the exit code, the byte length and the SHA-256, and
the Python and NumPy versions that produced them.  It also stores each CSV
under ``<config>/`` for the comparison at a tolerance under other versions.
The ``runtime_s`` column of ``convergence.csv`` (wall times) reads
``masked`` in everything hashed or stored.

    PYTHONPATH=src python tests/reference/regenerate.py

Regenerate only for a change that moves an output on purpose, and record
which files moved and why.
"""

import contextlib
import csv
import hashlib
import io
import json
import platform
import shutil
import sys
import tempfile
from pathlib import Path

import numpy as np

from wfl import cli

HERE = Path(__file__).resolve().parent
CONFIGS = ("readme", "slanted", "angular")
COMMANDS = {
    "coeffs": [],
    "sweep-theta": [],
    "simulate": ["--epsilon", "0.05", "--limit"],
    "converge": [],
    "nap": [],
    "perceived": [],
    "k-table": [],
}
MASKED_COLUMN = "runtime_s"


def versions() -> dict:
    return {"python": platform.python_version(), "numpy": np.__version__}


def masked(path: Path) -> bytes:
    """The bytes of an output file, with any ``runtime_s`` column masked."""
    data = path.read_bytes()
    if path.suffix != ".csv":
        return data
    rows = list(csv.reader(io.StringIO(data.decode("utf-8"), newline="")))
    if MASKED_COLUMN not in rows[0]:
        return data
    column = rows[0].index(MASKED_COLUMN)
    for row in rows[1:]:
        row[column] = "masked"
    text = io.StringIO(newline="")
    csv.writer(text).writerows(rows)
    return text.getvalue().encode("utf-8")


def run(config: str, out: Path) -> dict:
    """``{command: (exit code, {file name: masked bytes})}`` for one config."""
    results = {}
    for command, extra in COMMANDS.items():
        target = out / command
        argv = [command, "--config", str(HERE / f"{config}.json"), "--out", str(target),
                "--svg", *extra]
        with contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(argv)
        files = sorted(target.iterdir()) if target.exists() else []
        results[command] = (code, {path.name: masked(path) for path in files})
    return results


def record(results: dict) -> dict:
    """The manifest entry of :func:`run`'s results."""
    return {
        command: {
            "exit": code,
            "files": {name: {"bytes": len(data), "sha256": hashlib.sha256(data).hexdigest()}
                      for name, data in files.items()},
        }
        for command, (code, files) in results.items()
    }


def main() -> int:
    manifest = {**versions(), "masked_column": MASKED_COLUMN, "outputs": {}}
    with tempfile.TemporaryDirectory() as tmp:
        for config in CONFIGS:
            results = run(config, Path(tmp) / config)
            manifest["outputs"][config] = record(results)
            stored = HERE / config
            shutil.rmtree(stored, ignore_errors=True)
            stored.mkdir()
            for _, files in results.values():
                for name, data in files.items():
                    if name.endswith(".csv"):
                        (stored / name).write_bytes(data)
    text = json.dumps(manifest, indent=1, sort_keys=True) + "\n"
    (HERE / "manifest.json").write_text(text, encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
