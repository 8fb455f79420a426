"""Every output of the seven subcommands, checked against a committed reference.

``tests/reference/regenerate.py`` wrote the manifest and the CSVs.  Under
the Python and NumPy versions it records, every file must match its SHA-256
byte for byte.  Under other versions the CSVs are compared number by number
at the tolerance below, and the SVGs only by name.
"""

import csv
import importlib.util
import io
import json
from pathlib import Path

import numpy as np

REFERENCE = Path(__file__).resolve().parent / "reference"
_spec = importlib.util.spec_from_file_location("regenerate", REFERENCE / "regenerate.py")
regenerate = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(regenerate)

MANIFEST = json.loads((REFERENCE / "manifest.json").read_text(encoding="utf-8"))

# Another NumPy or libm can move a result in its last bit.  Inside the
# integrator (rtol 1e-9 in both configs) that changes the accepted steps, and
# the two runs then differ by up to their global errors, more in the velocity
# than in the state: a one-ulp change of one Dormand-Prince weight moved z by
# 7.5e-9 and zdot and delta_eps by up to 6.8e-7 of their columns' largest
# magnitudes.  A cell may differ by 1e4 rtol of its column's largest magnitude.
TOLERANCE = 1e-5


def _rows(data: bytes) -> list:
    return list(csv.reader(io.StringIO(data.decode("utf-8"), newline="")))


def csv_differences(got: bytes, want: bytes) -> list:
    """Names of the columns of ``got`` that differ from ``want`` beyond the tolerance."""
    got_rows, want_rows = _rows(got), _rows(want)
    if got_rows[0] != want_rows[0] or len(got_rows) != len(want_rows):
        return ["header or row count"]
    differences = []
    for name, a, b in zip(want_rows[0], zip(*got_rows[1:]), zip(*want_rows[1:])):
        try:
            x, y = np.array(a, dtype=float), np.array(b, dtype=float)
        except ValueError:  # text, such as a nap direction or a masked runtime
            if a != b:
                differences.append(name)
            continue
        scale = float(np.max(np.abs(y), initial=0.0, where=np.isfinite(y)))
        if not np.allclose(x, y, rtol=0.0, atol=TOLERANCE * scale, equal_nan=True):
            differences.append(name)
    return differences


def test_every_output_matches_the_reference(tmp_path):
    same_versions = regenerate.versions() == {key: MANIFEST[key] for key in ("python", "numpy")}
    for config in regenerate.CONFIGS:
        results = regenerate.run(config, tmp_path / config)
        expected = MANIFEST["outputs"][config]
        got = regenerate.record(results)
        assert {c: (r["exit"], sorted(r["files"])) for c, r in got.items()} == {
            c: (r["exit"], sorted(r["files"])) for c, r in expected.items()}
        if same_versions:
            moved = [f"{config}/{command}/{name}"
                     for command, entry in got.items() for name, digest in entry["files"].items()
                     if digest != expected[command]["files"][name]]
            assert not moved, f"outputs differ from the reference: {moved}"
            continue
        for _, files in results.values():
            for name, data in files.items():
                if name.endswith(".csv"):
                    differences = csv_differences(data, (REFERENCE / config / name).read_bytes())
                    assert not differences, f"{config}/{name}: columns {differences} moved"
