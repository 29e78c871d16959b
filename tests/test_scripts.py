"""Smoke runs of the experiment scripts at small sizes."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import trapnet

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


@pytest.mark.parametrize("script, args, outputs", [
    ("cusp_guide.py", ["--res", "60"], ["cusp_nulllines.json", "cusp_upp.csv"]),
    ("round_lattice.py", ["--c-values", "0.1,0.4"], ["round_scan.json"]),
])
def test_script_runs_and_passes_the_oracle(tmp_path, script, args, outputs):
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(trapnet.__file__))}
    proc = subprocess.run([sys.executable, str(SCRIPTS / script), *args, "--out-dir", str(tmp_path)],
                          capture_output=True, text=True, env=env, check=False)
    assert proc.returncode == 0, proc.stderr
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(outputs)
    assert all((tmp_path / name).stat().st_size > 0 for name in outputs)
    assert any(line.startswith("oracle checks: pass=True") for line in proc.stdout.splitlines())
