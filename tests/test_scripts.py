"""Smoke runs of the experiment scripts at small sizes."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
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


def test_cusp_guide_upp_csv_matches_a_dense_evaluation(tmp_path):
    """The script samples U_pp on open axes; the file holds the dense grid's bytes."""
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(trapnet.__file__))}
    subprocess.run([sys.executable, str(SCRIPTS / "cusp_guide.py"), "--res", "60",
                    "--out-dir", str(tmp_path)], capture_output=True, env=env, check=True)
    fld = trapnet.synthesize(trapnet.catalog("cusp", {"alpha": 1.0}).compile())
    xs = np.linspace(-0.5, 2.5, 101)
    ys = np.linspace(-3.0, 3.0, 101)
    gx, gy = np.meshgrid(xs, ys, indexing="ij")
    upp = fld.pseudopotential(gx, gy, np.zeros_like(gx))
    rows = ["x,y,value", *(f"{xs[i]!r},{ys[j]!r},{float(upp[i, j])!r}"
                           for i in range(101) for j in range(101))]
    assert (tmp_path / "cusp_upp.csv").read_text().split("\n") == [*rows, ""]
