"""Smoke runs of the experiment scripts at small sizes."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import trapnet
from trapnet.cli import main

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


def test_cusp_guide_writes_what_the_cli_writes(tmp_path):
    """Both files are byte for byte the output of the two CLI commands."""
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(trapnet.__file__))}
    subprocess.run([sys.executable, str(SCRIPTS / "cusp_guide.py"), "--alpha", "0.7",
                    "--res", "60", "--out-dir", str(tmp_path / "script")],
                   capture_output=True, env=env, check=True)
    common = ["cusp", "--param", "alpha=0.7", "--window=-0.5,2.5,-3.0,3.0"]
    assert main(["nulllines", *common, "--res", "60", "--out", str(tmp_path / "lines.json")]) == 0
    assert main(["sample", *common, "--quantity", "upp", "--res", "101", "--format", "csv",
                 "--out", str(tmp_path / "upp.csv")]) == 0
    for name, want in (("cusp_nulllines.json", "lines.json"), ("cusp_upp.csv", "upp.csv")):
        assert (tmp_path / "script" / name).read_bytes() == (tmp_path / want).read_bytes()
