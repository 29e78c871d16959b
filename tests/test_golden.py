"""Byte-identity goldens: small CLI outputs that a refactor must not change.

Each file under ``tests/data/`` is the output of one ``trapnet`` command on a
catalog generator.  Together they cover ``sample`` in 2-D and 3-D for every
quantity in CSV and JSON, ``nulllines``, ``analyze`` at a node and at a line
point, and ``verify``.  The files were written with Python 3.11 and numpy
2.4; a different numpy may change the last digit of a mode sum.  Rewrite
them only with a change that is meant to alter output bytes, and say so::

    PYTHONPATH=src python tests/test_golden.py
"""

from pathlib import Path

import pytest

from trapnet.cli import main

DATA = Path(__file__).parent / "data"

WINDOWS = {
    "linear": (-1.0, 1.0, -1.0, 1.0),
    "cusp": (-0.5, 2.5, -3.0, 3.0),
    "round": (-1.0, 1.0, -1.0, 1.0),
    "cross": (-1.0, 1.0, -1.0, 1.0),
}
Z_RANGE = (-0.5, 0.5)
NODES = {"cusp": (0.0, 0.0), "round": (1.0, 0.0), "cross": (0.0, 0.0)}
LINE_POINTS = {"linear": (0.0, 0.3), "cusp": (1.0, 1.0),
               "round": (1.0 / 3.0, 1.0 / 3.0), "cross": (0.5, 0.0)}
# (quantity, dimensions, format)
SAMPLES = [(q, 2, "csv") for q in ("phi", "upp", "grad_norm", "p")] + \
          [(q, 3, "json") for q in ("phi", "upp", "grad_norm")] + \
          [("upp", 2, "json"), ("grad_norm", 3, "csv")]


def _csv(values) -> str:
    return ",".join(repr(float(v)) for v in values)


def _cases() -> dict[str, list[str]]:
    cases = {}
    for gen, window in WINDOWS.items():
        for qty, ndim, fmt in SAMPLES:
            win = window + Z_RANGE if ndim == 3 else window
            res = "5" if ndim == 2 else "4,3,3"
            cases[f"{gen}-sample{ndim}d-{qty}.{fmt}"] = [
                "sample", gen, "--quantity", qty, f"--window={_csv(win)}",
                "--res", res, "--format", fmt]
        cases[f"{gen}-nulllines.json"] = [
            "nulllines", gen, f"--window={_csv(window)}", "--res", "12"]
        if gen in NODES:
            cases[f"{gen}-analyze-node.json"] = [
                "analyze", gen, f"--point={_csv(NODES[gen])}"]
        cases[f"{gen}-analyze-line.json"] = [
            "analyze", gen, f"--point={_csv(LINE_POINTS[gen])}"]
        cases[f"{gen}-verify.json"] = ["verify", gen, "--samples", "20"]
    return cases


CASES = _cases()


def _run(argv: list[str], out: Path) -> None:
    assert main([*argv, "--out", str(out)]) == 0


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_matches_golden(name, tmp_path):
    out = tmp_path / name
    _run(CASES[name], out)
    assert out.read_bytes() == (DATA / name).read_bytes()


if __name__ == "__main__":
    DATA.mkdir(exist_ok=True)
    for name, argv in CASES.items():
        _run(argv, DATA / name)
