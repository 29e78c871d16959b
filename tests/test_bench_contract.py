"""The benchmark's tracer must still find every trapnet name it times.

``bench/tracer.py`` wraps functions by module attribute and methods through
the defining class's ``__dict__``, so deleting, renaming or only inheriting
one of those names breaks the traced benchmark run.  Installing the tracer
here fails with a KeyError or AttributeError in that case.
"""

import importlib.util
from pathlib import Path

from trapnet.cli import main

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_patches_and_restores(tmp_path):
    tracing = _load_tracer()
    tr = tracing.Tracer()
    out = str(tmp_path / "out")
    try:
        tracing.install(tr)
        assert tr.run_job(0, "probe", lambda: main(
            ["analyze", "round", "--point=0.3333333333333333,0.3333333333333333",
             "--out", out])) == 0
        assert tr.run_job(1, "probe", lambda: main(
            ["verify", "cusp", "--samples", "5", "--out", out])) == 0
        assert tr.run_job(2, "probe", lambda: main(
            ["nulllines", "cusp", "--window=-1,1,-1,1", "--res", "16", "--out", out])) == 0
        assert tr.run_job(3, "probe", lambda: main(
            ["analyze", "cusp", "--point=0,0", "--out", out])) == 0
    finally:
        tr.enable(False)
    assert tr.patches
    for namespace, attr, original, _ in tr.patches:
        assert vars(namespace)[attr] is original
    bucket = tr.buckets["probe"]
    assert bucket.jobs == 4
    for name in ("extension.eval", "verify.run_checks", "analysis.null_lines",
                 "analysis.multipole"):
        assert bucket.incl[name] > 0.0, name
