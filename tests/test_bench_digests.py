"""One seed-0 network-map cycle must reproduce the benchmark's stored bytes.

``bench/digests.json`` holds the sha256 of every job's output at the
benchmark's default seed.  Running the cycle here catches a change to the
null lines, critical points or node reports before the benchmark does.
The digests only apply on the Python, numpy and CPU they were made with,
so elsewhere the test skips and says why.
"""

import importlib
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_network_map_seed0_digests(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    worker = importlib.import_module("worker")
    expected, note = worker.stored_digests("network-map")
    if expected is None:
        pytest.skip(note)
    jobs = worker.workloads.build("network-map", worker.DEFAULT_SEED)
    assert len(jobs) == len(expected)
    for job, want in zip(jobs, expected):
        data, problem = job.check(job.run())
        assert problem is None, f"{job.name}: {problem}"
        assert worker.digest(data) == want, f"{job.name}: output bytes changed"
