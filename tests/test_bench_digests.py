"""One seed-0 cycle of each workload must reproduce the benchmark's stored bytes.

``bench/digests.json`` holds the sha256 of every job's output at the
benchmark's default seed.  Running each cycle here catches a change to the
null lines, critical points, node reports, sampled grids, compiled
generators, thresholds or verdicts before the benchmark does.  Every slot
must match, known-defect slots included, except spec-sweep's three probes
whose stored digests hold outputs from before they were refused (ROADMAP
item 1); those must still differ, so that the list cannot go stale.
The digests only apply on the Python, numpy and CPU they were made with,
so elsewhere the tests skip and say why.
"""

import importlib
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"
STALE_PROBES = ["probe-deep-nesting", "probe-nan-window", "probe-far-z-window"]


def _changed_slots(monkeypatch, workload: str) -> list:
    """Run one seed-0 cycle; the names of the slots whose digests differ."""
    monkeypatch.syspath_prepend(str(BENCH))
    worker = importlib.import_module("worker")
    expected, note = worker.stored_digests(workload)
    if expected is None:
        pytest.skip(note)
    jobs = worker.workloads.build(workload, worker.DEFAULT_SEED)
    assert len(jobs) == len(expected)
    changed = []
    for record in worker.run_loop(jobs, 0.0, None, None):
        job = jobs[record["slot"]]
        assert record["problem"] is None or job.known_defect, f"{job.name}: {record['problem']}"
        if record["sha"] != expected[record["slot"]]:
            changed.append(job.name.split(":", 1)[1])
    return changed


def test_network_map_seed0_digests(monkeypatch):
    assert _changed_slots(monkeypatch, "network-map") == []


def test_sample_grid_seed0_digests(monkeypatch):
    assert _changed_slots(monkeypatch, "sample-grid") == []


def test_spec_sweep_seed0_digests(monkeypatch):
    assert _changed_slots(monkeypatch, "spec-sweep") == STALE_PROBES
