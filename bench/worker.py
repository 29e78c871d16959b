"""One workload in a fresh process: set up, run jobs in a closed loop, report.

Started by ``run.py``; prints one JSON line on stdout.  With ``--setup-only``
it stops once the first job is ready, which is how ``run.py`` samples the
set-up time several times per run.  With ``--write-digests`` it runs one
cycle at the default seed and stores the sha256 of every job's output in
``digests.json``; runs at the default seed then fail any job whose output
bytes differ.  Regenerate the file only for a change that is meant to alter
output bytes, and say so with the change:

    python3 bench/worker.py --workload sample-grid --write-digests
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import platform
import resource
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy  # noqa: E402
import scipy  # noqa: E402

import envinfo  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

DEFAULT_SEED = 0
DIGESTS = BENCH / "digests.json"
# give up mid-cycle after this long, so a run always ends within its budget
HARD_STOP_S = 120.0


def fingerprint() -> dict:
    """What byte-identical outputs depend on besides trapnet itself."""
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "cpu": envinfo.cpu_model()}


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def stored_digests(workload: str):
    """Digests of the default seed, or None with the reason they do not apply."""
    if not DIGESTS.is_file():
        return None, "no digest file"
    stored = json.loads(DIGESTS.read_text())
    if stored["fingerprint"] != fingerprint():
        return None, f"digests were made with {stored['fingerprint']}, not {fingerprint()}"
    if workload not in stored["workloads"]:
        return None, "no digests stored for this workload"
    return stored["workloads"][workload], None


def run_loop(jobs, seconds, expected, tracer):
    """Run whole cycles of jobs until the time is used; return the job records.

    With a tracer, cycles alternate between untraced and traced, so that the
    tracing overhead is measured against untraced cycles of the same run.
    """
    records = []
    first = {}
    min_cycles = 1 if tracer is None else 2
    t_run = time.perf_counter()
    for cycle in itertools.count():
        traced = tracer is not None and cycle % 2 == 1
        if tracer is not None:
            tracer.enable(traced)
        t_cycle = time.perf_counter()
        for slot, job in enumerate(jobs):
            if time.perf_counter() - t_run > HARD_STOP_S:
                return records
            start = time.perf_counter()
            try:
                raw = tracer.run_job(len(records), job.name, job.run) if traced else job.run()
            except Exception as exc:  # a failed job is counted, not fatal
                raw = workloads.Raised(exc)
            seconds_taken = time.perf_counter() - start
            try:
                data, problem = job.check(raw)
            except Exception as exc:  # output too broken to check, e.g. not JSON
                data, problem = repr(exc).encode(), f"unreadable output: {exc!r}"
            sha = digest(data)
            if problem is None and first.setdefault(slot, sha) != sha:
                problem = "output differs from this slot's first run"
            if problem is None and expected is not None and expected[slot] != sha:
                problem = "output digest differs from the stored digest"
            if traced and isinstance(raw, workloads.CliResult):
                tracer.bucket.counts["cli.output_bytes"] += len(raw.text.encode())
            records.append({"slot": slot, "ms": 1000.0 * seconds_taken,
                            "problem": problem, "sha": sha, "traced": traced})
        elapsed = time.perf_counter() - t_run
        if cycle + 1 >= min_cycles and elapsed + 0.5 * (time.perf_counter() - t_cycle) >= seconds:
            return records


def write_digests(workload: str, jobs) -> int:
    """Run one cycle at the default seed and store its output digests."""
    records = run_loop(jobs, 0.0, None, None)
    bad = [(jobs[r["slot"]].name, r["problem"]) for r in records
           if r["problem"] is not None and not jobs[r["slot"]].known_defect]
    if bad:
        print(f"error: not storing digests of failed jobs: {bad}", file=sys.stderr)
        return 1
    stored = json.loads(DIGESTS.read_text()) if DIGESTS.is_file() else {}
    if stored.get("fingerprint") != fingerprint():
        stored = {"fingerprint": fingerprint(), "seed": DEFAULT_SEED, "workloads": {}}
    stored["workloads"][workload] = [r["sha"] for r in records]
    DIGESTS.write_text(json.dumps(stored, indent=1, sort_keys=True) + "\n")
    return 0


def trace_report(tracer, workload: str, seed: int) -> dict:
    total = tracing.total(tracer.buckets.values())
    path = BENCH / "out" / f"spans-{workload}-s{seed}.json"
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps({"fields": ["name", "start", "end", "parent", "job"],
                                "spans": tracer.spans}))
    return {
        "layers": tracing.metrics(total),
        "slots": {name: {"jobs": b.jobs, "wall_s": b.wall, "incl": dict(b.incl),
                         "self": dict(b.self_s), "counts": dict(b.counts)}
                  for name, b in tracer.buckets.items()},
        "spans_file": str(path.relative_to(ROOT)),
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--write-digests", action="store_true")
    args = ap.parse_args()

    jobs = workloads.build(args.workload, args.seed)
    ready = time.perf_counter()
    if args.setup_only:
        print(json.dumps({"ready": ready}))
        return 0
    if args.write_digests:
        if args.seed != DEFAULT_SEED:
            print(f"error: digests are stored for seed {DEFAULT_SEED} only", file=sys.stderr)
            return 2
        return write_digests(args.workload, jobs)

    expected, digest_note = None, "digests apply to the default seed only"
    if args.seed == DEFAULT_SEED:
        expected, digest_note = stored_digests(args.workload)
        if expected is not None and len(expected) != len(jobs):
            expected, digest_note = None, "digest file does not match the job list"
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracing.install(tracer)

    records = run_loop(jobs, args.seconds, expected, tracer)

    out = {
        "ready": ready,
        "jobs": [{"name": j.name, "known_defect": j.known_defect} for j in jobs],
        "records": [{k: r[k] for k in ("slot", "ms", "problem", "traced")} for r in records],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "digests_checked": expected is not None,
        "digest_note": digest_note,
        "versions": {"python": platform.python_version(), "numpy": numpy.__version__,
                     "scipy": scipy.__version__},
    }
    if tracer is not None:
        out.update(trace_report(tracer, args.workload, args.seed))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
