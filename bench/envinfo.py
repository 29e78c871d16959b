"""The machine a result was measured on, saved with every result.

Standard library only, so that ``run.py`` can use it without importing
numpy.  Results from two machines must not be compared silently: compare
this record first.
"""

from __future__ import annotations

import os
import platform
import subprocess
from pathlib import Path

# numerical libraries may start this many threads; the workloads are
# single-client, so one thread keeps the scheduler out of the figures
BLAS_THREADS = 1
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def pinned_environ() -> dict:
    env = dict(os.environ)
    env.update({var: str(BLAS_THREADS) for var in THREAD_VARS})
    env["PYTHONHASHSEED"] = "0"
    return env


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def cache_sizes() -> dict:
    out = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            out[f"L{level} {kind}"] = (index / "size").read_text().strip()
        except OSError:
            continue
    return out


def git_sha(root: Path) -> str:
    """HEAD of the checkout, or "unknown" when it is not a git work tree."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))
    try:
        proc = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10, env=env)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def record(root: Path, versions: dict) -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "caches": cache_sizes(),
        **versions,
        "blas_threads": BLAS_THREADS,
        "git_sha": git_sha(root),
    }
