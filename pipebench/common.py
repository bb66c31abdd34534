"""Paths, environment fingerprint, memory readings and result output."""

from __future__ import annotations

import gc
import json
import os
import platform
import shutil
import statistics
import sys
import time
from pathlib import Path

import numpy as np

#: The checkout the benchmark runs in (the parent of this package).
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Scratch space for checkpoints, edge files and span dumps (gitignored).
WORK = ROOT / ".pipebench-work"


class CheckFailed(RuntimeError):
    """An output check failed: the program answered wrongly."""


def require_program() -> None:
    """Make ``repro`` importable from the checkout's ``src``, or exit 2."""
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"pipebench: no program to measure: {SRC / 'repro'} is missing", file=sys.stderr)
        raise SystemExit(2)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def fresh_work_dir(name: str) -> Path:
    """An empty per-run directory under :data:`WORK`."""
    path = WORK / name
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def peak_rss_mb() -> float:
    """Peak resident set size (``VmHWM``) of this process, in MiB."""
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def calibration_ms() -> float:
    """Median of three runs of a fixed pure-Python plus numpy loop.

    The loop never changes, so its time tracks the machine, not the
    program: read it beside the metrics to tell a slow machine from a slow
    program.
    """
    readings = []
    for _ in range(3):
        start = time.perf_counter()
        rng = np.random.default_rng(0)
        values = rng.integers(0, 1 << 40, size=200_000)
        counts: dict[int, int] = {}
        for value in values[:50_000].tolist():
            counts[value] = counts.get(value, 0) + 1
        np.unique(values)
        readings.append((time.perf_counter() - start) * 1000.0)
    return statistics.median(readings)


#: The probe reading timings are scaled to (:func:`at_reference_speed`):
#: about what :func:`probe_ms` reads on a 2-vCPU Xeon box in its fast
#: stretches.  Any constant would do; this one keeps scaled readings close
#: to what that box measures when it is not slowed down.
PROBE_REFERENCE_MS = 4.0
#: Fixed inputs of :func:`probe_ms`, built once so every reading does the same work.
_PROBE_KEYS = [(key * 2654435761) & 0xFFFFF for key in range(40_000)]
_PROBE_ARRAY = np.random.default_rng(0).integers(0, 1 << 40, size=100_000)


def probe_ms() -> float:
    """One reading of a fixed ~4 ms pure-Python plus numpy loop.

    The runs take one before and one after each measured epoch.  The loop
    never changes and the garbage collector is off while it runs, so the
    reading says how fast the machine was, not how the program behaved.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        counts: dict[int, int] = {}
        for key in _PROBE_KEYS:
            counts[key] = counts.get(key, 0) + 1
        np.sort(_PROBE_ARRAY)
        return (time.perf_counter() - start) * 1000.0
    finally:
        if enabled:
            gc.enable()


def at_reference_speed(seconds: float, probe: float) -> float:
    """A duration measured while :func:`probe_ms` read ``probe``, scaled to
    what it would take with the probe at :data:`PROBE_REFERENCE_MS`.

    The machine this was written on runs everything 1.3-1.9x slower for
    seconds to minutes at a time (CPU time slows with wall time, so it is
    not descheduling).  Within a run the probe and the program's epoch
    times move together (correlation 0.6-0.8 over epochs), and scaling
    each epoch by its own probe cut the run-to-run spread of the ingest
    rate from 0.21 to 0.02 of its median over six runs.
    """
    return seconds * PROBE_REFERENCE_MS / probe


def git_sha() -> str:
    """The checkout's commit, read from ``.git`` without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_path = ROOT / ".git" / ref[5:]
            if ref_path.is_file():
                return ref_path.read_text().strip()
            for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
                if line.endswith(ref[5:]):
                    return line.split()[0]
            return "unknown"
        return ref
    except OSError:
        return "unknown"


def environment() -> dict[str, object]:
    """What the detail line records about the machine and the code."""
    return {
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_sha": git_sha(),
        "calibration_ms": round(calibration_ms(), 3),
    }


def emit(
    workload: str,
    seed: int,
    metrics: dict[str, tuple[float, str]],
    attempted: int,
    failed: int,
    problems: list[str],
    detail: dict[str, object],
    env: dict[str, object],
) -> int:
    """Print the detail line and the result line; return the exit code."""
    print(
        "detail "
        + json.dumps({"workload": workload, "seed": seed, **env, **detail, "problems": problems}),
        flush=True,
    )
    result = {
        "correct": not problems,
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {
            name: {"value": float(value), "unit": unit} for name, (value, unit) in metrics.items()
        },
    }
    print(json.dumps(result), flush=True)
    return 0 if not problems else 1
