"""Run one benchmark workload, or repeat one to show how steady it is.

    python3 pipebench/run.py --workload ingest_additive --seed 1 --seconds 30 --trace 0
    python3 pipebench/run.py --workload ingest_exact --repeat 5 --seed 1 --seconds 30

A single run prints a ``detail`` line (environment, sample counts, the
calibration reading) and, last, one JSON result line.  ``--trace 0``
reports the end-to-end metrics, ``--trace 1`` the per-layer ones.  It
exits 1 when an output check fails and 2 when there is no program to
measure.  ``--repeat N`` runs the workload N times in fresh processes on
seeds ``seed .. seed+N-1`` and prints each metric's median, quartiles and
relative spread beside its bound from ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from pipebench.common import ROOT, CheckFailed, emit, environment, require_program  # noqa: E402

WORKLOADS = ("ingest_additive", "ingest_exact")


def run_once(workload: str, seed: int, seconds: float, trace: bool) -> int:
    require_program()
    env = environment()
    from pipebench import ingest

    try:
        outcome = ingest.run(workload, seed, seconds, trace)
    except CheckFailed as error:
        print(f"pipebench: {workload} seed {seed}: {error}", file=sys.stderr)
        return 1
    return emit(
        workload,
        seed,
        outcome["metrics"],
        outcome["attempted"],
        outcome["failed"],
        outcome["problems"],
        outcome["detail"],
        env,
    )


def repeat(workload: str, seed: int, seconds: float, trace: bool, count: int) -> int:
    from pipebench.stats import spread

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {metric["name"]: metric.get("bound") for metric in declared["end_to_end"]}
    values: dict[str, list[float]] = {}
    units: dict[str, str] = {}
    status = 0
    for offset in range(count):
        command = [
            sys.executable,
            str(Path(__file__).resolve()),
            "--workload", workload,
            "--seed", str(seed + offset),
            "--seconds", str(seconds),
            "--trace", "1" if trace else "0",
        ]
        completed = subprocess.run(command, capture_output=True, text=True, timeout=600)
        lines = completed.stdout.strip().splitlines()
        if completed.returncode != 0 or not lines:
            print(f"seed {seed + offset}: exit {completed.returncode}\n{completed.stderr[-2000:]}")
            status = 1
            continue
        result = json.loads(lines[-1])
        detail = next((line for line in lines if line.startswith("detail ")), "detail {}")
        calibration = json.loads(detail[len("detail "):]).get("calibration_ms")
        print(f"seed {seed + offset}: calibration_ms={calibration} " + " ".join(
            f"{name}={entry['value']:.6g}" for name, entry in result["metrics"].items()
        ), flush=True)
        for name, entry in result["metrics"].items():
            values.setdefault(name, []).append(entry["value"])
            units[name] = entry["unit"]
    print(f"{'metric':32s} {'unit':6s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s} {'bound':>6s}")
    for name, series in values.items():
        if len(series) < 2:
            continue
        summary = spread(series)
        bound = bounds.get(name)
        print(
            f"{name:32s} {units[name]:6s} {summary['median']:12.6g} {summary['q1']:12.6g} "
            f"{summary['q3']:12.6g} {summary['rel_spread']:8.3f} "
            f"{'' if bound is None else format(bound, '.2f'):>6s}"
        )
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, default=0, help="runs in fresh processes")
    args = parser.parse_args(argv)
    if args.repeat:
        return repeat(args.workload, args.seed, args.seconds, bool(args.trace), args.repeat)
    return run_once(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
