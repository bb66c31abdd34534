"""Closed-loop ingest workloads: ``observe`` after a checkpoint restore.

Untimed preparation feeds a window's worth of rounds through
``WindowedEstimator.ingest``, evaluates once and saves a checkpoint — the
state a ``--resume``d deployment starts from.  The run then restores that
checkpoint and times a closed loop of cycles.  A cycle is one round
(eight batches, one epoch) of ``SpreaderMonitor.observe`` calls; after
every batch the read snapshot is republished and a few queries of the
query mix are answered in-process through ``EstimateService.handle``.
Every :data:`RESTORE_EVERY`-th cycle also times one more
``SnapshotStore.restore`` of the checkpoint (the copy is dropped), which
is what ``setup_s`` reads.

A fixed machine probe (:func:`pipebench.common.probe_ms`) runs before
and after each cycle, and every timing of the cycle is reported scaled by
the mean of the two readings to the probe's reference speed
(:func:`pipebench.common.at_reference_speed`): the machine this was
written on slows by 1.3-1.9x for seconds to minutes at a time, and the
probe slows with it.  The detail line carries the unscaled readings too.
"""

from __future__ import annotations

import math
import statistics
import time
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from pipebench import reference, spans
from pipebench.common import (
    CheckFailed,
    at_reference_speed,
    fresh_work_dir,
    peak_rss_mb,
    probe_ms,
)
from pipebench.inputs import EPOCH_PAIRS, ZipfStream, batches
from pipebench.queries import QueryPlan
from pipebench.stats import epoch_rate, percentile

MEMORY_BITS = 1 << 20
WINDOW_EPOCHS = 8
TOP_K = 10
#: Users (by exact count) each accuracy reading averages over.
RSE_USERS = 1000
#: Cycles between two timed restores (odd, so a traced run, which
#: alternates traced and untraced cycles, times restores in both).
RESTORE_EVERY = 3
QUERIES_PER_BATCH = 4
#: Epochs every run measures at least: enough for the p95 over batches
#: and the p99 over queries, and 11 restores.  Peak RSS is read after
#: exactly this many, and ``answer_rse`` at the end of each of the four
#: disjoint windows they hold, so neither depends on how many more epochs
#: a fast machine fits in.
MIN_CYCLES = 32
#: Never measure longer than this many times the requested seconds.
STRETCH_LIMIT = 4.0


@dataclass(frozen=True)
class IngestWorkload:
    method: str
    n_users: int
    labels: str
    semantics: str


WORKLOADS = {
    "ingest_additive": IngestWorkload("FreeRS", 50_000, "int", reference.ADDITIVE),
    "ingest_exact": IngestWorkload("CSE", 3_000, "dotted", reference.EXACT),
}


@dataclass
class Cycle:
    """One measured epoch, and how fast the machine was while it ran."""

    traced: bool
    #: Mean of the machine probes before and after the cycle.
    probe_ms: float = 0.0
    #: Summed ``observe`` seconds of the epoch's batches.
    busy_s: float = 0.0
    observe_ms: list[float] = field(default_factory=list)
    query_ms: list[float] = field(default_factory=list)
    #: Duration of the restore timed in this cycle, if any.
    restore_s: float | None = None


def monitor_spec(method: str, n_users: int):
    from repro.monitor import MonitorSpec

    return MonitorSpec(
        method=method,
        memory_bits=MEMORY_BITS,
        expected_users=n_users,
        epoch_pairs=EPOCH_PAIRS,
        window_epochs=WINDOW_EPOCHS,
        top_k=TOP_K,
    )


def warm_checkpoint(spec, stream: ZipfStream, directory):
    """Feed one window of rounds untimed, evaluate and save.

    Returns the checkpoint path, the rounds' (ranks, slots) arrays for the
    exact reference, and how long the save took.
    """
    from repro.monitor import SnapshotStore

    monitor = spec.build()
    rounds = deque(maxlen=WINDOW_EPOCHS)
    for _ in range(WINDOW_EPOCHS):
        pairs, ranks, slots = stream.next_round_pairs()
        monitor.window.ingest(pairs)
        rounds.append((ranks, slots))
    monitor.evaluate()
    start = time.perf_counter()
    path = SnapshotStore(directory, keep=0).save(monitor)
    return path, rounds, time.perf_counter() - start


def window_counts(stream: ZipfStream, rounds, semantics: str) -> dict[object, int]:
    return reference.exact_window_counts(
        (stream.pairs(ranks, slots) for ranks, slots in rounds), semantics
    )


def scaled(cycles: list[Cycle]) -> dict[str, list[float]]:
    """Every timing of ``cycles``, each scaled by its own cycle's probe."""
    return {
        "busy_s": [at_reference_speed(c.busy_s, c.probe_ms) for c in cycles],
        "observe_ms": [at_reference_speed(ms, c.probe_ms) for c in cycles for ms in c.observe_ms],
        "query_ms": [at_reference_speed(ms, c.probe_ms) for c in cycles for ms in c.query_ms],
        "restore_s": [
            at_reference_speed(c.restore_s, c.probe_ms) for c in cycles if c.restore_s is not None
        ],
    }


def end_to_end(cycles: list[Cycle], rse: float, rss: float) -> dict[str, tuple[float, str]]:
    """The end-to-end readings of ``cycles``, timings at the probe's reference speed."""
    readings = scaled(cycles)
    return {
        "setup_s": (statistics.median(readings["restore_s"]), "s"),
        "ingest_pairs_per_s": (epoch_rate(readings["busy_s"]), "1/s"),
        "observe_ms_p50": (percentile(readings["observe_ms"], 50), "ms"),
        "observe_ms_p95": (percentile(readings["observe_ms"], 95), "ms"),
        "query_ms_p50": (percentile(readings["query_ms"], 50), "ms"),
        "query_ms_p99": (percentile(readings["query_ms"], 99), "ms"),
        "answer_rse": (rse, "ratio"),
        "peak_rss_mb": (rss, "MB"),
    }


def measured(cycles: list[Cycle]) -> dict[str, float]:
    """The same timings as measured, unscaled (for the detail line)."""
    return {
        "setup_s": statistics.median(c.restore_s for c in cycles if c.restore_s is not None),
        "ingest_pairs_per_s": epoch_rate([cycle.busy_s for cycle in cycles]),
        "observe_ms_p50": percentile([ms for c in cycles for ms in c.observe_ms], 50),
        "query_ms_p50": percentile([ms for c in cycles for ms in c.query_ms], 50),
    }


def run(name: str, seed: int, seconds: float, trace: bool) -> dict[str, object]:
    from repro import obs
    from repro.monitor import SnapshotStore
    from repro.service.server import EstimateService

    workload = WORKLOADS[name]
    work = fresh_work_dir(f"{name}-{seed}")
    stream = ZipfStream(seed, workload.n_users, labels=workload.labels)
    spec = monitor_spec(workload.method, workload.n_users)
    checkpoint, rounds, save_seconds = warm_checkpoint(spec, stream, work / "snapshots")
    store = SnapshotStore(checkpoint.parent, keep=0)
    monitor = store.restore(checkpoint)
    tracer = spans.Tracer() if trace else None

    service = EstimateService(monitor)
    plan = QueryPlan(seed, stream)
    cycles: list[Cycle] = []
    rse_squares: list[float] = []
    attempted = failed = 0
    clock = time.perf_counter
    started = clock()
    while True:
        index = len(cycles)
        cycle = Cycle(traced=tracer is not None and index % 2 == 0)
        if tracer is not None:
            (tracer.install if cycle.traced else tracer.uninstall)()
        pairs, ranks, slots = stream.next_round_pairs()
        rounds.append((ranks, slots))
        before = probe_ms()
        if index % RESTORE_EVERY == 0:
            start = clock()
            restored = store.restore(checkpoint)
            cycle.restore_s = clock() - start
            del restored
        for batch in batches(pairs):
            with service.lock:
                start = clock()
                monitor.observe(batch)
                elapsed = clock() - start
                service.refresh()
            cycle.busy_s += elapsed
            cycle.observe_ms.append(elapsed * 1000.0)
            attempted += 1
            for _ in range(QUERIES_PER_BATCH):
                request = plan.next_request()
                start = clock()
                response = service.handle(request)
                cycle.query_ms.append((clock() - start) * 1000.0)
                attempted += 1
                failed += not response.get("ok")
        cycle.probe_ms = (before + probe_ms()) / 2.0
        cycles.append(cycle)
        if len(cycles) <= MIN_CYCLES and len(cycles) % WINDOW_EPOCHS == 0:
            counts = window_counts(stream, rounds, workload.semantics)
            top = reference.top_users(counts, RSE_USERS)
            rse_squares.append(
                reference.answer_rse(monitor.window.window_estimates(), counts, top) ** 2
            )
        if len(cycles) == MIN_CYCLES:
            rss = peak_rss_mb()
        running = clock() - started
        if running >= seconds and len(cycles) >= MIN_CYCLES:
            break
        if running >= STRETCH_LIMIT * seconds:
            raise CheckFailed(f"only {len(cycles)} cycles after {running:.1f} s")
    measured_s = clock() - started
    if tracer is not None:
        tracer.uninstall()

    # -- output checks (untimed) ------------------------------------------------
    problems = reference.check_top(monitor.current_top, monitor.window.window_estimates(), TOP_K)

    untraced = [cycle for cycle in cycles if not cycle.traced]
    detail = {
        "method": workload.method,
        "users": workload.n_users,
        "measured_s": round(measured_s, 3),
        "cycles": len(cycles),
        "batches": sum(len(cycle.observe_ms) for cycle in untraced),
        "queries": sum(len(cycle.query_ms) for cycle in untraced),
        "restores": sum(cycle.restore_s is not None for cycle in untraced),
        "probe_ms_p10_p50_p90": [
            round(float(value), 3)
            for value in np.percentile([cycle.probe_ms for cycle in cycles], [10, 50, 90])
        ],
        "unscaled": {name: round(value, 6) for name, value in measured(untraced).items()},
        "rse_users": len(top),
        "rse_windows": len(rse_squares),
        "incremental_evaluations": monitor.incremental_evaluations,
        "full_evaluations": monitor.full_evaluations,
    }
    if tracer is not None:
        metrics = spans.layer_metrics(tracer)
        metrics.update(
            spans.run_metrics(
                evaluations=(monitor.incremental_evaluations, monitor.full_evaluations),
                restore_s=[cycle.restore_s for cycle in cycles if cycle.restore_s is not None],
                save_s=[save_seconds],
                snapshot_bytes=[checkpoint.stat().st_size],
                instruments=obs.metrics_snapshot(),
                cycle_busy={
                    traced: scaled([cycle for cycle in cycles if cycle.traced == traced])["busy_s"]
                    for traced in (True, False)
                },
            )
        )
        tracer.write(work / "spans.json")
    else:
        metrics = end_to_end(cycles, math.sqrt(statistics.fmean(rse_squares)), rss)
    for path in (work / "snapshots").glob("*.json"):
        path.unlink()
    return {
        "metrics": metrics,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "detail": detail,
    }
