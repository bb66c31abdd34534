"""Wire-transport comparison: NDJSON vs binary frames, plus the shm handoff.

Not a paper artefact: the transports exist so the serving and scale-out
layers stop paying text/pickle costs for data that is raw numbers end to
end.  Two measurements, one JSON:

* **service** — ``batch_spread`` over 10k users against a live server,
  once per transport on the same monitor state.  NDJSON formats and parses
  ~200 KB of JSON text per exchange; binary moves the same data as two raw
  buffers (~160 KB) plus a compact header.  The answers must be
  bit-identical — the transport may only change the bytes on the wire.
* **ingest** — ``parallel_ingest`` over ~1M pairs, once in-process
  (``workers=1``) and once with 4 workers fed through the shared-memory
  slot rings.  The merged 4-worker estimates must be bit-identical to the
  in-process run; both timings are recorded.

Each measurement repeats and keeps the minimum — interpreter warm-up and
page-cache effects dominate single cold runs, and the floor is the number
the transport actually determines.  Persisted to
``benchmarks/results/BENCH_transport.json``.  As with the other runtime
benchmarks the speedup bar (binary >= 3x on the service side) binds only
with ``FREESKETCH_BENCH_STRICT=1``: shared CI runners are too contended to
gate merges on wall-clock, but the JSON records the trajectory either way.
The ingest half carries no speedup bar (``bench_parallel_ingest.py`` owns
the worker-scaling bars).
"""

from __future__ import annotations

import asyncio
import json
import os
import threading
import time
from pathlib import Path

import numpy as np

from repro.experiments.config import ExperimentConfig
from repro.monitor import MonitorSpec
from repro.runtime import parallel_ingest
from repro.service import EstimateServer, EstimateService, ServiceClient

RESULTS_PATH = Path(__file__).resolve().parent / "results" / "BENCH_transport.json"

_STRICT = os.environ.get("FREESKETCH_BENCH_STRICT") == "1"

# -- service half -----------------------------------------------------------

_N_QUERY_USERS = 10_000
_SERVICE_REPS = 9

# -- ingest half ------------------------------------------------------------

_N_PAIRS = 1_000_000
_N_INGEST_USERS = 5_000
_INGEST_WORKERS = 4
_INGEST_REPS = 3
_INGEST_CONFIG = ExperimentConfig(memory_bits=1 << 20, seed=7)
_INGEST_METHOD = "FreeRS"


class _ServerThread:
    """Run an EstimateServer on its own event loop thread for sync clients."""

    def __init__(self, service: EstimateService):
        self.service = service
        self.port = None
        self._loop = None
        self._ready = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()
        assert self._ready.wait(10.0), "server did not come up"

    def _run(self):
        async def main():
            server = EstimateServer(self.service, port=0)
            await server.start()
            self.port = server.port
            self._loop = asyncio.get_running_loop()
            self._stop = asyncio.Event()
            self._ready.set()
            await self._stop.wait()
            await server.close()

        asyncio.run(main())

    def close(self):
        self._loop.call_soon_threadsafe(self._stop.set)
        self._thread.join(timeout=10.0)


class _ArrayStream:
    """Minimal stream over two pre-generated id arrays (no tuple list)."""

    def __init__(self, users: np.ndarray, items: np.ndarray) -> None:
        self._users = users
        self._items = items

    def to_int_arrays(self):
        return self._users, self._items

    def __iter__(self):
        return zip(self._users.tolist(), self._items.tolist())


def _service_monitor():
    rng = np.random.default_rng(19)
    users = rng.integers(0, _N_QUERY_USERS, size=120_000)
    items = rng.integers(0, 50_000, size=120_000)
    monitor = MonitorSpec(
        method="FreeRS",
        memory_bits=1 << 18,
        expected_users=_N_QUERY_USERS,
        epoch_pairs=40_000,
        window_epochs=4,
        delta=5e-3,
        seed=1,
    ).build()
    monitor.observe(list(zip(users.tolist(), items.tolist())))
    return monitor


def _measure_service() -> dict:
    monitor = _service_monitor()
    server = _ServerThread(EstimateService(monitor))
    query_users = list(range(_N_QUERY_USERS))
    rows, answers = {}, {}
    try:
        for transport in ("ndjson", "binary"):
            with ServiceClient(port=server.port, transport=transport) as client:
                assert client.transport == transport
                client.batch_spread(query_users)  # warm-up exchange
                best = float("inf")
                for _ in range(_SERVICE_REPS):
                    start = time.perf_counter()
                    answers[transport] = client.batch_spread(query_users)
                    best = min(best, time.perf_counter() - start)
            rows[transport] = {
                "best_seconds": best,
                "queries_per_second": 1.0 / best,
                "users_per_second": _N_QUERY_USERS / best,
            }
    finally:
        server.close()
    assert answers["binary"] == answers["ndjson"], (
        "binary batch_spread diverged from the NDJSON answer"
    )
    speedup = rows["ndjson"]["best_seconds"] / rows["binary"]["best_seconds"]
    return {
        "op": "batch_spread",
        "users": _N_QUERY_USERS,
        "reps": _SERVICE_REPS,
        "transports": rows,
        "binary_speedup": speedup,
        "answers_identical": True,
    }


def _measure_ingest() -> dict:
    rng = np.random.default_rng(23)
    stream = _ArrayStream(
        ((rng.random(_N_PAIRS) ** 2) * _N_INGEST_USERS).astype(np.int64),
        rng.integers(0, 200_000, size=_N_PAIRS),
    )
    rows, estimates = {}, {}
    for label, workers in (("in_process", 1), ("shm", _INGEST_WORKERS)):
        best = float("inf")
        for _ in range(_INGEST_REPS):
            report = parallel_ingest(
                stream,
                method=_INGEST_METHOD,
                config=_INGEST_CONFIG,
                expected_users=_N_INGEST_USERS,
                workers=workers,
                shards=_INGEST_WORKERS,
            )
            best = min(best, report.seconds)
            estimates[label] = report.estimates()
        rows[label] = {
            "workers": workers,
            "best_seconds": best,
            "pairs_per_second": _N_PAIRS / best,
        }
    assert estimates["shm"] == estimates["in_process"], (
        "shm ingest diverged from the in-process workers=1 run"
    )
    return {
        "method": _INGEST_METHOD,
        "pairs": _N_PAIRS,
        "shards": _INGEST_WORKERS,
        "reps": _INGEST_REPS,
        "runs": rows,
        "estimates_identical": True,
    }


def test_transport_speedups_and_json(benchmark):
    """Measure both halves, assert bit-identity, persist the JSON."""

    def measure():
        return {"service": _measure_service(), "ingest": _measure_ingest()}

    results = benchmark.pedantic(measure, rounds=1, iterations=1)

    RESULTS_PATH.parent.mkdir(parents=True, exist_ok=True)
    RESULTS_PATH.write_text(json.dumps(results, indent=2) + "\n", encoding="utf-8")
    print(f"\nwrote {RESULTS_PATH}")
    service, ingest = results["service"], results["ingest"]
    print(
        f"batch_spread({service['users']}): "
        f"ndjson {service['transports']['ndjson']['best_seconds'] * 1e3:7.2f} ms  "
        f"binary {service['transports']['binary']['best_seconds'] * 1e3:7.2f} ms  "
        f"speedup {service['binary_speedup']:.2f}x"
    )
    print(
        f"ingest({ingest['pairs']} pairs, {ingest['shards']} shards): "
        f"in-process {ingest['runs']['in_process']['best_seconds']:6.2f} s  "
        f"shm x{ingest['runs']['shm']['workers']} "
        f"{ingest['runs']['shm']['best_seconds']:6.2f} s"
    )

    if not _STRICT:
        print("speedup bars informational (set FREESKETCH_BENCH_STRICT=1 to enforce)")
        return
    assert service["binary_speedup"] >= 3.0, (
        "binary must answer a 10k-user batch_spread at >=3x the NDJSON rate"
    )
