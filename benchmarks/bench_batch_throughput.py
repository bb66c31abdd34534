"""Throughput of the engine's vectorised batch paths vs the scalar paths.

Not a paper artefact: with the engine layer, *every* compared method has
both a scalar and a vectorised update path producing bit-identical results,
so the cross-method throughput comparison is vectorised-vs-vectorised — this
benchmark sweeps all six methods under both engines, guards the batch
speedups against regressions, and emits a machine-readable JSON file
(``benchmarks/results/BENCH_batch_throughput.json``) for the perf trajectory.

The acceptance bar enforced here: the CSE and vHLL batch paths — whose
scalar twins pay an O(m) estimate refresh per pair — must be at least 5x
faster per pair; FreeBS keeps its historical 3x bar.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import numpy as np
import pytest

from repro.baselines import CSE, PerUserHLLPP, PerUserLPC, VirtualHLL
from repro.core import FreeBS, FreeRS
from repro.engine import DEFAULT_CHUNK_PAIRS, EncodedBatch

RESULTS_PATH = Path(__file__).resolve().parent / "results" / "BENCH_batch_throughput.json"

_RNG = np.random.default_rng(17)
_USERS = _RNG.integers(0, 500, size=50_000)
_ITEMS = _RNG.integers(0, 20_000, size=50_000)
_PAIRS = [(int(user), int(item)) for user, item in zip(_USERS, _ITEMS)]

#: Scalar paths are orders of magnitude slower; time them on a prefix and
#: normalise per pair.
_SCALAR_PAIRS = _PAIRS[:5_000]

METHOD_FACTORIES = {
    "FreeBS": lambda: FreeBS(1 << 20, seed=1),
    "FreeRS": lambda: FreeRS((1 << 20) // 5, seed=1),
    "CSE": lambda: CSE(1 << 20, virtual_size=256, seed=1),
    "vHLL": lambda: VirtualHLL((1 << 20) // 5, virtual_size=256, seed=1),
    "LPC": lambda: PerUserLPC(1 << 20, expected_users=500, seed=1),
    "HLL++": lambda: PerUserHLLPP(1 << 20, expected_users=500, seed=1),
}

#: Vectorised chunk length used by the batch measurements — the engine's
#: default ``process`` chunking, imported so the two stay in lockstep.
_CHUNK = DEFAULT_CHUNK_PAIRS


#: Timing repeats per measurement; the minimum is reported (standard noise
#: suppression — the true cost is the least-interrupted run).
_REPEATS = 3


def _scalar_seconds_per_pair(method: str) -> float:
    best = float("inf")
    for _ in range(_REPEATS):
        estimator = METHOD_FACTORIES[method]()
        start = time.perf_counter()
        for user, item in _SCALAR_PAIRS:
            estimator.update(user, item)
        best = min(best, (time.perf_counter() - start) / len(_SCALAR_PAIRS))
    return best


def _batch_seconds_per_pair(method: str) -> float:
    best = float("inf")
    for _ in range(_REPEATS):
        estimator = METHOD_FACTORIES[method]()
        start = time.perf_counter()
        for chunk_start in range(0, len(_USERS), _CHUNK):
            chunk = EncodedBatch.from_int_arrays(
                _USERS[chunk_start : chunk_start + _CHUNK],
                _ITEMS[chunk_start : chunk_start + _CHUNK],
            )
            estimator.update_encoded(chunk)
        best = min(best, (time.perf_counter() - start) / len(_USERS))
    return best


@pytest.mark.parametrize("method", sorted(METHOD_FACTORIES))
def test_scalar_engine_throughput(benchmark, method):
    """Per-pair cost of the scalar path, one benchmark point per method."""

    def run():
        estimator = METHOD_FACTORIES[method]()
        for user, item in _SCALAR_PAIRS[:1_000]:
            estimator.update(user, item)
        return estimator

    benchmark(run)


@pytest.mark.parametrize("method", sorted(METHOD_FACTORIES))
def test_batch_engine_throughput(benchmark, method):
    """Per-pair cost of the vectorised path, one benchmark point per method."""

    def run():
        estimator = METHOD_FACTORIES[method]()
        for start in range(0, len(_PAIRS), _CHUNK):
            estimator.update_batch(_PAIRS[start : start + _CHUNK])
        return estimator

    benchmark.pedantic(run, rounds=1, iterations=1)


def test_engine_sweep_speedups_and_json(benchmark):
    """Sweep all six methods under both engines; persist machine-readable JSON.

    Asserts the acceptance bars: >= 5x per-pair speedup for CSE and vHLL
    (whose scalar paths are O(m) per pair), >= 3x for FreeBS (its
    historical bar).
    """

    def sweep():
        results = {}
        for method in METHOD_FACTORIES:
            scalar_cost = _scalar_seconds_per_pair(method)
            batch_cost = _batch_seconds_per_pair(method)
            results[method] = {
                "scalar_seconds_per_pair": scalar_cost,
                "batch_seconds_per_pair": batch_cost,
                "speedup": scalar_cost / batch_cost,
            }
        return results

    results = benchmark.pedantic(sweep, rounds=1, iterations=1)

    payload = {
        "pairs": len(_PAIRS),
        "scalar_pairs_timed": len(_SCALAR_PAIRS),
        "chunk": _CHUNK,
        "methods": results,
    }
    RESULTS_PATH.parent.mkdir(parents=True, exist_ok=True)
    RESULTS_PATH.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    print(f"\nwrote {RESULTS_PATH}")
    for method, row in results.items():
        print(
            f"{method:8s} scalar={row['scalar_seconds_per_pair'] * 1e6:9.2f}us/pair "
            f"batch={row['batch_seconds_per_pair'] * 1e6:9.2f}us/pair "
            f"speedup={row['speedup']:6.1f}x"
        )

    assert results["CSE"]["speedup"] >= 5.0, "CSE batch path must be >=5x faster"
    assert results["vHLL"]["speedup"] >= 5.0, "vHLL batch path must be >=5x faster"
    assert results["FreeBS"]["speedup"] >= 3.0, "FreeBS batch path must be >=3x faster"
