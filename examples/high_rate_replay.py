"""High-rate replay: the vectorised batch path plus checkpointing.

Two production concerns the scalar streaming API does not cover:

* replaying a large recorded trace quickly (the pure-Python per-pair loop is
  the bottleneck, not the sketch math) — solved by the estimators'
  vectorised ``update_encoded`` path over a ``repro.engine.EncodedBatch``,
  exactly equivalent to the per-pair loop;
* surviving a monitor restart — solved by the snapshot serialisation in
  ``repro.core.serialization``.

This example generates a 200k-pair trace, replays it in batches with
``FreeRS`` while checkpointing after every batch, then "crashes",
restores the latest checkpoint and finishes the replay, verifying that the
result is identical to an uninterrupted run.

Run with::

    python examples/high_rate_replay.py
"""

from __future__ import annotations

import tempfile
import time
from pathlib import Path

import numpy as np

from repro.core import FreeRS
from repro.core import serialization
from repro.engine import EncodedBatch

REGISTERS = (1 << 20) // 5
PAIR_COUNT = 200_000
BATCH_SIZE = 50_000


def make_trace(count: int, seed: int = 7):
    rng = np.random.default_rng(seed)
    users = rng.zipf(1.4, size=count) % 5_000
    items = rng.integers(0, 50_000, size=count)
    return users.astype(np.int64), items.astype(np.int64)


def main() -> None:
    users, items = make_trace(PAIR_COUNT)
    checkpoint_dir = Path(tempfile.mkdtemp(prefix="freesketch-"))

    # --- uninterrupted replay (reference) ---------------------------------
    reference = FreeRS(REGISTERS, seed=1)
    start = time.perf_counter()
    reference.update_encoded(EncodedBatch.from_int_arrays(users, items))
    elapsed = time.perf_counter() - start
    print(f"replayed {PAIR_COUNT} pairs in {elapsed:.2f}s "
          f"({PAIR_COUNT / elapsed / 1e6:.2f}M pairs/s) with the batch path")

    # --- replay with checkpoints, interrupted half way ---------------------
    monitor = FreeRS(REGISTERS, seed=1)
    checkpoint = checkpoint_dir / "monitor.json"
    crash_after = PAIR_COUNT // 2
    for start_index in range(0, crash_after, BATCH_SIZE):
        stop = min(start_index + BATCH_SIZE, crash_after)
        monitor.update_encoded(
            EncodedBatch.from_int_arrays(users[start_index:stop], items[start_index:stop])
        )
        serialization.save(monitor, checkpoint)
    print(f"'crash' after {crash_after} pairs; checkpoint at {checkpoint}")

    restored = serialization.load(checkpoint)
    for start_index in range(crash_after, PAIR_COUNT, BATCH_SIZE):
        stop = min(start_index + BATCH_SIZE, PAIR_COUNT)
        restored.update_encoded(
            EncodedBatch.from_int_arrays(users[start_index:stop], items[start_index:stop])
        )

    # --- verify the restored run matches the uninterrupted one -------------
    reference_estimates = reference.estimates()
    restored_estimates = restored.estimates()
    max_diff = max(
        abs(reference_estimates[user] - restored_estimates.get(user, 0.0))
        for user in reference_estimates
    )
    print(f"restored-run vs uninterrupted-run max estimate difference: {max_diff:.3g}")
    heavy = sorted(restored_estimates.items(), key=lambda kv: kv[1], reverse=True)[:5]
    print("top estimated users after restore:", [(int(u), round(v)) for u, v in heavy])


if __name__ == "__main__":
    main()
