"""Unified vectorised sketch-engine layer.

The engine separates the three concerns every estimator in this library
mixes on its hot path:

* **encoding** (:mod:`repro.engine.encoding`) — one shared hash/encode
  pipeline that folds (user, item) pairs to integer arrays once and derives
  every estimator-specific hash (pair keys, item hashes, virtual-sketch
  positions, shard ids) from the folds;
* **kernels** (:mod:`repro.engine.kernels`) — storage-agnostic vectorised
  change-event detection and time-travel lookups, shared by the FreeBS /
  FreeRS / CSE / vHLL batch paths;
* **interface** (:mod:`repro.engine.base`) — the :class:`BatchUpdatable`
  mixin plus :func:`process_stream`, the chunked fast path that
  :meth:`repro.core.base.CardinalityEstimator.process` routes through by
  default.

On top of those, :mod:`repro.engine.sharded` partitions users across ``K``
independent sub-sketches with mergeable state for multi-worker replay.

Every batch path is bit-identical to its scalar twin (asserted by the
test-suite on randomized streams), so the cross-method throughput benchmarks
compare vectorised implementations against vectorised implementations.
"""

from repro.engine.base import (
    DEFAULT_CHUNK_PAIRS,
    BatchUpdatable,
    hot_path,
    process_stream,
    supports_batch,
)
from repro.engine.encoding import EncodedBatch, seed_mix
from repro.engine.query import (
    gather_cached_estimates,
    positions_matrix_for_users,
    row_harmonic_sums,
    row_register_values,
    row_zero_bit_counts,
    row_zero_counts,
)
from repro.engine.sharded import ShardedEstimator, route_pair_shards, route_user_hashes

__all__ = [
    "DEFAULT_CHUNK_PAIRS",
    "BatchUpdatable",
    "EncodedBatch",
    "ShardedEstimator",
    "gather_cached_estimates",
    "hot_path",
    "positions_matrix_for_users",
    "process_stream",
    "route_pair_shards",
    "route_user_hashes",
    "row_harmonic_sums",
    "row_register_values",
    "row_zero_bit_counts",
    "row_zero_counts",
    "seed_mix",
    "supports_batch",
]
