"""Sketch-level union merges across estimators of the same configuration.

The engine's :meth:`~repro.engine.ShardedEstimator.merge` combines *disjoint
shard sets* — the multi-worker contract, where every shard saw the same
sub-stream either way.  The monitoring subsystem needs the other merge: the
same configuration fed *different slices of time* (one estimator per epoch),
combined into one view of the union of the slices.  That is a union at the
sketch-state level: OR for bit arrays, element-wise max for register arrays.

Exactness contract (documented in docs/monitoring.md and asserted by the
test-suite):

* **CSE, vHLL, LPC, HLL++** are *mergeable*: their sketch state is an
  order-independent union (bits / register maxima), and their estimates are
  pure functions of that state.  Merging the per-epoch states and
  re-evaluating yields exactly the estimate a single estimator fed the
  concatenated epochs would report when asked to re-estimate from its final
  state (``estimate_fresh`` for the shared-sketch methods; the per-user
  baselines' cached estimates already equal the fresh ones).
* **FreeBS and FreeRS** are *not* mergeable in that sense: their per-user
  estimates are Horvitz–Thompson sums whose increments depend on the shared
  array's fill trajectory, which differs between one long run and several
  fresh epochs.  The merged estimate is defined as the **sum of the
  per-epoch estimates** — each epoch's estimate is an unbiased estimate of
  the epoch's distinct pairs, so the sum unbiasedly estimates the window
  total *plus* the cross-epoch duplicates (pairs re-appearing in a later
  epoch are counted again).  The sketch state still merges as a union so the
  combined estimator remains usable.
* **Sharded** estimators merge shard-by-shard and inherit the weaker of
  their shards' guarantees.

All merges require identical dimensioning and seeds on both sides — the
:class:`~repro.monitor.window.WindowedEstimator` guarantees this by building
every epoch from the same factory.
"""

from __future__ import annotations

from collections.abc import Sequence

import copy

import numpy as np

from repro.baselines.cse import CSE
from repro.baselines.per_user import PerUserHLLPP, PerUserLPC
from repro.baselines.vhll import VirtualHLL
from repro.core.freebs import FreeBS
from repro.core.freers import FreeRS
from repro.engine.sharded import ShardedEstimator

#: Merge semantics per estimator class: ``exact`` means the merged estimate
#: equals a single run's fresh re-estimate over the union stream;
#: ``additive`` means the merged estimate is the sum of per-part estimates.
EXACT = "exact"
ADDITIVE = "additive"


def merge_exactness(estimator: object) -> str:
    """Return the merge guarantee (:data:`EXACT` or :data:`ADDITIVE`) of an estimator."""
    if isinstance(estimator, ShardedEstimator):
        guarantees = {merge_exactness(shard) for shard in estimator.shards}
        return ADDITIVE if ADDITIVE in guarantees else EXACT
    if isinstance(estimator, (CSE, VirtualHLL, PerUserLPC, PerUserHLLPP)):
        return EXACT
    if isinstance(estimator, (FreeBS, FreeRS)):
        return ADDITIVE
    raise TypeError(f"no monitor merge support for {type(estimator).__name__}")


def _require(condition: bool, what: str) -> None:
    if not condition:
        raise ValueError(f"cannot merge: {what} must match on both sides")


def _merge_bitarray(target_bits, source_bits) -> None:
    target_bits.union_update(source_bits)


def _merge_registers(target_registers, source_registers) -> None:
    target_registers.merge_max(source_registers)


def _sum_estimates(target, source) -> None:
    for user, value in source._estimates.items():
        target._estimates[user] = target._estimates.get(user, 0.0) + value


def tracked_users(estimator) -> list:
    """Every user the estimator carries per-user state for, in stable order.

    Arena-backed estimators (CSE/vHLL) answer straight from the interner:
    every user with any per-user state is interned, and intern order is
    first-seen order.  For the dict-backed methods the authoritative user
    set is the union of the estimate cache and the positions cache: a
    snapshot-restored estimator has users only in ``_estimates`` (the
    positions cache rebuilds lazily), while a user whose estimate was never
    published would appear only in ``_positions_cache``.  Enumerating just
    one of the two — the bug this helper replaces — dropped users from
    sliding estimates.
    """
    arena = getattr(estimator, "_arena", None)
    if arena is not None:
        return arena.users()
    users = list(estimator._estimates)
    cache = getattr(estimator, "_positions_cache", None)
    if cache:
        seen = estimator._estimates
        users.extend(user for user in cache if user not in seen)
    return users


def merge_into(target, source, refresh_estimates: bool = True):
    """Union-merge ``source``'s sketch state and estimates into ``target``.

    ``target`` is mutated and returned; ``source`` is left untouched.  Both
    must be the same class with identical dimensioning and seeds (the
    windowed estimator's per-epoch factories guarantee this).

    ``refresh_estimates=False`` defers the re-evaluation of the exact
    methods' estimates (a per-user O(m) pass) — callers chaining several
    merges do one :func:`refresh_estimates` pass at the end instead of one
    per merge.  The additive methods' estimate sums always accumulate.
    """
    if type(target) is not type(source):
        raise TypeError(
            f"cannot merge {type(source).__name__} into {type(target).__name__}"
        )
    if isinstance(target, ShardedEstimator):
        _require(
            (target.num_shards, target.seed) == (source.num_shards, source.seed),
            "shard count and routing seed",
        )
        for shard_target, shard_source in zip(target._shards, source._shards):
            merge_into(shard_target, shard_source, refresh_estimates=refresh_estimates)
        target._shard_pairs = [
            ours + theirs
            for ours, theirs in zip(target._shard_pairs, source._shard_pairs)
        ]
        return target
    if isinstance(target, FreeBS):
        _require((target.M, target.seed) == (source.M, source.seed), "memory and seed")
        _merge_bitarray(target._bits, source._bits)
        _sum_estimates(target, source)
        target._pairs_processed += source._pairs_processed
        target._pairs_sampled += source._pairs_sampled
        return target
    if isinstance(target, FreeRS):
        _require(
            (target.M, target._registers.width, target.seed)
            == (source.M, source._registers.width, source.seed),
            "registers, width and seed",
        )
        _merge_registers(target._registers, source._registers)
        _sum_estimates(target, source)
        target._pairs_processed += source._pairs_processed
        target._pairs_sampled += source._pairs_sampled
        return target
    if isinstance(target, CSE):
        _require(
            (target.M, target.m, target.seed) == (source.M, source.m, source.seed),
            "memory, virtual size and seed",
        )
        _merge_bitarray(target._bits, source._bits)
        for user in source._estimates:
            target._estimates.setdefault(user, 0.0)
        if refresh_estimates:
            refresh_estimates_from_state(target)
        return target
    if isinstance(target, VirtualHLL):
        _require(
            (target.M, target.m, target._registers.width, target.seed)
            == (source.M, source.m, source._registers.width, source.seed),
            "registers, virtual size, width and seed",
        )
        _merge_registers(target._registers, source._registers)
        for user in source._estimates:
            target._estimates.setdefault(user, 0.0)
        if refresh_estimates:
            refresh_estimates_from_state(target)
        return target
    if isinstance(target, PerUserLPC):
        _require(
            (target.bits_per_user, target.seed) == (source.bits_per_user, source.seed),
            "per-user bits and seed",
        )
        return _merge_per_user(target, source, refresh_estimates)
    if isinstance(target, PerUserHLLPP):
        _require(
            (target.registers_per_user, target.register_width, target.seed)
            == (source.registers_per_user, source.register_width, source.seed),
            "per-user registers, width and seed",
        )
        return _merge_per_user(target, source, refresh_estimates)
    raise TypeError(f"no monitor merge support for {type(target).__name__}")


def _merge_per_user(target, source, refresh: bool):
    for user, sketch in source._sketches.items():
        mine = target._sketches.get(user)
        if mine is None:
            target._sketches[user] = copy.deepcopy(sketch)
        else:
            mine.merge(sketch)
        if refresh:
            target._estimates[user] = float(target._sketches[user].estimate())
        else:
            target._estimates.setdefault(user, 0.0)
    return target


def refresh_estimates_from_state(estimator) -> None:
    """Re-evaluate an exact-merge estimator's estimates from its sketch state.

    Estimates of the exact methods are pure functions of the (merged) state;
    additive methods keep their accumulated sums, so this is a no-op for
    them.
    """
    if isinstance(estimator, ShardedEstimator):
        for shard in estimator._shards:
            refresh_estimates_from_state(shard)
        return
    if isinstance(estimator, (CSE, VirtualHLL)):
        users = tracked_users(estimator)
        values = estimator.estimate_fresh_many(users)
        arena = getattr(estimator, "_arena", None)
        if arena is not None and len(users) == arena.n_users:
            # users is the full intern-order population: one column write.
            arena.set_all_estimates(np.asarray(values, dtype=np.float64))
            return
        for user, value in zip(users, values):
            estimator._estimates[user] = value
        return
    if isinstance(estimator, (PerUserLPC, PerUserHLLPP)):
        for user, sketch in estimator._sketches.items():
            estimator._estimates[user] = float(sketch.estimate())
        return


def fresh_estimates(estimator) -> dict[object, float]:
    """Per-user estimates re-evaluated from the estimator's current state.

    For CSE/vHLL the cached ``estimates()`` reflect the shared array *as of
    each user's last arrival* — correct for the paper's streaming protocol,
    but inconsistent with what a multi-epoch merge reports.  Sliding-window
    queries use this fresh view so a one-epoch window and a two-epoch window
    answer with the same semantics.  Read-only: ``estimator`` is untouched.
    """
    if isinstance(estimator, ShardedEstimator):
        combined: dict[object, float] = {}
        for shard in estimator._shards:
            combined.update(fresh_estimates(shard))
        return combined
    if isinstance(estimator, (CSE, VirtualHLL)):
        users = tracked_users(estimator)
        return dict(zip(users, estimator.estimate_fresh_many(users)))
    return estimator.estimates()


def merged_copy(estimators: Sequence):
    """Return a new estimator holding the union of the given epoch states.

    The copy's cached estimates are always refreshed from the merged state,
    *including* for a single-element input: a one-epoch "merge" of CSE/vHLL
    previously kept the as-of-last-arrival cached estimates, so
    ``window_merged(1).estimates()`` disagreed with ``window_estimates(1)``
    (which re-evaluates freshly) — stale values for every user not in the
    live epoch's latest batch.
    """
    if not estimators:
        raise ValueError("need at least one estimator to merge")
    merged = copy.deepcopy(estimators[0])
    for source in estimators[1:]:
        # Defer the exact methods' O(users x m) estimate re-evaluation to a
        # single pass after the last merge.
        merge_into(merged, source, refresh_estimates=False)
    refresh_estimates_from_state(merged)
    return merged


def merged_estimates(estimators: Sequence) -> dict[object, float]:
    """Per-user estimates over the union of the given epoch states.

    Single-epoch queries short-circuit to a fresh (no-copy) re-evaluation of
    the epoch's state, so the answer's semantics do not depend on how many
    epochs the window currently holds.
    """
    if len(estimators) == 1:
        return fresh_estimates(estimators[0])
    return merged_copy(estimators).estimates()
