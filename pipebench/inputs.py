"""Seeded (user, item) streams whose cardinality profile is seed-independent.

A stream is cut into *rounds* of :data:`EPOCH_PAIRS` pairs, one per monitor
epoch, and each round into :data:`BATCH_PAIRS`-pair ingest batches.  Which
user rank a pair belongs to follows a Weyl sequence pushed through the Zipf
CDF, and the item a user sends is the next slot of a per-user ring of item
slots.  Both depend only on the population size, so every seed
yields the same per-round multiset of (rank, distinct items).  The seed
picks the labels — which integer or dotted-quad address a rank and a slot
map to — and the order of pairs inside each batch.
"""

from __future__ import annotations

import math

import numpy as np

EPOCH_PAIRS = 1 << 14
BATCH_PAIRS = 2048
BATCHES_PER_ROUND = EPOCH_PAIRS // BATCH_PAIRS
#: Each user cycles through this many epochs' worth of item slots, so a
#: window longer than that sees repeated items.
RING_EPOCHS = 4

#: Fractional part of the golden ratio: the Weyl step of the rank sequence.
_WEYL_STEP = (math.sqrt(5.0) - 1.0) / 2.0
_MASK32 = (1 << 32) - 1
_MASK40 = (1 << 40) - 1


def dotted_quad(value: int) -> str:
    """Render a 32-bit integer as an IPv4-style dotted quad."""
    return f"{value >> 24 & 255}.{value >> 16 & 255}.{value >> 8 & 255}.{value & 255}"


class ZipfStream:
    """Round-by-round generator of one workload's pair stream.

    Parameters
    ----------
    seed:
        Picks user and item labels and the in-batch pair order.
    n_users:
        Population size; rank ``r`` (0-based) sends pairs at a rate
        proportional to ``1 / (r + 1)`` (Zipf with exponent 1).
    labels:
        ``"int"`` for 40-bit integer users and 32-bit integer items,
        ``"dotted"`` for dotted-quad string users and items.
    """

    def __init__(
        self,
        seed: int,
        n_users: int,
        labels: str = "int",
    ) -> None:
        if labels not in ("int", "dotted"):
            raise ValueError(f"labels must be 'int' or 'dotted', not {labels!r}")
        if n_users <= 0:
            raise ValueError("n_users must be positive")
        self.seed = seed
        self.n_users = n_users
        self.labels = labels
        weights = 1.0 / np.arange(1, n_users + 1, dtype=np.float64)
        self._cdf = np.cumsum(weights) / weights.sum()
        #: Expected pairs per round of each rank.
        self.rate = weights / weights.sum() * EPOCH_PAIRS
        self.ring = np.maximum(2, np.rint(self.rate * RING_EPOCHS)).astype(np.int64)
        self._sent = np.zeros(n_users, dtype=np.int64)
        self.rounds_emitted = 0
        rng = np.random.default_rng([seed, 0])
        # Affine maps with odd multipliers are bijections modulo a power of
        # two: distinct ranks get distinct users, distinct slots of one user
        # distinct items.
        user_mult = int(rng.integers(1, 1 << 31)) * 2 + 1
        user_base = int(rng.integers(0, 1 << 40))
        mask = _MASK40 if labels == "int" else _MASK32
        self._user_codes = (np.arange(n_users, dtype=np.int64) * user_mult + user_base) & mask
        self._item_mult = int(rng.integers(1, 1 << 30)) * 2 + 1
        self._item_base = rng.integers(0, 1 << 32, size=n_users, dtype=np.int64)
        if labels == "dotted":
            self._user_labels = [dotted_quad(code) for code in self._user_codes.tolist()]
        else:
            self._user_labels = self._user_codes.tolist()

    # -- labels ----------------------------------------------------------------

    def user_label(self, rank: int) -> object:
        """The label of user rank ``rank``."""
        return self._user_labels[rank]

    def user_labels(self, ranks: np.ndarray) -> list[object]:
        """Labels of many ranks, in order."""
        labels = self._user_labels
        return [labels[rank] for rank in ranks.tolist()]

    def hot_ranks(self) -> np.ndarray:
        """Ranks expected twice per round: the Weyl sequence puts each in every round."""
        return np.flatnonzero(self.rate >= 2.0)

    def pairs(self, ranks: np.ndarray, slots: np.ndarray) -> list[tuple[object, object]]:
        """Label (rank, slot) arrays as a list of (user, item) pairs."""
        items = (self._item_base[ranks] + slots * self._item_mult) & _MASK32
        if self.labels == "dotted":
            item_labels = [dotted_quad(item) for item in items.tolist()]
        else:
            item_labels = items.tolist()
        return list(zip(self.user_labels(ranks), item_labels))

    # -- rounds ----------------------------------------------------------------

    def next_round(self) -> tuple[np.ndarray, np.ndarray]:
        """The next round's (ranks, slots) arrays, in stream order."""
        start = self.rounds_emitted * EPOCH_PAIRS
        positions = np.arange(start + 1, start + EPOCH_PAIRS + 1, dtype=np.float64)
        uniform = np.mod(positions * _WEYL_STEP, 1.0)
        ranks = np.minimum(np.searchsorted(self._cdf, uniform, side="right"), self.n_users - 1)
        # Shuffle inside each batch: the seed reorders arrivals without
        # moving a pair across a batch (or epoch) boundary.
        rng = np.random.default_rng([self.seed, 1, self.rounds_emitted])
        for batch in range(BATCHES_PER_ROUND):
            view = ranks[batch * BATCH_PAIRS : (batch + 1) * BATCH_PAIRS]
            view[:] = view[rng.permutation(BATCH_PAIRS)]
        # The k-th pair a user ever sends takes slot k mod ring.
        order = np.argsort(ranks, kind="stable")
        sorted_ranks = ranks[order]
        group_start = np.r_[0, np.flatnonzero(np.diff(sorted_ranks)) + 1]
        group_size = np.diff(np.r_[group_start, len(ranks)])
        occurrence = np.empty(len(ranks), dtype=np.int64)
        occurrence[order] = np.arange(len(ranks)) - np.repeat(group_start, group_size)
        sent = self._sent[ranks] + occurrence
        self._sent += np.bincount(ranks, minlength=self.n_users)
        self.rounds_emitted += 1
        return ranks, sent % self.ring[ranks]

    def next_round_pairs(self) -> tuple[list[tuple[object, object]], np.ndarray, np.ndarray]:
        """The next round as labelled pairs plus its (ranks, slots) arrays."""
        ranks, slots = self.next_round()
        return self.pairs(ranks, slots), ranks, slots


def batches(round_pairs: list[tuple[object, object]]) -> list[list[tuple[object, object]]]:
    """Cut one round into its ingest batches."""
    return [
        round_pairs[start : start + BATCH_PAIRS]
        for start in range(0, len(round_pairs), BATCH_PAIRS)
    ]
