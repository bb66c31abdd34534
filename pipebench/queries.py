"""The query mix the ingest workloads answer between batches."""

from __future__ import annotations

import numpy as np

from pipebench.inputs import ZipfStream

#: One deck of 50 queries, reshuffled per deck: exact shares in every run.
DECK = (("spread", 27), ("batch_spread", 13), ("topk", 9), ("sliding", 1))
BATCH_SPREAD_USERS = 1000
TOPK_K = 10


class QueryPlan:
    """Seeded request generator.

    ``spread`` asks for any user of the population (misses included);
    ``batch_spread`` asks for users expected in every epoch, so its answer
    takes the all-hit gather path; ``sliding`` merges the whole window under
    the ingest lock.
    """

    def __init__(self, seed: int, stream: ZipfStream) -> None:
        self._rng = np.random.default_rng([seed, 2])
        # The op order does not depend on the seed: every run meets its
        # sliding queries (and their allocations) at the same positions.
        self._order_rng = np.random.default_rng(2)
        self._stream = stream
        self._hot = stream.hot_ranks()
        self._deck: list[str] = []
        self._next_id = 0

    def next_request(self) -> dict[str, object]:
        """The next request (``id`` included)."""
        if not self._deck:
            deck = [op for op, count in DECK for _ in range(count)]
            self._deck = [deck[index] for index in self._order_rng.permutation(len(deck))]
        op = self._deck.pop()
        self._next_id += 1
        request: dict[str, object] = {"id": self._next_id, "op": op}
        if op == "spread":
            request["user"] = self._stream.user_label(int(self._rng.integers(self._stream.n_users)))
        elif op == "batch_spread":
            request["users"] = self.hot_sample()
        elif op == "topk":
            request["k"] = TOPK_K
        return request

    def hot_sample(self) -> list[object]:
        """``BATCH_SPREAD_USERS`` users drawn from the always-present ranks."""
        ranks = self._rng.choice(self._hot, size=BATCH_SPREAD_USERS)
        return self._stream.user_labels(ranks)
