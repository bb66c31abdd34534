"""Exact window counts and the output checks every run must pass."""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence

import math

ADDITIVE = "additive"
EXACT = "exact"

Pair = tuple[object, object]


def exact_window_counts(epochs: Iterable[Sequence[Pair]], semantics: str) -> dict[object, int]:
    """Per-user distinct-item counts over a window of epochs.

    ``exact`` counts each user's distinct items across the whole window (the
    union the mergeable sketches estimate); ``additive`` sums each epoch's
    distinct items (what FreeBS/FreeRS sliding sums estimate, so an item
    seen in two epochs counts twice).
    """
    if semantics not in (ADDITIVE, EXACT):
        raise ValueError(f"unknown semantics {semantics!r}")
    union: dict[object, set] = {}
    totals: dict[object, int] = {}
    for epoch in epochs:
        seen: dict[object, set] = {}
        for user, item in epoch:
            seen.setdefault(user, set()).add(item)
        for user, items in seen.items():
            if semantics == ADDITIVE:
                totals[user] = totals.get(user, 0) + len(items)
            else:
                union.setdefault(user, set()).update(items)
    if semantics == EXACT:
        return {user: len(items) for user, items in union.items()}
    return totals


def top_users(counts: Mapping[object, int], n: int) -> list[object]:
    """The ``n`` users with the largest counts (ties by first appearance)."""
    return sorted(counts, key=counts.__getitem__, reverse=True)[:n]


def answer_rse(
    estimates: Mapping[object, float], counts: Mapping[object, int], users: Sequence[object]
) -> float:
    """Relative standard error of ``estimates`` against ``counts`` over ``users``."""
    if not users:
        raise ValueError("need at least one user")
    total = 0.0
    for user in users:
        truth = counts[user]
        total += ((estimates.get(user, 0.0) - truth) / truth) ** 2
    return math.sqrt(total / len(users))


def check_top(
    top: Sequence[tuple[object, float]], estimates: Mapping[object, float], k: int
) -> list[str]:
    """Problems with ``top`` as the top-``k`` of ``estimates`` (empty: it is).

    Ties are compared by value: each reported user must carry exactly its
    estimate, and the reported values must equal the ``k`` largest
    estimates, so any user may stand for a tied one.
    """
    problems = []
    expected = sorted(estimates.values(), reverse=True)[:k]
    values = [value for _user, value in top]
    if values != expected:
        problems.append(f"top-{k} values {values} differ from the window's {expected}")
    for user, value in top:
        if estimates.get(user) != value:
            problems.append(f"top user {user!r} reports {value!r}, window has {estimates.get(user)!r}")
    return problems
