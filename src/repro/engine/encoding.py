"""The engine's shared hash/encode pipeline.

Every estimator in this library ultimately consumes the same three hash
quantities per arriving (user, item) pair:

* a 64-bit fold of the *user* (CSE/vHLL derive the virtual-sketch positions
  from it, the sharding layer derives the shard id from it),
* a 64-bit fold of the *item* (CSE/vHLL derive the bucket and rank from it,
  the per-user baselines feed it to the private sketches),
* a seed-independent 64-bit *pair key* (FreeBS/FreeRS hash the pair as a
  whole; duplicate pairs must collide).

:class:`EncodedBatch` computes the folds once per batch and derives
everything else lazily, so one encoded batch can be replayed through any
number of estimators with any seeds.

All folds go through :func:`repro.hashing.fold_key` /
:func:`repro.hashing.fold_key_array`, which agree bit-for-bit with the scalar
estimators' hashing for every key type, including negative and ``>= 2**63``
integer ids.
"""

from __future__ import annotations

from collections.abc import Sequence

from dataclasses import dataclass, field

import numpy as np

from repro.hashing import MASK64, fold_key, fold_key_array, splitmix64, splitmix64_array
from repro.hashing.mix import _GOLDEN_GAMMA

UserItemPair = tuple[object, object]

_GAMMA64 = np.uint64(_GOLDEN_GAMMA)


def _as_exact_array(values: Sequence[object] | np.ndarray, name: str) -> np.ndarray:
    """Coerce encoder input to an array without losing integer precision.

    ``np.asarray`` turns a Python list that mixes negative ids with ids
    ``>= 2**63`` into ``float64`` — silently rounding distinct 64-bit ids
    onto each other.  Lists/tuples that coerce to an inexact dtype are
    rebuilt as ``object`` arrays (lossless, folded per element); float
    *arrays* are rejected because the damage already happened upstream.
    """
    array = np.asarray(values)
    if array.dtype.kind in "iuO":
        return array
    if not isinstance(values, np.ndarray):
        return np.array(list(values), dtype=object)
    raise TypeError(
        f"{name} must be an integer or object array, got dtype {array.dtype}; "
        "float dtypes cannot represent 64-bit ids exactly"
    )


def seed_mix(seed: int) -> np.uint64:
    """Return ``splitmix64(seed)`` as a ``uint64`` scalar (hash-seed premix).

    ``hash64(key, seed)`` and ``hash_pair(user, item, seed)`` both mix their
    key with ``splitmix64(seed & MASK64)``; pre-computing that constant keeps
    the vectorised paths down to a single xor + mix per element.
    """
    return np.uint64(splitmix64(seed & MASK64))


@dataclass
class EncodedBatch:
    """A batch of (user, item) pairs folded to integer arrays.

    Attributes
    ----------
    user_codes:
        ``int64`` array, one dense user code per pair (``users[code]`` is the
        original user object).
    user_hashes:
        ``uint64`` array, one raw 64-bit fold per *unique* user, aligned with
        ``users``.
    item_hashes:
        ``uint64`` array, one raw 64-bit item fold per pair.
    users:
        List mapping user codes back to the original user objects.
    """

    user_codes: np.ndarray
    user_hashes: np.ndarray
    item_hashes: np.ndarray
    users: list[object]
    _pair_keys: np.ndarray | None = field(default=None, repr=False, compare=False)

    def __len__(self) -> int:
        return int(self.user_codes.shape[0])

    @property
    def n_users(self) -> int:
        """Number of distinct users in the batch."""
        return len(self.users)

    def pair_keys(self) -> np.ndarray:
        """Seed-independent 64-bit pair keys, equal to ``pair_key(u, i)``.

        Computed lazily and cached: FreeBS/FreeRS need them, CSE/vHLL and the
        per-user baselines do not.
        """
        if self._pair_keys is None:
            user_folds = self.user_hashes[self.user_codes]
            self._pair_keys = splitmix64_array(user_folds ^ _GAMMA64) ^ splitmix64_array(
                self.item_hashes
            )
        return self._pair_keys

    def item_hashes_with_seed(self, seed: int) -> np.ndarray:
        """Per-pair ``hash64(item, seed)`` values (the item-hash hot path)."""
        return splitmix64_array(self.item_hashes ^ seed_mix(seed))

    def subset(self, mask: np.ndarray) -> EncodedBatch:
        """Return a new batch containing only the pairs selected by ``mask``.

        User codes are re-densified; the relative order of the selected pairs
        (and therefore every arrival-order-dependent estimate) is preserved.
        Used by the sharding layer to split one encoded batch across shards.
        """
        codes = self.user_codes[mask]
        items = self.item_hashes[mask]
        unique_codes, inverse = np.unique(codes, return_inverse=True)
        users = [self.users[int(code)] for code in unique_codes]
        return EncodedBatch(
            user_codes=inverse.astype(np.int64),
            user_hashes=self.user_hashes[unique_codes],
            item_hashes=items,
            users=users,
        )

    # -- constructors ---------------------------------------------------------

    @classmethod
    def from_pairs(cls, pairs: Sequence[UserItemPair]) -> EncodedBatch:
        """Encode arbitrary (user, item) pairs (one scalar fold per element)."""
        users: list[object] = []
        codes_of: dict[object, int] = {}
        user_folds: list[int] = []
        codes: list[int] = []
        item_folds: list[int] = []
        for user, item in pairs:
            code = codes_of.get(user)
            if code is None:
                code = len(users)
                codes_of[user] = code
                users.append(user)
                user_folds.append(fold_key(user))
            codes.append(code)
            item_folds.append(fold_key(item))
        return cls(
            user_codes=np.asarray(codes, dtype=np.int64),
            user_hashes=np.asarray(user_folds, dtype=np.uint64),
            item_hashes=np.asarray(item_folds, dtype=np.uint64),
            users=users,
        )

    @classmethod
    def from_int_arrays(cls, users: np.ndarray, items: np.ndarray) -> EncodedBatch:
        """Vectorised encoding for streams of integer users and items.

        Accepts signed, unsigned and ``object`` (big Python int) arrays; the
        folds match the scalar path for every representable id, including
        negative and ``>= 2**63`` values (see :func:`repro.hashing.fold_key_array`).
        Float arrays are rejected: they cannot represent 64-bit ids exactly,
        and silently folding them would merge distinct users.
        """
        users = _as_exact_array(users, "users")
        items = _as_exact_array(items, "items")
        if users.shape != items.shape:
            raise ValueError("users and items must have the same length")
        if users.ndim != 1:
            raise ValueError("users and items must be one-dimensional")
        item_folds = fold_key_array(items)
        unique_users, codes = np.unique(users, return_inverse=True)
        user_folds = fold_key_array(unique_users)
        return cls(
            user_codes=codes.astype(np.int64),
            user_hashes=user_folds,
            item_hashes=item_folds,
            users=[int(user) for user in unique_users],
        )

