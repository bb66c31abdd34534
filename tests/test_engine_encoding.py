"""Tests for the engine's shared hash/encode pipeline.

The pipeline's contract is that every quantity it derives — folds, pair
keys, item hashes — agrees bit-for-bit with the scalar hashing the
estimators use, for *every* key the scalar path accepts.  The edge cases
exercised here (negative ids, ids at and above 2**63, arbitrarily large
Python ints) are exactly the ones the original ``astype(np.uint64)`` cast
got wrong for ``object`` arrays.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import FreeBS
from repro.engine import EncodedBatch
from repro.hashing import fold_key, fold_key_array, hash64, pair_key

EDGE_IDS = [
    0,
    1,
    -1,
    -(2**31),
    2**31,
    2**62,
    2**63 - 1,
    2**63,
    2**64 - 1,
]


class TestFoldKeyArray:
    def test_matches_scalar_for_signed_dtypes(self):
        values = np.array([0, 1, -1, -(2**63), 2**62, -17], dtype=np.int64)
        expected = [fold_key(int(v)) for v in values]
        assert fold_key_array(values).tolist() == expected

    def test_matches_scalar_for_unsigned_dtypes(self):
        values = np.array([0, 2**63, 2**64 - 1, 12345], dtype=np.uint64)
        expected = [fold_key(int(v)) for v in values]
        assert fold_key_array(values).tolist() == expected

    def test_matches_scalar_for_object_arrays(self):
        # A mix of negative and >= 2**63 values cannot be represented in any
        # fixed-width numpy dtype; it must still fold like the scalar path.
        values = np.array([-1, 2**63, -(2**70), 2**100, 5], dtype=object)
        expected = [fold_key(v) for v in values.tolist()]
        assert fold_key_array(values).tolist() == expected

    def test_matches_scalar_for_small_signed_dtypes(self):
        values = np.array([-1, -128, 127, 0], dtype=np.int8)
        expected = [fold_key(int(v)) for v in values]
        assert fold_key_array(values).tolist() == expected


class TestEncodeIntPairsEdgeIds:
    """Regression tests for the ``astype(np.uint64)`` edge of the int encoder."""

    @pytest.mark.parametrize(
        "dtype",
        [np.int64, np.uint64, object],
        ids=["int64", "uint64", "object"],
    )
    def test_keys_match_scalar_pair_key(self, dtype):
        if dtype is np.int64:
            ids = [v for v in EDGE_IDS if -(2**63) <= v < 2**63]
        elif dtype is np.uint64:
            ids = [v for v in EDGE_IDS if 0 <= v < 2**64]
        else:
            ids = EDGE_IDS + [-(2**70), 2**100]
        users = np.array(ids, dtype=dtype)
        items = np.array(list(reversed(ids)), dtype=dtype)
        batch = EncodedBatch.from_int_arrays(users, items)
        expected = [pair_key(int(u), int(i)) for u, i in zip(users, items)]
        assert batch.pair_keys().tolist() == expected
        for position, user in enumerate(users):
            assert batch.users[int(batch.user_codes[position])] == int(user)

    def test_negative_ids_round_trip_through_freebs(self):
        users = np.array([-1, -2, -1, -(2**40), 3], dtype=np.int64)
        items = np.array([10, 20, 10, -30, 2**62], dtype=np.int64)
        scalar = FreeBS(1 << 12, seed=4)
        batch = FreeBS(1 << 12, seed=4)
        for user, item in zip(users.tolist(), items.tolist()):
            scalar.update(user, item)
        batch.update_encoded(EncodedBatch.from_int_arrays(users, items))
        assert batch.estimates() == scalar.estimates()

    def test_huge_ids_round_trip_through_freebs(self):
        users = np.array([2**63, -1, 2**100, 2**63], dtype=object)
        items = np.array([1, 2, 3, 4], dtype=object)
        scalar = FreeBS(1 << 12, seed=4)
        batch = FreeBS(1 << 12, seed=4)
        for user, item in zip(users.tolist(), items.tolist()):
            scalar.update(user, item)
        batch.update_encoded(EncodedBatch.from_int_arrays(users, items))
        assert batch.estimates() == scalar.estimates()

    def test_mixed_range_python_lists_are_not_float_coerced(self):
        # np.asarray turns this mix into float64, which would silently merge
        # the two huge ids; the encoder must keep them exact.
        users = [-1, 2**63 + 1, 2**63 + 3]
        items = [10, 11, 12]
        batch = EncodedBatch.from_int_arrays(users, items)
        assert batch.n_users == 3
        expected = [pair_key(u, i) for u, i in zip(users, items)]
        assert batch.pair_keys().tolist() == expected

    def test_rejects_float_arrays(self):
        with pytest.raises(TypeError, match="float"):
            EncodedBatch.from_int_arrays(
                np.array([1.0, 2.0]), np.array([1, 2], dtype=np.int64)
            )

    def test_graphstream_to_int_arrays_keeps_mixed_range_ids_exact(self):
        from repro.streams.stream import GraphStream

        pairs = [(-1, 10), (2**63 + 1, 11), (2**63 + 3, 12)]
        users, items = GraphStream(pairs).to_int_arrays()
        batch = EncodedBatch.from_int_arrays(users, items)
        scalar = FreeBS(1 << 12, seed=4)
        for user, item in pairs:
            scalar.update(user, item)
        vectorised = FreeBS(1 << 12, seed=4)
        vectorised.update_encoded(batch)
        assert vectorised.estimates() == scalar.estimates()

    def test_rejects_mismatched_lengths(self):
        with pytest.raises(ValueError, match="same length"):
            EncodedBatch.from_int_arrays(np.array([1, 2]), np.array([1]))

    def test_rejects_multidimensional_input(self):
        with pytest.raises(ValueError, match="one-dimensional"):
            EncodedBatch.from_int_arrays(
                np.zeros((2, 2), dtype=np.int64), np.zeros((2, 2), dtype=np.int64)
            )


class TestEncodedBatch:
    def test_from_pairs_matches_from_int_arrays(self):
        users = np.array([5, 2, 5, 9, 2], dtype=np.int64)
        items = np.array([1, 1, 2, 3, 1], dtype=np.int64)
        from_arrays = EncodedBatch.from_int_arrays(users, items)
        from_pairs = EncodedBatch.from_pairs(list(zip(users.tolist(), items.tolist())))
        # User code *numbering* may differ (sorted vs first-seen), but every
        # derived hash quantity must be identical pair-for-pair.
        assert from_arrays.pair_keys().tolist() == from_pairs.pair_keys().tolist()
        assert from_arrays.item_hashes.tolist() == from_pairs.item_hashes.tolist()
        for position in range(len(from_arrays)):
            assert (
                from_arrays.users[int(from_arrays.user_codes[position])]
                == from_pairs.users[int(from_pairs.user_codes[position])]
            )

    def test_item_hashes_with_seed_matches_hash64(self):
        pairs = [("alice", "x"), ("bob", 42), ("alice", (1, 2))]
        batch = EncodedBatch.from_pairs(pairs)
        for position, (_, item) in enumerate(pairs):
            assert int(batch.item_hashes_with_seed(0xD1)[position]) == hash64(item, seed=0xD1)

    def test_subset_preserves_order_and_remaps_codes(self):
        pairs = [(u, i) for u in range(6) for i in range(3)]
        batch = EncodedBatch.from_pairs(pairs)
        mask = np.asarray([user % 2 == 0 for user, _ in pairs])
        sub = batch.subset(mask)
        kept = [pair for pair, keep in zip(pairs, mask) if keep]
        assert len(sub) == len(kept)
        assert sub.pair_keys().tolist() == [
            key for key, keep in zip(batch.pair_keys().tolist(), mask) if keep
        ]
        for position, (user, _) in enumerate(kept):
            assert sub.users[int(sub.user_codes[position])] == user

    def test_from_pairs_keys_match_pair_key(self):
        pairs = [("alice", "x"), ("bob", "y"), ("alice", "x")]
        batch = EncodedBatch.from_pairs(pairs)
        assert batch.pair_keys().tolist() == [pair_key(u, i) for u, i in pairs]
        assert batch.users[int(batch.user_codes[0])] == "alice"
        assert batch.user_codes[0] == batch.user_codes[2]
        assert batch.n_users == 2

    def test_from_int_arrays_keys_match_pair_key(self):
        users = np.array([1, 2, 3, 1], dtype=np.int64)
        items = np.array([10, 20, 30, 10], dtype=np.int64)
        batch = EncodedBatch.from_int_arrays(users, items)
        expected = [pair_key(int(u), int(i)) for u, i in zip(users, items)]
        assert batch.pair_keys().tolist() == expected
        assert batch.users[int(batch.user_codes[0])] == 1
        assert batch.user_codes[0] == batch.user_codes[3]
