"""Low-level 64-bit mixing functions.

The scalar path uses the splitmix64 finaliser, a well-studied avalanche mix
(Steele et al., "Fast splittable pseudorandom number generators") that passes
the usual avalanche tests and is extremely cheap.  Arbitrary Python keys
(strings, bytes, tuples) are first folded to a 64-bit integer with blake2b,
which is deterministic and collision-resistant; integers skip that step and
go straight through the mixer, which is the common case on the hot path
because callers are encouraged to pre-encode users and items as integers.

A vectorised numpy implementation of the same mixer is provided so the
experiment harness can hash millions of edges per call.
"""

from __future__ import annotations

import hashlib
import struct

import numpy as np

MASK64 = 0xFFFFFFFFFFFFFFFF

_GOLDEN_GAMMA = 0x9E3779B97F4A7C15
_MIX_1 = 0xBF58476D1CE4E5B9
_MIX_2 = 0x94D049BB133111EB


def splitmix64(value: int) -> int:
    """Return the splitmix64 finaliser of ``value`` (a 64-bit integer).

    The function is a bijection on 64-bit integers with strong avalanche
    behaviour, so it is safe to derive many quantities (bucket index, rank,
    sampling decisions) from disjoint bit ranges of a single output.
    """
    z = (value + _GOLDEN_GAMMA) & MASK64
    z = ((z ^ (z >> 30)) * _MIX_1) & MASK64
    z = ((z ^ (z >> 27)) * _MIX_2) & MASK64
    return (z ^ (z >> 31)) & MASK64


def splitmix64_array(values: np.ndarray) -> np.ndarray:
    """Vectorised :func:`splitmix64` over an array of ``uint64`` values."""
    z = values.astype(np.uint64, copy=True)
    with np.errstate(over="ignore"):
        z += np.uint64(_GOLDEN_GAMMA)
        z = (z ^ (z >> np.uint64(30))) * np.uint64(_MIX_1)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(_MIX_2)
        z ^= z >> np.uint64(31)
    return z


def fold_key(key: object) -> int:
    """Fold an arbitrary hashable key into a 64-bit integer.

    Integers are used as-is (modulo 2**64); everything else is serialised and
    digested with blake2b, which keeps the result stable across processes.
    """
    if isinstance(key, (int, np.integer)):
        return int(key) & MASK64
    # Type tags keep values of different types from colliding (e.g. "42" vs
    # b"42"), which matters when users and items come from mixed sources.
    if isinstance(key, bytes):
        data = b"b:" + key
    elif isinstance(key, str):
        data = b"s:" + key.encode("utf-8")
    elif isinstance(key, tuple):
        data = b"t:" + repr(key).encode("utf-8")
    else:
        data = b"o:" + repr(key).encode("utf-8")
    digest = hashlib.blake2b(data, digest_size=8).digest()
    return struct.unpack("<Q", digest)[0]


# Backwards-compatible private alias (the fold was originally module-private).
_fold_key = fold_key


def fold_key_array(values: np.ndarray) -> np.ndarray:
    """Vectorised :func:`fold_key` for arrays of integer keys.

    Returns ``uint64`` folds that agree with ``fold_key(v)`` for every
    element, including the untrusted edges of the integer range:

    * negative ids fold to their two's complement (``v & MASK64``), matching
      the scalar path for signed dtypes;
    * ids ``>= 2**63`` arrive either as ``uint64`` arrays or as ``object``
      arrays of Python ints (numpy cannot represent a mix of negative and
      ``>= 2**63`` values in any fixed dtype) — both are folded per element
      with the scalar rules, so arbitrarily large Python ints wrap modulo
      ``2**64`` exactly like ``fold_key`` does.

    A plain ``astype(np.uint64)`` is *not* equivalent: for ``object`` arrays
    numpy raises ``OverflowError`` on negative values and refuses ints above
    ``2**64``, and float arrays would silently lose low bits, so those inputs
    are routed through the scalar fold.
    """
    array = np.asarray(values)
    if array.dtype.kind == "u":
        return array.astype(np.uint64, copy=False)
    if array.dtype.kind == "i":
        # Signed -> unsigned casts wrap modulo 2**64 (two's complement),
        # which is exactly the scalar `int(key) & MASK64`.
        return array.astype(np.int64).astype(np.uint64)
    return np.array([fold_key(value) for value in array.tolist()], dtype=np.uint64)


def hash64(key: object, seed: int = 0) -> int:
    """Return a deterministic 64-bit hash of ``key`` under ``seed``.

    Different seeds give (approximately) independent hash functions, which is
    how :class:`repro.hashing.family.HashFamily` builds the ``f_1 .. f_m``
    functions required by CSE and vHLL.
    """
    folded = fold_key(key)
    return splitmix64(folded ^ splitmix64(seed & MASK64))


def pair_key(user: object, item: object) -> int:
    """Return a seed-independent 64-bit key identifying a (user, item) edge.

    Equal edges map to equal keys.  ``hash_pair(user, item, seed)`` is defined
    as one extra mix of this key with the seed, which lets batch processors
    pre-compute the key once and re-mix it cheaply for any seed
    (see :meth:`repro.engine.EncodedBatch.pair_keys`).
    """
    hu = fold_key(user)
    hi = fold_key(item)
    return splitmix64(hu ^ _GOLDEN_GAMMA) ^ splitmix64(hi)


def hash_pair(user: object, item: object, seed: int = 0) -> int:
    """Return a 64-bit hash of a (user, item) edge.

    This is the ``h*(e)`` primitive of FreeBS/FreeRS: the hash depends on the
    *pair*, so duplicate edges always collide (a requirement for duplicate
    insensitivity) while distinct edges collide only by chance.
    """
    return splitmix64(pair_key(user, item) ^ splitmix64(seed & MASK64))


def hash64_array(values: np.ndarray, seed: int = 0) -> np.ndarray:
    """Vectorised :func:`hash64` for arrays of integer keys."""
    seed_mix = np.uint64(splitmix64(seed & MASK64))
    return splitmix64_array(values.astype(np.uint64) ^ seed_mix)


def to_unit_interval(hash_value: int) -> float:
    """Map a 64-bit hash to a float uniform in ``[0, 1)``.

    Only the top 53 bits are used so that the result is exactly representable
    as a double.
    """
    return (hash_value >> 11) / float(1 << 53)
