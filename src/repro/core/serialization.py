"""Snapshot serialization for every compared estimator.

Monitoring deployments need to checkpoint sketch state: a monitor restarts,
a snapshot is shipped to an analysis box, or an operator wants yesterday's
state next to today's.  This module serialises all six compared methods —
FreeBS / FreeRS, CSE, vHLL and the per-user LPC / HLL++ baselines — plus
:class:`repro.engine.ShardedEstimator` compositions of any of them, to a
compact, versioned, self-describing JSON + base85 payload, and restores them
exactly: estimates, shared-array state, counters and seeds round-trip so a
restored estimator continues the stream as if nothing happened.

Dispatch is codec-table driven: each estimator kind has one
:class:`_Codec` (kind tag, estimator class, dump/load functions).  The six
compared methods take their tag and class from the central method registry
(:mod:`repro.registry` — the ``MethodSpec.tag`` field), so the snapshot
format and the method layer cannot drift apart; the engine-level
``Sharded`` envelope is registered locally.

The ``FreeBSBatch`` / ``FreeRSBatch`` tags are **load-only**: they name the
dense-state batch classes that earlier releases kept beside FreeBS / FreeRS.
Their envelopes (``bits`` + ``zero_bits``; ``int64`` register ``values``)
restore as a plain :class:`FreeBS` / :class:`FreeRS` with the same shared
array, estimates and pair count, and are written back under the
``FreeBS`` / ``FreeRS`` tag.

Format history:

* version 1 — FreeBS / FreeRS (and the batch tags) only;
* version 2 — adds the ``CSE``, ``vHLL``, ``LPC``, ``HLL++`` and ``Sharded``
  kinds (sharded envelopes nest one sub-envelope per shard);
* version 3 — adds ``bytes`` / ``tuple`` key kinds and the columnar
  estimates payload (pure-int user populations ship as two base85 arrays —
  int64 keys + float64 values — instead of one JSON triple per user).
  Loaders dispatch on payload *shape*, and versions 1-2 still load.
  FreeBS / FreeRS bodies carry ``pairs_sampled``; bodies without it load
  with 0.

The format intentionally favours debuggability (a JSON envelope with the
array payload base85-encoded) over minimum size; the arrays dominate and are
stored raw, so the overhead is a few percent.
"""

from __future__ import annotations

from collections.abc import Callable

import base64
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.core.freebs import FreeBS
from repro.core.freers import FreeRS

PathLike = str | Path

_FORMAT_VERSION = 3

#: Payload versions this loader understands (older versions stay readable).
_ACCEPTED_VERSIONS = frozenset({1, 2, 3})

SerializableEstimator = FreeBS | FreeRS


def _encode_array(array: np.ndarray) -> str:
    return base64.b85encode(np.ascontiguousarray(array).tobytes()).decode("ascii")


def _decode_array(payload: str, dtype: np.dtype, count: int) -> np.ndarray:
    raw = base64.b85decode(payload.encode("ascii"))
    return np.frombuffer(raw, dtype=dtype, count=count).copy()


def _key_to_json(key: object) -> list:
    # JSON object keys must be strings; store (repr-tag, key) so integer and
    # string users round-trip without collision.  Bytes and tuples — the
    # other first-class user-key types — get their own tags so they survive
    # the round-trip as the same Python objects (a stringified tuple would
    # no longer match the interned key on restore).
    if isinstance(key, (int, np.integer)):
        return ["int", str(int(key))]
    if isinstance(key, bytes):
        return ["bytes", base64.b85encode(key).decode("ascii")]
    if isinstance(key, tuple):
        return ["tuple", [_key_to_json(part) for part in key]]
    return ["str", str(key)]


def _key_from_json(kind: str, key) -> object:
    if kind == "int":
        return int(key)
    if kind == "bytes":
        return base64.b85decode(key.encode("ascii"))
    if kind == "tuple":
        return tuple(_key_from_json(part_kind, part) for part_kind, part in key)
    return key


def _estimates_to_json(estimates: dict) -> list:
    return [[*_key_to_json(user), value] for user, value in estimates.items()]


def _estimates_from_json(triples: list) -> dict:
    return {_key_from_json(kind, key): float(value) for kind, key, value in triples}


def _estimates_payload(estimates: dict):
    """Estimates in wire form: columnar arrays for pure-int populations.

    The common case at scale — integer user ids — serialises as two base85
    arrays (int64 keys in first-seen order + float64 values) instead of one
    JSON triple per user, cutting both payload size and the per-user
    encode/decode work by an order of magnitude.  Mixed/non-int key sets
    keep the legacy triple list.  ``type(k) is int`` (not isinstance): bools
    must keep the legacy path's int coercion and floats must not silently
    truncate.
    """
    keys = list(estimates.keys())
    if keys and all(type(key) is int for key in keys):
        try:
            keys_arr = np.fromiter(keys, dtype=np.int64, count=len(keys))
        except OverflowError:  # ints beyond int64: legacy triples
            return _estimates_to_json(estimates)
        values_arr = np.fromiter(
            estimates.values(), dtype=np.float64, count=len(keys)
        )
        return {
            "encoding": "columnar-i64",
            "count": len(keys),
            "keys": _encode_array(keys_arr),
            "values": _encode_array(values_arr),
        }
    return _estimates_to_json(estimates)


def _estimates_from_payload(payload) -> dict:
    """Inverse of :func:`_estimates_payload`, dispatched on payload shape.

    Shape, not envelope version: a dict is the columnar form, a list the
    triple form — so envelopes whose version marker was rewritten (the
    compatibility tests do this) still load either body.
    """
    if isinstance(payload, dict):
        count = int(payload["count"])
        keys = _decode_array(payload["keys"], np.int64, count)
        values = _decode_array(payload["values"], np.float64, count)
        return dict(zip(keys.tolist(), values.tolist()))
    return _estimates_from_json(payload)


@dataclass(frozen=True)
class _Codec:
    """One snapshot kind: its tag, estimator class and state dump/load."""

    tag: str
    cls: type
    dump: Callable[[object], dict]
    load: Callable[[dict], object]
    #: The generic loader attaches the envelope's cached estimates after
    #: ``load``; the sharded envelope carries them inside its sub-envelopes.
    attach_estimates: bool = True


# -- per-kind state codecs -----------------------------------------------------


def _dump_sharded(estimator) -> dict:
    return {
        "shards": estimator.num_shards,
        "seed": estimator.seed,
        "shard_pairs": list(estimator.shard_pair_counts),
        "sub": [to_obj(shard) for shard in estimator.shards],
    }


def _load_sharded(body: dict):
    from repro.engine.sharded import ShardedEstimator

    shards = [_load_envelope(sub) for sub in body["sub"]]
    estimator = ShardedEstimator(
        lambda k: shards[k], shards=int(body["shards"]), seed=int(body["seed"])
    )
    estimator._shard_pairs = [int(count) for count in body["shard_pairs"]]
    return estimator


def _dump_freebs(estimator) -> dict:
    return {
        "memory_bits": estimator.M,
        "seed": estimator.seed,
        "pairs_processed": estimator.pairs_processed,
        "pairs_sampled": estimator.pairs_sampled,
        "words": _encode_array(estimator._bits._words),
        "ones": estimator._bits.ones,
    }


def _load_freebs(body: dict):
    estimator = FreeBS(body["memory_bits"], seed=body["seed"])
    _restore_bitarray(estimator._bits, body["words"], body["ones"])
    _restore_pair_counts(estimator, body)
    return estimator


def _load_freebs_batch(body: dict):
    """Legacy ``FreeBSBatch`` body: one bool per bit, restored into a FreeBS."""
    estimator = FreeBS(body["memory_bits"], seed=body["seed"])
    bits = _decode_array(body["bits"], np.bool_, estimator.M)
    estimator._bits.set_many(np.flatnonzero(bits))
    _restore_pair_counts(estimator, body)
    return estimator


def _dump_freers(estimator) -> dict:
    return {
        "registers": estimator.M,
        "register_width": estimator._registers.width,
        "seed": estimator.seed,
        "pairs_processed": estimator.pairs_processed,
        "pairs_sampled": estimator.pairs_sampled,
        "values": _encode_array(estimator._registers.values),
    }


def _load_freers(body: dict):
    estimator = FreeRS(
        body["registers"], register_width=body["register_width"], seed=body["seed"]
    )
    _restore_registers(estimator._registers, body["values"], estimator.M)
    _restore_pair_counts(estimator, body)
    return estimator


def _load_freers_batch(body: dict):
    """Legacy ``FreeRSBatch`` body: ``int64`` register values, restored into a FreeRS."""
    estimator = FreeRS(
        body["registers"], register_width=body["register_width"], seed=body["seed"]
    )
    _restore_registers(estimator._registers, body["values"], estimator.M, np.int64)
    _restore_pair_counts(estimator, body)
    return estimator


def _restore_pair_counts(estimator, body: dict) -> None:
    estimator._pairs_processed = int(body["pairs_processed"])
    estimator._pairs_sampled = int(body.get("pairs_sampled", 0))


def _dump_cse(estimator) -> dict:
    return {
        "memory_bits": estimator.M,
        "virtual_size": estimator.m,
        "seed": estimator.seed,
        "words": _encode_array(estimator._bits._words),
        "ones": estimator._bits.ones,
    }


def _load_cse(body: dict):
    from repro.baselines.cse import CSE

    estimator = CSE(
        body["memory_bits"], virtual_size=body["virtual_size"], seed=body["seed"]
    )
    _restore_bitarray(estimator._bits, body["words"], body["ones"])
    return estimator


def _dump_vhll(estimator) -> dict:
    return {
        "registers": estimator.M,
        "virtual_size": estimator.m,
        "register_width": estimator._registers.width,
        "seed": estimator.seed,
        "values": _encode_array(estimator._registers.values),
    }


def _load_vhll(body: dict):
    from repro.baselines.vhll import VirtualHLL

    estimator = VirtualHLL(
        body["registers"],
        virtual_size=body["virtual_size"],
        register_width=body["register_width"],
        seed=body["seed"],
    )
    _restore_registers(estimator._registers, body["values"], estimator.M)
    return estimator


def _dump_lpc(estimator) -> dict:
    return {
        "bits_per_user": estimator.bits_per_user,
        "seed": estimator.seed,
        "users": [
            [
                *_key_to_json(user),
                _encode_array(sketch._bits._words),
                sketch._bits.ones,
            ]
            for user, sketch in estimator._sketches.items()
        ],
    }


def _load_lpc(body: dict):
    from repro.baselines.per_user import PerUserLPC
    from repro.sketches.lpc import LinearProbabilisticCounter

    estimator = PerUserLPC(
        memory_bits=0,
        expected_users=1,
        bits_per_user=int(body["bits_per_user"]),
        seed=int(body["seed"]),
    )
    for key_kind, key, words, ones in body["users"]:
        sketch = LinearProbabilisticCounter(estimator.bits_per_user, seed=estimator.seed)
        _restore_bitarray(sketch._bits, words, ones)
        estimator._sketches[_key_from_json(key_kind, key)] = sketch
    return estimator


def _dump_hllpp(estimator) -> dict:
    return {
        "registers_per_user": estimator.registers_per_user,
        "register_width": estimator.register_width,
        "seed": estimator.seed,
        "users": [
            [*_key_to_json(user), _hllpp_state(sketch)]
            for user, sketch in estimator._sketches.items()
        ],
    }


def _load_hllpp(body: dict):
    from repro.baselines.per_user import PerUserHLLPP
    from repro.sketches.hllpp import HyperLogLogPlusPlus

    estimator = PerUserHLLPP(
        memory_bits=0,
        expected_users=1,
        registers_per_user=int(body["registers_per_user"]),
        register_width=int(body["register_width"]),
        seed=int(body["seed"]),
    )
    for key_kind, key, state in body["users"]:
        sketch = HyperLogLogPlusPlus(
            estimator.registers_per_user,
            width=estimator.register_width,
            seed=estimator.seed,
        )
        _restore_hllpp(sketch, state)
        estimator._sketches[_key_from_json(key_kind, key)] = sketch
    return estimator


#: Dump/load state functions per registry method name; tag and class come
#: from the registry spec itself so the two layers cannot disagree.
_METHOD_STATE_CODECS: dict[str, tuple] = {
    "FreeBS": (_dump_freebs, _load_freebs),
    "FreeRS": (_dump_freers, _load_freers),
    "CSE": (_dump_cse, _load_cse),
    "vHLL": (_dump_vhll, _load_vhll),
    "LPC": (_dump_lpc, _load_lpc),
    "HLL++": (_dump_hllpp, _load_hllpp),
}

_CODECS: list[_Codec] = []
_CODEC_BY_TAG: dict[str, _Codec] = {}


def _codecs() -> list[_Codec]:
    """Build (once) the codec table from the method registry + local kinds."""
    if _CODECS:
        return _CODECS
    # Imported lazily: repro.core.__init__ loads this module, and the
    # registry imports repro.core — a module-level import would cycle.
    from repro.engine.sharded import ShardedEstimator
    from repro.registry import REGISTRY

    # The Sharded envelope is checked first: it composes the other kinds.
    table = [_Codec("Sharded", ShardedEstimator, _dump_sharded, _load_sharded, False)]
    for name, spec in REGISTRY.items():
        dump, load = _METHOD_STATE_CODECS[name]
        table.append(_Codec(spec.tag, spec.estimator_cls, dump, load))
    # Load-only legacy tags: indexed for loading but kept out of the dump
    # table, so a restored estimator is written back under FreeBS / FreeRS.
    legacy = [
        _Codec("FreeBSBatch", FreeBS, _dump_freebs, _load_freebs_batch),
        _Codec("FreeRSBatch", FreeRS, _dump_freers, _load_freers_batch),
    ]
    # Fill the tag index before publishing the table: a non-empty _CODECS
    # tells other callers the index is ready.
    _CODEC_BY_TAG.update({codec.tag: codec for codec in table + legacy})
    _CODECS.extend(table)
    return _CODECS


def _dump_body(estimator) -> tuple:
    """Return ``(kind, body)`` for one estimator via the codec table."""
    for codec in _codecs():
        if isinstance(estimator, codec.cls):
            return codec.tag, codec.dump(estimator)
    raise TypeError(
        f"cannot serialise {type(estimator).__name__}; supported kinds: "
        "FreeBS, FreeRS, CSE, vHLL, LPC, HLL++ and "
        "Sharded compositions of them"
    )


def _hllpp_state(sketch) -> dict:
    """State of one private HLL++ sketch, preserving its representation."""
    if sketch._sparse is not None:
        # Entry order is preserved so densification (which replays the dict
        # in insertion order) happens on the same trajectory after a restore.
        return {
            "mode": "sparse",
            "entries": [[int(bucket), int(rank)] for bucket, rank in sketch._sparse.items()],
        }
    return {"mode": "dense", "values": _encode_array(sketch._registers.values)}


def _restore_hllpp(sketch, state: dict) -> None:
    if state["mode"] == "sparse":
        for bucket, rank in state["entries"]:
            sketch._sparse[int(bucket)] = int(rank)
        if len(sketch._sparse) > sketch._sparse_limit:
            sketch._densify()
    else:
        values = _decode_array(state["values"], np.uint8, sketch.m)
        sketch._sparse = None
        from repro.sketches.registers import RegisterArray

        registers = RegisterArray(sketch.m, width=sketch.width)
        for index in np.nonzero(values)[0]:
            registers.update(int(index), int(values[index]))
        sketch._registers = registers


def to_obj(estimator) -> dict:
    """Serialise an estimator to a JSON-ready envelope *dict*.

    The object-level half of :func:`dumps`: callers embedding snapshots in a
    larger JSON document (the monitor's :mod:`repro.monitor.snapshot`, the
    sharded sub-envelopes) use this directly instead of paying a render +
    re-parse round-trip per estimator.
    """
    kind, body = _dump_body(estimator)
    return {
        "format": "freesketch-snapshot",
        "version": _FORMAT_VERSION,
        "kind": kind,
        "estimates": (
            [] if kind == "Sharded" else _estimates_payload(estimator.estimates())
        ),
        "body": body,
    }


def dumps(estimator) -> str:
    """Serialise an estimator to a JSON string (see module doc for coverage)."""
    return json.dumps(to_obj(estimator))


def _restore_bitarray(bits, words_payload: str, ones: int) -> None:
    bits._words[:] = _decode_array(words_payload, np.uint64, len(bits._words))
    bits._ones = int(ones)


def _restore_registers(
    registers, values_payload: str, count: int, dtype: type = np.uint8
) -> None:
    # Replaying through update() keeps the incremental harmonic-sum and
    # zero-count bookkeeping on a clean trajectory (see RegisterArray).
    values = _decode_array(values_payload, dtype, count)
    for index in np.nonzero(values)[0]:
        registers.update(int(index), int(values[index]))


def _load_envelope(envelope: dict):
    kind = envelope["kind"]
    _codecs()
    codec = _CODEC_BY_TAG.get(kind)
    if codec is None:
        raise ValueError(f"unknown snapshot kind {kind!r}")
    estimator = codec.load(envelope["body"])
    if codec.attach_estimates:
        # Arena-backed estimators adopt the dict through their _estimates
        # property setter (interning users in mapping order).
        estimator._estimates = _estimates_from_payload(envelope["estimates"])
    return estimator


def from_obj(envelope: dict):
    """Restore an estimator from an already-parsed envelope dict.

    The inverse of :func:`to_obj` — validates the same format/version
    markers :func:`loads` does, without requiring the caller to re-serialise
    a dict it already holds (the snapshot-restore hot path loads every
    retained epoch through here).
    """
    if not isinstance(envelope, dict) or envelope.get("format") != "freesketch-snapshot":
        raise ValueError("not a freesketch snapshot payload")
    if envelope.get("version") not in _ACCEPTED_VERSIONS:
        raise ValueError(f"unsupported snapshot version {envelope.get('version')!r}")
    return _load_envelope(envelope)


def loads(payload: str):
    """Restore an estimator previously serialised with :func:`dumps`."""
    return from_obj(json.loads(payload))


def save(estimator, path: PathLike) -> None:
    """Serialise ``estimator`` to a file."""
    Path(path).write_text(dumps(estimator), encoding="utf-8")


def load(path: PathLike):
    """Restore an estimator from a file written by :func:`save`."""
    return loads(Path(path).read_text(encoding="utf-8"))
